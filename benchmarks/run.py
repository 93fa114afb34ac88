"""nbspectra benchmark: experiment cells timed end to end and per layer.

    python3 benchmarks/run.py --workload lift --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and imports the program from its ``src/``.
Each run starts ``WORKERS`` fresh processes one after another.  Each worker
sets up (interpreter start, import, input files, one warm-up cell), then runs
cells through ``nbspectra.cli.main`` until its share of ``--seconds`` is
used.  With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` each cell is run untraced and then traced, and the line
holds the per-layer metrics.  The line before it is the full record (cell
quartiles, counters, self-time shares, environment), also written to
``benchmarks/.work/<workload>/result_trace<t>.json``.

A worker still running at the run's deadline is killed: the cells it
finished still count, and the one it was running counts as failed.  A
worker is not started when the time left is less than the slowest earlier
worker took, so a slow program gives fewer samples rather than failures.
The run exits 1 without a result only when it has no sample of some metric.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from envinfo import environment

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"

# Several fresh processes per run: the same cell's time moves between
# processes on a shared host (see NOTES.md), and set-up needs several samples.
WORKERS = 3


def run_deadline_s(seconds: float) -> float:
    """Wall-time budget of a run: set-up allowance plus a multiple of --seconds.

    A run usually takes 2 to 3 times --seconds untraced, 4 times traced;
    at --seconds 15 the budget is 170 s.
    """
    return 50.0 + 8.0 * seconds

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}

# metric name -> span (self seconds) or counter name inside a traced cell
_SPAN_OF = {
    "nbmatrix.exact_int_dot.float_self_s": "nbmatrix.exact_int_dot.float",
    "nbmatrix.exact_int_dot.object_self_s": "nbmatrix.exact_int_dot.object",
    "cli.self_s": "cli",
}
_COUNTER_OF = {
    "nbmatrix.exact_int_dot.float_calls": "nbmatrix.exact_int_dot.float.calls",
    "nbmatrix.exact_int_dot.object_calls": "nbmatrix.exact_int_dot.object.calls",
    "random_models.pairing_attempts": "random_models.pairing_attempts",
}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def run_worker(config: dict, deadline: float) -> dict:
    """Run one worker to its end or the deadline; return what it reported."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"),
                             json.dumps(config)],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    report = {"setup": None, "cells": [], "result": None}
    try:
        for line in proc.stdout:
            if line.strip() == "READY":
                report["setup"] = time.perf_counter() - start
            elif line.startswith("CELL "):
                report["cells"].append(json.loads(line[len("CELL "):]))
            elif line.startswith("RESULT "):
                report["result"] = json.loads(line[len("RESULT "):])
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    report["seconds"] = time.perf_counter() - start
    if report["result"] is None:
        report["error"] = (f"{Path(config['work']).name} ended without a result "
                           f"(exit {proc.returncode}) after {report['seconds']:.1f} s")
    return report


def per_layer(records: list[dict], results: list[dict]) -> tuple[dict, dict, dict]:
    """Per-cell means over traced cells, plus self-time shares."""
    traced = [r for r in records if r["kind"] == "trace"]
    cells = len(traced)
    self_s = defaultdict(float)
    counters = defaultdict(int)
    for record in traced:
        for name, value in record["self_s"].items():
            self_s[name] += value
        for name, value in record["counters"].items():
            counters[name] += value
    metrics = {}
    for name in PER_LAYER:
        if name in _SPAN_OF or name.endswith(".self_s"):
            metrics[name] = self_s[_SPAN_OF.get(name, name.removesuffix(".self_s"))] / cells
        elif name in _COUNTER_OF or name.endswith((".calls", ".points")):
            metrics[name] = counters[_COUNTER_OF.get(name, name)] / cells
    metrics["spectra.laws.moment_criterion_report.first_call_s"] = statistics.median(
        res["first_call_s"].get("spectra.laws.moment_criterion_report", 0.0)
        for res in results)
    metrics["spectra.eigen.eigenvalues_symmetric.max_order"] = max(
        res["max_order"] for res in results)
    attempts = counters["random_models.pairing_attempts"]
    metrics["random_models.pairing_accept_ratio"] = (
        counters["random_models.pairing_accepted"] / attempts if attempts else 0.0)
    metrics["cli.cells"] = cells
    metrics["trace.overhead_s"] = statistics.median(r["pair_diff"] for r in traced)
    metrics = {name: metrics[name] for name in PER_LAYER}
    total = statistics.fmean(r["wall"] for r in traced)
    shares = {name: value / cells / total
              for name, value in sorted(self_s.items(), key=lambda kv: -kv[1])}
    first = traced[0]["counters"]
    return metrics, shares, first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in CONFIG["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nbspectra" / "__init__.py").is_file():
        print(f"error: no nbspectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    deadline = time.perf_counter() + run_deadline_s(args.seconds)
    reports = []
    for index in range(WORKERS):
        slowest = max((r["seconds"] for r in reports), default=0.0)
        if time.perf_counter() + slowest > deadline:
            break
        config = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "offset": index * 5,
                  "share_seconds": args.seconds / WORKERS,
                  "replay": index == 0,
                  "work": str(work / f"worker{index}")}
        Path(config["work"]).mkdir(parents=True)
        reports.append(run_worker(config, deadline))

    records = [r for rep in reports for r in rep["cells"]]
    results = [rep["result"] for rep in reports if rep["result"] is not None]
    setups = [rep["setup"] for rep in reports if rep["setup"] is not None]
    errors = [r["error"] for r in records if r["error"]]
    errors += [rep["error"] for rep in reports if "error" in rep]
    errors += [res["replay_error"] for res in results if res.get("replay_error")]
    replays = sum("replay_error" in res for res in results)
    # every cell run, the cell each dead worker was running, and the replay
    attempted = len(records) + len(reports) - len(results) + replays
    failed = len(errors)
    untraced = [r for r in records if r["kind"] == "cell"]
    walls = [r["wall"] for r in untraced]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": len(reports),
        "setup_s_each": setups,
        "worker_s_each": [rep["seconds"] for rep in reports],
        "cells": len(walls),
        "cell_s_quartiles": quartiles(walls) if walls else None,
        "cell_cpu_s_quartiles": quartiles([r["cpu"] for r in untraced]) if walls else None,
        "peak_rss_mb_each": [res["rss_mb"] for res in results],
        "replayed": bool(replays),
        "failed_ratio": failed / attempted,
        "errors": errors[:10],
    }
    if not (walls and setups and results) or (
            args.trace and not any(r["kind"] == "trace" for r in records)):
        print(json.dumps(detail))
        print("error: no sample of some metric; see the record above", file=sys.stderr)
        return 1
    if args.trace:
        metrics, detail["self_time_shares"], detail["first_cell_counters"] = \
            per_layer(records, results)
        units = PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "cell_s": statistics.median(walls),
                   "cell_cpu_s": statistics.median(r["cpu"] for r in untraced),
                   "peak_rss_mb": statistics.median(res["rss_mb"] for res in results)}
        units = END_TO_END
    detail["environment"] = environment()
    detail["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    (work / f"result_trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": detail["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
