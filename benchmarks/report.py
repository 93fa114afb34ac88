"""Print every benchmark metric by name with its unit, and self-time shares.

    python3 benchmarks/report.py --seed 1

Runs ``run.py`` once untraced and once traced for each workload (about five
minutes in all), then prints the end-to-end metrics, the per-layer metrics,
the output-check tallies, and each workload's self-time shares from the
traced run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
SECONDS = CONFIG["run_seconds"]


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result line, full record) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    environment = None
    for workload in WORKLOADS:
        print(f"== {workload} (seed {args.seed}, {SECONDS} s per run)")
        for trace in (0, 1):
            result, detail = run(workload, args.seed, trace)
            environment = detail["environment"]
            print(f"-- {'per-layer (traced)' if trace else 'end to end (untraced)'}: "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} failed_ratio={detail['failed_ratio']:.4g}")
            for name, metric in result["metrics"].items():
                print(f"   {name:<52} {metric['value']:>14.6g} {metric['unit']}")
            if not trace:
                q = detail["cell_s_quartiles"]
                print(f"   cell_s quartiles {q[0]:.4g} / {q[1]:.4g} / {q[2]:.4g} s "
                      f"over {detail['cells']} cells; set-up samples "
                      + ", ".join(f"{s:.3g}" for s in detail["setup_s_each"]) + " s")
            else:
                print("-- self-time shares of a traced cell")
                for name, share in detail["self_time_shares"].items():
                    if share >= 0.001:
                        print(f"   {name:<52} {100 * share:>6.1f} %")
    print("== environment")
    for key, value in environment.items():
        print(f"   {key:<34} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
