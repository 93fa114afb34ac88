"""Alternating parent/change pairs of the benchmark, collected into one BENCH file.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --seed 1001 \\
        --pairs 5 --workdir /tmp/bench --out BENCH_<n>.json

Each side is the committed tree of one revision, exported with ``git archive``
into its own directory under ``--workdir``, so uncommitted files play no part.
Both sides run their own copy of ``benchmarks/run.py`` unchanged, untraced, for
the ``run_seconds`` the change's ``BENCHMARK.json`` sets.  Pair i of a workload
uses seed ``--seed + i`` on both sides; the parent runs first in even pairs and
the change first in odd ones.  The ``--pairs`` pairs run once at the default
BLAS thread count and once with ``OPENBLAS_NUM_THREADS=1`` (the workers inherit
the environment).

The output holds, per side, the revision and the size of its ``src/``
(``scripts/src_stats.py``: lines and public names), so a change in size sits
beside its timings; and per thread setting, the environment block of the
first run, every run's end-to-end metrics and failure counts, and per
workload and metric each side's median and quartiles, the number of pairs
the change won (a tie counts for neither side), whether a gain is claimable,
whether the change is worse than its bound and whether the parent's spread is
too wide to tell (see ``summarize``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from src_stats import src_stats

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def export(rev: str, dest: Path) -> dict:
    """Write the committed tree of ``rev`` to ``dest``; return its identity
    and the size of its ``src/``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)

    def parse(spec):
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", spec], check=True,
                              capture_output=True, text=True).stdout.strip()
    lines, names = src_stats(dest / "src")
    return {"rev": rev, "commit": parse(f"{rev}^{{commit}}"), "src_tree": parse(f"{rev}:src"),
            "src_lines": lines, "public_names": names}


def run_once(tree: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One untraced benchmark run: its summary line plus the full record."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"exit": proc.returncode, "error": proc.stderr.strip()[-500:]}
    summary, detail = json.loads(lines[-1]), json.loads(lines[-2])
    return {"exit": 0, "correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
            "environment": detail["environment"]}


def failed_of_attempted(runs: list[dict]) -> dict:
    """Per side, [failed, attempted] operations summed over the runs; a run
    that crashed counts as one failed of one attempted."""
    return {side: [sum(r[side].get(k, 1) for r in runs) for k in ("failed", "attempted")]
            for side in SIDES}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the pairs the change won,
    ``claim_met`` (at least ten pairs ran, it won at least 9 of 10, its median
    is better by more than the parent's Q3 - Q1, and no more of its operations
    failed), ``worse_beyond_bound`` (its median is worse than the parent's by
    more than ``bound`` times the parent median) and ``unresolved`` (the
    parent's Q3 - Q1 is wider than that bound, so "not worse" cannot be told
    from "unchanged", unless every change run beats every parent run)."""
    fails = failed_of_attempted(runs)
    more_failed = fails["change"][0] > fails["parent"][0]
    out = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [r[side]["metrics"][name] for r in runs
                         if "metrics" in r[side]] for side in SIDES}
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(1 for r in runs if "metrics" in r["parent"] and "metrics" in r["change"]
                   and sign * (r["change"]["metrics"][name] - r["parent"]["metrics"][name]) < 0)
        out[name] = {side: {"median": statistics.median(v),
                            "quartiles": (statistics.quantiles(v, n=4) if len(v) > 1
                                          else [v[0]] * 3)}
                     for side, v in values.items() if v}
        out[name]["change_wins"] = wins
        out[name]["pairs"] = len(runs)
        if all(side in out[name] for side in SIDES):
            parent, change = out[name]["parent"], out[name]["change"]
            gain = sign * (parent["median"] - change["median"])
            spread = parent["quartiles"][2] - parent["quartiles"][0]
            bound = metric["bound"] * abs(parent["median"])
            beats_all = (max(sign * v for v in values["change"])
                         < min(sign * v for v in values["parent"]))
            out[name]["claim_met"] = (len(runs) >= 10 and 10 * wins >= 9 * len(runs)
                                      and gain > spread and not more_failed)
            out[name]["worse_beyond_bound"] = -gain > bound
            out[name]["unresolved"] = spread > bound and not beats_all
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True,
                        help="pairs per workload and thread setting")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {side: args.workdir / side for side in SIDES}
    record = {side: export(rev, trees[side])
              for side, rev in zip(SIDES, (args.parent, args.change))}
    config = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = config["run_seconds"]
    record.update(command="python3 benchmarks/run.py --workload W --seed S "
                          f"--seconds {seconds:g} --trace 0", settings=[])
    for threads in ("default", "1"):
        env = dict(os.environ)
        if threads == "1":
            env["OPENBLAS_NUM_THREADS"] = "1"
        setting = {"openblas_num_threads": threads, "pairs": args.pairs,
                   "seeds": [args.seed + i for i in range(args.pairs)], "workloads": {}}
        for workload in (w["name"] for w in config["workloads"]):
            runs = []
            for i, seed in enumerate(setting["seeds"]):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(trees[side], workload, seed, seconds, env)
                    block = run[side].pop("environment", None)
                    setting["environment"] = setting.get("environment") or block
                    print(f"{threads} {workload} seed {seed} {side}: "
                          f"{run[side].get('metrics', run[side].get('error'))}", flush=True)
                runs.append(run)
            setting["workloads"][workload] = {
                "runs": runs, "summary": summarize(runs, config["end_to_end"]),
                "failed_of_attempted": failed_of_attempted(runs)}
        record["settings"].append(setting)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
