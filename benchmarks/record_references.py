"""Record the reference outputs the lift and census checks compare against.

    python3 benchmarks/record_references.py

Runs every lift pool cell and the census cell through the program in this
checkout, with the cells ``workloads.py`` defines, and writes
``benchmarks/reference/{lift,census}.json``.  The references pin this
commit's outputs; record them again only when a change is meant to move
those outputs, and say so with the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

from worker import BENCH_DIR, import_program
from workloads import LIFT_POOL, Census, Lift


def main() -> int:
    cli = import_program()
    work = BENCH_DIR / ".work" / "record"
    shutil.rmtree(work, ignore_errors=True)

    def run(workload, cell, out):
        for argv in workload.argvs(cell, out):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                raise SystemExit(f"{' '.join(argv)} exited {rc}")

    # the workload seed changes only input bytes, never the recorded values
    lift = Lift(0, work / "inputs")
    lift.write_inputs()
    lift_ref = {}
    for seed in LIFT_POOL:
        run(lift, seed, work / f"lift{seed}")
        lift_ref[str(seed)] = lift.outputs(work / f"lift{seed}")

    census = Census(0, work / "inputs")
    census.write_inputs()
    census_cell = census.cells()[0]
    run(census, census_cell, work / "census")
    census_ref = census.outputs(work / "census")

    ref = BENCH_DIR / "reference"
    ref.mkdir(exist_ok=True)
    for name, data in (("lift", lift_ref), ("census", census_ref)):
        (ref / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n",
                                          encoding="utf-8")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
