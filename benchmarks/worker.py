"""One benchmark process: set up, warm up, run timed cells, check outputs.

Started fresh by run.py with one JSON argument.  It writes ``READY`` on
stdout once warm (so the parent can time set-up from process start), one
``CELL <json>`` line as each cell ends (the warm-up cell first), and last
one ``RESULT <json>`` line.  A worker that is killed thus still leaves the
cells it finished.  The program's own stdout and stderr are captured per
invocation so they cannot mix with these lines.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def import_program():
    """Import nbspectra from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import nbspectra.cli
    if not Path(nbspectra.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"nbspectra imported from {nbspectra.__file__}, not {SRC}")
    return nbspectra.cli


class Runner:
    def __init__(self, cli, workload, work: Path, tracer=None):
        self.cli = cli
        self.workload = workload
        self.work = work
        self.tracer = tracer
        self.serial = 0

    def run_cell(self, cell, kind: str, traced: bool = False) -> dict:
        """Run every invocation of one cell; time it and check its outputs.

        ``kind`` is ``warm``, ``cell`` (timed) or ``trace`` (timed, traced).
        """
        self.serial += 1
        out = self.work / f"{kind}{self.serial:03d}"
        argvs = self.workload.argvs(cell, out)
        errors = []
        if traced:
            self.tracer.install()
            self.tracer.begin_cell()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for argv in argvs:
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                if traced:
                    rc = self.tracer.span("cli", self.cli.main, argv)
                else:
                    rc = self.cli.main(argv)
            if rc != 0:
                errors.append(f"{' '.join(argv[:2])} exited {rc}: "
                              f"{captured.getvalue().strip()[-300:]}")
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        record = {"kind": kind, "cell": cell, "out": str(out), "wall": wall,
                  "cpu": cpu}
        if traced:
            record["self_s"], record["counters"] = self.tracer.end_cell()
            self.tracer.uninstall()
        if not errors:
            try:
                problem = self.workload.check(cell, out)
            except (OSError, KeyError, ValueError) as exc:
                problem = f"outputs unreadable: {exc!r}"
            if problem:
                errors.append(problem)
        record["error"] = "; ".join(errors) or None
        return record

    def replay(self, record: dict, traced: bool) -> str | None:
        """Rerun a cell from its manifests; data files must match byte for byte.

        When traced, the counters of the rerun must equal the original's.
        """
        out = Path(record["out"])
        replay_out = self.work / "replay"
        argvs = self.workload.replay_argvs(out, replay_out)
        if not argvs:
            return "replay: no manifest found"
        if traced:
            self.tracer.install()
            self.tracer.begin_cell()
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                if traced:
                    rc = self.tracer.span("cli", self.cli.main, argv)
                else:
                    rc = self.cli.main(argv)
            if rc != 0:
                return f"replay: {' '.join(argv[:2])} exited {rc}"
        if traced:
            _, counters = self.tracer.end_cell()
            self.tracer.uninstall()
            if counters != record["counters"]:
                diff = sorted(set(counters.items()) ^ set(record["counters"].items()))
                return f"replay: counters differ: {diff[:6]}"
        originals = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        replays = sorted(p.relative_to(replay_out) for p in replay_out.rglob("*")
                         if p.is_file())
        if originals != replays:
            return f"replay: wrote {len(replays)} files, original {len(originals)}"
        for rel in originals:
            if not filecmp.cmp(out / rel, replay_out / rel, shallow=False):
                return f"replay: {rel} differs from the original"
        return None


def emit(tag: str, record: dict) -> None:
    print(f"{tag} {json.dumps(record)}", flush=True)


def main() -> int:
    config = json.loads(sys.argv[1])
    cli = import_program()
    from workloads import WORKLOADS

    work = Path(config["work"])
    workload = WORKLOADS[config["workload"]](config["seed"], work / "inputs")
    workload.write_inputs()
    tracer = None
    if config["trace"]:
        from tracing import Tracer
        tracer = Tracer()
    runner = Runner(cli, workload, work, tracer)

    order = workload.cells()
    start = config["offset"] % len(order)
    sequence = order[start:] + order[:start]
    warm = runner.run_cell(sequence[-1], "warm", traced=bool(tracer))
    print("READY", flush=True)
    emit("CELL", warm)

    # time whole cells until this worker's share of the run is used up
    share = config["share_seconds"]
    timed = []
    begin = time.perf_counter()
    position = 0
    while not timed or time.perf_counter() - begin < share:
        cell = sequence[position % len(sequence)]
        position += 1
        if tracer:
            untraced = runner.run_cell(cell, "cell")
            traced = runner.run_cell(cell, "trace", traced=True)
            traced["pair_diff"] = traced["wall"] - untraced["wall"]
            pair = [untraced, traced]
        else:
            pair = [runner.run_cell(cell, "cell")]
        for record in pair:
            emit("CELL", record)
        timed += pair
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"rss_mb": rss_mb}
    if config["replay"]:
        source = next(r for r in timed if not tracer or "counters" in r)
        result["replay_error"] = runner.replay(source, traced=bool(tracer))
    if tracer:
        result["first_call_s"] = tracer.first_call_s
        result["max_order"] = tracer.max_order
    for child in work.iterdir():
        if child.is_dir() and child.name != "inputs":
            shutil.rmtree(child)
    emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
