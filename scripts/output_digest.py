"""One sha256 per fixed ``nbspectra`` invocation, to check that two trees
write the same outputs.

    PYTHONPATH=<tree>/src python3 scripts/output_digest.py > digests.txt

Each invocation runs as ``python -m nbspectra.cli`` in a fresh temporary
directory that holds the input graphs and the ``--out`` directory.  Its
digest covers the exit code, stdout with that directory masked, and every
file it wrote (data files and manifests), name and bytes.  Diff the output
of two trees: a line differs exactly where an invocation's outputs do.

The first line, ``# ...``, names what moves those bytes besides the code:
the numpy version, the BLAS build and its thread count, and the thread
variables.  Eigenvalue-based values move at the 1e-15 level with the thread
count alone, so only digests under one header make a byte-identity check.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ENVINFO = Path(__file__).resolve().parents[1] / "benchmarks" / "envinfo.py"

def _pairing_text(n: int, d: int, seed: int) -> str:
    """A d-regular multigraph from a shuffled pairing of n cells of d points,
    loops and repeated edges kept."""
    points = random.Random(seed).sample(range(n * d), n * d)
    return f"{n} {n * d // 2}\n" + "".join(f"{u // d} {v // d}\n"
                                          for u, v in zip(points[0::2], points[1::2]))


GRAPHS = {
    "k4": "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
    "c5": "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n",
    "petersen": "10 15\n" + "".join(f"{i} {(i + 1) % 5}\n{i} {i + 5}\n{i + 5} {(i + 2) % 5 + 5}\n"
                                     for i in range(5)),
    "loops": "2 6\n0 0\n0 0\n0 1\n0 1\n1 1\n1 1\n",  # two loops per vertex, a double edge
    "pairing": _pairing_text(36, 4, 23),
    # circles pair vertices 64 apart, whose signature bits v mod 64 coincide
    "circulant": "130 260\n" + "".join(f"{i} {(i + 1) % 130}\n{i} {(i + 64) % 130}\n"
                                        for i in range(130)),
    # cubic, girth 6: the girth BFS runs past girth 5
    "heawood": "14 21\n" + "".join(f"{i} {(i + 1) % 14}\n" for i in range(14))
               + "".join(f"{i} {(i + 5) % 14}\n" for i in range(0, 14, 2)),
}
LIFT_POOL = "lift {k4} --N 8 --N 32 --N 128 --p 1 --p 2 --trials 1 --rmax 6 --seed "
GROW_POOL = "grow --n 64 --n 256 --n 1024 --schedule loglog --p 2 --trials 1 --rmax 4 --seed "
INVOCATIONS = ([LIFT_POOL + str(seed) for seed in range(32)]
               + [GROW_POOL + str(seed) for seed in range(3)]
               + [f"lift {{k4}} --color {color} --N 2 --N 8 --trials 3 --rmax 4"
                  for color in ("permutation", "haar", "trivial")]
               + ["lift {c5} --N 2 --N 8 --trials 5", "lift {k4} --trials 50",
                  "grow --rmax 0 --trials 3", "grow",
                  "census {k4}", "census {petersen} --rmax 10",
                  "census {loops} --rmax 14", "census {pairing} --rmax 14",
                  "census {circulant} --rmax 14",
                  "lift {petersen} --color haar --N 2 --N 4 --trials 3 --rmax 4"]
               + [f"lift {{loops}} --color {color} --N 2 --N 4 --trials 3 --rmax 4"
                  for color in ("haar", "trivial")]
               + ["laws", "lift {k4} --N 2 --N 8 --trials 3 --rmax 4 --format json",
                  "census {heawood} --rmax 10",
                  "lift {k4} --N 2 --N 8 --p 3 --p 400 --trials 3 --rmax 4",
                  "census {petersen} --rmax 16",  # past BRUTE_R_CAP: no z
                  "census {loops} --rmax 60"])  # A_j products pass 2^63 from j = 28


def digest(invocation: str) -> str:
    """sha256 of one invocation's exit code, masked stdout and written files."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.txt" for name in GRAPHS}
        for name, text in GRAPHS.items():
            paths[name].write_text(text, encoding="utf-8")
        out = Path(tmp) / "out"
        argv = invocation.format(**paths).split() + ["--out", str(out)]
        done = subprocess.run([sys.executable, "-m", "nbspectra.cli", *argv],
                              capture_output=True, text=True)
        h = hashlib.sha256(f"{done.returncode}\n{done.stdout.replace(tmp, '<tmp>')}".encode())
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            h.update(f"\n{path.relative_to(out)}\n".encode() + path.read_bytes())
        return h.hexdigest()


def header() -> str:
    """The '#' line: numpy, BLAS name and version, BLAS threads and the
    thread variables, as ``benchmarks/envinfo.py`` reads them."""
    spec = importlib.util.spec_from_file_location("envinfo", ENVINFO)
    envinfo = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # read, never write, there
    try:
        spec.loader.exec_module(envinfo)
    finally:
        sys.dont_write_bytecode = keep
    env = envinfo.environment()
    threads = ", ".join(f"{k}={env['blas_threads_env'].get(k, 'unset')}"
                        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return (f"# numpy {env['numpy']}, blas {env['blas_name']} {env['blas_version']}, "
            f"blas_threads {env['blas_threads']}, {threads}")


def main() -> int:
    print(header(), flush=True)
    for invocation in INVOCATIONS:
        print(f"{digest(invocation)}  {invocation}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
