"""Digests of ``scripts/output_digest.py`` on two small invocations.

The script is loaded by path, as it is run directly; its invocations run in
a subprocess that finds ``nbspectra`` through PYTHONPATH.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nbspectra.spectra import eigen

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digest.py"


@pytest.fixture
def output_digest(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_repeat_across_temporary_directories(output_digest):
    # Each run writes into a new temporary directory, which stdout names
    # ("wrote <dir>/out/..."): the digest masks it, so repeats agree.
    invocations = ["census {k4} --rmax 4", "lift {k4} --N 2 --trials 2 --rmax 2"]
    first, second = ([output_digest.digest(inv) for inv in invocations] for _ in range(2))
    assert first == second
    assert len(set(first)) == 2 and all(len(h) == 64 for h in first)
    assert output_digest.digest("lift {k4} --N 2 --trials 2 --rmax 2 --seed 1") != first[1]


def test_header_names_the_blas_thread_count(output_digest, monkeypatch, capsys):
    # the thread count alone moves eigenvalue-based values, so the digests name it
    monkeypatch.setattr(output_digest, "INVOCATIONS", [])
    assert output_digest.main() == 0
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith("# numpy ") and " blas_threads " in line
    # at one BLAS thread, set as numpy loads, the header reads that count
    load = ("import importlib.util as u; s = u.spec_from_file_location('d', r'%s'); "
            "m = u.module_from_spec(s); s.loader.exec_module(m); print(m.header())" % SCRIPT)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", load], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "blas_threads 1, OPENBLAS_NUM_THREADS=1," in done.stdout


def test_lift_digests_do_not_depend_on_the_blas_thread_count(output_digest, monkeypatch):
    # every lift solve here is of order 512 or less, so it runs on one BLAS
    # thread whatever OPENBLAS_NUM_THREADS says
    if eigen._openblas_threads() is None:
        pytest.skip("numpy's OpenBLAS thread count is not reachable")
    invocation = output_digest.LIFT_POOL + "0"
    assert "--N 128" in invocation  # K4 at N = 128: order 512
    digests = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        digests.append(output_digest.digest(invocation))
    assert digests[0] == digests[1]
