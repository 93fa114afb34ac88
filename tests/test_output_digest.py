"""Digests of ``scripts/output_digest.py`` on two small invocations.

The script is loaded by path, as it is run directly; its invocations run in
a subprocess that finds ``nbspectra`` through PYTHONPATH.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

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
