"""Line and public-name counts of ``scripts/src_stats.py`` on a small tree.

The script is loaded by path, as it is run directly.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_stats.py"

MODULE = '''"""A module."""
__all__ = ["run", "Box"]
LIMIT = 3
_hidden = 4
a, (b, _c) = 1, (2, 3)
rate: float = 0.5
_typed: int = 1
LIMIT = 5


def run():
    inner = 1
    return inner


def _helper():
    pass


class Box:
    size = 1

    def method(self):
        pass


class _Private:
    pass
'''


@pytest.fixture
def src_stats():
    spec = importlib.util.spec_from_file_location("src_stats", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_top_level_public_names_once_per_module(src_stats, tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(MODULE, encoding="utf-8")
    # public: LIMIT (bound twice), a, b, rate, run, Box; not __all__, _hidden,
    # _c, _typed, _helper, _Private, nor the names inside run and Box
    assert src_stats.src_stats(tmp_path) == (len(MODULE.splitlines()), 6)


def test_sums_lines_and_names_over_every_file(src_stats, tmp_path, capsys):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "mod.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "pkg" / "sub" / "other.py").write_text("LIMIT = 1\nx += 1\n\n", encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n", encoding="utf-8")
    # LIMIT counts again in a second module; an augmented assignment binds x
    lines = len(MODULE.splitlines()) + 3
    assert src_stats.src_stats(tmp_path) == (lines, 8)
    assert src_stats.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"src lines: {lines}\npublic names: 8\n"
