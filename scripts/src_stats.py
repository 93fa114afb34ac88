"""Size of the library: lines under ``src/`` and its public module-level names.

    python3 scripts/src_stats.py [SRC_DIR]

A public name is a top-level ``def``, ``class`` or assignment target of a
module whose name does not start with an underscore, counted with ``ast``
once per module (a name bound twice in one module counts once).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bound_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
               else [])
    return [leaf.id for target in targets for leaf in ast.walk(target)
            if isinstance(leaf, ast.Name)]


def src_stats(src: Path) -> tuple[int, int]:
    """(line count, public-name count) of the Python files under ``src``."""
    lines = names = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        public = {name for node in ast.parse(text).body for name in _bound_names(node)
                  if not name.startswith("_")}
        names += len(public)
    return lines, names


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else ROOT / "src"
    lines, names = src_stats(src)
    print(f"src lines: {lines}")
    print(f"public names: {names}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
