#!/usr/bin/env python3
"""Print the size of the qcompat package, module by module.

    python3 scripts/src_size.py

For each module of this checkout's ``src/qcompat`` one row gives its lines,
its ``ast`` statements (every statement node, nested ones included) and its
``isinstance(`` calls; a last row gives the totals.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = ("lines", "statements", "isinstance")


def module_size(source: str) -> tuple[int, int, int]:
    """Lines, statements and ``isinstance`` calls of one module's source."""
    nodes = list(ast.walk(ast.parse(source)))
    statements = sum(isinstance(n, ast.stmt) for n in nodes)
    calls = sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "isinstance" for n in nodes)
    return source.count("\n"), statements, calls


def main() -> int:
    rows = [(path.stem, module_size(path.read_text()))
            for path in sorted((ROOT / "src" / "qcompat").glob("*.py"))]
    rows.append(("total", tuple(map(sum, zip(*(size for _, size in rows))))))
    print(f"{'module':<12}" + "".join(f"{c:>12}" for c in COLUMNS))
    for name, size in rows:
        print(f"{name:<12}" + "".join(f"{n:>12}" for n in size))
    return 0


if __name__ == "__main__":
    sys.exit(main())
