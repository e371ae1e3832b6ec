#!/usr/bin/env python3
"""Print the size of the qcompat package, module by module.

    python3 scripts/src_size.py

For each module of this checkout's ``src/qcompat`` one row gives its lines,
its ``ast`` statements (every statement node, nested ones included), its
``isinstance(`` calls and its branches; a last row gives the totals.

Branches count the decision paths: one for each ``if`` or ``elif``
statement, conditional expression, ``for`` or ``while`` loop and ``except``
handler, one for each ``for`` of a comprehension and each of its ``if``
clauses, and one for each operand of an ``and`` or ``or`` after its first.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = ("lines", "statements", "isinstance", "branches")
# nodes that each open one decision path
BRANCH_NODES = (ast.If, ast.IfExp, ast.For, ast.AsyncFor, ast.While, ast.ExceptHandler)


def branches(node: ast.AST) -> int:
    """Decision paths a node opens, its children's not counted."""
    if isinstance(node, ast.comprehension):
        return 1 + len(node.ifs)
    if isinstance(node, ast.BoolOp):
        return len(node.values) - 1
    return int(isinstance(node, BRANCH_NODES))


def module_size(source: str) -> tuple[int, int, int, int]:
    """Lines, statements, ``isinstance`` calls and branches of one module's source."""
    nodes = list(ast.walk(ast.parse(source)))
    statements = sum(isinstance(n, ast.stmt) for n in nodes)
    calls = sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "isinstance" for n in nodes)
    return source.count("\n"), statements, calls, sum(map(branches, nodes))


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
