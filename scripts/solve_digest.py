#!/usr/bin/env python3
"""Print one line per engine solve of the built-in pairs, then one digest line.

    python3 scripts/solve_digest.py

Classifies every ordered pair of the built-in devices, the cells of
``qcompat table1`` among them, with fast paths on and off. Every solve that
``compat`` makes prints one line: the pair, the route, the exit, the
steps, ``repr`` of the margin and of the residual, and the first 16 hex
digits of a sha256 of the witness bytes. The last line counts the solves and steps, counts
the solves by exit (``exits=affine:…,path:…``, in the order of
``feasibility.EXITS``, exits that no solve took left out), and gives the
sha256 of every line before it.

Two trees that print the same lines solve these problems bit for bit
alike. Bits depend on the numpy/BLAS build and thread count, so compare
outputs made by one build, for example at ``OPENBLAS_NUM_THREADS`` 1 and 2.
"""

import hashlib
import itertools
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qcompat import compat, feasibility  # noqa: E402
from qcompat.fixtures import builtin_devices  # noqa: E402


def witness_sha(witness) -> str:
    if witness is None:
        return "-"
    h = hashlib.sha256()
    for name, m in witness.items():
        h.update(name.encode())
        h.update(m.tobytes())
    return h.hexdigest()[:16]


def main() -> int:
    devices = builtin_devices()
    lines, steps, exits = [], 0, dict.fromkeys(feasibility.EXITS, 0)
    solve = feasibility.solve
    label = ""

    def recorded(*args, **kwargs):
        nonlocal steps
        out = solve(*args, **kwargs)
        steps += out.iterations
        exits[out.exit] += 1
        lines.append(f"{label} {out.exit} {out.iterations} {out.margin!r} {out.residual!r} "
                     f"{witness_sha(out.witness)}")
        print(lines[-1])
        return out

    feasibility.solve = recorded
    try:
        for n1, n2 in itertools.product(devices, repeat=2):
            for fast_paths in (True, False):
                label = f"{n1}/{n2} {'fast' if fast_paths else 'engine'}"
                compat.classify(devices[n1], devices[n2], fast_paths=fast_paths)
    finally:
        feasibility.solve = solve
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    census = ",".join(f"{name}:{n}" for name, n in exits.items() if n)
    print(f"solves={len(lines)} steps={steps} exits={census} digest={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
