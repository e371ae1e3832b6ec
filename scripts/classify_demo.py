#!/usr/bin/env python3
"""Walk through every built-in device pair of interest with full witnesses.

Prints the three-way relation for each demo pair, re-validates the
witnesses, and shows the ancilla-level account (dilation of the witness
channel plus the two extracted ancilla effects).
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qcompat import classify, verify_ancilla_characterization  # noqa: E402
from qcompat.fixtures import TABLE1_CELLS, builtin_devices  # noqa: E402


def main() -> int:
    devices = builtin_devices()
    for col, row, n1, n2 in TABLE1_CELLS:
        d1, d2 = devices[n1], devices[n2]
        verdict = classify(d1, d2)
        print(f"[{col}] {n1} vs {n2}")
        print(f"  relation: {verdict.relation}   ({verdict.notes})")
        if verdict.witness is not None:
            try:
                report = verify_ancilla_characterization(d1, d2, verdict)
                e1 = np.round(report.effect_1.matrix, 6)
                e2 = np.round(report.effect_2.matrix, 6)
                print(f"  ancilla dim: {report.dilation.ancilla_dim}, "
                      f"effects commute: {report.commute}")
                print(f"  ancilla effect 1:\n{e1}")
                print(f"  ancilla effect 2:\n{e2}")
            except ValueError as exc:
                print(f"  ancilla account unavailable: {exc}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
