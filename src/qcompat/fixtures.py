"""Built-in qubit devices used by the CLI demo and the test suite.

All the classic single-qubit objects: Pauli operators, spin projections,
Lueders operations, and the device pairs exhibiting each compatibility
relation.
"""

from __future__ import annotations

import numpy as np

from .devices import CPMap, Effect, Instrument, KrausSet, Observable, choi_from_kraus, luders

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

PX = (I2 + SX) / 2
PMX = (I2 - SX) / 2
PY = (I2 + SY) / 2
PMY = (I2 - SY) / 2
PZ = (I2 + SZ) / 2
PMZ = (I2 - SZ) / 2


def effect(m) -> Effect:
    return Effect(np.asarray(m, dtype=complex))


def luders_of(m) -> CPMap:
    """Lueders operation of an effect given as a raw matrix."""
    return luders(effect(m))


def sharp_observable(plus, minus, labels=("+", "-")) -> Observable:
    return Observable(labels, {labels[0]: effect(plus), labels[1]: effect(minus)})


def half_sigma_x() -> CPMap:
    """The pure operation ``rho -> (1/2) sigma_x rho sigma_x``."""
    return choi_from_kraus(KrausSet((SX / np.sqrt(2),)))


def px_dephasing_channel() -> CPMap:
    """The channel ``rho -> Px rho Px + P-x rho P-x`` (= rho/2 + sx rho sx/2)."""
    return choi_from_kraus(KrausSet((PX, PMX)))


def luders_instrument(plus, minus, labels=("+", "-")) -> Instrument:
    branches = {labels[0]: luders_of(plus), labels[1]: luders_of(minus)}
    return Instrument(labels, branches)


def builtin_devices() -> dict:
    """Named devices for the demo pairs exercised by the CLI."""
    return {
        "px": effect(PX),
        "pz": effect(PZ),
        "half_identity": effect(I2 / 2),
        "biased_z": effect(PZ + PMZ / 2),
        "luders_px": luders_of(PX),
        "luders_pz": luders_of(PZ),
        "luders_biased_z": luders_of(PZ + PMZ / 2),
        "half_luders_px": choi_from_kraus(KrausSet((PX / np.sqrt(2),))),
        "half_sigma_x": half_sigma_x(),
        "px_dephasing": px_dephasing_channel(),
        "sharp_x": sharp_observable(PX, PMX),
        "sharp_z": sharp_observable(PZ, PMZ),
        "luders_x_instrument": luders_instrument(PX, PMX),
    }


# (column, row, first device, second device); rows of the relation table
TABLE1_CELLS = (
    ("op-op", "compatible", "luders_px", "half_luders_px"),
    ("op-op", "incompatible but weakly compatible", "luders_px", "half_sigma_x"),
    ("op-op", "strongly incompatible", "luders_px", "luders_pz"),
    ("op-ef", "compatible", "luders_pz", "pz"),
    ("op-ef", "incompatible but weakly compatible", "luders_pz", "px"),
    ("op-ef", "strongly incompatible", "luders_biased_z", "px"),
    ("ef-ef", "compatible", "half_identity", "pz"),
    ("ef-ef", "incompatible but weakly compatible", "px", "pz"),
)
