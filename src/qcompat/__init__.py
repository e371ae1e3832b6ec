"""Finite-dimensional quantum device toolkit.

Represents effects, observables, operations, channels, instruments and
measurement models, and decides -- constructively, with witnesses --
whether two devices are compatible, weakly compatible, or strongly
incompatible.
"""

from .matkit import Tolerances, DEFAULT_TOL
from .devices import (
    CPMap,
    Effect,
    Instrument,
    KrausSet,
    Observable,
    PointerMap,
    apply_h,
    apply_s,
    canonical_instrument,
    choi_from_kraus,
    contraction_channel,
    induced_observable,
    instrument_part_effect,
    instrument_part_op,
    is_part_of,
    kraus_from_choi,
    luders,
    relabel,
    total_channel,
    trivial_observable,
)
from .compat import (
    CompatWitness,
    KrausCertificate,
    UnsupportedPairError,
    Verdict,
    WeakWitness,
    classify,
    kraus_witness,
    weakly_compatible,
)
from .dilation import (
    StinespringDilation,
    minimal_stinespring,
    radon_nikodym_effect,
    rn_observable,
    verify_ancilla_characterization,
)
from .memo import (
    MeasurementModel,
    model_instrument,
    model_is_part_of,
    model_poststate,
    model_probability,
    shared_model_pair,
    swap_model,
    synthesize_model,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "CPMap",
    "Effect",
    "Instrument",
    "KrausSet",
    "Observable",
    "PointerMap",
    "apply_h",
    "apply_s",
    "canonical_instrument",
    "choi_from_kraus",
    "contraction_channel",
    "induced_observable",
    "instrument_part_effect",
    "instrument_part_op",
    "is_part_of",
    "kraus_from_choi",
    "luders",
    "relabel",
    "total_channel",
    "trivial_observable",
    "CompatWitness",
    "KrausCertificate",
    "UnsupportedPairError",
    "Verdict",
    "WeakWitness",
    "classify",
    "kraus_witness",
    "weakly_compatible",
    "StinespringDilation",
    "minimal_stinespring",
    "radon_nikodym_effect",
    "rn_observable",
    "verify_ancilla_characterization",
    "MeasurementModel",
    "model_instrument",
    "model_is_part_of",
    "model_poststate",
    "model_probability",
    "shared_model_pair",
    "swap_model",
    "synthesize_model",
]
