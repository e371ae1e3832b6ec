"""Measurement models: probe state, coupling unitary, pointer observable.

A model realizes an instrument physically: couple the system to a probe
via a unitary, then read a pointer observable on the outgoing ancilla.
Everything a model says about the system goes through one Choi
contraction, ``_model_chois``: the instrument a model induces, its
channel, and the probability (the trace) and unnormalized post-state of
reading an outcome subset. One builder dilates a total channel once and
returns one verified model per instrument: ``synthesize_model`` is its
case of one instrument, and ``shared_model_pair`` builds two models that
differ only in their pointer observables -- the operational face of weak
compatibility.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .devices import (
    CPMap,
    Effect,
    Instrument,
    Observable,
    PointerMap,
    _check_state,
    is_part_of,
    total_channel,
)
from .dilation import TotalMismatchError, minimal_stinespring, rn_observable
from .matkit import (
    DEFAULT_TOL,
    MatrixShapeError,
    Tolerances,
    as_matrix,
    close,
    kron,
    side_product,
)


class ModelSynthesisError(AssertionError):
    """A synthesized model failed to reproduce its instrument."""


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Quintuple (V1, V2, eta, U, pointer) coupling a system to a probe.

    ``u`` maps (input system) (x) V1 unitarily onto (output system) (x) V2;
    ``eta`` is the probe state on V1 and the pointer observable lives on
    V2. Input/output system sides are explicit because the unitary's
    shape alone does not determine them; all four sides must be positive
    integers (MatrixShapeError otherwise).
    """

    dim_in: int
    dim_out: int
    dim_v1: int
    dim_v2: int
    eta: np.ndarray
    u: np.ndarray
    pointer: Observable
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, tol: Tolerances | None) -> None:
        tol = tol or DEFAULT_TOL
        side = side_product(self.dim_in, self.dim_v1)
        if side != side_product(self.dim_out, self.dim_v2):
            raise MatrixShapeError("dim_in * dim_v1 must equal dim_out * dim_v2")
        u = as_matrix(self.u)
        if u.shape != (side, side):
            raise MatrixShapeError(f"unitary must have side {side}")
        eye = np.eye(side)
        if not (close(u @ u.conj().T, eye, tol) and close(u.conj().T @ u, eye, tol)):
            raise ValueError("coupling matrix is not unitary")
        eta = _check_state(self.eta, tol)
        if eta.shape != (self.dim_v1, self.dim_v1):
            raise MatrixShapeError("probe state must live on V1")
        if self.pointer.dim != self.dim_v2:
            raise MatrixShapeError("pointer observable must live on V2")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "eta", eta)

    def outcomes(self) -> tuple[str, ...]:
        return self.pointer.outcomes


def _model_chois(m: MeasurementModel, pointer_effects: list[np.ndarray]) -> np.ndarray:
    """Choi matrices of the maps rho -> Tr_V2[(1 (x) f) U (rho (x) eta) U*], one per f.

    ``J[(i,a),(j,b)] = sum U[a,v,i,s] eta[s,t] conj(U[b,w,j,t]) f[w,v]``, as
    ``L R_f^T`` with L (rows (i,a)) and R_f (rows (j,b)) over columns (v,t).
    """
    dk, dv2, dh, dv1 = m.dim_out, m.dim_v2, m.dim_in, m.dim_v1
    u4 = m.u.reshape(dk, dv2, dh, dv1)
    left = (u4 @ m.eta).transpose(2, 0, 1, 3).reshape(dh * dk, dv2 * dv1)
    # rows (j,b,t), columns v: sum_w conj(U[b,w,j,t]) f[w,v]
    right = u4.conj().transpose(2, 0, 3, 1).reshape(-1, dv2) @ np.asarray(pointer_effects)
    right = right.reshape(-1, dh * dk, dv1, dv2).swapaxes(-1, -2).reshape(-1, dh * dk, dv2 * dv1)
    return left @ right.swapaxes(-1, -2)


def model_poststate(
    m: MeasurementModel, rho: np.ndarray, labels, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Unnormalized conditional state after reading an outcome subset: the
    subset's map, as its Choi matrix from :func:`_model_chois`, applied to rho."""
    rho = as_matrix(rho)
    if rho.shape != (m.dim_in, m.dim_in):
        raise MatrixShapeError("state must live on the model input space")
    f = m.pointer.effect_of(labels, tol).matrix
    j4 = _model_chois(m, [f])[0].reshape(m.dim_in, m.dim_out, m.dim_in, m.dim_out)
    return np.ascontiguousarray(np.einsum("ij,imjn->mn", rho, j4))


def model_probability(
    m: MeasurementModel, rho: np.ndarray, labels, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Probability of reading an outcome subset: the trace of its post-state."""
    return float(np.trace(model_poststate(m, rho, labels, tol)).real)


def model_instrument(
    m: MeasurementModel,
    f: PointerMap | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Instrument:
    """The instrument a model induces along a pointer relabeling.

    With no relabeling each pointer outcome becomes one branch.
    """
    if f is None:
        f = PointerMap({x: x for x in m.pointer.outcomes})
    f.check_total(m.pointer.outcomes)
    effs = [m.pointer.effect_of(f.preimage(y), tol).matrix for y in f.codomain]
    chois = dict(zip(f.codomain, _model_chois(m, effs)))
    return Instrument.from_stack(chois, m.dim_in, m.dim_out, tol)


def model_is_part_of(m: MeasurementModel, device, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether a device arises from the model, via its induced instrument."""
    return is_part_of(device, model_instrument(m, tol=tol), tol)


def model_channel(m: MeasurementModel, tol: Tolerances = DEFAULT_TOL) -> CPMap:
    """The channel a model induces; independent of the pointer observable."""
    j = _model_chois(m, [np.eye(m.dim_v2)])[0]
    return CPMap(m.dim_in, m.dim_out, j, kind="channel", tol=tol)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def _complete_unitary(prescribed: dict[int, np.ndarray], side: int, tol: Tolerances) -> np.ndarray:
    """Fill the unprescribed columns with the orthogonal complement of the
    prescribed ones, read off one complete QR; raise unless the result is
    unitary within eq_tol."""
    cols = np.column_stack(list(prescribed.values()))
    u = np.empty((side, side), dtype=complex)
    u[:, list(prescribed)] = cols
    free = [i for i in range(side) if i not in prescribed]
    u[:, free] = np.linalg.qr(cols, mode="complete")[0][:, len(prescribed) :]
    if not close(u.conj().T @ u, np.eye(side), tol):
        raise ModelSynthesisError("unitary completion failed")
    return u


def _base_parts(dil, tol: Tolerances):
    """Probe dims, probe state, and coupling unitary from a dilation.

    The coupling sends (system (x) probe ground state) to (V psi) (x) e
    with the prescribed columns completed to a full unitary; everything
    else about the probe is irrelevant because the probe starts in a
    pure state.
    """
    dh, dk, da = dil.dim_in, dil.dim_out, dil.ancilla_dim
    dm = dh
    dv1 = dk * da
    dv2 = da * dm
    side = dh * dv1
    # column i*dv1 (probe ground state) holds V|i> at (m, a, 0) of K (x) A (x) M
    cols = np.zeros((dh, dk, da, dm), dtype=complex)
    cols[..., 0] = dil.v.reshape(dk, da, dh).transpose(2, 0, 1)
    prescribed = {i * dv1: cols[i].reshape(side) for i in range(dh)}
    u = _complete_unitary(prescribed, side, tol)
    eta = np.zeros((dv1, dv1), dtype=complex)
    eta[0, 0] = 1.0
    return dv1, dv2, eta, u


def _pointer_from_ancilla(obs: Observable, dm: int) -> Observable:
    effects = {
        x: Effect(kron(obs.effects[x].matrix, np.eye(dm)))
        for x in obs.outcomes
    }
    return Observable(obs.outcomes, effects)


def _check_realizes(m: MeasurementModel, ins: Instrument, tol: Tolerances) -> None:
    """Raise ModelSynthesisError unless the model induces every branch of ins."""
    induced = model_instrument(m, tol=tol)
    for x in ins.outcomes:
        if not close(induced.branches[x].choi, ins.branches[x].choi, tol):
            raise ModelSynthesisError(f"synthesized model misses branch {x!r}")


def _models_sharing(lam: CPMap, instruments, tol: Tolerances) -> list[MeasurementModel]:
    """One model per instrument of total channel ``lam``, verified branch by branch.

    The probe sides, probe state and coupling come from one minimal
    dilation of ``lam``, so the models agree bytewise outside their
    pointers; each pointer carries its instrument's per-branch ancilla
    effects.
    """
    dil = minimal_stinespring(lam, tol)
    dv1, dv2, eta, u = _base_parts(dil, tol)
    models = []
    for ins in instruments:
        pointer = _pointer_from_ancilla(rn_observable(dil, ins, tol), ins.dim_in)
        m = MeasurementModel(ins.dim_in, ins.dim_out, dv1, dv2, eta, u, pointer, tol=tol)
        _check_realizes(m, ins, tol)
        models.append(m)
    return models


def synthesize_model(ins: Instrument, tol: Tolerances = DEFAULT_TOL) -> MeasurementModel:
    """Build a measurement model realizing an instrument exactly.

    Probe sides are the smallest satisfying the unitary shape condition,
    and the probe starts in the first basis state.
    """
    return _models_sharing(total_channel(ins, tol), [ins], tol)[0]


def shared_model_pair(
    i1: Instrument, i2: Instrument, tol: Tolerances = DEFAULT_TOL
) -> tuple[MeasurementModel, MeasurementModel]:
    """Two models identical except for pointers, realizing two instruments.

    Requires the instruments to share their total channel; the common
    probe state and coupling are then built once from that channel's
    dilation.
    """
    lam = total_channel(i1, tol)
    if not close(lam.choi, total_channel(i2, tol).choi, tol):
        raise TotalMismatchError("instruments do not share their total channel")
    m1, m2 = _models_sharing(lam, [i1, i2], tol)
    return m1, m2


def swap_model(eta: np.ndarray, pointer: Observable, tol: Tolerances = DEFAULT_TOL) -> MeasurementModel:
    """Model whose coupling exchanges system and probe.

    All four spaces share one dimension; the induced observable equals
    the pointer observable and the induced channel is the contraction to
    the probe state.
    """
    eta = as_matrix(eta)
    d = eta.shape[0]
    if pointer.dim != d:
        raise MatrixShapeError("pointer dimension must match the probe")
    u = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            u[j * d + i, i * d + j] = 1.0
    return MeasurementModel(d, d, d, d, eta, u, pointer, tol=tol)
