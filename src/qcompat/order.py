"""The completely-positive partial order and related structure tests.

Contains the CP order on operations, purity and comparability tests,
the one-parameter channel family above an operation with rank-1 trace
deficit and a closed-form test of whether two such families meet,
detectors for trivial devices, and the commutation criterion between an
operation's range and an effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import CPMap, Effect, apply_s
from .matkit import (
    DEFAULT_TOL,
    MatrixShapeError,
    Tolerances,
    close,
    frob_norm,
    hermitian_part,
    kron,
)


class RankConditionError(ValueError):
    """The trace deficit of the operation has rank above 1."""


class PurityError(ValueError):
    """An operation required to be pure (Choi rank <= 1) is not."""


def _same_dims(a: CPMap, b: CPMap) -> None:
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        raise MatrixShapeError("maps must share input and output dimensions")


def cp_leq(a: CPMap, b: CPMap, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether b - a is itself an operation (completely positive)."""
    _same_dims(a, b)
    diff = hermitian_part(b.choi - a.choi)
    return bool(np.linalg.eigvalsh(diff)[0] >= -tol.psd_tol)


def comparable(a: CPMap, b: CPMap, tol: Tolerances = DEFAULT_TOL) -> bool:
    return cp_leq(a, b, tol) or cp_leq(b, a, tol)


def choi_rank(m: CPMap, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of Choi eigenvalues above psd_tol * trace (scale-aware rank)."""
    evals = np.linalg.eigvalsh(hermitian_part(m.choi))
    thr = tol.psd_tol * max(float(np.trace(m.choi).real), 0.0)
    return int(np.sum(evals > thr))


def is_pure(m: CPMap, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Pure operations have a single Kraus operator (Choi rank <= 1)."""
    return choi_rank(m, tol) <= 1


def pure_pair_compatible(a: CPMap, b: CPMap, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Analytic compatibility test for two pure operations.

    Two pure operations are compatible exactly when they are comparable
    or their sum is still an operation. Serves as an independent oracle
    for the feasibility engine.
    """
    _same_dims(a, b)
    if not is_pure(a, tol) or not is_pure(b, tol):
        raise PurityError("both operations must have Choi rank <= 1")
    if comparable(a, b, tol):
        return True
    gram = a.heisenberg_unit() + b.heisenberg_unit()
    top = float(np.linalg.eigvalsh(hermitian_part(gram))[-1])
    return top <= 1.0 + tol.psd_tol


def trace_deficit(m: CPMap) -> np.ndarray:
    """The effect 1 - F_H(1) measuring how far the map is from a channel."""
    return hermitian_part(np.eye(m.dim_in) - m.heisenberg_unit())


def _deficit_rank(e: np.ndarray, tol: Tolerances) -> int:
    evals = np.linalg.eigvalsh(e)
    return int(np.sum(evals > tol.psd_tol))


def rank1_channel_family(phi: CPMap, xi: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> CPMap:
    """The channel ``rho -> phi(rho) + tr[rho E] xi`` above a rank-1-deficit map.

    ``E = 1 - phi_H(1)`` must have rank at most 1; every channel above
    ``phi`` has this form, parametrized by the completion state ``xi``.
    A map that is already a channel (rank-0 deficit) gives itself.
    """
    e = trace_deficit(phi)
    r = _deficit_rank(e, tol)
    if r == 0:
        return CPMap(phi.dim_in, phi.dim_out, phi.choi, kind="channel", tol=tol)
    if r > 1:
        raise RankConditionError(f"trace deficit has rank {r} > 1")
    xi = hermitian_part(np.asarray(xi, dtype=complex))
    if xi.shape != (phi.dim_out, phi.dim_out):
        raise MatrixShapeError("completion state must live on the output space")
    j = phi.choi + np.kron(e.T, xi)
    return CPMap(phi.dim_in, phi.dim_out, j, kind="channel", tol=tol)


@dataclass(frozen=True)
class FamilyOverlap:
    """Outcome of intersecting two rank-1 completion channel families.

    ``equal`` is True when the families meet: ``channel`` is a common
    member and ``xi1``/``xi2`` are the completion states realizing it
    (None on a channel side). It is False when a forced quantity rules
    every common member out, and None when the candidates come within
    tolerance of a common member that they do not certify. ``reason``
    names the deciding quantity.
    """

    equal: bool | None
    xi1: np.ndarray | None = None
    xi2: np.ndarray | None = None
    channel: CPMap | None = None
    reason: str = ""


def _deficit_vector(phi: CPMap, tol: Tolerances) -> np.ndarray | None:
    """The vector u with ``E^T = u u*`` for a rank-1 deficit; None for rank 0."""
    evals, vecs = np.linalg.eigh(trace_deficit(phi).T)
    r = int(np.sum(evals > tol.psd_tol))
    if r > 1:
        raise RankConditionError(f"trace deficit has rank {r} > 1")
    return np.sqrt(evals[-1]) * vecs[:, -1] if r else None


def _compress(delta: np.ndarray, f: np.ndarray, dk: int) -> np.ndarray:
    """``(f* x 1) delta (f x 1)``: the output block of delta along input vector f."""
    t = delta.reshape(f.size, dk, f.size, dk)
    return hermitian_part(np.einsum("a,ambn,b->mn", f.conj(), t, f))


def rank1_upper_channels_equal(
    phi1: CPMap, phi2: CPMap, tol: Tolerances = DEFAULT_TOL
) -> FamilyOverlap:
    """Decide whether the completion-channel families of two maps intersect.

    Both maps must have trace deficit of rank at most 1, ``E_i^T = u_i u_i*``.
    A common member solves ``kron(u1 u1*, xi1) - kron(u2 u2*, xi2) = J2 - J1``
    in states xi_i (a channel side has no term). For independent u's the
    biorthogonal duals f_i force ``xi1 = C_f1(J2 - J1)`` and
    ``xi2 = -C_f2(J2 - J1)``, with ``C_f(X) = (f* x 1) X (f x 1)``. For
    parallel ones, ``u2 = c u1``, only ``D = xi1 - |c|^2 xi2`` is forced,
    and states with that difference exist exactly when ``tr D+ <= 1``.
    One span residual then checks the candidates against the equation.
    Candidates that come within tolerance without certifying a common
    member, and deficit directions too close to parallel for the duals,
    give ``equal=None``.
    """
    _same_dims(phi1, phi2)
    dk = phi1.dim_out
    us = (_deficit_vector(phi1, tol), _deficit_vector(phi2, tol))
    live = [i for i in (0, 1) if us[i] is not None]
    weight = {i: float(np.vdot(us[i], us[i]).real) for i in live}  # the deficit eigenvalue
    delta = phi2.choi - phi1.choi
    xis: list[np.ndarray | None] = [None, None]
    split = ""
    if live:
        basis = np.stack([us[i] for i in live], axis=1)
        sv = np.linalg.svd(basis, compute_uv=False)
        # the duals amplify rounding in J2 - J1 by cond([u1 u2])^2
        if np.finfo(float).eps * sv[0] ** 2 <= tol.psd_tol * sv[-1] ** 2:
            duals = basis @ np.linalg.inv(basis.conj().T @ basis)
            for i, f in zip(live, duals.T):
                xis[i] = (1 - 2 * i) * _compress(delta, f, dk)
        elif sv[-1] > tol.eq_tol * sv[0]:
            ratio = sv[-1] / sv[0]
            return FamilyOverlap(None, reason=f"deficit directions nearly parallel: {ratio:.3e}")
        else:
            mu = weight[1] / weight[0]
            d = _compress(delta, us[0] / weight[0], dk)
            evals, vecs = np.linalg.eigh(d)
            pos = hermitian_part((vecs * np.maximum(evals, 0.0)) @ vecs.conj().T)
            s = 1.0 - float(np.trace(pos).real)
            split = f"tr D+ = {1.0 - s:.6g}, "
            xis = [pos + (s / dk) * np.eye(dk), (pos - d + (s / dk) * np.eye(dk)) / mu]

    lifts = {i: kron(np.outer(us[i], us[i].conj()), xis[i]) for i in live}
    residual = frob_norm(lifts.get(0, 0.0) - lifts.get(1, 0.0) - delta)
    if residual > tol.feas_tol * (1.0 + frob_norm(delta)):
        return FamilyOverlap(False, reason=f"span residual {residual:.3e}")
    floors = {i: float(np.linalg.eigvalsh(xis[i])[0]) for i in live}
    for i, lam in floors.items():
        if lam < -100 * tol.psd_tol:
            return FamilyOverlap(False, reason=f"{split}xi{i + 1} has eigenvalue {lam:.3e}")

    # The witness branches are kron(u_i u_i*, xi_i), side 2's off by the
    # residual; the common channel preserves trace when tr xi1 = 1.
    slack = residual + max([0.0] + [-weight[i] * lam for i, lam in floors.items()])
    drift = weight[0] * abs(float(np.trace(xis[0]).real) - 1.0) if 0 in live else 0.0
    if slack > tol.psd_tol or drift > tol.eq_tol:
        return FamilyOverlap(None, reason=f"uncertified: slack {slack:.3e}, drift {drift:.3e}")
    ch = CPMap(phi1.dim_in, dk, phi1.choi + lifts.get(0, 0.0), kind="channel", tol=tol)
    return FamilyOverlap(True, xis[0], xis[1], ch, reason="families intersect")


# ---------------------------------------------------------------------------
# trivial-device detectors
# ---------------------------------------------------------------------------


def is_trivial_effect(e: Effect, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the effect is a multiple of the identity."""
    d = e.dim
    scale = float(np.trace(e.matrix).real) / d
    return close(e.matrix, scale * np.eye(d), tol)


def is_null_operation(m: CPMap, tol: Tolerances = DEFAULT_TOL) -> bool:
    return frob_norm(m.choi) <= tol.eq_tol


def is_contraction_channel(m: CPMap, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Recover the fixed output state of ``rho -> tr(rho) eta`` (Choi matrix ``1 (x) eta``)."""
    if not m.is_trace_preserving(tol):
        return None
    eta = hermitian_part(apply_s(m, np.eye(m.dim_in) / m.dim_in))
    if frob_norm(m.choi - kron(np.eye(m.dim_in), eta)) > tol.eq_tol:
        return None
    return eta


def commutes_with_range(m: CPMap, e: Effect, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the effect commutes with everything the map can output.

    The map's Heisenberg range commutes with E exactly when the Choi
    matrix commutes with ``E^T (x) 1``; the test is
    ``||[J, E^T (x) 1]||_F <= eq_tol``, which bounds the commutator of E
    with the image of every unit-norm operator.
    """
    if e.dim != m.dim_in:
        raise MatrixShapeError("effect must live on the map input space")
    lifted = kron(e.matrix.T, np.eye(m.dim_out))
    return frob_norm(m.choi @ lifted - lifted @ m.choi) <= tol.eq_tol
