"""The completely-positive partial order and related structure tests.

Contains the CP order on operations, purity and comparability tests,
the one-parameter channel family above an operation with rank-1 trace
deficit, detectors for trivial devices, and the commutation criterion
between an operation's range and an effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import CPMap, Effect, apply_h, apply_s
from .matkit import (
    DEFAULT_TOL,
    MatrixShapeError,
    Tolerances,
    close,
    coord_matrix,
    frob_norm,
    herm_coords,
    herm_from_coords,
    hermitian_basis,
    hermitian_part,
    project_psd,
)


class RankConditionError(ValueError):
    """The trace deficit of the operation is not rank 1 (or 0)."""


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

    When the families meet, ``channel`` is a common member together with
    the completion states realizing it. When they do not, ``separating_state``
    (if found) is a single input state whose reachable output sets are
    disjoint across the two families.
    """

    equal: bool
    xi1: np.ndarray | None = None
    xi2: np.ndarray | None = None
    channel: CPMap | None = None
    separating_state: np.ndarray | None = None
    reason: str = ""


def _kron_coord_map(e_t: np.ndarray, dk: int) -> np.ndarray:
    """Real matrix of xi -> kron(e_t, xi) in Hermitian coordinates."""
    return coord_matrix(lambda xi: np.kron(e_t, xi), dk)


def _state_pair_exists(d: np.ndarray, a1: float, a2: float, tol: Tolerances) -> bool:
    """Whether ``a1 x1 - a2 x2 = d`` is solvable with states x1, x2."""
    slack = 100 * tol.feas_tol
    if abs(float(np.trace(d).real) - (a1 - a2)) > slack:
        return False
    evals = np.linalg.eigvalsh(hermitian_part(d))
    pos = float(np.sum(evals[evals > 0]))
    neg = float(-np.sum(evals[evals < 0]))
    return pos <= a1 + slack and neg <= a2 + slack


def _separating_state_search(
    phi1: CPMap, phi2: CPMap, e1: np.ndarray, e2: np.ndarray, tol: Tolerances
) -> np.ndarray | None:
    d = phi1.dim_in
    candidates: list[np.ndarray] = [np.eye(d) / d]
    for e in (e1, e2):
        _, vecs = np.linalg.eigh(e)
        for v in vecs.T:
            candidates.append(np.outer(v, v.conj()))
    rng = np.random.default_rng(1234)
    for _ in range(32):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        p = g @ g.conj().T
        candidates.append(p / np.trace(p).real)
    for rho in candidates:
        a1 = float(np.trace(rho @ e1).real)
        a2 = float(np.trace(rho @ e2).real)
        diff = hermitian_part(apply_s(phi2, rho) - apply_s(phi1, rho))
        if not _state_pair_exists(diff, a1, a2, tol):
            return rho
    return None


def rank1_upper_channels_equal(
    phi1: CPMap, phi2: CPMap, tol: Tolerances = DEFAULT_TOL
) -> FamilyOverlap:
    """Decide whether the completion-channel families of two maps intersect.

    Both maps must have trace deficit of rank at most 1. Solves the
    linear system over the two completion states directly and checks the
    candidate states for positivity; on failure it looks for an explicit
    separating input state.
    """
    _same_dims(phi1, phi2)
    dk = phi1.dim_out
    e1, e2 = trace_deficit(phi1), trace_deficit(phi2)
    r1, r2 = _deficit_rank(e1, tol), _deficit_rank(e2, tol)
    if r1 > 1 or r2 > 1:
        raise RankConditionError(f"trace deficits have ranks ({r1}, {r2}); need <= 1")

    delta = hermitian_part(phi2.choi - phi1.choi)
    if r1 == 0 and r2 == 0:
        if close(phi1.choi, phi2.choi, tol):
            ch = CPMap(phi1.dim_in, dk, phi1.choi, kind="channel", tol=tol)
            return FamilyOverlap(True, None, None, ch, reason="equal channels")
        sep = _separating_state_search(phi1, phi2, e1, e2, tol)
        return FamilyOverlap(False, separating_state=sep, reason="distinct channels")

    # Linear system over the unknown completion states (rank-0 side has none).
    blocks: list[np.ndarray] = []
    if r1 == 1:
        blocks.append(_kron_coord_map(e1.T, dk))
    if r2 == 1:
        blocks.append(-_kron_coord_map(e2.T, dk))
    a = np.hstack(blocks)
    rows = [a]
    rhs = [herm_coords(delta)]
    # trace-one rows for each unknown state
    n_unknown = a.shape[1] // (dk * dk)
    for i in range(n_unknown):
        row = np.zeros(a.shape[1])
        row[i * dk * dk : i * dk * dk + dk] = 1.0
        rows.append(row[None, :])
        rhs.append(np.array([1.0]))
    a_full = np.vstack(rows)
    b_full = np.concatenate(rhs)

    sol, _, rank, svals = np.linalg.lstsq(a_full, b_full, rcond=None)
    residual = float(np.linalg.norm(a_full @ sol - b_full))
    if residual > tol.feas_tol * (1.0 + float(np.linalg.norm(b_full))):
        sep = _separating_state_search(phi1, phi2, e1, e2, tol)
        return FamilyOverlap(False, separating_state=sep, reason="linear system inconsistent")

    null_dim = a_full.shape[1] - rank
    xis = [herm_from_coords(sol[i * dk * dk : (i + 1) * dk * dk], dk) for i in range(n_unknown)]

    if null_dim == 0:
        psd_ok = all(np.linalg.eigvalsh(x)[0] >= -100 * tol.psd_tol for x in xis)
        if not psd_ok:
            sep = _separating_state_search(phi1, phi2, e1, e2, tol)
            return FamilyOverlap(
                False, separating_state=sep, reason="unique solution is not positive"
            )
    else:
        # search the affine solution set for a PSD point by cyclic projection
        vt = np.linalg.svd(a_full, full_matrices=True)[2]
        null_basis = vt[rank:, :]
        x = sol.copy()
        for _ in range(2000):
            stacked = []
            for i in range(n_unknown):
                xi = herm_from_coords(x[i * dk * dk : (i + 1) * dk * dk], dk)
                stacked.append(herm_coords(project_psd(xi, tol)))
            y = np.concatenate(stacked)
            x = sol + null_basis.T @ (null_basis @ (y - sol))
            if np.linalg.norm(y - x) <= tol.feas_tol / 10:
                x = y
                break
        xis = [herm_from_coords(x[i * dk * dk : (i + 1) * dk * dk], dk) for i in range(n_unknown)]
        feas = float(np.linalg.norm(a_full @ x - b_full)) <= 10 * tol.feas_tol
        psd_ok = all(np.linalg.eigvalsh(hermitian_part(xx))[0] >= -100 * tol.psd_tol for xx in xis)
        if not (feas and psd_ok):
            sep = _separating_state_search(phi1, phi2, e1, e2, tol)
            return FamilyOverlap(
                False, separating_state=sep, reason="no positive point in solution set"
            )

    it = iter(xis)
    xi1 = project_psd(next(it), tol) if r1 == 1 else None
    xi2 = project_psd(next(it), tol) if r2 == 1 else None
    if xi1 is not None:
        xi1 = xi1 / np.trace(xi1).real
        ch = rank1_channel_family(phi1, xi1, tol)
    else:
        ch = CPMap(phi1.dim_in, dk, phi1.choi, kind="channel", tol=tol)
    if xi2 is not None:
        xi2 = xi2 / np.trace(xi2).real
    if not (cp_leq(phi1, ch, tol) and cp_leq(phi2, ch, tol)):
        sep = _separating_state_search(phi1, phi2, e1, e2, tol)
        return FamilyOverlap(False, separating_state=sep, reason="candidate fails CP-order check")
    return FamilyOverlap(True, xi1, xi2, ch, reason="families intersect")


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
    """Recover the fixed output state of ``rho -> tr(rho) eta``, if any."""
    if not m.is_trace_preserving(tol):
        return None
    eta = hermitian_part(apply_s(m, np.eye(m.dim_in) / m.dim_in))
    for b in hermitian_basis(m.dim_in):
        expected = np.trace(b) * eta
        if not close(apply_s(m, b), expected, tol):
            return None
    return eta


def commutes_with_range(m: CPMap, e: Effect, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the effect commutes with everything the map can output.

    Checked on an operator basis of the map's Heisenberg domain, which
    suffices by linearity.
    """
    if e.dim != m.dim_in:
        raise MatrixShapeError("effect must live on the map input space")
    for b in hermitian_basis(m.dim_out):
        x = apply_h(m, b)
        if not close(x @ e.matrix, e.matrix @ x, tol):
            return False
    return True
