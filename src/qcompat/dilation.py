"""Minimal Stinespring dilations and ancilla-effect extraction.

A dilation represents a map through an operator ``V`` into an enlarged
space, ``F_H(T) = V* (T (x) 1_A) V``. Maps dominated by the dilated one
in the CP order correspond to unique ancilla effects; extracting them
(and observables, branch by branch) is what connects compatibility
questions to plain effect coexistence on the ancilla.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import CPMap, Effect, Instrument, apply_h, total_channel
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
    kron,
)
from .order import choi_rank, cp_leq


class NotDominatedError(ValueError):
    """The candidate map is not below the dilated map in the CP order."""


class NonMinimalDilationError(ValueError):
    """The extraction system is rank-deficient: the dilation is not minimal."""


class TotalMismatchError(ValueError):
    """Instruments, or an instrument and a channel, differ in their total channel."""


@dataclass(frozen=True, eq=False)
class StinespringDilation:
    """Dilation ``F_H(T) = V* (T (x) 1_A) V`` of a CP map.

    ``v`` maps the input space into output (x) ancilla, with the output
    factor on the slow index.
    """

    source: CPMap
    v: np.ndarray
    ancilla_dim: int
    minimal: bool

    @property
    def dim_in(self) -> int:
        return self.source.dim_in

    @property
    def dim_out(self) -> int:
        return self.source.dim_out

    def heisenberg(self, t: np.ndarray) -> np.ndarray:
        """Apply the dilated map: V* (t (x) 1_A) V."""
        return self.v.conj().T @ kron(t, np.eye(self.ancilla_dim)) @ self.v

    def kraus_columns(self) -> np.ndarray:
        """Matrix whose column a is the Choi-vectorized Kraus operator K_a."""
        dh, dk, da = self.dim_in, self.dim_out, self.ancilla_dim
        w = np.zeros((dh * dk, da), dtype=complex)
        for a in range(da):
            k_a = self.v.reshape(dk, da, dh)[:, a, :]
            w[:, a] = k_a.T.reshape(dh * dk)
        return w


def minimal_stinespring(m: CPMap, tol: Tolerances = DEFAULT_TOL) -> StinespringDilation:
    """Dilation with the smallest ancilla, assembled from Choi eigenpairs.

    Ancilla column a carries sqrt(lambda_a) times the reshaped a-th Choi
    eigenvector, ordered by descending eigenvalue. For channels V is an
    isometry. Minimality is verified numerically and recorded.
    """
    dh, dk = m.dim_in, m.dim_out
    rank = choi_rank(m, tol)
    da = max(rank, 1)
    evals, evecs = np.linalg.eigh(hermitian_part(m.choi))
    order = np.argsort(evals)[::-1][:da]
    v = np.zeros((dk * da, dh), dtype=complex)
    for a, idx in enumerate(order):
        lam = max(float(evals[idx]), 0.0)
        k_a = np.sqrt(lam) * evecs[:, idx].reshape(dh, dk).T
        v[a::da, :] = k_a
    dil = StinespringDilation(m, v, da, minimal=_is_minimal(v, dh, dk, da))

    # contract checks: reproduces the map, norm identity
    for t in hermitian_basis(dk):
        if not close(apply_h(m, t), dil.heisenberg(t), tol):
            raise AssertionError("dilation does not reproduce the map")
    v_norm_sq = float(np.linalg.norm(v, ord=2) ** 2)
    hu_norm = float(np.linalg.eigvalsh(hermitian_part(m.heisenberg_unit()))[-1])
    if abs(v_norm_sq - hu_norm) > 1e-8 * (1.0 + hu_norm):
        raise AssertionError("dilation norm identity failed")
    return dil


def _is_minimal(v: np.ndarray, dh: int, dk: int, da: int) -> bool:
    cols = []
    eye_a = np.eye(da)
    for t in hermitian_basis(dk):
        lifted = kron(t, eye_a) @ v
        cols.append(lifted)
    stacked = np.hstack(cols)
    svals = np.linalg.svd(stacked, compute_uv=False)
    numeric_rank = int(np.sum(svals > 1e-10 * max(svals[0], 1.0)))
    return numeric_rank == dk * da


def map_from_ancilla_effect(
    dil: StinespringDilation, e: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> CPMap:
    """The map ``T -> V* (T (x) E) V`` for an ancilla effect E."""
    e = hermitian_part(np.asarray(e, dtype=complex))
    if e.shape != (dil.ancilla_dim, dil.ancilla_dim):
        raise MatrixShapeError("effect must live on the ancilla")
    w = dil.kraus_columns()
    j = w @ e.T @ w.conj().T
    return CPMap(dil.dim_in, dil.dim_out, j, tol=tol)


def radon_nikodym_effect(
    dil: StinespringDilation, f: CPMap, tol: Tolerances = DEFAULT_TOL
) -> Effect:
    """The unique ancilla effect E with ``f_H(T) = V* (T (x) E) V``.

    Exists exactly when f sits below the dilated map in the CP order;
    otherwise NotDominatedError is raised. A rank-deficient extraction
    system means the dilation was not minimal.
    """
    if (f.dim_in, f.dim_out) != (dil.dim_in, dil.dim_out):
        raise MatrixShapeError("map dimensions do not match the dilation")
    if not cp_leq(f, dil.source, tol):
        raise NotDominatedError("map is not below the dilated map in the CP order")
    da = dil.ancilla_dim
    rows, rhs = [], []
    for t in hermitian_basis(dil.dim_out):
        rows.append(coord_matrix(
            lambda b: hermitian_part(dil.v.conj().T @ kron(t, b) @ dil.v), da
        ))
        rhs.append(herm_coords(hermitian_part(apply_h(f, t))))
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < da * da:
        raise NonMinimalDilationError(
            f"extraction system has rank {rank} < {da * da}; dilation not minimal"
        )
    residual = float(np.linalg.norm(a @ sol - b))
    if residual > 10 * tol.feas_tol * (1.0 + float(np.linalg.norm(b))):
        raise NotDominatedError(f"no ancilla effect reproduces the map (residual {residual:.3e})")
    e = herm_from_coords(sol, da)
    evals = np.linalg.eigvalsh(e)
    gate = 10 * tol.feas_tol
    if evals[0] < -gate or evals[-1] > 1.0 + gate:
        raise NotDominatedError(
            f"extracted operator has spectrum [{evals[0]:.3e}, {evals[-1]:.3e}] outside [0, 1]"
        )
    clipped = np.clip(evals, 0.0, 1.0)
    _, vecs = np.linalg.eigh(e)
    return Effect((vecs * clipped) @ vecs.conj().T, tol=tol)


def rn_observable(
    dil: StinespringDilation, ins: Instrument, tol: Tolerances = DEFAULT_TOL
):
    """Ancilla observable whose effects generate an instrument's branches.

    Requires the instrument total to equal the dilated channel; the
    per-branch extractions then sum to the ancilla identity and form an
    observable on the ancilla space.
    """
    from .devices import Observable

    if not close(total_channel(ins, tol).choi, dil.source.choi, tol):
        raise TotalMismatchError("instrument total differs from the dilated channel")
    effects = {x: radon_nikodym_effect(dil, ins.branches[x], tol) for x in ins.outcomes}
    return Observable(ins.outcomes, effects, tol=tol)


def ancilla_intertwiner(
    dil1: StinespringDilation, dil2: StinespringDilation, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Unitary U with ``V2 = (1 (x) U) V1`` relating two minimal dilations."""
    if dil1.ancilla_dim != dil2.ancilla_dim:
        raise MatrixShapeError("ancilla dimensions differ; dilations cannot both be minimal")
    if (dil1.dim_in, dil1.dim_out) != (dil2.dim_in, dil2.dim_out):
        raise MatrixShapeError("dilations belong to maps of different dimensions")
    da, dk, dh = dil1.ancilla_dim, dil1.dim_out, dil1.dim_in
    b1 = dil1.v.reshape(dk, da, dh).transpose(1, 0, 2).reshape(da, dk * dh)
    b2 = dil2.v.reshape(dk, da, dh).transpose(1, 0, 2).reshape(da, dk * dh)
    u, _, _, _ = np.linalg.lstsq(b1.conj().T, b2.conj().T, rcond=None)
    u = u.conj().T
    if not close(u @ u.conj().T, np.eye(da), tol) or not close(
        u.conj().T @ u, np.eye(da), tol
    ):
        raise ValueError("no unitary intertwiner found; a dilation is not minimal")
    if frob_norm(dil2.v - kron(np.eye(dk), u) @ dil1.v) > 1e-7 * (1 + frob_norm(dil2.v)):
        raise ValueError("intertwiner does not relate the dilations")
    return u


@dataclass(frozen=True, eq=False)
class AncillaReport:
    """Ancilla-level account of a compatibility verdict."""

    dilation: StinespringDilation
    effect_1: Effect
    effect_2: Effect
    commute: bool
    coexistence_relation: str | None


def verify_ancilla_characterization(f1, f2, verdict, tol: Tolerances = DEFAULT_TOL) -> AncillaReport:
    """Re-derive a verdict's content at the ancilla level.

    For a compatible pair: dilate the witness instrument's total channel,
    extract the two ancilla effects, and confirm they coexist. For a
    weakly compatible pair: extract both effects from the common channel
    and report them (their coexistence is not required).
    """
    from .compat import CompatWitness, WeakWitness, classify, witness_tolerances

    if verdict.witness is None:
        raise ValueError("verdict carries no witness to verify")
    # witnesses coming out of the feasibility engine are only accurate to
    # the solver residual, so all checks here run at the witness scale
    wtol = witness_tolerances(tol)
    w = verdict.witness
    if isinstance(w, CompatWitness):
        lam = total_channel(w.instrument, wtol)
        dil = minimal_stinespring(lam, wtol)
        op1 = w.instrument.branch_sum(w.part_1, wtol)
        op2 = w.instrument.branch_sum(w.part_2, wtol)
        e1 = radon_nikodym_effect(dil, op1, wtol)
        e2 = radon_nikodym_effect(dil, op2, wtol)
        coex = classify(e1, e2, tol=wtol)
        if coex.relation != "compatible":
            raise AssertionError("ancilla effects of a compatible pair must coexist")
        relation = coex.relation
    elif isinstance(w, WeakWitness):
        lam = w.common_channel
        dil = minimal_stinespring(lam, wtol)
        op1 = w.instrument_1.branch_sum(w.part_1, wtol)
        op2 = w.instrument_2.branch_sum(w.part_2, wtol)
        e1 = radon_nikodym_effect(dil, op1, wtol)
        e2 = radon_nikodym_effect(dil, op2, wtol)
        relation = None
    else:
        raise TypeError(f"unsupported witness type {type(w).__name__}")
    comm = e1.matrix @ e2.matrix - e2.matrix @ e1.matrix
    return AncillaReport(dil, e1, e2, frob_norm(comm) <= 1e-6, relation)
