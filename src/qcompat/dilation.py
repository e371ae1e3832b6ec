"""Minimal Stinespring dilations and ancilla-effect extraction.

A dilation represents a map through an operator ``V`` into an enlarged
space, ``F_H(T) = V* (T (x) 1_A) V``. Its Kraus operators are the ones
:func:`devices.kraus_lists` exports for the map, so dilations, models and
Kraus certificates read one decomposition. The working form is the
Kraus-column matrix ``W`` (column a is the Choi vector of the Kraus
operator K_a; V is a reshape of W): the map with ancilla effect E has
Choi matrix ``W E^T W*``. Maps dominated by the dilated one in the CP
order correspond to unique ancilla effects, read off as
``E^T = W+ J W+*``; extracting them (and observables, branch by branch)
is what connects compatibility questions to plain effect coexistence on
the ancilla.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compat import CompatWitness, WeakWitness, classify, witness_tolerances
from .devices import CPMap, Effect, Instrument, Observable, kraus_lists, total_channel
from .matkit import (
    DEFAULT_TOL,
    MatrixShapeError,
    Tolerances,
    close,
    frob_norm,
    hermitian_part,
    kron,
)
from .order import cp_leq


class NotDominatedError(ValueError):
    """The candidate map is not below the dilated map in the CP order."""


class NonMinimalDilationError(ValueError):
    """The Kraus columns are linearly dependent: the dilation is not minimal."""


class TotalMismatchError(ValueError):
    """Instruments, or an instrument and a channel, differ in their total channel."""


@dataclass(frozen=True, eq=False)
class StinespringDilation:
    """Dilation ``F_H(T) = V* (T (x) 1_A) V`` of a CP map.

    ``v`` maps the input space into output (x) ancilla, with the output
    factor on the slow index; ``kraus_columns()`` reshapes it into W.
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
        """Matrix W whose column a is the Choi-vectorized Kraus operator K_a."""
        dh, dk, da = self.dim_in, self.dim_out, self.ancilla_dim
        return self.v.reshape(dk, da, dh).transpose(2, 0, 1).reshape(dh * dk, da)


def minimal_stinespring(m: CPMap, tol: Tolerances = DEFAULT_TOL) -> StinespringDilation:
    """Dilation with the smallest ancilla, assembled from the exported Kraus operators.

    The operators are :func:`devices.kraus_lists`' for the map, in
    descending eigenvalue order, and V stacks them: ``V|i> = sum_a K_a|i> (x) |a>``.
    For channels V is an isometry. The Kraus columns are orthogonal Choi
    eigenvectors, so the dilation is minimal exactly when the map is not
    zero; ``W W* = J`` and ``||V||^2 = ||F_H(1)||`` are checked.
    """
    ops = np.array(kraus_lists([m], tol)[0][::-1])
    v = ops.transpose(1, 0, 2).reshape(-1, m.dim_in)
    dil = StinespringDilation(m, v, len(ops), minimal=bool(ops.any()))
    w = dil.kraus_columns()
    if not close(m.choi, w @ w.conj().T, tol):
        raise AssertionError("dilation does not reproduce the map")
    v_norm_sq = float(np.linalg.norm(v, ord=2) ** 2)
    hu_norm = float(np.linalg.eigvalsh(hermitian_part(m.heisenberg_unit()))[-1])
    if abs(v_norm_sq - hu_norm) > 1e-8 * (1.0 + hu_norm):
        raise AssertionError("dilation norm identity failed")
    return dil


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
    otherwise NotDominatedError is raised. In Choi form
    ``J_f = W E^T W*``, so ``E^T = W+ J_f W+*``; linearly dependent
    Kraus columns (rank of W below the ancilla side) mean the dilation
    was not minimal and raise NonMinimalDilationError.
    """
    if (f.dim_in, f.dim_out) != (dil.dim_in, dil.dim_out):
        raise MatrixShapeError("map dimensions do not match the dilation")
    if not cp_leq(f, dil.source, tol):
        raise NotDominatedError("map is not below the dilated map in the CP order")
    da = dil.ancilla_dim
    w = dil.kraus_columns()
    u, s, vh = np.linalg.svd(w, full_matrices=False)
    # E -> W E^T W* has singular values s_i s_j; keep those above the default
    # least-squares cutoff for its (dh dk)^2 rows, eps * (dh dk)^2 * s_0^2
    cut = np.finfo(float).eps * (dil.dim_in * dil.dim_out) ** 2 * s[0] ** 2
    rank = int(np.sum(s * s > cut))
    if rank < da:
        raise NonMinimalDilationError(f"Kraus columns have rank {rank} < {da}; not minimal")
    w_pinv = (vh.conj().T / s) @ u.conj().T
    et = hermitian_part(w_pinv @ f.choi @ w_pinv.conj().T)
    residual = frob_norm(w @ et @ w.conj().T - f.choi)
    if residual > 10 * tol.feas_tol * (1.0 + frob_norm(f.choi)):
        raise NotDominatedError(f"no ancilla effect reproduces the map (residual {residual:.3e})")
    evals, vecs = np.linalg.eigh(et.T)
    gate = 10 * tol.feas_tol
    if evals[0] < -gate or evals[-1] > 1.0 + gate:
        raise NotDominatedError(
            f"extracted operator has spectrum [{evals[0]:.3e}, {evals[-1]:.3e}] outside [0, 1]"
        )
    clipped = np.clip(evals, 0.0, 1.0)
    return Effect((vecs * clipped) @ vecs.conj().T, tol=tol)


def rn_observable(
    dil: StinespringDilation, ins: Instrument, tol: Tolerances = DEFAULT_TOL
):
    """Ancilla observable whose effects generate an instrument's branches.

    Requires the instrument total to equal the dilated channel; the
    per-branch extractions then sum to the ancilla identity and form an
    observable on the ancilla space.
    """
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
    da, dk = dil1.ancilla_dim, dil1.dim_out
    # K2_a = sum_b U_ab K1_b, that is W2 = W1 U^T
    u = (np.linalg.pinv(dil1.kraus_columns()) @ dil2.kraus_columns()).T
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
    if verdict.witness is None:
        raise ValueError("verdict carries no witness to verify")
    # witnesses coming out of the feasibility engine are only accurate to
    # the solver residual, so all checks here run at the witness scale
    wtol = witness_tolerances(tol)
    w = verdict.witness
    if isinstance(w, CompatWitness):
        lam, ins_1, ins_2 = total_channel(w.instrument, wtol), w.instrument, w.instrument
    elif isinstance(w, WeakWitness):
        lam, ins_1, ins_2 = w.common_channel, w.instrument_1, w.instrument_2
    else:
        raise TypeError(f"unsupported witness type {type(w).__name__}")
    dil = minimal_stinespring(lam, wtol)
    e1 = radon_nikodym_effect(dil, ins_1.branch_sum(w.part_1, wtol), wtol)
    e2 = radon_nikodym_effect(dil, ins_2.branch_sum(w.part_2, wtol), wtol)
    relation = None
    if isinstance(w, CompatWitness):
        relation = classify(e1, e2, tol=wtol).relation
        if relation != "compatible":
            raise AssertionError("ancilla effects of a compatible pair must coexist")
    comm = e1.matrix @ e2.matrix - e2.matrix @ e1.matrix
    return AncillaReport(dil, e1, e2, frob_norm(comm) <= 1e-6, relation)
