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
the ancilla. A verdict's ancilla account first checks its witness against
the two devices (``compat.check_witness``), then dilates the witness's
common channel, for either relation, and reads one ancilla effect from
each instrument's part, which must be a subset of its outcomes; a
compatible pair's effects must coexist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compat import check_witness, classify, witness_tolerances
from .devices import CPMap, Effect, Instrument, Observable, kraus_lists, total_channel
from .matkit import (
    DEFAULT_TOL,
    MatrixShapeError,
    Tolerances,
    bound_text,
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
            f"extracted operator has spectrum [{bound_text(evals[0])}, {bound_text(evals[-1])}]"
            " outside [0, 1]"
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

    Check the witness against f1 and f2 (:func:`compat.check_witness`),
    dilate its common channel and extract one ancilla effect from each
    instrument's part; ValueError when a part is a pointer map (an
    observable's or an instrument's), which names no one effect. For a compatible pair, whose two instruments are
    one, confirm that the effects coexist; for a weakly compatible pair,
    only report them (their coexistence is not required).
    """
    if verdict.witness is None:
        raise ValueError("verdict carries no witness to verify")
    # witnesses coming out of the feasibility engine are only accurate to
    # the solver residual, so all checks here run at the witness scale
    wtol = witness_tolerances(tol)
    w = verdict.witness
    check_witness(f1, f2, w, wtol)
    if w.part_1 is None or w.part_2 is None:
        raise ValueError("an ancilla effect needs a subset part, not a pointer map")
    dil = minimal_stinespring(w.common_channel, wtol)
    e1 = radon_nikodym_effect(dil, w.instrument_1.branch_sum(w.part_1, wtol), wtol)
    e2 = radon_nikodym_effect(dil, w.instrument_2.branch_sum(w.part_2, wtol), wtol)
    relation = None
    if verdict.relation == "compatible":
        relation = classify(e1, e2, tol=wtol).relation
        if relation != "compatible":
            raise AssertionError("ancilla effects of a compatible pair must coexist")
    comm = e1.matrix @ e2.matrix - e2.matrix @ e1.matrix
    return AncillaReport(dil, e1, e2, frob_norm(comm) <= 1e-6, relation)
