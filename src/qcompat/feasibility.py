"""Deterministic PSD-feasibility engine over stacked Hermitian blocks.

A problem asks for Hermitian PSD blocks satisfying affine constraints.
Both compatibility questions reduce to this one. The solver runs
Dykstra's alternating projections between the affine set and the
product-PSD cone; when that fails it estimates the best achievable
minimum eigenvalue over the affine set (the margin) by bisecting on a
cone shift, and only then declares infeasibility. Honest "undecided"
is a first-class verdict.

Blocks are parametrized by their real degrees of freedom (diagonal plus
weighted upper triangle) so the affine projection is a real
least-squares problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matkit import (
    DEFAULT_TOL,
    MatrixShapeError,
    Tolerances,
    coord_matrix,
    herm_coords,
    herm_from_coords,
    herm_stack_coords,
    herm_stack_from_coords,
    hermitian_part,
    partial_trace,
)


@dataclass(frozen=True)
class AffineConstraint:
    """One affine equation: sum of real-linear maps on blocks equals a target.

    Each term is (block name, real matrix acting on the block's
    coordinate vector); the right-hand side is the coordinate vector of
    a Hermitian target.
    """

    terms: tuple[tuple[str, np.ndarray], ...]
    rhs: np.ndarray
    label: str = ""


@dataclass(frozen=True)
class FeasibilityProblem:
    blocks: tuple[tuple[str, int], ...]
    constraints: tuple[AffineConstraint, ...]

    def __post_init__(self) -> None:
        names = [n for n, _ in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError("duplicate block names")
        sides = dict(self.blocks)
        for c in self.constraints:
            m = c.rhs.shape[0]
            for name, mat in c.terms:
                if name not in sides:
                    raise ValueError(f"constraint references unknown block {name!r}")
                if mat.shape != (m, sides[name] ** 2):
                    raise MatrixShapeError(
                        f"constraint term for {name!r} has shape {mat.shape}, "
                        f"expected ({m}, {sides[name] ** 2})"
                    )


@dataclass(frozen=True)
class FeasibilityOutcome:
    """Solver verdict with either a witness or a margin estimate.

    ``margin`` estimates the supremum over the affine set of the minimum
    block eigenvalue; it is present exactly when no witness was found.
    ``affine_inconsistent`` marks problems whose affine part alone has
    no solution.
    """

    verdict: str  # feasible | infeasible | undecided
    witness: dict[str, np.ndarray] | None
    margin: float | None
    residual: float
    iterations: int
    affine_inconsistent: bool = False


# ---------------------------------------------------------------------------
# constraint encoders
# ---------------------------------------------------------------------------


def encode_sum_constraint(blocks, target: np.ndarray, label: str = "") -> AffineConstraint:
    """Encode ``sum_i c_i X_i = target`` for same-side blocks.

    ``blocks`` is an iterable of names or (name, coefficient) pairs;
    bare names get coefficient +1.
    """
    target = hermitian_part(np.asarray(target, dtype=complex))
    s = target.shape[0]
    eye = np.eye(s * s)
    terms = []
    for item in blocks:
        name, coeff = item if isinstance(item, tuple) else (item, 1.0)
        terms.append((name, float(coeff) * eye))
    return AffineConstraint(tuple(terms), herm_coords(target), label=label)


def encode_partial_trace_constraint(
    block: str, dims: tuple[int, int], keep: int, target: np.ndarray, label: str = ""
) -> AffineConstraint:
    """Encode ``Tr_slot(X) = target`` for a block on a bipartite space."""
    target = hermitian_part(np.asarray(target, dtype=complex))
    d = dims[0] * dims[1]
    if target.shape[0] != dims[keep]:
        raise MatrixShapeError("target side does not match the kept slot")
    mat = coord_matrix(lambda x: partial_trace(x, dims, keep), d)
    return AffineConstraint(((block, mat),), herm_coords(target), label=label)


def encode_heisenberg_unit_constraint(
    block: str, dims: tuple[int, int], target_effect: np.ndarray, label: str = ""
) -> AffineConstraint:
    """Encode ``F_H(1) = E`` for a Choi block.

    In the canonical convention this is the partial trace over the
    output slot, transposed: ``Tr_out[J] = E^T``.
    """
    e = hermitian_part(np.asarray(target_effect, dtype=complex))
    return encode_partial_trace_constraint(block, dims, keep=0, target=e.T, label=label)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


@dataclass
class _Layout:
    names: list[str]
    sides: list[int]
    offsets: list[int]
    total: int
    # (side, gather) in ascending side order; gather is the (n_blocks, side**2)
    # array of the coordinate indices of that side's blocks
    groups: list[tuple[int, np.ndarray]]

    @classmethod
    def of(cls, problem: FeasibilityProblem) -> "_Layout":
        names = [n for n, _ in problem.blocks]
        sides = [d for _, d in problem.blocks]
        offsets, run = [], 0
        for d in sides:
            offsets.append(run)
            run += d * d
        by_side: dict[int, list[int]] = {}
        for o, d in zip(offsets, sides):
            by_side.setdefault(d, []).append(o)
        groups = [
            (d, np.array(starts)[:, None] + np.arange(d * d))
            for d, starts in sorted(by_side.items())
        ]
        return cls(names, sides, offsets, run, groups)

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        return [
            herm_from_coords(x[o : o + d * d], d) for o, d in zip(self.offsets, self.sides)
        ]


def _assemble(problem: FeasibilityProblem, layout: _Layout):
    col_of = dict(zip(layout.names, layout.offsets))
    side_of = dict(problem.blocks)
    rows, rhs = [], []
    for c in problem.constraints:
        m = c.rhs.shape[0]
        block_row = np.zeros((m, layout.total))
        for name, mat in c.terms:
            o = col_of[name]
            block_row[:, o : o + side_of[name] ** 2] += mat
        rows.append(block_row)
        rhs.append(c.rhs)
    if not rows:
        return np.zeros((0, layout.total)), np.zeros(0)
    return np.vstack(rows), np.concatenate(rhs)


def _project_cone(x: np.ndarray, layout: _Layout, shift: float):
    """Project onto the product of shifted cones {X >= shift*I}.

    Blocks of equal side are read and written through their group's
    gather; each group of side > 1 takes one batched eigendecomposition,
    and 1x1 blocks, being their own eigenvalue, are clamped directly.
    Returns the projected coordinates and the Frobenius distance moved.
    """
    out = np.empty_like(x)
    dist_sq = 0.0
    for d, gather in layout.groups:
        rows = x[gather]
        if d == 1:
            clamped = np.maximum(rows, shift)
            dist_sq += float(np.sum((clamped - rows) ** 2))
            out[gather] = clamped
            continue
        evals, evecs = np.linalg.eigh(herm_stack_from_coords(rows, d))
        clamped = np.maximum(evals, shift)
        dist_sq += float(np.sum((clamped - evals) ** 2))
        rebuilt = (evecs * clamped[:, None, :]) @ evecs.conj().swapaxes(-1, -2)
        out[gather] = herm_stack_coords(rebuilt)
    return out, np.sqrt(dist_sq)


_POLISH_THRESHOLDS = (0.5, 0.2, 0.1, 0.05, 0.02, 1e-2, 3e-3, 1e-3, 1e-4, 1e-5, 1e-6)


def _restricted_solve(z, profile, layout, a, b, shift):
    """One face-restricted least-squares step from the face suggested by z.

    Returns the clamped candidate point and its residual.
    """
    pieces = []
    bases = []
    base = np.zeros(layout.total)
    for o, d, r in zip(layout.offsets, layout.sides, profile):
        h = herm_from_coords(z[o : o + d * d], d)
        evals, evecs = np.linalg.eigh(h)
        basis = evecs[:, np.argsort(evals)[::-1][:r]]
        bases.append(basis)
        base[o : o + d * d] = herm_coords(shift * np.eye(d))
        piece = np.zeros((layout.total, r * r))
        piece[o : o + d * d] = _embedding_matrix(basis)
        pieces.append(piece)
    t_mat = np.hstack(pieces)
    z_sol, _, _, _ = np.linalg.lstsq(a @ t_mat, b - a @ base, rcond=None)
    x = base.copy()
    pos = 0
    for o, d, basis, r in zip(layout.offsets, layout.sides, bases, profile):
        zb = herm_from_coords(z_sol[pos : pos + r * r], r)
        pos += r * r
        evals, evecs = np.linalg.eigh(zb)
        zb = (evecs * np.maximum(evals, 0.0)) @ evecs.conj().T
        x[o : o + d * d] += herm_coords(basis @ zb @ basis.conj().T)
    return x, float(np.linalg.norm(a @ x - b))


def _face_polish(
    y: np.ndarray,
    layout: _Layout,
    a: np.ndarray,
    b: np.ndarray,
    proj_affine,
    shift: float,
    tol: Tolerances,
    max_rounds: int = 50,
):
    """Drive the iterate onto an exactly feasible cone face, if one fits.

    Feasible sets here typically touch the cone boundary, where
    alternating projections crawl. For each candidate face profile
    (block ranks read off the iterate's spectra at a ladder of
    thresholds) this alternates a face-restricted least-squares solve
    with re-detection of the face from the affine projection; with the
    right profile the residual collapses at a linear rate. Candidates
    are gated on their true residual, so wrong profiles are no-ops.
    """
    spectra = []
    for o, d in zip(layout.offsets, layout.sides):
        h = herm_from_coords(y[o : o + d * d], d)
        spectra.append(np.linalg.eigvalsh(h))
    seen: set[tuple[int, ...]] = set()
    for tau in _POLISH_THRESHOLDS:
        profile = tuple(
            max(int(np.sum(evals > shift + tau)), 1) for evals in spectra
        )
        if profile in seen or all(r == d for r, d in zip(profile, layout.sides)):
            continue
        if len(seen) >= 4:
            break
        seen.add(profile)
        z = y.copy()
        prev = float("inf")
        stagnant = 0
        for _ in range(max_rounds):
            x, residual = _restricted_solve(z, profile, layout, a, b, shift)
            if residual <= tol.feas_tol:
                return x, residual
            if residual > 0.9 * prev:
                stagnant += 1
                if stagnant >= 3:
                    break
            else:
                stagnant = 0
            prev = residual
            z = proj_affine(x)
    return None


def _identity_coefficient(mat: np.ndarray) -> float | None:
    """The scalar c when a term matrix equals c times the identity."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        return None
    c = float(np.trace(mat)) / n
    if np.linalg.norm(mat - c * np.eye(n)) <= 1e-12 * max(1.0, abs(c)):
        return c
    return None


def _intersect_ranges(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    p1 = b1 @ b1.conj().T
    p2 = b2 @ b2.conj().T
    evals, vecs = np.linalg.eigh((p1 + p2) / 2)
    return vecs[:, evals > 1.0 - 1e-7]


def _support_bounds(problem: FeasibilityProblem, tol: Tolerances) -> dict[str, np.ndarray]:
    """Per-block range bounds implied by positive sum constraints.

    In ``sum_i c_i X_i = R`` with all ``c_i > 0`` and PSD ``R``, every
    PSD solution block is supported inside the range of R. Intersecting
    these bounds is a facial reduction: degenerate problems become
    strictly feasible on the reduced blocks, which is where projection
    methods converge fast.
    """
    sides = dict(problem.blocks)
    bounds: dict[str, np.ndarray] = {}
    for c in problem.constraints:
        coeffs = [(_identity_coefficient(mat), name) for name, mat in c.terms]
        if not coeffs or any(co is None or co <= 0 for co, _ in coeffs):
            continue
        s = sides[c.terms[0][0]]
        if c.rhs.shape[0] != s * s:
            continue
        r = herm_from_coords(c.rhs, s)
        evals, vecs = np.linalg.eigh(r)
        scale = max(float(evals[-1]), 1.0)
        if evals[0] < -1e3 * tol.psd_tol * scale:
            continue
        basis = vecs[:, evals > tol.psd_tol]
        for _, name in coeffs:
            if name in bounds:
                bounds[name] = _intersect_ranges(bounds[name], basis)
            else:
                bounds[name] = basis
    return {
        name: b for name, b in bounds.items() if b.shape[1] < sides[name]
    }


def _embedding_matrix(basis: np.ndarray) -> np.ndarray:
    """Real coordinate map of Z -> U Z U* for a support basis U."""
    return coord_matrix(lambda z: basis @ z @ basis.conj().T, basis.shape[1])


def _reduce_problem(problem: FeasibilityProblem, tol: Tolerances):
    """Rewrite the problem on support-reduced blocks, if any bound bites.

    Returns (reduced problem, per-block bases) or None. Blocks whose
    support collapses entirely are pinned to zero and dropped.
    """
    bounds = _support_bounds(problem, tol)
    if not bounds:
        return None
    sides = dict(problem.blocks)
    bases = {name: bounds.get(name) for name, _ in problem.blocks}
    new_blocks = []
    embeddings: dict[str, np.ndarray] = {}
    for name, d in problem.blocks:
        basis = bases[name]
        if basis is None:
            new_blocks.append((name, d))
        elif basis.shape[1] == 0:
            continue  # block pinned to zero
        else:
            new_blocks.append((name, basis.shape[1]))
            embeddings[name] = _embedding_matrix(basis)
    alive = {n for n, _ in new_blocks}
    new_constraints = []
    for c in problem.constraints:
        terms = []
        for name, mat in c.terms:
            if name not in alive:
                continue
            if name in embeddings:
                terms.append((name, mat @ embeddings[name]))
            else:
                terms.append((name, mat))
        if not terms:
            if float(np.linalg.norm(c.rhs)) > tol.feas_tol:
                return "inconsistent"
            continue
        new_constraints.append(AffineConstraint(tuple(terms), c.rhs, c.label))
    reduced = FeasibilityProblem(tuple(new_blocks), tuple(new_constraints))
    return reduced, bases, sides


def solve(
    problem: FeasibilityProblem,
    tol: Tolerances = DEFAULT_TOL,
    max_iter: int = 50_000,
    *,
    probe_iter: int = 800,
    margin_steps: int = 40,
    margin_resolution: float = 5e-3,
    trace: Callable[[str], None] | None = None,
) -> FeasibilityOutcome:
    """Decide feasibility of a stacked-PSD problem.

    A facial-reduction pass first shrinks each block to the support
    allowed by positive sum constraints. Then, from the affine
    projection of zero, Dykstra's alternating projections run until the
    residual certifies a witness or the iterate gap stalls; failing
    that, the margin is bracketed by bisection on the cone shift.
    ``margin_steps`` bounds the bisection; it stops early once the
    verdict is settled and the bracket is narrower than
    ``margin_resolution`` times the initial window. All schedules are
    fixed and deterministic.
    """
    reduction = _reduce_problem(problem, tol)
    if reduction == "inconsistent":
        return FeasibilityOutcome(
            "infeasible", None, float("-inf"), float("inf"), 0, affine_inconsistent=True
        )
    if reduction is not None:
        reduced, bases, sides = reduction
        out = _solve_full(
            reduced, tol, max_iter,
            probe_iter=probe_iter, margin_steps=margin_steps,
            margin_resolution=margin_resolution, trace=trace,
        )
        if out.witness is None:
            return out
        witness = {}
        for name, d in problem.blocks:
            basis = bases[name]
            if basis is None:
                witness[name] = out.witness[name]
            elif basis.shape[1] == 0:
                witness[name] = np.zeros((d, d), dtype=complex)
            else:
                witness[name] = hermitian_part(
                    basis @ out.witness[name] @ basis.conj().T
                )
        return FeasibilityOutcome(
            out.verdict, witness, out.margin, out.residual, out.iterations
        )
    return _solve_full(
        problem, tol, max_iter,
        probe_iter=probe_iter, margin_steps=margin_steps,
        margin_resolution=margin_resolution, trace=trace,
    )


def _solve_full(
    problem: FeasibilityProblem,
    tol: Tolerances = DEFAULT_TOL,
    max_iter: int = 50_000,
    *,
    probe_iter: int = 800,
    margin_steps: int = 40,
    margin_resolution: float = 5e-3,
    trace: Callable[[str], None] | None = None,
) -> FeasibilityOutcome:
    layout = _Layout.of(problem)
    a, b = _assemble(problem, layout)
    iterations = 0

    if a.shape[0] == 0:
        # no constraints: zero blocks are a witness
        witness = {n: np.zeros((d, d), dtype=complex) for n, d in problem.blocks}
        return FeasibilityOutcome("feasible", witness, None, 0.0, 0)

    a_pinv = np.linalg.pinv(a, rcond=1e-12)
    x0 = a_pinv @ b
    affine_res = float(np.linalg.norm(a @ x0 - b))
    if affine_res > tol.feas_tol * (1.0 + float(np.linalg.norm(b))):
        if trace:
            trace(f"affine-inconsistent residual={affine_res:.3e}")
        return FeasibilityOutcome(
            "infeasible", None, float("-inf"), affine_res, 0, affine_inconsistent=True
        )
    gram = a_pinv @ a

    def proj_affine(x: np.ndarray) -> np.ndarray:
        return x - gram @ x + x0

    def run_dykstra(shift: float, budget: int):
        """Returns (witness | None, last residual, iterations used)."""
        nonlocal iterations
        x = x0.copy()
        p = np.zeros_like(x)
        gap_prev, flat = None, 0
        check_every = 25
        last_res = float("inf")
        for it in range(1, budget + 1):
            iterations += 1
            z = x + p
            y, _ = _project_cone(z, layout, shift)
            p = z - y
            x = proj_affine(y)
            if it % check_every == 0 or it == budget:
                res_y = float(np.linalg.norm(a @ y - b))
                cone_x, _ = _project_cone(x, layout, shift)
                res_cx = float(np.linalg.norm(a @ cone_x - b))
                last_res = min(res_y, res_cx)
                gap = float(np.linalg.norm(y - x))
                if trace:
                    trace(
                        f"iter={it} shift={shift:+.3e} residual={last_res:.3e} gap={gap:.3e}"
                    )
                if res_y <= tol.feas_tol:
                    return layout.split(y), res_y, it
                if res_cx <= tol.feas_tol:
                    return layout.split(cone_x), res_cx, it
                if it % 200 == 0 or it == budget:
                    polished = _face_polish(y, layout, a, b, proj_affine, shift, tol)
                    if polished is not None:
                        if trace:
                            trace(
                                f"iter={it} shift={shift:+.3e} "
                                f"face-polish residual={polished[1]:.3e}"
                            )
                        return layout.split(polished[0]), polished[1], it
                # infeasible-set gaps approach a positive limit geometrically;
                # a persistently flat gap well above feas_tol means stall
                if gap_prev is not None and gap > max(10 * tol.feas_tol, 1e-6):
                    if abs(gap - gap_prev) <= 1e-3 * gap:
                        flat += 1
                        if flat >= 4:
                            return None, last_res, it
                    else:
                        flat = 0
                gap_prev = gap
        return None, last_res, budget

    witness_blocks, residual, _ = run_dykstra(0.0, max_iter)
    if witness_blocks is not None:
        witness = {
            n: hermitian_part(m) for n, m in zip(layout.names, witness_blocks)
        }
        return FeasibilityOutcome("feasible", witness, None, residual, iterations)

    # margin estimation: bisection on the cone shift
    max_rhs = 0.0
    for c in problem.constraints:
        max_rhs = max(max_rhs, float(np.linalg.norm(c.rhs)))
    lo, hi = -1.0 - max_rhs, 1.0
    width0 = hi - lo

    ok, res_lo, _ = run_dykstra(lo, probe_iter)
    if ok is None:
        if trace:
            trace(f"bisect: infeasible at window floor {lo:.6f}")
        return FeasibilityOutcome("infeasible", None, lo, res_lo, iterations)

    for step in range(margin_steps):
        decided = hi < -tol.feas_tol or lo >= -tol.feas_tol
        if decided and (hi - lo) <= margin_resolution * width0:
            break
        mid = 0.5 * (lo + hi)
        ok, _, _ = run_dykstra(mid, probe_iter)
        if ok is not None:
            lo = mid
        else:
            hi = mid
        if trace:
            trace(f"bisect step={step} lo={lo:.9f} hi={hi:.9f}")

    margin = 0.5 * (lo + hi)
    verdict = "infeasible" if hi < -tol.feas_tol else "undecided"
    return FeasibilityOutcome(verdict, None, margin, residual, iterations)

