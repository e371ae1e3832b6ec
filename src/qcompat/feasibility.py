"""Deterministic PSD-feasibility engine over stacked Hermitian blocks.

A problem asks for Hermitian PSD blocks satisfying affine constraints.
Both compatibility questions reduce to this one: is the margin, the best
achievable minimum block eigenvalue over the affine set, nonnegative?
The margin is the value of a small SDP, and one primal-dual
interior-point run on it decides the question. A feasible verdict
carries a witness, a PSD point of the affine set. An infeasible one
carries a checked Farkas certificate: a dual iterate whose value bounds
the margin from above, below zero. Without either, the verdict is an
honest "undecided".

Facial reduction and the face polish share one face map: each block is
restricted to a face {U Z U*} of its cone by one isometric embedding of
coordinates, the constraints are composed with it, and points found on
the faces are lifted back through it. The polish, which rounds the run's
last boundary point onto an exactly feasible face, reads that face from
the path itself (as in Mehrotra & Ye, Math. Programming 62, 1993): one
profile, the eigenvalues above the cube root of the duality measure.
Facial reduction reads its faces from the rows (Drusvyatskiy &
Wolkowicz, arXiv:1706.03705): sum rows of either sign and partial-trace
rows bound the supports of their blocks, and the bounds are read to a
fixed point. A reduced problem whose affine set is a single point is
decided by that point's spectrum, without a step.

Blocks are parametrized by their real degrees of freedom (diagonal plus
weighted upper triangle), so the constraints form a real linear system.
Every linear map on blocks (partial traces, face maps, the blocks of the
Schur complement) gets its coordinate matrix in closed form, Re(T^H L T),
from the map's vec matrix L and the coordinate bases T. Each step of the
run decomposes the slack once; that spectrum also gives the cone
projection of the affine point, and the first one, inverted, the first
dual iterate.

Constraint rows are typed: a sum row keeps its scalar coefficients and a
partial-trace row its slot layout, so only the right-hand sides carry
data. What the blocks and the typed rows fix is planned once per shape:
the assembled constraint matrix and, for problems that facial reduction
leaves whole, its affine frame (one SVD). Plans are cached, bounded and
read-only, and a solve from a cached plan gives the bits of a cold one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matkit import (
    DEFAULT_TOL,
    MatrixShapeError,
    Tolerances,
    herm_coords,
    herm_from_coords,
    herm_stack_coords,
    herm_stack_from_coords,
    hermitian_part,
    kron,
)


@dataclass(frozen=True)
class PartialTrace:
    """The map X -> Tr_other(X) on a block of the bipartite space ``dims``,
    keeping slot ``keep``."""

    dims: tuple[int, int]
    keep: int

    @property
    def matrix(self) -> np.ndarray:
        """Its read-only coordinate matrix."""
        return _partial_trace_matrix(*self.dims, self.keep)


@dataclass(frozen=True)
class AffineConstraint:
    """One affine equation: sum of real-linear maps on blocks equals a target.

    Each term is (block name, map); the right-hand side is the
    coordinate vector of a Hermitian target. A map is a float c (c times
    the identity: a sum row), a :class:`PartialTrace`, or an explicit
    real matrix acting on the block's coordinate vector. Problems whose
    maps are all floats and partial traces are planned once per shape;
    an explicit matrix makes its problem planned afresh on every solve.
    """

    terms: tuple[tuple[str, float | PartialTrace | np.ndarray], ...]
    rhs: np.ndarray

    def __post_init__(self) -> None:
        # tuples all the way down: typed terms are a plan's cache key
        object.__setattr__(self, "terms", tuple((n, op) for n, op in self.terms))


def _term_shape(op, side: int) -> tuple[int, int]:
    """Shape of the coordinate matrix of a term's map on a block of that side."""
    if isinstance(op, PartialTrace):
        return op.dims[op.keep] ** 2, (op.dims[0] * op.dims[1]) ** 2
    if isinstance(op, np.ndarray):
        return op.shape
    return side * side, side * side


@dataclass(frozen=True)
class FeasibilityProblem:
    blocks: tuple[tuple[str, int], ...]
    constraints: tuple[AffineConstraint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple((n, d) for n, d in self.blocks))
        names = [n for n, _ in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError("duplicate block names")
        sides = dict(self.blocks)
        for c in self.constraints:
            m = c.rhs.shape[0]
            for name, op in c.terms:
                if name not in sides:
                    raise ValueError(f"constraint references unknown block {name!r}")
                shape = _term_shape(op, sides[name])
                if shape != (m, sides[name] ** 2):
                    raise MatrixShapeError(
                        f"constraint term for {name!r} has shape {shape}, "
                        f"expected ({m}, {sides[name] ** 2})"
                    )


@dataclass(frozen=True)
class FeasibilityOutcome:
    """Solver verdict with either a witness or a margin bound.

    ``margin`` is a certified upper bound on the supremum over the affine
    set of the minimum block eigenvalue (``inf`` when no certificate was
    found); it is present exactly when no witness was found.
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


def encode_sum_constraint(blocks, target: np.ndarray) -> AffineConstraint:
    """Encode ``sum_i c_i X_i = target`` for same-side blocks.

    ``blocks`` is an iterable of names or (name, coefficient) pairs;
    bare names get coefficient +1.
    """
    target = hermitian_part(np.asarray(target, dtype=complex))
    terms = (item if isinstance(item, tuple) else (item, 1.0) for item in blocks)
    return AffineConstraint(tuple((n, float(c)) for n, c in terms), herm_coords(target))


def encode_partial_trace_constraint(
    block: str, dims: tuple[int, int], keep: int, target: np.ndarray
) -> AffineConstraint:
    """Encode ``Tr_slot(X) = target`` for a block on a bipartite space."""
    target = hermitian_part(np.asarray(target, dtype=complex))
    if target.shape[0] != dims[keep]:
        raise MatrixShapeError("target side does not match the kept slot")
    op = PartialTrace((int(dims[0]), int(dims[1])), int(keep))
    return AffineConstraint(((block, op),), herm_coords(target))


@functools.cache
def _coord_basis(d: int) -> np.ndarray:
    """Read-only (d*d, d*d) complex matrix whose column k is the row-major
    vec of the k-th coordinate matrix of side d, cached per d."""
    basis = herm_stack_from_coords(np.eye(d * d), d).reshape(d * d, d * d).T.copy()
    basis.flags.writeable = False
    return basis


def _coord_matrix(vec: np.ndarray) -> np.ndarray:
    """Real coordinate matrix of a linear map on Hermitian matrices, or of
    a stack of them, from the map's row-major vec matrix: Re(T_out^H vec T_in)
    with T the coordinate bases of ``_coord_basis``."""
    d_out, d_in = (math.isqrt(n) for n in vec.shape[-2:])
    return (_coord_basis(d_out).conj().T @ vec @ _coord_basis(d_in)).real


@functools.cache
def _partial_trace_matrix(d0: int, d1: int, keep: int) -> np.ndarray:
    """Read-only coordinate matrix of the partial trace, cached per slot layout.

    The trace over the other slot is the sum of A X A* over the real
    A = 1 (x) <k| (keep=0) or <k| (x) 1 (keep=1), so its vec matrix is the
    sum of A (x) conj(A) = A (x) A.
    """
    eye, units = np.eye((d0, d1)[keep]), np.eye((d0, d1)[1 - keep])
    ops = [kron(eye, k[None]) if keep == 0 else kron(k[None], eye) for k in units]
    mat = _coord_matrix(sum(kron(op, op) for op in ops))
    mat.flags.writeable = False
    return mat


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Layout:
    names: tuple[str, ...]
    sides: tuple[int, ...]
    offsets: tuple[int, ...]
    total: int
    # (side, span) in ascending side order; span is the slice of the
    # coordinates of that side's blocks, x[span].reshape(-1, side**2)
    groups: tuple[tuple[int, slice], ...]
    # read-only coordinates of the all-blocks identity e
    identity: np.ndarray

    @staticmethod
    @functools.lru_cache(maxsize=256)
    def of(blocks: tuple[tuple[str, int], ...]) -> "_Layout":
        """Layout of (name, side) blocks, stacked by ascending side and in the given
        order within a side; cached. ``names``, ``sides`` and ``offsets`` keep that order."""
        names = tuple(n for n, _ in blocks)
        sides = tuple(d for _, d in blocks)
        offsets, total, groups = [0] * len(sides), 0, []
        for d in sorted(set(sides)):
            start = total
            for k in (k for k, dk in enumerate(sides) if dk == d):
                offsets[k] = total
                total += d * d
            groups.append((d, slice(start, total)))
        identity = np.zeros(total)
        for o, d in zip(offsets, sides):
            identity[o : o + d] = 1.0  # the diagonal coordinates come first
        identity.flags.writeable = False
        return _Layout(names, sides, tuple(offsets), total, tuple(groups), identity)

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        return [
            herm_from_coords(x[o : o + d * d], d) for o, d in zip(self.offsets, self.sides)
        ]


def _face_map(layout: _Layout, bases) -> tuple[np.ndarray, _Layout]:
    """Embedding of the face {U Z U*} of each block, and the face's layout.

    ``bases`` holds one support basis U per block of ``layout``: None
    keeps the block whole, and a basis with no columns pins the block to
    zero (it gets no face coordinates). The returned real matrix maps
    face coordinates to ``layout`` coordinates; it is an isometry, since
    Z -> U Z U* preserves the Frobenius norm for orthonormal columns.
    """
    kept = [
        (n, o, d, u)
        for n, o, d, u in zip(layout.names, layout.offsets, layout.sides, bases)
        if u is None or u.shape[1]
    ]
    face = _Layout.of(tuple((n, d if u is None else u.shape[1]) for n, _, d, u in kept))
    embed = np.zeros((layout.total, face.total))
    for (_, o, d, u), fo, r in zip(kept, face.offsets, face.sides):
        embed[o : o + d * d, fo : fo + r * r] = (
            np.eye(d * d) if u is None else _coord_matrix(kron(u, u.conj()))
        )
    return embed, face


def _assemble(rows, layout: _Layout) -> np.ndarray:
    """Read-only constraint matrix of rows given as (terms, height)."""
    col_of = dict(zip(layout.names, zip(layout.offsets, layout.sides)))
    parts = []
    for terms, m in rows:
        block_row = np.zeros((m, layout.total))
        for name, op in terms:
            o, d = col_of[name]
            cols = block_row[:, o : o + d * d]
            if isinstance(op, PartialTrace):
                op = op.matrix
            if isinstance(op, np.ndarray):
                cols += op
            else:  # c times the identity
                diag = np.arange(d * d)
                cols[diag, diag] += op
        parts.append(block_row)
    a = np.vstack(parts) if parts else np.zeros((0, layout.total))
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class _Frame:
    """The affine frame of a constraint matrix a, from one SVD.

    The rows of ``row`` are an orthonormal basis of the row space of a,
    with ``u`` and ``sv`` their left singular vectors and values:
    ``x0(b)`` is the min-norm solution of a x = b, and ``project`` the
    projection onto the row space. ``f`` stacks an orthonormal basis of
    the null space, one vector per row, on the all-blocks identity e; a
    side group's columns are the contiguous ``f[:, span]``. ``blind``
    marks constraints that never see e. All arrays are read-only and own
    their data, so the full SVD bases are not kept.
    """

    row: np.ndarray
    u: np.ndarray
    sv: np.ndarray
    f: np.ndarray
    blind: bool

    @staticmethod
    def of(a: np.ndarray, layout: _Layout) -> "_Frame":
        u, sv, vt = np.linalg.svd(a)
        rank = int(np.sum(sv > 1e-12 * sv[0]))
        row, u, sv = vt[:rank].copy(), u[:, :rank].copy(), sv[:rank].copy()
        e = layout.identity
        f = np.vstack([vt[rank:], e])  # the slack is S = x0 - f^T y, with y = (w, t)
        for arr in (u, sv, row, f):
            arr.flags.writeable = False
        blind = bool(np.linalg.norm(row @ e) <= 1e-9 * np.linalg.norm(e))
        return _Frame(row, u, sv, f, blind)

    def x0(self, b: np.ndarray) -> np.ndarray:
        return self.row.T @ ((self.u.T @ b) / self.sv)

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.row.T @ (self.row @ v)


@dataclass(frozen=True, eq=False)
class _Plan:
    """What a problem's shape fixes: its layout, its read-only constraint
    matrix and, once a solve has needed it, that matrix's affine frame."""

    layout: _Layout
    a: np.ndarray

    @staticmethod
    def build(blocks: tuple[tuple[str, int], ...], rows) -> "_Plan":
        layout = _Layout.of(blocks)
        return _Plan(layout, _assemble(rows, layout))

    @staticmethod
    @functools.lru_cache(maxsize=32)
    def of(blocks: tuple[tuple[str, int], ...], rows) -> "_Plan":
        """Plan of blocks and typed (terms, height) rows; cached."""
        return _Plan.build(blocks, rows)

    @functools.cached_property
    def frame(self) -> _Frame:
        return _Frame.of(self.a, self.layout)


def _plan(problem: FeasibilityProblem) -> _Plan:
    """The problem's plan: cached per shape, unless a term is an explicit matrix."""
    rows = tuple((c.terms, c.rhs.shape[0]) for c in problem.constraints)
    if any(isinstance(op, np.ndarray) for terms, _ in rows for _, op in terms):
        return _Plan.build(problem.blocks, rows)
    return _Plan.of(problem.blocks, rows)


def _spectra(x: np.ndarray, layout: _Layout) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per side group, the (evals, evecs) of the blocks of a coordinate vector.

    Blocks of equal side are read from their group's span; each group
    of side > 1 takes one batched eigendecomposition, and 1x1 blocks are
    their own eigenvalue.
    """
    return [
        (x[span, None], np.ones((span.stop - span.start, 1, 1))) if d == 1
        else np.linalg.eigh(herm_stack_from_coords(x[span].reshape(-1, d * d), d))
        for d, span in layout.groups
    ]


def _clamp(spectra, shift: float, layout: _Layout) -> np.ndarray:
    """Cone projection of X + shift e, from the per-group spectra of X.

    e is the identity in every block, so X + shift e has X's
    eigenvectors, and its projection is V max(evals + shift, 0) V*.
    """
    out = np.empty(layout.total)
    for (d, span), (evals, evecs) in zip(layout.groups, spectra):
        clamped = np.maximum(evals + shift, 0.0)
        out[span] = (clamped if d == 1 else herm_stack_coords(
            (evecs * clamped[:, None, :]) @ evecs.conj().swapaxes(-1, -2)
        )).ravel()
    return out


def _project_cone(x: np.ndarray, layout: _Layout) -> np.ndarray:
    """Project onto the product of PSD cones."""
    return _clamp(_spectra(x, layout), 0.0, layout)


def _min_eig(v: np.ndarray, layout: _Layout) -> float:
    """Least eigenvalue over all blocks of a coordinate vector."""
    mu = float("inf")
    for d, span in layout.groups:
        rows = v[span].reshape(-1, d * d)
        evals = rows if d == 1 else np.linalg.eigvalsh(herm_stack_from_coords(rows, d))
        mu = min(mu, float(evals.min()))
    return mu


def _certificate_bound(z: np.ndarray, layout: _Layout, x0: np.ndarray):
    """Upper bound on the minimum block eigenvalue over the affine set, or None.

    ``z``, a vector in the row space of the constraints (a projection,
    ``_Frame.project``), has <X, z> = <x0, z> for every affine X. When z
    is PSD blockwise, <X, z> >= min eig(X) * <e, z> with e the all-blocks
    identity, hence min eig(X) <= <x0, z> / <e, z>. A z with a negative
    eigenvalue gives no bound. A bound below zero is a Farkas certificate
    of infeasibility.
    """
    if _min_eig(z, layout) < 0:
        return None
    weight = float(layout.identity @ z)
    if weight <= 0:
        return None
    return float(x0 @ z) / weight


def _least_projector(spectra, layout: _Layout) -> np.ndarray:
    """Coordinates of the projector onto the least eigenvector over all
    blocks, from their per-group spectra, plus 1e-12 of that block's
    identity, so that rounding cannot make it indefinite."""
    (d, span), (evals, evecs) = min(
        zip(layout.groups, spectra), key=lambda group: float(group[1][0][:, 0].min())
    )
    i = int(np.argmin(evals[:, 0]))
    v = evecs[i, :, :1]
    z = np.zeros(layout.total)
    o = span.start + i * d * d
    z[o : o + d * d] = herm_coords(v @ v.conj().T + 1e-12 * np.eye(d))
    return z


_MAX_STEPS = 100  # interior-point steps per run, at most
_POLISH_ROUNDS = 50  # restricted solves of one face polish, at most


def _restricted_solve(z, profile, layout, a, b):
    """One face-restricted least-squares step from the face suggested by z.

    Returns the clamped candidate point and its residual.
    """
    bases = []
    for block, r in zip(layout.split(z), profile):
        evals, evecs = np.linalg.eigh(block)
        bases.append(evecs[:, np.argsort(evals)[::-1][:r]])
    embed, face = _face_map(layout, bases)
    z_sol, _, _, _ = np.linalg.lstsq(a @ embed, b, rcond=None)
    x = embed @ _project_cone(z_sol, face)
    return x, float(np.linalg.norm(a @ x - b))


def _face_rank(evals: np.ndarray, tau: float) -> int:
    """Face rank of a block with ascending spectrum evals at threshold tau.

    The count above tau, at least 1, widened to every eigenvalue within
    1e-9 (relative) of the least one kept: a face never splits a
    near-degenerate eigenspace, whose eigenvectors the point's last bits
    would pick. The band is far below the polish cutoffs the path
    reaches and well above the rounding noise a path iterate carries.
    """
    r = max(int(np.sum(evals > tau)), 1)
    return int(np.sum(evals >= evals[-r] - 1e-9 * max(1.0, float(np.abs(evals).max()))))


def _face_polish(
    y: np.ndarray,
    cutoff: float,
    layout: _Layout,
    a: np.ndarray,
    b: np.ndarray,
    proj_affine,
    tol: Tolerances,
):
    """Round a near-boundary affine point onto an exactly feasible cone face.

    Feasible sets here typically touch the cone boundary, where a
    projected point of the path still sits about the square root of its
    residual away from the face. The face profile keeps each block's
    eigenvalues of y above ``cutoff``, read by ``_face_rank``; the polish
    alternates a face-restricted least-squares solve with re-detection of
    the face from the affine projection, and on the right face the
    residual collapses at a linear rate. The candidate is gated on its
    true residual, so a wrong face is a no-op: the result is None unless
    a point within ``feas_tol`` is found.
    """
    profile = tuple(_face_rank(np.linalg.eigvalsh(h), cutoff) for h in layout.split(y))
    if profile == layout.sides:
        return None
    z, prev, stagnant = y, float("inf"), 0
    for _ in range(_POLISH_ROUNDS):
        x, residual = _restricted_solve(z, profile, layout, a, b)
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


def _intersect_ranges(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    p1 = b1 @ b1.conj().T
    p2 = b2 @ b2.conj().T
    evals, vecs = np.linalg.eigh((p1 + p2) / 2)
    return vecs[:, evals > 1.0 - 1e-7]


def _ranges(coords: np.ndarray, m: int, tol: Tolerances) -> list[np.ndarray | None]:
    """Range bases of the side-m targets whose coordinates ``coords`` stacks,
    from one batched eigh: the eigenvectors of eigenvalues beyond psd_tol in
    modulus, or None for a target of full range."""
    evals, vecs = np.linalg.eigh(herm_stack_from_coords(coords, m))
    kept = np.abs(evals) > tol.psd_tol
    return [None if k.all() else v[:, k] for k, v in zip(kept, vecs)]


def _span(bases) -> np.ndarray:
    """Orthonormal basis of the sum of the column spaces of ``bases``."""
    u, sv, _ = np.linalg.svd(np.hstack(bases), full_matrices=False)
    return u[:, sv > 1e-9]


def _lift(basis: np.ndarray, op) -> np.ndarray:
    """The bound on a block that a bound on its term's image gives: the
    basis itself for a sum term; tensored with the traced slot for a
    partial trace, since a PSD X on A (x) B lies in supp(Tr_B X) (x) B."""
    if not isinstance(op, PartialTrace):
        return basis
    traced = np.eye(op.dims[1 - op.keep])
    return kron(basis, traced) if op.keep == 0 else kron(traced, basis)


def _support_bounds(problem: FeasibilityProblem, tol: Tolerances) -> dict[str, np.ndarray]:
    """Per-block range bounds implied by the rows, read to a fixed point.

    A row reads as ``sum_i T_i(X_i) = R + sum_j c_j X_j``: the T_i are its
    positive sum coefficients and its partial traces, and its negative sum
    terms move to the right with c_j > 0. Every term is PSD at a solution,
    so each T_i(X_i) lies in range(R) + sum_j supp(X_j), and so does X_i,
    tensored with the traced slot for a partial trace. A row with negative
    terms is read once every block it subtracts is bounded, and read again
    whenever one of those bounds shrinks, until no bound shrinks. Rows
    with an explicit matrix term are not read.

    Intersecting these bounds is a facial reduction: degenerate problems
    become strictly feasible on the reduced blocks, where the
    interior-point run finds an interior witness instead of crawling
    towards the boundary. A bound is stored only when it shrinks a block,
    so a row that bounds nothing new never rotates a basis.
    """
    sides = dict(problem.blocks)
    rows = []  # (positive terms, names of the negative terms, target coordinates)
    for c in problem.constraints:
        pos, neg = [], []
        for name, op in c.terms:
            if isinstance(op, np.ndarray):
                break
            if isinstance(op, PartialTrace) or op > 0:
                pos.append((name, op))
            elif op < 0:
                neg.append(name)
        else:
            if pos:
                rows.append((pos, neg, c.rhs))
    # the targets' ranges (None when full): the rows without negative terms
    # are read first, their targets decomposed in one batch per side, and a
    # row with negative terms decomposes its target when it is first read
    ranges: dict[int, np.ndarray | None] = {}
    by_side: dict[int, list[int]] = {}
    for k, (_, neg, rhs) in enumerate(rows):
        if not neg:
            by_side.setdefault(math.isqrt(len(rhs)), []).append(k)
    for m, ks in by_side.items():
        ranges.update(zip(ks, _ranges(np.array([rows[k][2] for k in ks]), m, tol)))
    bounds: dict[str, np.ndarray] = {}
    pending = list(range(len(rows)))
    while pending:
        k = pending.pop(0)
        pos, neg, rhs = rows[k]
        if any(n not in bounds for n in neg):
            continue
        if k not in ranges:
            ranges[k] = _ranges(rhs[None], math.isqrt(len(rhs)), tol)[0]
        space = ranges[k]
        if space is not None and neg:
            space = _span([space] + [bounds[n] for n in neg])
        if space is None or space.shape[1] == space.shape[0]:
            continue  # a row that spans its whole side bounds no support
        for name, op in pos:
            basis = _lift(space, op)
            if name in bounds:
                basis = _intersect_ranges(bounds[name], basis)
            if basis.shape[1] < (bounds[name].shape[1] if name in bounds else sides[name]):
                bounds[name] = basis
                pending += [j for j, row in enumerate(rows) if name in row[1] and j not in pending]
    return bounds


def _step_lengths(halves, dz: np.ndarray, ds: np.ndarray, layout: _Layout):
    """Steps along dZ and dS: 0.95 of the way to the cone boundary, capped at 1.

    ``halves`` holds, per side group, Z^(-1/2) stacked over S^(-1/2). The
    largest step keeping X + a dX PD is -1 over the least eigenvalue of
    X^(-1/2) dX X^(-1/2), when that is negative; both directions of a
    group take one batched eigenvalue call.
    """
    lo_z = lo_s = 0.0
    for (d, span), h in zip(layout.groups, halves):
        rows = np.concatenate([dz[span], ds[span]]).reshape(-1, d * d)
        if d == 1:  # 1x1 blocks are their own eigenvalue
            least = (h[:, 0] * rows * h[:, 0])[:, 0]
        else:
            least = np.linalg.eigvalsh(h @ herm_stack_from_coords(rows, d) @ h)[:, 0]
        lo_z = min(lo_z, float(least[: len(least) // 2].min()))
        lo_s = min(lo_s, float(least[len(least) // 2 :].min()))
    return tuple(1.0 if lo >= -0.95 else -0.95 / lo for lo in (lo_z, lo_s))


def _newton_step(z, y, s, spec_z, spec_s, layout: _Layout, f):
    """One HKM predictor-corrector step from (Z, y), with S = x0 - f^T y.

    ``spec_z`` and ``spec_s`` are the per-group spectra of Z and S. The
    Schur complement is f K f^T with K block-diagonal: for a block
    pair (Z, S), K = Re(T^H (Z kron S^-T) T) maps the coordinates of H
    to those of sym(Z H S^-1), T being the coordinate basis. Each side
    group adds its blocks, the columns f[:, span], in one batched product.
    """
    nu = float(f[-1] @ f[-1])
    unit_t = np.zeros(len(f))
    unit_t[-1] = 1.0
    m = np.zeros((len(f), len(f)))
    kmats, sinv, halves, sinv_c = [], [], [], np.empty_like(z)
    for (d, span), (ls, vs), (lz, vz) in zip(layout.groups, spec_s, spec_z):
        if not lz[:, 0].min() > 0:
            raise np.linalg.LinAlgError("the dual iterate left the cone interior")
        vs_h, vz_h = vs.conj().swapaxes(-1, -2), vz.conj().swapaxes(-1, -2)
        inv = (vs / ls[:, None, :]) @ vs_h
        sinv.append(inv)
        sinv_c[span] = herm_stack_coords(inv).ravel()
        halves.append(np.concatenate([
            (vz / np.sqrt(lz)[:, None, :]) @ vz_h, (vs / np.sqrt(ls)[:, None, :]) @ vs_h
        ]))
        n_b, dd = len(ls), d * d
        kron_zs = np.einsum("bij,bkl->biljk", (vz * lz[:, None, :]) @ vz_h, inv)
        k = _coord_matrix(kron_zs.reshape(n_b, dd, dd))
        k = (k + k.swapaxes(-1, -2)) / 2
        kmats.append(k)
        fg = f[:, span]
        fk = fg.reshape(-1, n_b, dd).swapaxes(0, 1) @ k
        m += fk.swapaxes(0, 1).reshape(len(f), -1) @ fg.T

    def apply_k(v):
        out = np.empty_like(v)
        for (d, span), k in zip(layout.groups, kmats):
            out[span] = (k @ v[span].reshape(-1, d * d, 1)).ravel()
        return out

    # predictor (sigma = 0) and its complementarity after the step
    dy = np.linalg.solve(m, unit_t)
    ds = -f.T @ dy
    dz = apply_k(-ds) - z
    a_z, a_s = _step_lengths(halves, dz, ds, layout)
    mu = float(z @ s) / nu
    mu_aff = float((z + a_z * dz) @ (s + a_s * ds)) / nu
    sigma_mu = min(1.0, max(mu_aff, 0.0) / mu) ** 3 * mu
    # corrector: centring plus the second-order term sym(dZ dS S^-1)
    corr = np.empty_like(z)
    for (d, span), inv in zip(layout.groups, sinv):
        dz_m, ds_m = (herm_stack_from_coords(v[span].reshape(-1, d * d), d) for v in (dz, ds))
        prod = dz_m @ ds_m @ inv
        corr[span] = herm_stack_coords((prod + prod.conj().swapaxes(-1, -2)) / 2).ravel()
    dy = np.linalg.solve(m, unit_t - sigma_mu * (f @ sinv_c) + f @ corr)
    ds = -f.T @ dy
    dz = sigma_mu * sinv_c - z + apply_k(-ds) - corr
    a_z, a_s = _step_lengths(halves, dz, ds, layout)
    return z + a_z * dz, y + a_s * dy


def solve(
    problem: FeasibilityProblem,
    tol: Tolerances = DEFAULT_TOL,
    *,
    trace: Callable[[str], None] | None = None,
) -> FeasibilityOutcome:
    """Decide feasibility of a stacked-PSD problem.

    Facial reduction first restricts each block to the support that the
    rows allow (``_support_bounds``): the constraints are composed with
    the face map of ``_face_map`` and the search runs in face coordinates.
    One SVD of the constraint matrix gives the min-norm affine point x0,
    the row-space projector and an orthonormal null-space basis N; a
    problem left whole takes it from its shape's ``_Plan``. When N is
    empty, the affine set is the point x0 and the margin is its least
    eigenvalue: below ``-feas_tol``, the problem is infeasible at step 0,
    with the least eigenvector's projector (plus 1e-12 of its block's
    identity, so that rounding cannot make it indefinite) as the
    certificate, checked by ``_certificate_bound``. Otherwise
    one infeasible-start primal-dual interior-point run of at most
    ``_MAX_STEPS`` steps (HKM direction, Mehrotra predictor-corrector)
    works on the margin SDP

        maximize t  s.t.  x0 - N w - t e is PSD blockwise,

    with e the all-blocks identity. Its dual, minimize <x0, Z> over PSD
    Z with N^T Z = 0 and <e, Z> = 1, is a Farkas certificate. The run
    starts on the central path: from w = 0 and t = lambda_min(x0) - 1,
    with the slack S = x0 - t e, and from the dual iterate
    Z = S^-1 / <e, S^-1>, so that Z S = mu 1 in every block. Every step
    checks the affine point Y = x0 - N w: Y is the witness when PSD, and
    a certificate bound (``_certificate_bound`` of Z) below ``-feas_tol``
    is an infeasible verdict. The run stops early when Y's cone
    projection meets the constraints within ``feas_tol`` (a boundary
    point), and otherwise when the budget is spent or the Newton system
    breaks down. Then one face polish rounds the last Y onto its face,
    read at the cutoff cbrt(mu), mu = <Z, S> / <e, e> being the duality
    measure of Y's iterate: on the path, eigenvalues of Y in the face
    stay of order 1, and the others fall like mu, or like about sqrt(mu)
    where strict complementarity fails. A polished point within
    ``feas_tol`` is the witness; else the projection is, when it met
    the constraints; else the verdict is undecided, with the best
    certified margin. The run is deterministic.
    """
    plan = _plan(problem)
    full, a = plan.layout, plan.a
    b = np.concatenate([c.rhs for c in problem.constraints]) if problem.constraints else np.zeros(0)
    bounds = _support_bounds(problem, tol)
    embed, layout = None, full
    if bounds:
        embed, layout = _face_map(full, [bounds.get(n) for n in full.names])
        a = a @ embed

    frame = None
    x0 = np.zeros(layout.total)
    if a.size:
        # a face depends on the data, so only a whole problem reuses its plan's frame
        frame = plan.frame if embed is None else _Frame.of(a, layout)
        x0 = frame.x0(b)
    affine_res = float(np.linalg.norm(a @ x0 - b))
    if affine_res > tol.feas_tol * (1.0 + float(np.linalg.norm(b))):
        if trace:
            trace(f"affine-inconsistent residual={affine_res:.3e}")
        return FeasibilityOutcome(
            "infeasible", None, float("-inf"), affine_res, 0, affine_inconsistent=True
        )

    def feasible(point: np.ndarray, residual: float, it: int) -> FeasibilityOutcome:
        if embed is not None:
            point = embed @ point
        witness = {n: hermitian_part(m) for n, m in zip(full.names, full.split(point))}
        return FeasibilityOutcome("feasible", witness, None, residual, it)

    if frame is None:
        # no constraints, or every block pinned: the zero point is the witness
        return feasible(x0, affine_res, 0)

    e = layout.identity
    if frame.blind:
        # the constraints never see e, so the affine set holds every shift
        # of x0 along it, and the least PSD one is the witness
        point = x0 - min(_min_eig(x0, layout), 0.0) * e
        return feasible(point, float(np.linalg.norm(a @ point - b)), 0)
    f = frame.f

    def proj_affine(x: np.ndarray) -> np.ndarray:
        return x - frame.project(x) + x0

    # the first slack S = x0 - t e has the eigenvectors of x0 and its
    # eigenvalues shifted by -t: one decomposition serves both
    spec_s = _spectra(x0, layout)
    least = min(float(evals[:, 0].min()) for evals, _ in spec_s)
    if len(f) == 1 and least < -tol.feas_tol:
        # the affine set is the point x0, whose margin is its least eigenvalue
        margin = _certificate_bound(frame.project(_least_projector(spec_s, layout)), layout, x0)
        if margin is not None and margin < -tol.feas_tol:
            residual = float(np.linalg.norm(a @ _clamp(spec_s, 0.0, layout) - b))
            if trace:
                trace(f"iter=0 shift=+0.000e+00 point residual={residual:.3e} margin={margin:.3e}")
            return FeasibilityOutcome("infeasible", None, margin, residual, 0)

    nu = float(e @ e)
    y = np.zeros(len(f))
    y[-1] = least - 1.0
    spec_s = [(evals - y[-1], evecs) for evals, evecs in spec_s]
    # the first dual iterate is S^-1 / <e, S^-1>, centred: Z S = mu 1 in
    # every block; its spectrum is the slack's, inverted (ascending again)
    spec_z = [(1.0 / evals[:, ::-1], evecs[..., ::-1]) for evals, evecs in spec_s]
    weight = sum(float(evals.sum()) for evals, _ in spec_z)
    z = _clamp(spec_z, 0.0, layout) / weight
    spec_z = [(evals / weight, evecs) for evals, evecs in spec_z]
    margin = residual = float("inf")
    done = 0
    point = None
    try:
        for it in range(_MAX_STEPS + 1):
            s = x0 - f.T @ y
            if it:
                spec_s = _spectra(s, layout)
            least = min(float(evals[:, 0].min()) for evals, _ in spec_s)
            if not least > 0:
                raise np.linalg.LinAlgError("the slack left the cone interior")
            point, gap = x0 - f[:-1].T @ y[:-1], float(z @ s)
            psd = least + y[-1] >= 0  # Y = S + t e: the slack's spectrum shifted by t
            cone = point if psd else _clamp(spec_s, y[-1], layout)
            residual = float(np.linalg.norm(a @ cone - b))
            if trace:
                trace(f"iter={it} shift=+0.000e+00 residual={residual:.3e} gap={gap:.3e}")
            done = it
            if psd:
                return feasible(point, residual, it)
            if residual <= tol.feas_tol:
                break
            bound = _certificate_bound(frame.project(z), layout, x0)
            if bound is not None and bound < margin:
                margin = bound
                if margin < -tol.feas_tol:
                    return FeasibilityOutcome("infeasible", None, margin, residual, it)
            if it < _MAX_STEPS:
                if it:
                    spec_z = _spectra(z, layout)
                z, y = _newton_step(z, y, s, spec_z, spec_s, layout, f)
    except np.linalg.LinAlgError:
        pass
    if point is not None:
        # polished even when the projection met feas_tol: only the polished point lies on the face
        polished = _face_polish(point, float(np.cbrt(gap / nu)), layout, a, b, proj_affine, tol)
        if polished is not None:
            if trace:
                trace(f"iter={done} shift=+0.000e+00 face-polish residual={polished[1]:.3e}")
            return feasible(*polished, done)
    if residual <= tol.feas_tol:
        return feasible(cone, residual, done)
    return FeasibilityOutcome("undecided", None, margin, residual, done)
