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
the faces are lifted back through it.

Blocks are parametrized by their real degrees of freedom (diagonal plus
weighted upper triangle), so the constraints form a real linear system.
Every linear map on blocks (partial traces, face maps, the blocks of the
Schur complement) gets its coordinate matrix in closed form, Re(T^H L T),
from the map's vec matrix L and the coordinate bases T. Each step of the
run decomposes the slack once; that spectrum also gives the cone
projection of the affine point.
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
    frob_norm,
    herm_coords,
    herm_from_coords,
    herm_stack_coords,
    herm_stack_from_coords,
    hermitian_part,
    kron,
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
    s = target.shape[0]
    eye = np.eye(s * s)
    terms = []
    for item in blocks:
        name, coeff = item if isinstance(item, tuple) else (item, 1.0)
        terms.append((name, float(coeff) * eye))
    return AffineConstraint(tuple(terms), herm_coords(target))


def encode_partial_trace_constraint(
    block: str, dims: tuple[int, int], keep: int, target: np.ndarray
) -> AffineConstraint:
    """Encode ``Tr_slot(X) = target`` for a block on a bipartite space."""
    target = hermitian_part(np.asarray(target, dtype=complex))
    if target.shape[0] != dims[keep]:
        raise MatrixShapeError("target side does not match the kept slot")
    mat = _partial_trace_matrix(int(dims[0]), int(dims[1]), keep)
    return AffineConstraint(((block, mat),), herm_coords(target))


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


def encode_heisenberg_unit_constraint(
    block: str, dims: tuple[int, int], target_effect: np.ndarray
) -> AffineConstraint:
    """Encode ``F_H(1) = E`` for a Choi block.

    In the canonical convention this is the partial trace over the
    output slot, transposed: ``Tr_out[J] = E^T``.
    """
    e = hermitian_part(np.asarray(target_effect, dtype=complex))
    return encode_partial_trace_constraint(block, dims, keep=0, target=e.T)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Layout:
    names: tuple[str, ...]
    sides: tuple[int, ...]
    offsets: tuple[int, ...]
    total: int
    # (side, gather) in ascending side order; gather is the read-only
    # (n_blocks, side**2) array of the coordinate indices of that side's blocks
    groups: tuple[tuple[int, np.ndarray], ...]
    # read-only coordinates of the all-blocks identity e
    identity: np.ndarray

    @staticmethod
    @functools.lru_cache(maxsize=256)
    def of(blocks: tuple[tuple[str, int], ...]) -> "_Layout":
        """Layout of (name, side) blocks, stacked in the given order; cached."""
        names = tuple(n for n, _ in blocks)
        sides = tuple(d for _, d in blocks)
        offsets, total = [], 0
        by_side: dict[int, list[int]] = {}
        for d in sides:
            offsets.append(total)
            by_side.setdefault(d, []).append(total)
            total += d * d
        identity = np.zeros(total)
        for o, d in zip(offsets, sides):
            identity[o : o + d] = 1.0  # the diagonal coordinates come first
        groups = tuple(
            (d, np.array(starts)[:, None] + np.arange(d * d))
            for d, starts in sorted(by_side.items())
        )
        for arr in (identity, *(g for _, g in groups)):
            arr.flags.writeable = False
        return _Layout(names, sides, tuple(offsets), total, groups, identity)

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


def _spectra(x: np.ndarray, layout: _Layout) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per side group, the (evals, evecs) of the blocks of a coordinate vector.

    Blocks of equal side are read through their group's gather; each
    group of side > 1 takes one batched eigendecomposition, and 1x1
    blocks are their own eigenvalue.
    """
    return [
        (x[gather], np.ones((len(gather), 1, 1))) if d == 1
        else np.linalg.eigh(herm_stack_from_coords(x[gather], d))
        for d, gather in layout.groups
    ]


def _clamp(spectra, shift: float, layout: _Layout) -> np.ndarray:
    """Cone projection of X + shift e, from the per-group spectra of X.

    e is the identity in every block, so X + shift e has X's
    eigenvectors, and its projection is V max(evals + shift, 0) V*.
    """
    out = np.empty(layout.total)
    for (d, gather), (evals, evecs) in zip(layout.groups, spectra):
        clamped = np.maximum(evals + shift, 0.0)
        out[gather] = clamped if d == 1 else herm_stack_coords(
            (evecs * clamped[:, None, :]) @ evecs.conj().swapaxes(-1, -2)
        )
    return out


def _project_cone(x: np.ndarray, layout: _Layout) -> np.ndarray:
    """Project onto the product of PSD cones."""
    return _clamp(_spectra(x, layout), 0.0, layout)


def _min_eig(v: np.ndarray, layout: _Layout) -> float:
    """Least eigenvalue over all blocks of a coordinate vector."""
    mu = float("inf")
    for d, gather in layout.groups:
        rows = v[gather]
        evals = rows if d == 1 else np.linalg.eigvalsh(herm_stack_from_coords(rows, d))
        mu = min(mu, float(evals.min()))
    return mu


def _certificate_bound(v: np.ndarray, layout: _Layout, gram: np.ndarray, x0: np.ndarray):
    """Upper bound on the minimum block eigenvalue over the affine set, or None.

    ``z = gram @ v`` lies in the row space of the constraints, so
    <X, z> = <x0, z> for every affine X. When z is PSD blockwise,
    <X, z> >= min eig(X) * <e, z> with e the all-blocks identity, hence
    min eig(X) <= <x0, z> / <e, z>. A z with a negative eigenvalue gives
    no bound. A bound below zero is a Farkas certificate of infeasibility.
    """
    z = gram @ v
    if _min_eig(z, layout) < 0:
        return None
    weight = float(layout.identity @ z)
    if weight <= 0:
        return None
    return float(x0 @ z) / weight


def _affine_frame(a: np.ndarray, b: np.ndarray):
    """The min-norm solution x0 of a x = b, the projector onto the row
    space of a, and an orthonormal basis of its null space, from one SVD."""
    u, sv, vt = np.linalg.svd(a)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    row = vt[:rank]
    return row.T @ ((u[:, :rank].T @ b) / sv[:rank]), row.T @ row, vt[rank:].T


_POLISH_THRESHOLDS = (0.5, 0.2, 0.1, 0.05, 0.02, 1e-2, 3e-3, 1e-3, 1e-4, 1e-5, 1e-6)
_POLISH_ROUNDS = 50  # restricted solves per face profile, at most


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
    would pick. The band is far below the ladder's finest rung, 1e-6,
    and well above the rounding noise a path iterate carries.
    """
    r = max(int(np.sum(evals > tau)), 1)
    return int(np.sum(evals >= evals[-r] - 1e-9 * max(1.0, float(np.abs(evals).max()))))


def _face_polish(
    y: np.ndarray,
    layout: _Layout,
    a: np.ndarray,
    b: np.ndarray,
    proj_affine,
    tol: Tolerances,
):
    """Round a near-boundary affine point onto an exactly feasible cone face.

    Feasible sets here typically touch the cone boundary, where a
    projected point of the path still sits about the square root of its
    residual away from the face. For each candidate face profile (block
    ranks read off the point's spectra by ``_face_rank`` at a ladder of
    thresholds) this alternates a face-restricted least-squares solve
    with re-detection of the face from the affine projection; with the
    right profile the residual collapses at a linear rate. Candidates are
    gated on their true residual, so wrong profiles are no-ops.
    """
    spectra = [np.linalg.eigvalsh(h) for h in layout.split(y)]
    seen: set[tuple[int, ...]] = set()
    for tau in _POLISH_THRESHOLDS:
        profile = tuple(_face_rank(evals, tau) for evals in spectra)
        if profile in seen or all(r == d for r, d in zip(profile, layout.sides)):
            continue
        if len(seen) >= 4:
            break
        seen.add(profile)
        z = y.copy()
        prev = float("inf")
        stagnant = 0
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


def _identity_coefficient(mat: np.ndarray) -> float | None:
    """The scalar c when a term matrix equals c times the identity."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        return None
    c = float(np.trace(mat)) / n
    if frob_norm(mat - c * np.eye(n)) <= 1e-12 * max(1.0, abs(c)):
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
    strictly feasible on the reduced blocks, where the interior-point run
    finds an interior witness instead of crawling towards the boundary.
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


def _step_lengths(halves, dz: np.ndarray, ds: np.ndarray, layout: _Layout):
    """Steps along dZ and dS: 0.95 of the way to the cone boundary, capped at 1.

    ``halves`` holds, per side group, Z^(-1/2) stacked over S^(-1/2). The
    largest step keeping X + a dX PD is -1 over the least eigenvalue of
    X^(-1/2) dX X^(-1/2), when that is negative; both directions of a
    group take one batched eigenvalue call.
    """
    lo_z = lo_s = 0.0
    for (d, gather), h in zip(layout.groups, halves):
        rows = np.concatenate([dz[gather], ds[gather]])
        least = np.linalg.eigvalsh(h @ herm_stack_from_coords(rows, d) @ h)[:, 0]
        lo_z = min(lo_z, float(least[: len(gather)].min()))
        lo_s = min(lo_s, float(least[len(gather) :].min()))
    return tuple(1.0 if lo >= -0.95 else -0.95 / lo for lo in (lo_z, lo_s))


def _newton_step(z, y, s, spec_s, layout: _Layout, f, f_groups):
    """One HKM predictor-corrector step from (Z, y), with S = x0 - f^T y.

    The Schur complement is f K f^T with K block-diagonal: for a block
    pair (Z, S), K = Re(T^H (Z kron S^-T) T) maps the coordinates of H
    to those of sym(Z H S^-1), T being the coordinate basis. Each side
    group adds its blocks with one batched product.
    """
    nu = float(f[-1] @ f[-1])
    unit_t = np.zeros(len(f))
    unit_t[-1] = 1.0
    m = np.zeros((len(f), len(f)))
    kmats, sinv, halves, sinv_c = [], [], [], np.empty_like(z)
    spec_z = _spectra(z, layout)
    for (d, gather), (ls, vs), (lz, vz), fg in zip(layout.groups, spec_s, spec_z, f_groups):
        if not lz[:, 0].min() > 0:
            raise np.linalg.LinAlgError("the dual iterate left the cone interior")
        vs_h, vz_h = vs.conj().swapaxes(-1, -2), vz.conj().swapaxes(-1, -2)
        inv = (vs / ls[:, None, :]) @ vs_h
        sinv.append(inv)
        sinv_c[gather] = herm_stack_coords(inv)
        halves.append(np.concatenate([
            (vz / np.sqrt(lz)[:, None, :]) @ vz_h, (vs / np.sqrt(ls)[:, None, :]) @ vs_h
        ]))
        n_b, dd = gather.shape
        kron_zs = np.einsum("bij,bkl->biljk", (vz * lz[:, None, :]) @ vz_h, inv)
        k = _coord_matrix(kron_zs.reshape(n_b, dd, dd))
        k = (k + k.swapaxes(-1, -2)) / 2
        kmats.append(k)
        fk = fg.reshape(-1, n_b, dd).swapaxes(0, 1) @ k
        m += fk.swapaxes(0, 1).reshape(len(f), -1) @ fg.T

    def apply_k(v):
        out = np.empty_like(v)
        for (_, gather), k in zip(layout.groups, kmats):
            out[gather] = (k @ v[gather][..., None])[..., 0]
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
    for (d, gather), inv in zip(layout.groups, sinv):
        dz_m, ds_m = herm_stack_from_coords(dz[gather], d), herm_stack_from_coords(ds[gather], d)
        prod = dz_m @ ds_m @ inv
        corr[gather] = herm_stack_coords((prod + prod.conj().swapaxes(-1, -2)) / 2)
    dy = np.linalg.solve(m, unit_t - sigma_mu * (f @ sinv_c) + f @ corr)
    ds = -f.T @ dy
    dz = sigma_mu * sinv_c - z + apply_k(-ds) - corr
    a_z, a_s = _step_lengths(halves, dz, ds, layout)
    return z + a_z * dz, y + a_s * dy


def solve(
    problem: FeasibilityProblem,
    tol: Tolerances = DEFAULT_TOL,
    max_iter: int = 100,
    *,
    trace: Callable[[str], None] | None = None,
) -> FeasibilityOutcome:
    """Decide feasibility of a stacked-PSD problem.

    Facial reduction first restricts each block to the support allowed
    by positive sum constraints: the constraints are composed with the
    face map of ``_face_map`` and the search runs in face coordinates.
    One SVD of the constraint matrix gives the min-norm affine point x0,
    the row-space projector and an orthonormal null-space basis N. Then
    one infeasible-start primal-dual interior-point run of at most
    ``max_iter`` steps (HKM direction, Mehrotra predictor-corrector)
    works on the margin SDP

        maximize t  s.t.  x0 - N w - t e is PSD blockwise,

    with e the all-blocks identity. Its dual, minimize <x0, Z> over PSD
    Z with N^T Z = 0 and <e, Z> = 1, is a Farkas certificate. Every step
    checks the affine point Y = x0 - N w: Y is the witness when PSD; when
    its cone projection meets the constraints within ``feas_tol`` the
    point is a boundary one, and one face polish rounds it onto its face
    (the projection is the witness if the polish fails). A certificate
    bound (``_certificate_bound`` of Z) below ``-feas_tol`` is an
    infeasible verdict. When the budget is spent or the Newton system
    breaks down, one face polish from the last affine point may still
    round it onto a face within ``feas_tol`` (a boundary witness whose
    margin sits in (-feas_tol, 0)); otherwise the verdict is undecided,
    with the best certified margin. The run is deterministic.
    """
    full = _Layout.of(problem.blocks)
    a, b = _assemble(problem, full)
    bounds = _support_bounds(problem, tol)
    embed, layout = None, full
    if bounds:
        embed, layout = _face_map(full, [bounds.get(n) for n in full.names])
        a = a @ embed

    x0 = np.zeros(layout.total)
    if a.size:
        x0, gram, null = _affine_frame(a, b)
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

    if not a.size:
        # no constraints, or every block pinned: the zero point is the witness
        return feasible(x0, affine_res, 0)

    e = layout.identity
    if np.linalg.norm(gram @ e) <= 1e-9 * np.linalg.norm(e):
        # the constraints never see e, so the affine set holds every shift
        # of x0 along it, and the least PSD one is the witness
        point = x0 - min(_min_eig(x0, layout), 0.0) * e
        return feasible(point, float(np.linalg.norm(a @ point - b)), 0)
    f = np.vstack([null.T, e])  # the slack is S = x0 - f^T y, with y = (w, t)
    f_groups = [f[:, gather.ravel()] for _, gather in layout.groups]

    def proj_affine(x: np.ndarray) -> np.ndarray:
        return x - gram @ x + x0

    z = e / float(e @ e)
    y = np.zeros(len(f))
    y[-1] = _min_eig(x0, layout) - 1.0
    margin = residual = float("inf")
    done = 0
    point = None
    try:
        for it in range(max_iter + 1):
            s = x0 - f.T @ y
            spec_s = _spectra(s, layout)
            least = min(float(evals[:, 0].min()) for evals, _ in spec_s)
            if not least > 0:
                raise np.linalg.LinAlgError("the slack left the cone interior")
            point = x0 - null @ y[:-1]
            psd = least + y[-1] >= 0  # Y = S + t e: the slack's spectrum shifted by t
            cone = point if psd else _clamp(spec_s, y[-1], layout)
            residual = float(np.linalg.norm(a @ cone - b))
            if trace:
                trace(f"iter={it} shift=+0.000e+00 residual={residual:.3e} gap={z @ s:.3e}")
            done = it
            if psd:
                return feasible(point, residual, it)
            if residual <= tol.feas_tol:
                polished = _face_polish(point, layout, a, b, proj_affine, tol)
                if polished is None:
                    return feasible(cone, residual, it)
                if trace:
                    trace(f"iter={it} shift=+0.000e+00 face-polish residual={polished[1]:.3e}")
                return feasible(polished[0], polished[1], it)
            bound = _certificate_bound(z, layout, gram, x0)
            if bound is not None and bound < margin:
                margin = bound
                if margin < -tol.feas_tol:
                    return FeasibilityOutcome("infeasible", None, margin, residual, it)
            if it < max_iter:
                z, y = _newton_step(z, y, s, spec_s, layout, f, f_groups)
    except np.linalg.LinAlgError:
        pass
    polished = None if point is None else _face_polish(point, layout, a, b, proj_affine, tol)
    if polished is not None:
        if trace:
            trace(f"iter={done} shift=+0.000e+00 face-polish residual={polished[1]:.3e}")
        return feasible(polished[0], polished[1], done)
    return FeasibilityOutcome("undecided", None, margin, residual, done)
