import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcompat import feasibility as fs
from qcompat.fixtures import I2, SX, SZ
from qcompat.devices import choi_from_kraus
from qcompat.matkit import herm_coords, herm_from_coords, herm_stack_from_coords, kron

from conftest import (
    below_common_channel,
    hermitian_basis,
    is_psd,
    rand_complex,
    rand_effect,
    rand_herm,
    rand_kraus,
    rand_psd,
)


def one_block_trace_problem(value, side=2):
    # the trace functional in coordinates: sum of the diagonal entries
    row = np.zeros((1, side * side))
    row[0, :side] = 1.0
    c = fs.AffineConstraint((("x", row),), np.array([float(value)]))
    return fs.FeasibilityProblem((("x", side),), (c,))


def test_unit_trace_feasible():
    out = fs.solve(one_block_trace_problem(1.0))
    assert out.verdict == "feasible"
    w = out.witness["x"]
    assert is_psd(w)
    assert np.trace(w).real == pytest.approx(1.0, abs=1e-7)
    assert out.margin is None


def test_negative_trace_infeasible():
    out = fs.solve(one_block_trace_problem(-1.0))
    assert out.verdict == "infeasible"
    assert out.witness is None
    # best achievable minimum eigenvalue is -1/2 (X = -I/2)
    assert out.margin == pytest.approx(-0.5, abs=5e-3)
    assert out.margin < -1e-7


def affine_data(problem):
    """Layout, affine frame and affine base point, as the solver builds them."""
    plan = fs._plan(problem)
    b = np.concatenate([c.rhs for c in problem.constraints])
    return plan.layout, plan.frame, plan.frame.x0(b)


def test_certificate_bound_of_negative_trace():
    # Tr X = -1 on one 2x2 block; z = I lies in the span of the trace row,
    # so it is its own projection, and certifies min eig(X) <= -1/2, which
    # X = -I/2 attains
    layout = fs._Layout.of(one_block_trace_problem(-1.0).blocks)
    row = np.array([1.0, 1.0, 0.0, 0.0])
    x0 = -row / 2
    assert np.array_equal(herm_coords(np.eye(2)), row)
    assert fs._certificate_bound(herm_coords(np.eye(2)), layout, x0) == -0.5


def test_certificate_needs_psd_direction_without_fixed_trace():
    # X[0, 0] = -1 leaves the trace free, so a non-PSD z gives no bound
    row = np.zeros((1, 4))
    row[0, 0] = 1.0
    c = fs.AffineConstraint((("x", row),), np.array([-1.0]))
    layout, frame, x0 = affine_data(fs.FeasibilityProblem((("x", 2),), (c,)))
    for diag, bound in (([-1.0, 0.0], None), ([1.0, 0.0], -1.0)):
        assert fs._certificate_bound(frame.project(herm_coords(np.diag(diag))), layout, x0) == bound
    # with the trace fixed as well (Tr X = -1, one off-diagonal coordinate 0),
    # a non-PSD z in the row space still gives no bound: z is not shifted
    rows = np.zeros((2, 4))
    rows[0, :2] = 1.0
    rows[1, 2] = 1.0
    c = fs.AffineConstraint((("x", rows),), np.array([-1.0, 0.0]))
    layout, frame, x0 = affine_data(fs.FeasibilityProblem((("x", 2),), (c,)))
    z = frame.project(np.array([1.0, 1.0, 3.0, 0.0]))
    assert fs._min_eig(z, layout) < 0
    assert fs._certificate_bound(z, layout, x0) is None
    z = frame.project(herm_coords(np.eye(2)))
    assert fs._certificate_bound(z, layout, x0) == pytest.approx(-0.5)


def test_certificate_bound_of_a_direction_in_the_null_space():
    # X[0, 0] = -1: a direction with no part in the row space projects to z = 0,
    # which is PSD but has no weight, and so bounds nothing
    row = np.zeros((1, 4))
    row[0, 0] = 1.0
    c = fs.AffineConstraint((("x", row),), np.array([-1.0]))
    layout, frame, x0 = affine_data(fs.FeasibilityProblem((("x", 2),), (c,)))
    z = frame.project(herm_coords(np.diag([0.0, 1.0])))
    assert not z.any()
    assert fs._certificate_bound(z, layout, x0) is None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sides=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    n_rows=st.integers(1, 6),
    fixed_trace=st.booleans(),
)
def test_certificate_bound_is_sound(seed, sides, n_rows, fixed_trace):
    # around a known PSD point (rank-deficient blocks included), no
    # direction may certify a minimum eigenvalue below the point's own
    rng = np.random.default_rng(seed)
    blocks = tuple((f"b{i}", d) for i, d in enumerate(sides))
    point = []
    for d in sides:
        k = rand_complex(rng, d, int(rng.integers(0, d + 1)))
        point.append(herm_coords(k @ k.conj().T))
    point = np.concatenate(point)
    rows = rng.standard_normal((n_rows, point.size))
    if fixed_trace:
        rows[0] = np.concatenate([herm_coords(np.eye(d)) for d in sides])
    terms, col = [], 0
    for name, d in blocks:
        terms.append((name, rows[:, col : col + d * d]))
        col += d * d
    problem = fs.FeasibilityProblem(blocks, (fs.AffineConstraint(tuple(terms), rows @ point),))
    layout, frame, x0 = affine_data(problem)
    for _ in range(20):
        bound = fs._certificate_bound(frame.project(rng.standard_normal(point.size)), layout, x0)
        assert bound is None or bound >= -1e-9


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sides=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    n_rows=st.integers(0, 10),
    fixed_trace=st.booleans(),
    deficit=st.sampled_from([None, 1e-4, 1e-2, 1.0]),
)
@example(seed=4274, sides=[3, 1, 1], n_rows=3, fixed_trace=False, deficit=1e-4)
@example(seed=2, sides=[2, 1], n_rows=2, fixed_trace=False, deficit=1e-4)
def test_solve_is_sound(seed, sides, n_rows, fixed_trace, deficit):
    # problems built around a known point: around a PSD point (deficit
    # None) no verdict is infeasible; with the total trace fixed at
    # -deficit times the total side, no PSD point exists, so no verdict
    # is feasible. A certified margin lies between the point's least
    # eigenvalue and -feas_tol.
    rng = np.random.default_rng(seed)
    blocks = tuple((f"b{i}", d) for i, d in enumerate(sides))
    point = []
    for d in sides:
        k = rand_complex(rng, d, int(rng.integers(0, d + 1)))
        point.append(herm_coords(k @ k.conj().T))
    point = np.concatenate(point)
    e = np.concatenate([herm_coords(np.eye(d)) for d in sides])
    if deficit is not None:
        point -= (point @ e / sum(sides) + deficit) * e
    rows = rng.standard_normal((n_rows + 1, point.size))
    if fixed_trace or deficit is not None:
        rows[0] = e
    terms, col = [], 0
    for name, d in blocks:
        terms.append((name, rows[:, col : col + d * d]))
        col += d * d
    problem = fs.FeasibilityProblem(blocks, (fs.AffineConstraint(tuple(terms), rows @ point),))
    out = fs.solve(problem)
    assert out.verdict != ("infeasible" if deficit is None else "feasible")
    if out.verdict == "infeasible":
        # the point stacks its blocks in the given order, not the layout's
        offsets = np.cumsum([0] + [d * d for d in sides])
        least = min(
            np.linalg.eigvalsh(herm_from_coords(point[o : o + d * d], d))[0]
            for o, d in zip(offsets, sides)
        )
        assert least - 1e-9 <= out.margin < -fs.DEFAULT_TOL.feas_tol


def test_affine_inconsistency_reported_distinctly():
    row = np.zeros((1, 4))
    row[0, :2] = 1.0
    c1 = fs.AffineConstraint((("x", row),), np.array([1.0]))
    c2 = fs.AffineConstraint((("x", row),), np.array([2.0]))
    out = fs.solve(fs.FeasibilityProblem((("x", 2),), (c1, c2)))
    assert out.verdict == "infeasible"
    assert out.affine_inconsistent
    assert out.margin == float("-inf")


def pinned_sum_problem(target, trace_x=None):
    """``x + y = target`` on two qubit blocks, optionally with ``tr x`` fixed."""
    cons = [fs.encode_sum_constraint(("x", "y"), target)]
    if trace_x is not None:
        row = np.zeros((1, 4))
        row[0, :2] = 1.0
        cons.append(fs.AffineConstraint((("x", row),), np.array([trace_x])))
    return fs.FeasibilityProblem((("x", 2), ("y", 2)), tuple(cons))


def test_support_bound_restricts_blocks_to_the_target_range():
    out = fs.solve(pinned_sum_problem(np.diag([1.0, 0.0]), trace_x=0.25))
    assert out.verdict == "feasible"
    for name, weight in (("x", 0.25), ("y", 0.75)):
        w = out.witness[name]
        assert w[0, 0].real == pytest.approx(weight, abs=1e-7)
        # supported on |0><0|: nothing outside the range of the target
        assert np.abs(w - np.diag([w[0, 0], 0.0])).max() <= 1e-12


def test_partial_trace_over_a_trivial_slot_bounds_the_support():
    # the trace over a one-dimensional slot is the identity map, so its row
    # bounds the block as a sum row does; over a qubit slot, a rank-deficient
    # target bounds the block by its range tensored with the slot, and a
    # target of full range bounds nothing
    for dims, target, rank in (((2, 1), np.diag([1.0, 0.0]), 1), ((1, 2), np.eye(1), None),
                               ((2, 2), np.diag([1.0, 0.0]), 2)):
        row = fs.encode_partial_trace_constraint("j", dims, keep=0, target=target.T)
        problem = fs.FeasibilityProblem((("j", dims[0] * dims[1]),), (row,))
        bounds = fs._support_bounds(problem, fs.DEFAULT_TOL)
        assert (bounds["j"].shape[1] if bounds else None) == rank
        assert fs.solve(problem).verdict == "feasible"


def _subspace(rng, n, r):
    """Orthonormal basis of a random r-dimensional subspace of C^n."""
    return np.linalg.qr(rand_complex(rng, n, r))[0] if r else np.zeros((n, 0))


def _psd_on(rng, basis):
    """A random PSD matrix with range the column space of ``basis``."""
    k = rand_complex(rng, basis.shape[1])
    return basis @ k @ k.conj().T @ basis.conj().T


def _partial_trace(x, dims, keep):
    return np.einsum("ijkj->ik" if keep == 0 else "ijil->jl", x.reshape(dims * 2))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 1)]),
    keep=st.integers(0, 1),
    ranks=st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 6), st.integers(0, 6)),
    order=st.permutations(range(3)),
)
def test_support_bounds_never_cut_off_a_psd_point(seed, dims, keep, ranks, order):
    # PSD blocks a (on the bipartite space, its kept marginal supported on a
    # subspace V), c (on the kept slot, supported on W), b and b2, and the rows
    # Tr(a) + c, a + b and b2 - a around them, in any order. Every bound holds
    # its block's range, and a row whose right-hand side, subtracted blocks'
    # bounds included, spans less than the whole space bounds its blocks.
    rng = np.random.default_rng(seed)
    n, dk = dims[0] * dims[1], dims[keep]
    rv, rw, rb, rb2 = min(ranks[0], dk), min(ranks[1], dk), min(ranks[2], n), min(ranks[3], n)
    traced = np.eye(dims[1 - keep])
    v, w = _subspace(rng, dk, rv), _subspace(rng, dk, rw)
    x = {"a": _psd_on(rng, kron(v, traced) if keep == 0 else kron(traced, v)), "c": _psd_on(rng, w),
         "b": _psd_on(rng, _subspace(rng, n, rb)), "b2": _psd_on(rng, _subspace(rng, n, rb2))}
    rows = (
        fs.AffineConstraint((("a", fs.PartialTrace(dims, keep)), ("c", 1.0)),
                            herm_coords(_partial_trace(x["a"], dims, keep) + x["c"])),
        fs.encode_sum_constraint(["a", "b"], x["a"] + x["b"]),
        fs.encode_sum_constraint([("b2", 1.0), ("a", -1.0)], x["b2"] - x["a"]),
    )
    blocks = (("a", n), ("b", n), ("b2", n), ("c", dk))
    bounds = fs._support_bounds(fs.FeasibilityProblem(blocks, tuple(rows[k] for k in order)),
                                fs.DEFAULT_TOL)
    for name, u in bounds.items():
        outside = x[name] - u @ (u.conj().T @ x[name])
        assert np.abs(outside).max() <= 1e-9 * max(1.0, np.abs(x[name]).max())
    rank = {name: bounds[name].shape[1] if name in bounds else side for name, side in blocks}
    reach = np.linalg.matrix_rank(np.hstack([v, w])) if rv + rw else 0
    if reach < dk:  # Tr(a) + c lies in V + W
        assert rank["c"] <= reach and rank["a"] <= reach * len(traced)
    if rv * len(traced) + rb < n:  # a + b has the rank of its parts
        assert max(rank["a"], rank["b"]) <= rv * len(traced) + rb
    if rb2 + rank["a"] < n:  # b2 lies in the range of b2 - a plus the bound on a
        assert rank["b2"] <= rb2 + rank["a"]


@pytest.mark.parametrize("sides", [(2, 3), (3, 1, 2)])
def test_an_infeasible_point_is_decided_at_step_0(sides):
    # each block pinned to a random Hermitian matrix: the affine set is one
    # point, and its margin is the point's least eigenvalue
    rng = np.random.default_rng(sum(sides))
    targets = [rand_herm(rng, d) for d in sides]
    least = min(np.linalg.eigvalsh(t)[0] for t in targets)
    assert least < -fs.DEFAULT_TOL.feas_tol
    blocks = tuple((f"b{i}", d) for i, d in enumerate(sides))
    rows = tuple(fs.encode_sum_constraint([n], t) for (n, _), t in zip(blocks, targets))
    lines = []
    out = fs.solve(fs.FeasibilityProblem(blocks, rows), trace=lines.append)
    assert out.verdict == "infeasible" and out.iterations == 0
    assert abs(out.margin - least) <= 1e-10
    assert len(lines) == 1 and "point" in lines[0]


def test_a_point_within_feas_tol_of_the_cone_takes_the_run():
    # least eigenvalue -1e-8 lies in (-feas_tol, 0): no certificate can
    # decide it, and the run's cone projection meets the constraint
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rand_complex(rng, 2))[0]
    target = u @ np.diag([-1e-8, 0.5]) @ u.conj().T
    lines = []
    out = fs.solve(fs.FeasibilityProblem((("x", 2),), (fs.encode_sum_constraint(["x"], target),)),
                   trace=lines.append)
    assert out.verdict == "feasible"
    assert not any("point" in line for line in lines)


def test_all_blocks_pinned_to_zero_is_decided_without_iterating():
    out = fs.solve(pinned_sum_problem(np.zeros((2, 2))))
    assert out.verdict == "feasible"
    assert out.iterations == 0
    for name in ("x", "y"):
        assert np.array_equal(out.witness[name], np.zeros((2, 2)))


def test_constraint_on_pinned_blocks_is_affine_inconsistent():
    out = fs.solve(pinned_sum_problem(np.zeros((2, 2)), trace_x=1.0))
    assert out.verdict == "infeasible"
    assert out.affine_inconsistent
    assert out.margin == float("-inf")


def noisy_pair(t):
    e1 = (I2 + t * SX) / 2
    e2 = (I2 + t * SZ) / 2
    return e1, e2


def coexistence_problem(e1, e2):
    d = e1.shape[0]
    blocks = tuple((name, d) for name in ("g11", "g10", "g01", "g00"))
    cons = (
        fs.encode_sum_constraint(("g11", "g10"), e1),
        fs.encode_sum_constraint(("g11", "g01"), e2),
        fs.encode_sum_constraint(("g11", "g10", "g01", "g00"), np.eye(d)),
    )
    return fs.FeasibilityProblem(blocks, cons)


def grid_best_violation(t, step=0.02):
    """Independent oracle: scan G = (g0 I + gx sx + gz sz)/2 on a fine grid.

    Returns the smallest over the grid of the worst operator-inequality
    violation for the four coexistence constraints; <= 0 means a valid
    joint effect exists on the grid.
    """
    g0 = np.arange(0.0, 1.0 + step, step)[:, None, None]
    gx = np.arange(-1.0, 1.0 + step, step)[None, :, None]
    gz = np.arange(-1.0, 1.0 + step, step)[None, None, :]
    v1 = np.sqrt(gx**2 + gz**2) - g0
    v2 = np.sqrt((t - gx) ** 2 + gz**2) - (1.0 - g0)
    v3 = np.sqrt(gx**2 + (t - gz) ** 2) - (1.0 - g0)
    v4 = np.sqrt((gx - t) ** 2 + (gz - t) ** 2) - g0
    worst = np.maximum(np.maximum(v1, v2), np.maximum(v3, v4))
    return float(worst.min())


def test_coexistence_noisy_pair_against_grid_oracle():
    # oracle: t = 0.5 has a grid point with real slack; t = 0.9 violates
    # every grid point by a margin far above the grid resolution
    assert grid_best_violation(0.5) < -0.05
    assert grid_best_violation(0.9) > 0.02

    e1, e2 = noisy_pair(0.5)
    out = fs.solve(coexistence_problem(e1, e2))
    assert out.verdict == "feasible"
    g11 = out.witness["g11"]
    assert is_psd(g11)
    for gap in (e1 - g11, e2 - g11, g11 - (e1 + e2 - I2)):
        assert np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0] >= -1e-6

    e1, e2 = noisy_pair(0.9)
    out = fs.solve(coexistence_problem(e1, e2))
    assert out.verdict == "infeasible"
    assert out.margin < -1e-7


def test_busch_boundary_is_rounded_onto_its_face():
    # Just past t = 1/sqrt(2) the margin is negative but above -feas_tol.
    # The path cannot certify either way; a final face polish finds a point
    # within feas_tol for delta = 1e-7, not for 2e-7, and from 3e-7 on the
    # certificate refutes.
    tol = fs.DEFAULT_TOL
    e1, e2 = noisy_pair(1 / np.sqrt(2) + 1e-7)
    out = fs.solve(coexistence_problem(e1, e2))
    assert out.verdict == "feasible"
    w = out.witness
    assert all(is_psd(w[n]) for n in w)
    rows = (w["g11"] + w["g10"] - e1, w["g11"] + w["g01"] - e2, sum(w.values()) - I2)
    residual = float(np.sqrt(sum(np.linalg.norm(r) ** 2 for r in rows)))
    assert residual <= tol.feas_tol
    assert out.residual <= tol.feas_tol

    out = fs.solve(coexistence_problem(*noisy_pair(1 / np.sqrt(2) + 2e-7)))
    assert out.verdict == "undecided"
    assert -tol.feas_tol < out.margin < 0

    for delta in (3e-7, 1e-6):
        out = fs.solve(coexistence_problem(*noisy_pair(1 / np.sqrt(2) + delta)))
        assert out.verdict == "infeasible"
        assert out.margin < -tol.feas_tol


def test_sum_constraint_witness_resums():
    rng = np.random.default_rng(45)
    from qcompat.devices import choi_from_kraus
    from conftest import rand_kraus

    lam = choi_from_kraus(rand_kraus(rng, 2, 2, 2, scale=1.0))
    cons = (fs.encode_sum_constraint(("a", "b"), lam.choi),)
    out = fs.solve(fs.FeasibilityProblem((("a", 4), ("b", 4)), cons))
    assert out.verdict == "feasible"
    total = out.witness["a"] + out.witness["b"]
    assert np.linalg.norm(total - lam.choi) <= 1e-6


def test_partial_trace_constraint_encodes_trace_preservation():
    cons = (
        fs.encode_partial_trace_constraint("j", (2, 2), keep=0, target=np.eye(2)),
    )
    out = fs.solve(fs.FeasibilityProblem((("j", 4),), cons))
    assert out.verdict == "feasible"
    from qcompat.devices import CPMap

    # the witness is a valid channel Choi matrix
    CPMap(2, 2, out.witness["j"], kind="channel")


def test_heisenberg_unit_constraint():
    from qcompat.devices import CPMap, apply_h

    px = (I2 + SX) / 2
    cons = (fs.encode_partial_trace_constraint("j", (2, 2), keep=0, target=px.T),)
    out = fs.solve(fs.FeasibilityProblem((("j", 4),), cons))
    assert out.verdict == "feasible"
    m = CPMap(2, 2, out.witness["j"])
    assert np.linalg.norm(apply_h(m, I2) - px) <= 1e-6


def test_interior_point_found_within_budget():
    # feasible problem with a strictly interior witness on a 16x16 block
    rng = np.random.default_rng(47)
    side = 16
    x_star = np.eye(side) * 0.5
    rows, rhs = [], []
    row = np.zeros(side * side)
    row[:side] = 1.0
    rows.append(row)
    rhs.append(0.5 * side)
    for _ in range(6):
        r = rand_herm(rng, side)
        rows.append(herm_coords(r))
        rhs.append(float(np.vdot(herm_coords(r), herm_coords(x_star))))
    cons = tuple(
        fs.AffineConstraint((("x", row[None, :]),), np.array([v]))
        for row, v in zip(rows, rhs)
    )
    out = fs.solve(fs.FeasibilityProblem((("x", side),), cons))
    assert out.verdict == "feasible"
    assert is_psd(out.witness["x"])


def test_margin_monotone_under_constraint_addition():
    rng = np.random.default_rng(49)
    for _ in range(5):
        side = 3
        row = np.zeros(side * side)
        row[:side] = 1.0
        base = fs.AffineConstraint((("x", row[None, :]),), np.array([-0.4]))
        extra_vec = herm_coords(rand_herm(rng, side))
        extra = fs.AffineConstraint(
            (("x", extra_vec[None, :]),), np.array([float(rng.normal())])
        )
        p1 = fs.FeasibilityProblem((("x", side),), (base,))
        p2 = fs.FeasibilityProblem((("x", side),), (base, extra))
        m1 = fs.solve(p1).margin
        m2 = fs.solve(p2).margin
        assert m1 is not None and m2 is not None
        assert m2 <= m1 + 5e-3


def test_determinism_bit_identical():
    e1, e2 = noisy_pair(0.7)
    p = coexistence_problem(e1, e2)
    out1 = fs.solve(p)
    out2 = fs.solve(p)
    assert out1.verdict == out2.verdict
    assert out1.iterations == out2.iterations
    assert out1.residual == out2.residual
    if out1.witness is not None:
        for k in out1.witness:
            assert np.array_equal(out1.witness[k], out2.witness[k])
    if out1.margin is not None:
        assert out1.margin == out2.margin


def test_project_cone_matches_blockwise_reference():
    # interleaved sides with 1x1 blocks, against one eigh per block
    sides = (2, 1, 4, 1, 2, 3)
    problem = fs.FeasibilityProblem(tuple((f"b{i}", d) for i, d in enumerate(sides)), ())
    layout = fs._Layout.of(problem.blocks)
    rng = np.random.default_rng(19)
    x = rng.standard_normal(layout.total)
    # the two 1x1 blocks lie below and above 0
    x[[layout.offsets[1], layout.offsets[3]]] = (-0.5, 0.1)
    got = fs._project_cone(x, layout)
    expected = np.empty_like(x)
    for o, d in zip(layout.offsets, sides):
        evals, evecs = np.linalg.eigh(herm_from_coords(x[o : o + d * d], d))
        clamped = np.maximum(evals, 0.0)
        expected[o : o + d * d] = herm_coords((evecs * clamped) @ evecs.conj().T)
    assert np.array_equal(got, expected)
    gathered = np.concatenate([np.arange(layout.total)[span] for _, span in layout.groups])
    assert sorted(gathered) == list(range(layout.total))


def probed_coord_matrix(linear, d):
    """Reference coordinate matrix: column k is the image of the k-th unit coordinate."""
    return np.column_stack([
        herm_coords(linear(herm_from_coords(unit, d))) for unit in np.eye(d * d)
    ])


def rand_isometry(rng, d, r):
    return np.linalg.qr(rand_complex(rng, d, d))[0][:, :r]


def test_face_map_matches_probed_conjugations():
    # pinned (r = 0), whole (None), proper (1 < r < d) and unitary (r = d) faces
    rng = np.random.default_rng(23)
    sides = (3, 4, 2, 3, 5)
    bases = [
        rand_isometry(rng, 3, 0), None, rand_isometry(rng, 2, 2),
        rand_isometry(rng, 3, 2), rand_isometry(rng, 5, 3),
    ]
    layout = fs._Layout.of(tuple((f"b{i}", d) for i, d in enumerate(sides)))
    embed, face = fs._face_map(layout, bases)
    assert face.names == ("b1", "b2", "b3", "b4") and face.sides == (4, 2, 2, 3)
    assert embed.shape == (layout.total, face.total)
    assert np.allclose(embed.T @ embed, np.eye(face.total), atol=1e-12)
    expected = np.zeros_like(embed)
    for name, fo, r in zip(face.names, face.offsets, face.sides):
        i = layout.names.index(name)
        o, d, u = layout.offsets[i], layout.sides[i], bases[i]
        linear = (lambda z: z) if u is None else (lambda z, u=u: u @ z @ u.conj().T)
        expected[o : o + d * d, fo : fo + r * r] = probed_coord_matrix(linear, r)
    assert np.abs(embed - expected).max() <= 1e-14


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 2), (1, 3)])
@pytest.mark.parametrize("keep", [0, 1])
def test_partial_trace_matrix_matches_partial_trace(dims, keep):
    from conftest import partial_trace

    rng = np.random.default_rng([*dims, keep])
    mat = fs._partial_trace_matrix(*dims, keep)
    assert not mat.flags.writeable
    assert mat.shape == (dims[keep] ** 2, (dims[0] * dims[1]) ** 2)
    for _ in range(3):
        x = rand_herm(rng, dims[0] * dims[1])
        expected = herm_coords(partial_trace(x, dims, keep))
        assert np.abs(mat @ herm_coords(x) - expected).max() <= 1e-13


@pytest.mark.parametrize("shift", [-0.7, 0.0, 0.4])
def test_shifted_spectrum_projection_matches_project_cone(shift):
    # the cone projection of X + shift e read off X's spectra, 1x1 blocks included
    sides = (2, 1, 4, 1, 3, 2)
    layout = fs._Layout.of(tuple((f"b{i}", d) for i, d in enumerate(sides)))
    rng = np.random.default_rng(29)
    x = rng.standard_normal(layout.total)
    x[[layout.offsets[1], layout.offsets[3]]] = (-0.5, 0.1)
    got = fs._clamp(fs._spectra(x, layout), shift, layout)
    expected = fs._project_cone(x + shift * layout.identity, layout)
    assert np.abs(got - expected).max() <= 1e-13


def test_problem_blocks_may_be_a_list():
    problem = fs.FeasibilityProblem([("x", 2)], one_block_trace_problem(1.0).constraints)
    assert problem.blocks == (("x", 2),)
    assert fs.solve(problem).verdict == "feasible"


def test_face_polish_keeps_a_degenerate_pair_whole():
    # qutrit states on span{|1>, |2>}: x_00 = 0 and tr x = 1. The point
    # diag(0, 1/2, 1/2) puts a degenerate pair on the cutoff 0.5; a rank-1
    # face would be whichever eigenvector of the pair last bits pick.
    assert fs._face_rank(np.array([0.0, 0.0, 0.5 - 4e-12, 0.5 + 4e-12]), 0.5) == 2
    assert fs._face_rank(np.array([0.0, 0.2, 0.5, 0.9]), 0.5) == 1
    assert fs._face_rank(np.array([1e-17, 2e-8, 0.3, 0.3]), 1e-6) == 2
    layout = fs._Layout.of((("x", 3),))
    a = np.zeros((2, 9))
    a[0, 0] = a[1, 0] = a[1, 1] = a[1, 2] = 1.0
    b = np.array([0.0, 1.0])
    pinv = np.linalg.pinv(a)
    rng = np.random.default_rng(5)
    for _ in range(4):
        noise = np.zeros(9)
        noise[[1, 2, 5, 8]] = 1e-13 * rng.standard_normal(4)  # the (1, 2) entry
        y = herm_coords(np.diag([0.0, 0.5, 0.5])) + noise
        x, residual = fs._face_polish(
            y, 0.5, layout, a, b, lambda x: x - pinv @ (a @ x - b), fs.DEFAULT_TOL
        )
        assert residual <= 1e-14
        assert np.abs(herm_from_coords(x, 3) - np.diag([0.0, 0.5, 0.5])).max() <= 1e-12


def test_layout_is_cached_and_read_only():
    # blocks are stacked by ascending side, in the given order within a side,
    # so each side group is one contiguous span
    blocks = (("a", 2), ("b", 1), ("c", 2))
    layout = fs._Layout.of(blocks)
    assert fs._Layout.of(blocks) is layout
    assert layout.offsets == (1, 0, 5)
    assert layout.groups == ((1, slice(0, 1)), (2, slice(1, 9)))
    assert list(layout.identity) == [1, 1, 1, 0, 0, 1, 1, 0, 0]
    with pytest.raises(ValueError):
        layout.identity[0] = 7


def test_solve_decomposes_each_slack_once_per_step(monkeypatch):
    # Batched calls, one per side group: a step costs the slack's eigh,
    # the certificate's eigvalsh, the dual iterate's eigh and one eigvalsh
    # for each of the two step lengths. The first slack's eigh is x0's
    # (which gives the start point and the first dual iterate, so the
    # first step takes no eigh of its own), and the last iteration adds
    # the slack and the certificate. A second decomposition of the slack
    # (for the cone projection of the affine point) would add one per
    # iteration. Facial reduction adds one batched eigh per side of the
    # targets it reads first: one here, where every target is 2x2.
    calls = []
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)

        def counted(a, *args, _orig=orig, _name=name, **kwargs):
            if np.ndim(a) == 3:
                calls.append(_name)
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for seed, verdict in ((3, "feasible"), (6, "infeasible")):
        rng = np.random.default_rng(seed)
        problem = coexistence_problem(rand_effect(rng, 2).matrix, rand_effect(rng, 2).matrix)
        assert fs._support_bounds(problem, fs.DEFAULT_TOL) == {}  # no facial reduction
        groups = sum(d > 1 for d, _ in fs._Layout.of(problem.blocks).groups)
        calls.clear()
        out = fs.solve(problem)
        assert out.verdict == verdict and out.iterations >= 2
        assert len(calls) <= groups * (5 * out.iterations + 1) + 1


def _first_step(problem, monkeypatch):
    """The arguments of the first ``_newton_step`` of a solve."""
    calls = []
    orig = fs._newton_step

    def recorded(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(fs, "_newton_step", recorded)
    fs.solve(problem)
    monkeypatch.undo()
    return calls[0]


def test_the_first_dual_iterate_is_centred(monkeypatch):
    # Z0 = S0^-1 / <e, S0^-1>: positive definite, of unit weight, and
    # Z0 S0 = mu 1 in every block; the spectrum handed to the step is Z0's
    from qcompat import compat as cp

    rng = np.random.default_rng(3)
    whole = coexistence_problem(rand_effect(rng, 2).matrix, rand_effect(rng, 2).matrix)
    reduced = cp.joint_problem(*below_common_channel(np.random.default_rng(101)))
    for problem, face in ((whole, False), (reduced, True)):
        assert bool(fs._support_bounds(problem, fs.DEFAULT_TOL)) == face
        z, _, s, spec_z, _, layout, f = _first_step(problem, monkeypatch)
        assert np.array_equal(f[-1], layout.identity)
        assert abs(layout.identity @ z - 1.0) <= 1e-12
        mu = float(z @ s) / float(layout.identity @ layout.identity)
        for zb, sb in zip(layout.split(z), layout.split(s)):
            assert np.linalg.eigvalsh(zb)[0] > 0
            assert np.abs(zb @ sb - mu * np.eye(len(zb))).max() <= 1e-12
        for (d, span), (evals, evecs) in zip(layout.groups, spec_z):
            assert np.all(np.diff(evals, axis=-1) >= 0)  # ascending, as eigh gives
            blocks = herm_stack_from_coords(z[span].reshape(-1, d * d), d)
            assert np.abs((evecs * evals[:, None, :]) @ evecs.conj().swapaxes(-1, -2)
                          - blocks).max() <= 1e-12


def _sharp_qubit_effect(rng):
    h = rand_psd(rng, 2)
    return h / (np.linalg.eigvalsh(h)[-1] * rng.uniform(1.0, 1.2))


def _climb(point, null, layout, steps):
    """The best least block eigenvalue met by a projected subgradient
    ascent of it over the affine set, from an affine point."""
    best = -np.inf
    for k in range(steps):
        least = np.inf
        for (d, span), (evals, evecs) in zip(layout.groups, fs._spectra(point, layout)):
            i = int(np.argmin(evals[:, 0]))
            if evals[i, 0] < least:
                least, o, d_min, v = evals[i, 0], span.start + i * d * d, d, evecs[i, :, 0]
        best = max(best, least)
        grad = np.zeros(layout.total)
        grad[o : o + d_min * d_min] = herm_coords(np.outer(v, v.conj()))
        point = point + 0.3 / np.sqrt(k + 1) * (null.T @ (null @ grad))
    return best


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pure_ops=st.booleans())
def test_an_infeasible_margin_bounds_every_affine_point(seed, pure_ops):
    # Whole problems (no facial reduction): coexistence of two random qubit
    # effects, or the weak problem of two random pure qubit operations.
    # About two in three are infeasible, and a third of the pure pairs are
    # certified at step 0. A certified margin bounds the least block
    # eigenvalue of every affine point x0 - N w, however early it was read.
    # Random points lie far below the margin, so the ascent from x0 climbs
    # to within about 1e-3 of it on the coexistence problems.
    from qcompat import compat as cp

    rng = np.random.default_rng(seed)
    if pure_ops:
        f1, f2 = (choi_from_kraus(rand_kraus(rng, 2, 2, 1, scale=np.sqrt(rng.uniform(0.25, 1.0))))
                  for _ in range(2))
        problem = cp.weak_problem(f1, f2)
    else:
        problem = coexistence_problem(_sharp_qubit_effect(rng), _sharp_qubit_effect(rng))
    assert fs._support_bounds(problem, fs.DEFAULT_TOL) == {}
    out = fs.solve(problem)
    if out.verdict != "infeasible":
        return
    layout, frame, x0 = affine_data(problem)
    null = frame.f[:-1]
    for scale in (0.1, 1.0, 10.0):
        point = x0 - null.T @ (scale * rng.standard_normal(len(null)))
        assert fs._min_eig(point, layout) <= out.margin + 1e-12
    assert _climb(x0, null, layout, 100) <= out.margin + 1e-12


def _outcome_bits(out):
    witness = None if out.witness is None else [out.witness[k].tobytes() for k in sorted(out.witness)]
    return out.verdict, out.iterations, repr(out.margin), repr(out.residual), witness


def test_a_warm_plan_repeats_the_cold_solve_bit_for_bit(monkeypatch):
    # A whole problem takes its SVD once, into the plan; a face-reduced one
    # takes a fresh SVD of its face on every solve. Either way the second
    # solve, from the cached plan, gives the bits of the first.
    from qcompat import compat as cp

    svds = []
    orig = np.linalg.svd

    def counted(a, *args, **kwargs):
        svds.append(a.shape)
        return orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    problems = []
    for seed in (3, 6):  # whole: feasible after 3 steps, infeasible after 4
        rng = np.random.default_rng(seed)
        problems.append((coexistence_problem(rand_effect(rng, 2).matrix, rand_effect(rng, 2).matrix), 0))
    e2 = rand_effect(np.random.default_rng(0), 3).matrix
    problems.append((coexistence_problem(np.diag([0.6, 0.3, 0.0]), e2), 1))  # reduced, feasible
    f1, f2 = below_common_channel(np.random.default_rng(101))
    problems.append((cp.joint_problem(f1, f2), 1))  # reduced, infeasible after 1
    verdicts = set()
    for problem, hit_svds in problems:
        assert bool(fs._support_bounds(problem, fs.DEFAULT_TOL)) == bool(hit_svds)
        fs._Plan.of.cache_clear()
        cold = fs.solve(problem)
        svds.clear()
        warm = fs.solve(problem)
        assert len(svds) == hit_svds
        assert fs._Plan.of.cache_info().hits == 1
        assert _outcome_bits(warm) == _outcome_bits(cold)
        assert cold.iterations >= 1
        plan = fs._plan(problem)
        cached = [plan.a]
        if not hit_svds:
            frame = plan.frame
            cached += [frame.row, frame.u, frame.sv, frame.f]
            # no cached array is a view that keeps the full SVD bases alive
            assert all(arr.base is None or arr.base.size == arr.size for arr in cached)
        assert not any(arr.flags.writeable for arr in cached)
        verdicts.add(cold.verdict)
    assert verdicts == {"feasible", "infeasible"}


def test_plan_cache_stays_bounded():
    # one distinct shape per block count; a problem with an explicit matrix
    # is planned afresh and never enters the cache
    fs._Plan.of.cache_clear()
    limit = fs._Plan.of.cache_info().maxsize
    for n in range(1, 2 * limit + 2):
        blocks = tuple((f"x{i}", 1) for i in range(n))
        row = fs.encode_sum_constraint([name for name, _ in blocks], np.eye(1))
        assert fs.solve(fs.FeasibilityProblem(blocks, (row,))).verdict == "feasible"
    info = fs._Plan.of.cache_info()
    assert info.currsize == limit and info.misses == 2 * limit + 1
    assert fs.solve(one_block_trace_problem(1.0)).verdict == "feasible"
    assert fs._Plan.of.cache_info() == info


def test_solver_packs_through_module_names(monkeypatch):
    # the traced benchmark wraps these names where feasibility looks them up
    calls = []
    orig = fs.herm_stack_from_coords

    def counting(x, d):
        calls.append(d)
        return orig(x, d)

    monkeypatch.setattr(fs, "herm_stack_from_coords", counting)
    out = fs.solve(one_block_trace_problem(1.0, side=4))
    assert out.verdict == "feasible"
    assert calls and set(calls) == {4}


@pytest.mark.parametrize("n1, n2", [("luders_px", "half_luders_px"), ("luders_pz", "pz")])
def test_table1_compatible_cells_take_no_step_in_their_weak_solve(n1, n2, monkeypatch):
    # Lüders instruments of sharp observables: the partial-trace and mixed
    # rows bound every block of the weak problem, and the face's interior
    # point is the witness. With fast paths on, fast paths decide both cells.
    from qcompat import compat as cp
    from qcompat.fixtures import builtin_devices

    dev = builtin_devices()
    solves = []
    orig = fs.solve

    def recorded(problem, *args, **kwargs):
        solves.append((problem, orig(problem, *args, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(fs, "solve", recorded)
    assert cp.classify(dev[n1], dev[n2], fast_paths=False).relation == "compatible"
    (weak, out), _ = solves  # the weak question first, then the joint one
    assert all(":" in name for name, _ in weak.blocks)  # the weak problem's block names
    assert set(fs._support_bounds(weak, fs.DEFAULT_TOL)) == {name for name, _ in weak.blocks}
    assert out.verdict == "feasible" and out.iterations == 0
    solves.clear()
    assert cp.classify(dev[n1], dev[n2]).notes.startswith("fast-path") and not solves


def test_weak_problem_below_common_channel():
    from qcompat import compat as cp
    from qcompat import order as od

    f1, f2 = below_common_channel(np.random.default_rng(100))
    assert not od.pure_pair_compatible(f1, f2)
    assert cp.classify(f1, f2).relation == "weakly_compatible_only"


@pytest.mark.parametrize("seed", [100, 51, 86])
def test_engine_never_refutes_weak_problem_below_common_channel(seed):
    # feasible by construction; the engine may fail to find the witness
    # within the budget, but must not certify infeasibility
    from qcompat import compat as cp

    f1, f2 = below_common_channel(np.random.default_rng(seed))
    assert fs.solve(cp.weak_problem(f1, f2)).verdict != "infeasible"


@pytest.mark.parametrize("seed", [100, 51, 86, 37, 1, 12, 20])
def test_engine_decides_weak_problem_below_common_channel(seed):
    # classify also has the rank-1-family fast path for these pairs; the
    # engine alone must reach the boundary witness
    from qcompat import compat as cp

    f1, f2 = below_common_channel(np.random.default_rng(seed))
    assert fs.solve(cp.weak_problem(f1, f2)).verdict == "feasible"


@pytest.mark.parametrize("seed", [1, 2])
def test_near_boundary_qutrit_coexistence_is_decided(seed):
    # the qutrit draws that follow two qubit draws; both pairs coexist,
    # close enough to the boundary that projection methods stall
    from qcompat import compat as cp

    rng = np.random.default_rng(seed)
    rand_effect(rng, 2), rand_effect(rng, 2)
    e1, e2 = rand_effect(rng, 3), rand_effect(rng, 3)
    assert fs.solve(coexistence_problem(e1.matrix, e2.matrix)).verdict == "feasible"
    assert cp.classify(e1, e2, fast_paths=False).relation == "compatible"


def test_constraints_blind_to_the_trace_direction():
    # x - y = diag(1, -2) holds for every shift of both blocks by c*I, so
    # the margin is unbounded and a shifted point is the witness
    c = fs.encode_sum_constraint((("x", 1.0), ("y", -1.0)), np.diag([1.0, -2.0]))
    out = fs.solve(fs.FeasibilityProblem((("x", 2), ("y", 2)), (c,)))
    assert out.verdict == "feasible"
    x, y = out.witness["x"], out.witness["y"]
    assert is_psd(x) and is_psd(y)
    assert np.linalg.norm(x - y - np.diag([1.0, -2.0])) <= fs.DEFAULT_TOL.feas_tol


def test_constraint_validation():
    bad = fs.AffineConstraint((("y", np.eye(4)),), np.zeros(4))
    with pytest.raises(ValueError):
        fs.FeasibilityProblem((("x", 2),), (bad,))


def test_trace_log_lines():
    lines = []
    fs.solve(one_block_trace_problem(1.0), trace=lines.append)
    assert lines
    assert all("residual=" in ln or "affine" in ln for ln in lines)


def test_hermitian_basis_coherence():
    # coordinate conventions agree between encoder and matkit basis
    basis = hermitian_basis(2)
    for b in basis:
        x = herm_coords(b)
        assert x.shape == (4,)


def test_trace_lines_count_every_iteration():
    # every line of a run is an iteration line, and the iteration counter
    # differences over the lines add up to the outcome's iteration count;
    # seed 3 ends at a PSD affine point after 3 steps, seed 6 in a
    # certificate after 5, and the weak problem in a face polish after 7
    from qcompat import compat as cp

    problems = []
    for seed, verdict in ((3, "feasible"), (6, "infeasible")):
        rng = np.random.default_rng(seed)
        e1, e2 = rand_effect(rng, 2).matrix, rand_effect(rng, 2).matrix
        problems.append((coexistence_problem(e1, e2), verdict))
    f1, f2 = below_common_channel(np.random.default_rng(100))
    problems.append((cp.weak_problem(f1, f2), "feasible"))
    polished = 0
    for problem, verdict in problems:
        lines = []
        out = fs.solve(problem, trace=lines.append)
        assert out.verdict == verdict
        polished += sum("face-polish" in line for line in lines)
        counted, last = 0, 0
        for line in lines:
            m = re.match(r"iter=(\d+) shift=(\S+)", line)
            assert m is not None, line
            if "face-polish" in line:
                continue
            it = int(m[1])
            counted += it if it <= last else it - last
            last = it
        assert counted == out.iterations
    assert polished == 1
