import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcompat import feasibility as fs
from qcompat.fixtures import I2, SX, SZ
from qcompat.devices import choi_from_kraus
from qcompat.matkit import (
    Tolerances,
    herm_coords,
    herm_from_coords,
    herm_stack_from_coords,
    kron,
)

from conftest import (
    below_common_channel,
    hermitian_basis,
    is_psd,
    partial_trace_constraint,
    rand_complex,
    rand_cpmap,
    rand_effect,
    rand_herm,
    rand_kraus,
    rand_psd,
    sum_constraint,
)


def trace_row(value, *names_sides):
    """``sum_i Tr X_i = value``: the trace of a block of side d is
    ``PartialTrace((1, d))``, and of a 1x1 block its coefficient 1."""
    terms = tuple((n, 1.0 if d == 1 else fs.PartialTrace((1, d))) for n, d in names_sides)
    return fs.AffineConstraint(terms, np.array([float(value)]))


def one_block_trace_problem(value, side=2):
    return fs.FeasibilityProblem((("x", side),), (trace_row(value, ("x", side)),))


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
    plan = problem.plan
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
    # X = diag(-1, 0): every direction lies in the row space, and a non-PSD z
    # gives no bound, whatever its weight; z is not shifted towards the cone
    c = sum_constraint(["x"], np.diag([-1.0, 0.0]))
    layout, frame, x0 = affine_data(fs.FeasibilityProblem((("x", 2),), (c,)))
    for diag, bound in (([-1.0, 0.0], None), ([1.0, 0.0], -1.0)):
        got = fs._certificate_bound(frame.project(herm_coords(np.diag(diag))), layout, x0)
        assert got == (None if bound is None else pytest.approx(bound))
    z = frame.project(np.array([1.0, 1.0, 3.0, 0.0]))
    assert fs._min_eig(z, layout) < 0
    assert fs._certificate_bound(z, layout, x0) is None
    z = frame.project(herm_coords(np.eye(2)))
    assert fs._certificate_bound(z, layout, x0) == pytest.approx(-0.5)


def test_certificate_bound_of_a_direction_in_the_null_space():
    # c = -1 on a 1x1 block beside a free qubit block x: a direction in x has
    # no part in the row space and projects to z = 0, which is PSD but has no
    # weight, and so bounds nothing
    problem = fs.FeasibilityProblem((("x", 2), ("c", 1)), (trace_row(-1.0, ("c", 1)),))
    layout, frame, x0 = affine_data(problem)
    z = frame.project(np.concatenate([[0.0], herm_coords(np.diag([0.0, 1.0]))]))
    assert not z.any()
    assert fs._certificate_bound(z, layout, x0) is None


_COEFFICIENTS = (1.0, -1.0, 0.5, 2.0)


def _image(op, x):
    """A term's map applied to a block."""
    return _partial_trace(x, op.dims) if isinstance(op, fs.PartialTrace) else op * x


def typed_problem_around(rng, sides, n_rows, fixed_trace, deficit=None):
    """A problem of typed rows around random blocks, and the blocks.

    The blocks are PSD of random rank (0 included), or, with a ``deficit``,
    shifted along the identity until their total trace is -deficit times the
    total side, so that no PSD point meets it. The total-trace row comes first
    when ``fixed_trace``; each of ``n_rows`` random rows has an output side m,
    1 or a block's side, and reads a random nonempty subset of the blocks whose
    side m divides: a block of side m through a sum coefficient drawn from
    +-1, 0.5 and 2, a larger one through the trace over its second slot. Every
    row holds at the blocks.
    """
    blocks = tuple((f"b{i}", d) for i, d in enumerate(sides))
    point = []
    for d in sides:
        k = rand_complex(rng, d, int(rng.integers(0, d + 1)))
        point.append(herm_from_coords(herm_coords(k @ k.conj().T), d))
    if deficit is not None:
        shift = sum(np.trace(x).real for x in point) / sum(sides) + deficit
        point = [x - shift * np.eye(len(x)) for x in point]
    rows = [trace_row(sum(np.trace(x).real for x in point), *blocks)] if fixed_trace else []
    outputs = sorted({1, *sides})
    for _ in range(n_rows):
        m = int(rng.choice(outputs))
        fit = [k for k, d in enumerate(sides) if d % m == 0]
        chosen = [k for k in fit if rng.random() < 0.6] or [int(rng.choice(fit))]
        ops = [float(rng.choice(_COEFFICIENTS)) if sides[k] == m
               else fs.PartialTrace((m, sides[k] // m)) for k in chosen]
        target = sum(_image(op, point[k]) for k, op in zip(chosen, ops))
        rows.append(fs.AffineConstraint(tuple((blocks[k][0], op) for k, op in zip(chosen, ops)),
                                        herm_coords(target)))
    return fs.FeasibilityProblem(blocks, tuple(rows)), point


def face_data(problem):
    """Layout, affine frame and affine base point on the face that facial
    reduction reads from the rows, as the solver builds them."""
    plan = problem.plan
    bounds = fs._support_bounds(problem, fs.DEFAULT_TOL)
    embed, layout = fs._face_map(plan.layout, [bounds.get(n) for n in plan.layout.names])
    frame = fs._Frame.of(plan.a @ embed, layout)
    return layout, frame, frame.x0(problem.rhs)


def _ranks(bounds):
    return {name: u.shape[1] for name, u in bounds.items()}


# draws of typed_problem_around (without the total-trace row) that facial
# reduction reduces: a rank-1 target bounds a qubit block; a row with a
# negative sum coefficient, read once the block it subtracts is bounded,
# bounds a block that the other rows leave whole
_SHRINKS_A_BLOCK = dict(seed=0, sides=[2, 2], n_rows=2)
_READS_A_MIXED_SIGN_ROW = dict(seed=25, sides=[2, 2], n_rows=4)


def test_the_soundness_examples_reach_facial_reduction():
    def draw(seed, sides, n_rows):
        return typed_problem_around(np.random.default_rng(seed), sides, n_rows, False)[0]

    problem = draw(**_SHRINKS_A_BLOCK)
    assert _ranks(fs._support_bounds(problem, fs.DEFAULT_TOL)) == {"b1": 1}
    problem = draw(**_READS_A_MIXED_SIGN_ROW)
    assert _ranks(fs._support_bounds(problem, fs.DEFAULT_TOL)) == {"b0": 1, "b1": 1}
    positive = tuple(c for c in problem.constraints
                     if all(isinstance(op, fs.PartialTrace) or op > 0 for _, op in c.terms))
    assert len(positive) < len(problem.constraints)
    problem = fs.FeasibilityProblem(problem.blocks, positive)
    assert _ranks(fs._support_bounds(problem, fs.DEFAULT_TOL)) == {"b0": 1}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sides=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    n_rows=st.integers(1, 6),
    fixed_trace=st.booleans(),
)
def test_certificate_bound_is_sound(seed, sides, n_rows, fixed_trace):
    # around a known PSD point (rank-deficient blocks included), no
    # direction may certify a minimum eigenvalue below the point's own, on
    # the face that facial reduction reads from the typed rows
    rng = np.random.default_rng(seed)
    problem, _ = typed_problem_around(rng, sides, n_rows, fixed_trace)
    layout, frame, x0 = face_data(problem)
    for _ in range(20):
        bound = fs._certificate_bound(frame.project(rng.standard_normal(layout.total)), layout, x0)
        assert bound is None or bound >= -1e-9


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sides=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    n_rows=st.integers(0, 6),
    fixed_trace=st.booleans(),
    deficit=st.sampled_from([None, 1e-4, 1e-2, 1.0]),
)
@example(**_SHRINKS_A_BLOCK, fixed_trace=False, deficit=None)
@example(**_READS_A_MIXED_SIGN_ROW, fixed_trace=False, deficit=None)
def test_solve_is_sound(seed, sides, n_rows, fixed_trace, deficit):
    # typed problems built around a known point: around a PSD point (deficit
    # None) no verdict is infeasible; with the total trace fixed at
    # -deficit times the total side, no PSD point exists, so no verdict
    # is feasible. A certified margin lies between the point's least
    # eigenvalue and -feas_tol. Every outcome agrees with its exit.
    rng = np.random.default_rng(seed)
    problem, point = typed_problem_around(rng, sides, n_rows, fixed_trace or deficit is not None,
                                          deficit)
    out = fs.solve(problem)
    tol = fs.DEFAULT_TOL
    assert out.exit in fs.EXITS
    assert (out.verdict == "feasible") == (out.witness is not None) == (out.margin is None)
    assert out.witness is None or out.residual <= tol.feas_tol
    if out.verdict == "infeasible":
        assert out.exit in ("affine", "point", "certificate") and out.margin < -tol.feas_tol
    assert out.verdict != ("infeasible" if deficit is None else "feasible")
    if out.verdict == "infeasible":
        least = min(np.linalg.eigvalsh(x)[0] for x in point)
        assert least - 1e-9 <= out.margin < -fs.DEFAULT_TOL.feas_tol


def test_affine_inconsistency_reported_distinctly():
    c1, c2 = trace_row(1.0, ("x", 2)), trace_row(2.0, ("x", 2))
    out = fs.solve(fs.FeasibilityProblem((("x", 2),), (c1, c2)))
    assert out.verdict == "infeasible"
    assert out.exit == "affine"
    assert out.margin == float("-inf")


def pinned_sum_problem(target, trace_x=None):
    """``x + y = target`` on two qubit blocks, optionally with ``tr x`` fixed."""
    cons = [sum_constraint(("x", "y"), target)]
    if trace_x is not None:
        cons.append(trace_row(trace_x, ("x", 2)))
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
        row = partial_trace_constraint("j", dims, target=target.T)
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


def _partial_trace(x, dims):
    return np.einsum("ijkj->ik", x.reshape(dims * 2))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    moduli=st.tuples(*[st.sampled_from([0.0, 1e-12, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0, 1e3,
                                        1e6, 1e9])] * 2),
    signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
    psd_tol=st.sampled_from([0.0, 1e-9, 1e-6]),
)
def test_a_surely_full_qubit_target_has_full_range(seed, moduli, signs, psd_tol):
    # the closed-form test skips the eigh only where eigh finds full range;
    # eigenvalue moduli are drawn on both sides of psd_tol and at wide spreads
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rand_complex(rng, 2))[0]
    evals = np.array([s * m * psd_tol if m < 1e3 else s * m for s, m in zip(signs, moduli)])
    x = herm_coords(u @ np.diag(evals) @ u.conj().T)
    tol = Tolerances(psd_tol=psd_tol)
    if fs._surely_full(x, tol):
        assert fs._ranges(x[None], 2, tol)[0] is None
    # a target well inside full range is decided without the eigh
    assert fs._surely_full(herm_coords(u @ np.diag([0.3, 0.7]) @ u.conj().T), tol)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 1), (1, 3)]),
    ranks=st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 6), st.integers(0, 6)),
    order=st.permutations(range(3)),
)
def test_support_bounds_never_cut_off_a_psd_point(seed, dims, ranks, order):
    # PSD blocks a (on the bipartite space, its first marginal supported on a
    # subspace V), c (on the first slot, supported on W), b and b2, and the rows
    # Tr_2(a) + c, a + b and b2 - a around them, in any order. Every bound holds
    # its block's range, and a row whose right-hand side, subtracted blocks'
    # bounds included, spans less than the whole space bounds its blocks.
    rng = np.random.default_rng(seed)
    n, dk = dims[0] * dims[1], dims[0]
    rv, rw, rb, rb2 = min(ranks[0], dk), min(ranks[1], dk), min(ranks[2], n), min(ranks[3], n)
    traced = np.eye(dims[1])
    v, w = _subspace(rng, dk, rv), _subspace(rng, dk, rw)
    x = {"a": _psd_on(rng, kron(v, traced)), "c": _psd_on(rng, w),
         "b": _psd_on(rng, _subspace(rng, n, rb)), "b2": _psd_on(rng, _subspace(rng, n, rb2))}
    rows = (
        fs.AffineConstraint((("a", fs.PartialTrace(dims)), ("c", 1.0)),
                            herm_coords(_partial_trace(x["a"], dims) + x["c"])),
        sum_constraint(["a", "b"], x["a"] + x["b"]),
        sum_constraint([("b2", 1.0), ("a", -1.0)], x["b2"] - x["a"]),
    )
    blocks = (("a", n), ("b", n), ("b2", n), ("c", dk))
    bounds = fs._support_bounds(fs.FeasibilityProblem(blocks, tuple(rows[k] for k in order)),
                                fs.DEFAULT_TOL)
    for name, u in bounds.items():
        outside = x[name] - u @ (u.conj().T @ x[name])
        assert np.abs(outside).max() <= 1e-9 * max(1.0, np.abs(x[name]).max())
    rank = {name: bounds[name].shape[1] if name in bounds else side for name, side in blocks}
    reach = np.linalg.matrix_rank(np.hstack([v, w])) if rv + rw else 0
    if reach < dk:  # Tr_2(a) + c lies in V + W
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
    rows = tuple(sum_constraint([n], t) for (n, _), t in zip(blocks, targets))
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
    out = fs.solve(fs.FeasibilityProblem((("x", 2),), (sum_constraint(["x"], target),)),
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
    assert out.exit == "affine"
    assert out.margin == float("-inf")


def noisy_pair(t):
    e1 = (I2 + t * SX) / 2
    e2 = (I2 + t * SZ) / 2
    return e1, e2


def coexistence_problem(e1, e2):
    d = e1.shape[0]
    blocks = tuple((name, d) for name in ("g11", "g10", "g01", "g00"))
    cons = (
        sum_constraint(("g11", "g10"), e1),
        sum_constraint(("g11", "g01"), e2),
        sum_constraint(("g11", "g10", "g01", "g00"), np.eye(d)),
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
    # The path cannot certify either way; a second run on the face read from
    # the path finds a point within feas_tol for delta = 1e-7, not for 2e-7,
    # and from 3e-7 on the certificate refutes.
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
    cons = (sum_constraint(("a", "b"), lam.choi),)
    out = fs.solve(fs.FeasibilityProblem((("a", 4), ("b", 4)), cons))
    assert out.verdict == "feasible"
    total = out.witness["a"] + out.witness["b"]
    assert np.linalg.norm(total - lam.choi) <= 1e-6


def test_partial_trace_constraint_encodes_trace_preservation():
    cons = (
        partial_trace_constraint("j", (2, 2), target=np.eye(2)),
    )
    out = fs.solve(fs.FeasibilityProblem((("j", 4),), cons))
    assert out.verdict == "feasible"
    from qcompat.devices import CPMap

    # the witness is a valid channel Choi matrix
    CPMap(2, 2, out.witness["j"], kind="channel")


def test_heisenberg_unit_constraint():
    from qcompat.devices import CPMap, apply_h

    px = (I2 + SX) / 2
    cons = (partial_trace_constraint("j", (2, 2), target=px.T),)
    out = fs.solve(fs.FeasibilityProblem((("j", 4),), cons))
    assert out.verdict == "feasible"
    m = CPMap(2, 2, out.witness["j"])
    assert np.linalg.norm(apply_h(m, I2) - px) <= 1e-6


def test_interior_point_found_within_budget():
    # feasible problem with a strictly interior witness on a 16x16 block: its
    # trace, and its partial trace over the second of two 4-dimensional slots
    rng = np.random.default_rng(47)
    side = 16
    x_star = np.eye(side) * 0.5 + 0.02 * rand_herm(rng, side)
    assert np.linalg.eigvalsh(x_star)[0] > 0.1
    cons = (
        trace_row(np.trace(x_star).real, ("x", side)),
        partial_trace_constraint("x", (4, 4), _partial_trace(x_star, (4, 4))),
    )
    out = fs.solve(fs.FeasibilityProblem((("x", side),), cons))
    assert out.verdict == "feasible"
    assert is_psd(out.witness["x"])


def test_margin_monotone_under_constraint_addition():
    # Tr X = -0.4 on a two-qubit block, then also Tr_2 X = H for a random H
    # of that trace
    rng = np.random.default_rng(49)
    for _ in range(5):
        side = 4
        base = trace_row(-0.4, ("x", side))
        h = rand_herm(rng, 2)
        h += (-0.4 - np.trace(h).real) / 2 * I2
        extra = partial_trace_constraint("x", (2, 2), h)
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
    got = fs._clamp(fs._joint_spectra((x,), layout)[0], 0.0, layout)
    expected = np.empty_like(x)
    for o, d in zip(layout.offsets, sides):
        evals, evecs = np.linalg.eigh(herm_from_coords(x[o : o + d * d], d))
        clamped = np.maximum(evals, 0.0)
        expected[o : o + d * d] = herm_coords((evecs * clamped) @ evecs.conj().T)
    assert np.array_equal(got, expected)
    gathered = np.concatenate([np.arange(layout.total)[span] for _, span in layout.groups])
    assert sorted(gathered) == list(range(layout.total))
    # the least eigenvalue and the step lengths, block by block: the other
    # blocks are lifted by 100 e, or take no step
    def pd(d):  # real when 1x1
        a = rand_complex(rng, d, d)
        return np.real_if_close(a @ a.conj().T + 0.1 * np.eye(d))

    def inv_half(m):
        evals, evecs = np.linalg.eigh(m)
        return (evecs / np.sqrt(evals)) @ evecs.conj().T

    zs, ss = [pd(d) for d in sides], [pd(d) for d in sides]
    halves = [np.array([inv_half(m) for ms in (zs, ss) for m, dk in zip(ms, sides) if dk == d])
              for d, _ in layout.groups]
    dz, ds = 5 * rng.standard_normal(layout.total), 5 * rng.standard_normal(layout.total)
    steps = set()
    for o, d, z, s in zip(layout.offsets, sides, zs, ss):
        block = slice(o, o + d * d)
        lifted = x + 100.0 * layout.identity
        lifted[block] = x[block]
        least = np.linalg.eigvalsh(herm_from_coords(x[block], d))[0]
        assert abs(fs._min_eig(lifted, layout) - least) <= 1e-12
        alone = [np.zeros(layout.total), np.zeros(layout.total)]
        expected = []
        for v, out, m in zip((dz, ds), alone, (z, s)):
            out[block] = v[block]
            h = inv_half(m)
            lo = min(0.0, np.linalg.eigvalsh(h @ herm_from_coords(v[block], d) @ h)[0])
            expected.append(1.0 if lo >= -0.95 else -0.95 / lo)
        got = fs._step_lengths(halves, *alone, layout)
        assert np.abs(np.subtract(got, expected)).max() <= 1e-12
        steps.update(got)
    assert len(steps) > 2  # steps below 1, the 1x1 blocks' included


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
def test_partial_trace_matrix_matches_partial_trace(dims):
    from conftest import partial_trace

    rng = np.random.default_rng([*dims, 0])
    mat = fs._partial_trace_matrix(*dims)
    assert not mat.flags.writeable
    assert mat.shape == (dims[0] ** 2, (dims[0] * dims[1]) ** 2)
    for _ in range(3):
        x = rand_herm(rng, dims[0] * dims[1])
        expected = herm_coords(partial_trace(x, dims, 0))
        assert np.abs(mat @ herm_coords(x) - expected).max() <= 1e-13


@pytest.mark.parametrize("shift", [-0.7, 0.0, 0.4])
def test_shifted_spectrum_projection_matches_project_cone(shift):
    # the cone projection of X + shift e read off X's spectra, 1x1 blocks included
    sides = (2, 1, 4, 1, 3, 2)
    layout = fs._Layout.of(tuple((f"b{i}", d) for i, d in enumerate(sides)))
    rng = np.random.default_rng(29)
    x = rng.standard_normal(layout.total)
    x[[layout.offsets[1], layout.offsets[3]]] = (-0.5, 0.1)
    got = fs._clamp(fs._joint_spectra((x,), layout)[0], shift, layout)
    expected = fs._clamp(fs._joint_spectra((x + shift * layout.identity,), layout)[0], 0.0, layout)
    assert np.abs(got - expected).max() <= 1e-13


def test_problem_blocks_may_be_a_list():
    problem = fs.FeasibilityProblem([("x", 2)], one_block_trace_problem(1.0).constraints)
    assert problem.blocks == (("x", 2),)
    assert fs.solve(problem).verdict == "feasible"


def test_face_polish_keeps_a_degenerate_pair_whole():
    # two qutrit blocks on span{|1>, |2>}: x + y = diag(0, 1, 1). The point
    # x = y = diag(0, 1/2, 1/2) puts a degenerate pair on the cutoff 0.5; a
    # rank-1 face would be whichever eigenvector of the pair last bits pick.
    assert fs._face_rank(np.array([0.0, 0.0, 0.5 - 4e-12, 0.5 + 4e-12]), 0.5) == 2
    assert fs._face_rank(np.array([0.0, 0.2, 0.5, 0.9]), 0.5) == 1
    assert fs._face_rank(np.array([1e-17, 2e-8, 0.3, 0.3]), 1e-6) == 2
    half = np.diag([0.0, 0.5, 0.5])
    row = sum_constraint(("x", "y"), 2 * half)
    plan = fs.FeasibilityProblem((("x", 3), ("y", 3)), (row,)).plan
    rng = np.random.default_rng(5)
    for _ in range(4):
        noise = np.zeros(18)
        noise[[1, 2, 5, 8, 10, 11, 14, 17]] = 1e-13 * rng.standard_normal(8)  # the (1, 2) entries
        point = np.concatenate([herm_coords(half)] * 2) + noise
        bases = fs._read_face(point, 0.5, plan.layout, [None, None])
        for u in bases:
            assert u.shape == (3, 2) and np.abs(u[0]).max() <= 1e-12
        # the second run on that face decides at step 0
        out, _ = fs._run(plan, row.rhs, bases, fs.DEFAULT_TOL, None)
        assert (out.verdict, out.iterations) == ("feasible", 0)
        assert out.residual <= 1e-14
        for name in ("x", "y"):
            assert np.abs(out.witness[name] - half).max() <= 1e-12
    # a face that shrinks no block is not read
    whole = np.concatenate([herm_coords(np.diag([0.2, 0.3, 0.5]))] * 2)
    assert fs._read_face(whole, 0.1, plan.layout, [None, None]) is None


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
    # Batched calls, one per side group: a step costs one eigh of the
    # slack and the dual iterate, the certificate's eigvalsh and one
    # eigvalsh for each of the two step lengths. The first slack's eigh is
    # x0's (which gives the start point and the first dual iterate, so the
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


def test_each_iterate_takes_one_eigh(monkeypatch):
    # from step 1 on, the slack and the dual iterate share one batched eigh
    # per side group: an n-step solve of one group whose targets take no
    # range eigh (2x2 and surely full) calls eigh once for x0 and once per
    # step, on S and Z stacked
    calls = []
    orig = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    problem = _coexistence_draw(3)
    assert len(fs._Layout.of(problem.blocks).groups) == 1
    out = fs.solve(problem)
    assert (out.exit, out.iterations) == ("path", 3)
    assert calls == [(4, 2, 2)] + [(8, 2, 2)] * out.iterations


def test_a_step0_witness_builds_no_dual_start(monkeypatch):
    # A strictly feasible problem exits ``path`` at step 0, before the dual
    # start Z = S^-1 / <e, S^-1> is built (its only ``_clamp``). The trace
    # line gives that start's <Z, S> in closed form, nu / <e, S^-1>, and
    # reads as the line computed from Z did (these lines are that one's)
    calls = []
    orig = fs._clamp

    def counting(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(fs, "_clamp", counting)
    h = rand_psd(np.random.default_rng(5), 3)
    for problem, line in (
        (one_block_trace_problem(1.0), "residual=3.331e-16 gap=1.000e+00"),
        (fs.FeasibilityProblem((("x", 2),), (sum_constraint(["x"], np.diag([0.3, 0.7])),)),
         "residual=0.000e+00 gap=1.167e+00"),
        (fs.FeasibilityProblem((("x", 3),), (sum_constraint(["x"], h),)),
         "residual=0.000e+00 gap=2.385e+00"),
    ):
        lines = []
        out = fs.solve(problem, trace=lines.append)
        assert (out.exit, out.iterations) == ("path", 0)
        assert lines == ["iter=0 shift=+0.000e+00 " + line]
    assert not calls


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


def _pure_pair_problem():
    """The joint problem of two pure qubit operations: face-reduced, and
    infeasible after one step."""
    from qcompat import compat as cp

    rng = np.random.default_rng([77, 2])
    return cp.joint_problem(rand_cpmap(rng, 2, 2, n_ops=1), rand_cpmap(rng, 2, 2, n_ops=1))


def test_the_first_dual_iterate_is_centred(monkeypatch):
    # Z0 = S0^-1 / <e, S0^-1>: positive definite, of unit weight, and
    # Z0 S0 = mu 1 in every block; the spectrum handed to the step is Z0's
    rng = np.random.default_rng(3)
    whole = coexistence_problem(rand_effect(rng, 2).matrix, rand_effect(rng, 2).matrix)
    reduced = _pure_pair_problem()
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
        spectra = fs._joint_spectra((point,), layout)[0]
        for (d, span), (evals, evecs) in zip(layout.groups, spectra):
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
    svds = []
    orig = np.linalg.svd

    def counted(a, *args, **kwargs):
        svds.append(a.shape)
        return orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)

    def whole(seed):
        rng = np.random.default_rng(seed)
        return coexistence_problem(rand_effect(rng, 2).matrix, rand_effect(rng, 2).matrix)

    e2 = rand_effect(np.random.default_rng(0), 3).matrix
    builds = [
        (lambda: whole(3), 0),  # whole, feasible after 3 steps
        (lambda: whole(6), 0),  # whole, infeasible after 4
        (lambda: coexistence_problem(np.diag([0.6, 0.3, 0.0]), e2), 1),  # reduced, feasible
        (_pure_pair_problem, 1),  # reduced, infeasible after 1
    ]
    verdicts = set()
    for build, hit_svds in builds:
        # a problem keeps the plan it was built with, so a cold solve needs a
        # problem built after the cache is cleared; its twin finds the plan
        fs._Plan.of.cache_clear()
        problem = build()
        assert bool(fs._support_bounds(problem, fs.DEFAULT_TOL)) == bool(hit_svds)
        cold = fs.solve(problem)
        twin = build()
        assert fs._Plan.of.cache_info().hits == 1 and twin.plan is problem.plan
        svds.clear()
        warm = fs.solve(twin)
        assert len(svds) == hit_svds
        assert _outcome_bits(warm) == _outcome_bits(cold)
        assert cold.iterations >= 1
        plan = problem.plan
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
    # one distinct shape per block count
    fs._Plan.of.cache_clear()
    limit = fs._Plan.of.cache_info().maxsize
    for n in range(1, 2 * limit + 2):
        blocks = tuple((f"x{i}", 1) for i in range(n))
        row = sum_constraint([name for name, _ in blocks], np.eye(1))
        assert fs.solve(fs.FeasibilityProblem(blocks, (row,))).verdict == "feasible"
    info = fs._Plan.of.cache_info()
    assert info.currsize == limit and info.misses == 2 * limit + 1


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
    # facial reduction packs the 1x1 trace target once, the run its 4x4 blocks
    assert calls and set(calls) == {1, 4}


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
    c = sum_constraint((("x", 1.0), ("y", -1.0)), np.diag([1.0, -2.0]))
    out = fs.solve(fs.FeasibilityProblem((("x", 2), ("y", 2)), (c,)))
    assert out.verdict == "feasible"
    x, y = out.witness["x"], out.witness["y"]
    assert is_psd(x) and is_psd(y)
    assert np.linalg.norm(x - y - np.diag([1.0, -2.0])) <= fs.DEFAULT_TOL.feas_tol


def test_constraint_validation():
    bad = fs.AffineConstraint((("y", 1.0),), np.zeros(4))
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
    # certificate after 4, and the weak problem of luders_px and
    # half_sigma_x in a second run on the face read after 6, which adds
    # one summary line and no step
    from qcompat import compat as cp
    from qcompat.fixtures import builtin_devices

    problems = []
    for seed, verdict in ((3, "feasible"), (6, "infeasible")):
        rng = np.random.default_rng(seed)
        e1, e2 = rand_effect(rng, 2).matrix, rand_effect(rng, 2).matrix
        problems.append((coexistence_problem(e1, e2), verdict))
    dev = builtin_devices()
    problems.append((cp.weak_problem(dev["luders_px"], dev["half_sigma_x"]), "feasible"))
    polished = []
    for problem, verdict in problems:
        lines = []
        out = fs.solve(problem, trace=lines.append)
        assert out.verdict == verdict
        polished += [line for line in lines if "face-polish" in line]
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
    assert polished == [f"iter=6 shift=+0.000e+00 face-polish residual={out.residual:.3e}"]


def _coexistence_draw(seed):
    rng = np.random.default_rng(seed)
    return coexistence_problem(rand_effect(rng, 2).matrix, rand_effect(rng, 2).matrix)


def _builtin_problem(builder, n1, n2):
    from qcompat import compat as cp
    from qcompat.fixtures import builtin_devices

    dev = builtin_devices()
    return getattr(cp, builder)(dev[n1], dev[n2])


_GATED_TOL = Tolerances(psd_tol=1e-6)


def _gated_problem():
    # the effect is accepted at psd_tol 1e-6, but its unit exceeds 1 by
    # 2e-7: the joint problem's PSD affine point misses it by 2.4e-7
    from qcompat import compat as cp
    from qcompat.devices import Effect
    from qcompat.fixtures import builtin_devices

    effect = Effect(np.diag([1 + 2e-7, 0.3]), _GATED_TOL)
    return cp.joint_problem(effect, builtin_devices()["sharp_z"])


_STEP_TRACE_LINE = r"iter=\d+ shift=\+0\.000e\+00 residual=\S+ gap=\S+"
_LAST_TRACE_LINE = {
    "affine": r"affine-inconsistent residual=\S+",
    "shift": "",
    "point": r"iter=0 shift=\+0\.000e\+00 point residual=\S+ margin=\S+",
    "face": r"iter=\d+ shift=\+0\.000e\+00 face-polish residual=\S+",
}


@pytest.mark.parametrize("build, tol, exit, verdict, iterations", [
    (lambda: pinned_sum_problem(np.zeros((2, 2)), trace_x=1.0), fs.DEFAULT_TOL,
     "affine", "infeasible", 0),
    (lambda: fs.FeasibilityProblem((("x", 2),), ()), fs.DEFAULT_TOL, "shift", "feasible", 0),
    (lambda: pinned_sum_problem(np.zeros((2, 2))), fs.DEFAULT_TOL, "shift", "feasible", 0),
    (lambda: fs.FeasibilityProblem((("x", 2), ("y", 2)), (sum_constraint(
        (("x", 1.0), ("y", -1.0)), np.diag([1.0, -2.0])),)), fs.DEFAULT_TOL,
     "shift", "feasible", 0),
    (lambda: fs.FeasibilityProblem((("x", 2),), (sum_constraint(
        ["x"], np.diag([-1.0, 1.0])),)), fs.DEFAULT_TOL, "point", "infeasible", 0),
    (lambda: _coexistence_draw(3), fs.DEFAULT_TOL, "path", "feasible", 3),
    (lambda: _coexistence_draw(6), fs.DEFAULT_TOL, "certificate", "infeasible", 4),
    (lambda: _builtin_problem("weak_problem", "luders_px", "half_sigma_x"), fs.DEFAULT_TOL,
     "face", "feasible", 6),
    (lambda: _builtin_problem("weak_problem", "half_identity", "luders_pz"), fs.DEFAULT_TOL,
     "projection", "feasible", 0),
    (lambda: coexistence_problem(*noisy_pair(1 / np.sqrt(2) + 2e-7)), fs.DEFAULT_TOL,
     "stall", "undecided", 12),
    (_gated_problem, _GATED_TOL, "path", "undecided", 0),
], ids=["affine", "shift-no-rows", "shift-all-pinned", "shift-blind", "point", "path",
        "certificate", "face", "projection", "stall", "gated-path"])
def test_every_exit_names_itself(build, tol, exit, verdict, iterations):
    lines = []
    out = fs.solve(build(), tol, trace=lines.append)
    assert (out.exit, out.verdict, out.iterations) == (exit, verdict, iterations)
    assert (out.witness is not None) == (out.margin is None) == (verdict == "feasible")
    # the trace: no line for shift, one line for affine and point, and step
    # lines for the run, closed by one face-polish line for face; the last
    # iteration count traced is the outcome's
    assert bool(lines) == (exit != "shift")
    *steps, last = lines or [""]
    assert re.fullmatch(_LAST_TRACE_LINE.get(exit, _STEP_TRACE_LINE), last)
    assert all(re.fullmatch(_STEP_TRACE_LINE, line) for line in steps)
    assert not steps or exit not in ("affine", "point")
    counts = [int(line.split()[0][len("iter="):]) for line in lines if line.startswith("iter=")]
    assert counts[-1:] in ([], [out.iterations])


def _sum_problem(side=2, coefficient=1.0, rhs=None):
    rhs = herm_coords(I2) if rhs is None else rhs
    return fs.FeasibilityProblem((("x", side),), (fs.AffineConstraint((("x", coefficient),), rhs),))


@pytest.mark.parametrize("build, error, match", [
    (lambda: _sum_problem(side=0), fs.MatrixShapeError, "positive integer"),
    (lambda: _sum_problem(side=-1), fs.MatrixShapeError, "positive integer"),
    (lambda: _sum_problem(side=True), fs.MatrixShapeError, "positive integer"),
    (lambda: _sum_problem(side=2.0), fs.MatrixShapeError, "positive integer"),
    # the coordinates of diag(nan, 1) and diag(inf, 1)
    (lambda: _sum_problem(rhs=np.array([np.nan, 1.0, 0.0, 0.0])), ValueError, "NaN or Inf"),
    (lambda: _sum_problem(rhs=np.array([np.inf, 1.0, 0.0, 0.0])), ValueError, "NaN or Inf"),
    (lambda: _sum_problem(rhs=np.array([1.0, np.inf, 0.0, 0.0])), ValueError, "NaN or Inf"),
    (lambda: _sum_problem(coefficient=np.nan), ValueError, "coefficient"),
    (lambda: _sum_problem(coefficient=np.inf), ValueError, "coefficient"),
    # an explicit matrix is no map: a term is a float or a PartialTrace
    (lambda: fs.FeasibilityProblem((("x", 2),), (fs.AffineConstraint(
        (("x", np.full((1, 4), np.nan)),), np.zeros(1)),)), TypeError,
     "term for 'x' is of type ndarray"),
    (lambda: _sum_problem(coefficient=1j), TypeError, "term for 'x' is of type complex"),
    (lambda: _sum_problem(rhs=np.eye(2)), fs.MatrixShapeError, "1-d"),
    (lambda: _sum_problem(rhs=herm_coords(I2) + 0.5j), ValueError, "real coordinates"),
    (lambda: fs.PartialTrace((2, 0)), fs.MatrixShapeError, "positive integer"),
    (lambda: fs.PartialTrace((2, 2, 2)), fs.MatrixShapeError, "two slot sides"),
    (lambda: fs.FeasibilityProblem((("x", 2), ("x", 1)), ()), ValueError, "duplicate block"),
    (lambda: _sum_problem(rhs=np.zeros(1)), fs.MatrixShapeError, r"shape \(4, 4\)"),
    (lambda: fs.FeasibilityProblem((("x", 2),), (fs.AffineConstraint(
        (("x", fs.PartialTrace((2, 2))),), herm_coords(I2)),)), fs.MatrixShapeError,
     r"shape \(4, 16\)"),
], ids=["side-0", "side-negative", "side-bool", "side-float", "nan-target", "inf-target",
        "inf-rhs", "nan-coefficient", "inf-coefficient", "nan-matrix-term",
        "complex-coefficient", "2d-rhs", "complex-rhs", "trace-side-0", "trace-three-slots",
        "duplicate-block", "sum-term-shape", "trace-term-shape"])
def test_malformed_problems_are_rejected_at_construction(build, error, match):
    # twice: a failed check is never cached
    for _ in range(2):
        with pytest.raises(error, match=match):
            build()


@pytest.mark.parametrize("coefficient", [1 + 0j, Fraction(1)], ids=["complex", "fraction"])
def test_a_checked_shape_still_checks_term_types(coefficient):
    # both equal 1.0 and hash like it, so a shape memo keyed by value alone
    # would let them through once a problem with 1.0 was built
    assert coefficient == 1.0 and hash(coefficient) == hash(1.0)
    _sum_problem(coefficient=1.0)
    with pytest.raises(TypeError, match=f"is of type {type(coefficient).__name__}"):
        _sum_problem(coefficient=coefficient)


def test_problem_shapes_are_checked_once(monkeypatch):
    # the structural checks run once per shape; the right-hand sides are
    # checked on every construction
    calls = []
    orig = fs._term_shape

    def counting(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(fs, "_term_shape", counting)
    fs._Plan.of.cache_clear()
    _sum_problem()
    _sum_problem(rhs=herm_coords(np.diag([0.25, 0.75])))
    assert len(calls) == 1
    with pytest.raises(ValueError, match="NaN or Inf"):
        _sum_problem(rhs=np.array([np.nan, 1.0, 0.0, 0.0]))
    assert len(calls) == 1


def test_well_formed_problems_keep_their_data():
    problem = _sum_problem(side=np.int64(2))
    assert problem.blocks == (("x", 2),) and type(problem.blocks[0][1]) is int
    assert fs.PartialTrace((np.int64(2), 3)) == fs.PartialTrace((2, 3))
    assert problem.rhs.tobytes() == herm_coords(np.eye(2)).tobytes()
    assert fs.solve(problem).verdict == "feasible"
