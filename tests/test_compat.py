import ast
import dataclasses
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcompat import compat as cp
from qcompat import devices as dv
from qcompat import feasibility as fs
from qcompat import order as od
from qcompat.devices import CPMap, Effect, Instrument, KrausSet, Observable, choi_from_kraus
from qcompat.matkit import (
    MatrixShapeError,
    PositivityError,
    Tolerances,
    close,
    herm_coords,
    herm_from_coords,
    hermitian_part,
)
from qcompat.fixtures import (
    I2,
    PMX,
    PMZ,
    PX,
    PZ,
    SX,
    SY,
    SZ,
    TABLE1_CELLS,
    builtin_devices,
    effect,
    half_sigma_x,
    luders_of,
    px_dephasing_channel,
    sharp_observable,
)

from conftest import (
    below_common_channel,
    benchmark_workloads,
    conjugate,
    fourier_jointly_measurable,
    haar_unitary,
    noisy_fourier_pair,
    partial_trace_constraint,
    rand_complex,
    rand_cpmap,
    rand_effect,
    rand_herm,
    rand_instrument,
    rand_kraus,
    rand_observable,
    rand_rank1_deficit_op,
    rand_state,
    state_prep_choi,
    sum_constraint,
)


DEV = builtin_devices()


def _pair(d1, d2, tol):
    """The pair in the given order, as the fast paths and assemblers see it."""
    return cp._Pair(d1, d2, dv.instrument_parts(d1), dv.instrument_parts(d2), tol)


# ---------------------------------------------------------------------------
# effect-effect
# ---------------------------------------------------------------------------


def test_noncommuting_projections_incompatible_but_weak():
    v = cp.classify(effect(PX), effect(PZ))
    assert v.relation == "weakly_compatible_only"
    assert v.witness.instrument_1 is not v.witness.instrument_2
    # totals agree and each instrument contains its effect
    assert np.allclose(
        v.witness.common_channel.choi,
        dv.total_channel(v.witness.instrument_2).choi,
        atol=1e-8,
    )


def test_trivial_effect_compatible_with_anything():
    rng = np.random.default_rng(71)
    for _ in range(5):
        e = rand_effect(rng, 2)
        v = cp.classify(effect(I2 / 2), e)
        assert v.relation == "compatible"


def test_commuting_effects_compatible_with_product_witness():
    rng = np.random.default_rng(73)
    basis = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    e1 = Effect(basis @ np.diag([0.9, 0.4, 0.1]) @ basis.conj().T)
    e2 = Effect(basis @ np.diag([0.2, 0.8, 0.5]) @ basis.conj().T)
    v = cp.classify(e1, e2)
    assert v.relation == "compatible"
    assert "commuting" in v.notes
    assert dv.is_part_of(e1, v.witness.instrument_1)
    assert dv.is_part_of(e2, v.witness.instrument_2)


def test_noisy_pair_threshold():
    def pair(t):
        return Effect((I2 + t * SX) / 2), Effect((I2 + t * SZ) / 2)

    SZ_ = np.array([[1, 0], [0, -1]], dtype=complex)
    e1, e2 = Effect((I2 + 0.5 * SX) / 2), Effect((I2 + 0.5 * SZ_) / 2)
    assert cp.classify(e1, e2, fast_paths=False).relation == "compatible"
    e1, e2 = Effect((I2 + 0.9 * SX) / 2), Effect((I2 + 0.9 * SZ_) / 2)
    v = cp.classify(e1, e2, fast_paths=False)
    assert v.relation == "weakly_compatible_only"


def test_coexistence_witness_margins():
    rng = np.random.default_rng(75)
    e1, e2 = rand_effect(rng, 2), rand_effect(rng, 2)
    v = cp.classify(e1, e2)
    if v.relation == "compatible":
        g = dv.induced_observable(v.witness.instrument_1, cp.witness_tolerances(cp.DEFAULT_TOL))
        m1 = g.effect_of(v.witness.part_1).matrix
        m2 = g.effect_of(v.witness.part_2).matrix
        assert np.allclose(m1, e1.matrix, atol=1e-5)
        assert np.allclose(m2, e2.matrix, atol=1e-5)


def test_ef_ef_never_strongly_incompatible():
    rng = np.random.default_rng(77)
    for _ in range(25):
        v = cp.classify(rand_effect(rng, 2), rand_effect(rng, 2))
        assert v.relation != "strongly_incompatible"


def _yu_f(x, a):
    """F_x of E = ((1 + x) 1 + a.sigma) / 2:
    (sqrt((1 + x)^2 - |a|^2) + sqrt((1 - x)^2 - |a|^2)) / 2."""
    n2 = float(a @ a)
    return (np.sqrt((1 + x) ** 2 - n2) + np.sqrt((1 - x) ** 2 - n2)) / 2


def _bloch_vector(theta, phi, length):
    return length * np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                              np.cos(theta)])


# x, the direction of a, and |a| as a fraction of its largest value: long
# vectors, where about a third of the pairs do not coexist
_bloch = st.tuples(st.floats(-0.5, 0.5), st.floats(0, np.pi), st.floats(0, 2 * np.pi),
                   st.floats(0.8, 1))


@settings(max_examples=40, deadline=None)
@given(e=_bloch, f=_bloch, observables=st.booleans())
def test_qubit_pairs_agree_with_the_closed_form_coexistence_oracle(e, f, observables):
    # Yu, Liu, Li & Oh, PRA 81, 062116 (2010): E = ((1 + x) 1 + a.sigma) / 2 and
    # F = ((1 + y) 1 + b.sigma) / 2 coexist iff
    # (1 - F_x^2 - F_y^2)(1 - x^2 / F_x^2 - y^2 / F_y^2) <= (a.b - x y)^2.
    # |a| <= 0.98 (1 - |x|) keeps F_x > 0; pairs within 1e-4 of the boundary
    # lie in the engine's tolerance band and are skipped
    (x, *ta), (y, *tb) = e, f
    a = _bloch_vector(*ta[:2], 0.98 * (1 - abs(x)) * ta[2])
    b = _bloch_vector(*tb[:2], 0.98 * (1 - abs(y)) * tb[2])
    fx, fy = _yu_f(x, a), _yu_f(y, b)
    lhs = (1 - fx ** 2 - fy ** 2) * (1 - x ** 2 / fx ** 2 - y ** 2 / fy ** 2)
    rhs = (a @ b - x * y) ** 2
    assume(abs(lhs - rhs) >= 1e-4)
    sigma = (SX, SY, SZ)
    e1 = ((1 + x) * I2 + sum(c * m for c, m in zip(a, sigma))) / 2
    e2 = ((1 + y) * I2 + sum(c * m for c, m in zip(b, sigma))) / 2
    if observables:
        d1, d2 = _observable(e1, I2 - e1), _observable(e2, I2 - e2)
    else:
        d1, d2 = effect(e1), effect(e2)
    want = "compatible" if lhs <= rhs else "weakly_compatible_only"
    assert _both_routes(d1, d2).relation == want


def _fourier_boundary(d, theta):
    """The point of the jointly measurable (lam, mu) set on the ray at angle theta
    where the ray leaves it; the set is convex and holds the origin."""
    lo, hi = 0.0, 2.0
    for _ in range(60):
        mid = (lo + hi) / 2
        inside = fourier_jointly_measurable(d, mid * np.cos(theta), mid * np.sin(theta))
        lo, hi = (mid, hi) if inside else (lo, mid)
    return lo * np.cos(theta), lo * np.sin(theta)


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([3, 4]), theta=st.floats(0.45, np.pi / 2 - 0.45),
       log_distance=st.floats(-5, -1), outside=st.booleans(), seed=st.integers(0, 2**16))
@example(d=2, theta=np.pi / 4, log_distance=-3, outside=True, seed=0)  # the Busch circle
def test_noisy_fourier_pairs_agree_with_the_closed_form_oracle(d, theta, log_distance, outside,
                                                                seed):
    # a noisy computational and Fourier pair a relative 1e-5 to 1e-1 inside or
    # outside the boundary of the oracle's set, both turned by one Haar unitary:
    # the relation is the oracle's, or undecided; the pair is classical, so it
    # is weakly compatible when it is not compatible
    scale = 1 + (1 if outside else -1) * 10.0 ** log_distance
    lam, mu = (scale * t for t in _fourier_boundary(d, theta))
    u = haar_unitary(np.random.default_rng([61, seed]), d)
    z, x = (conjugate(obs, u) for obs in noisy_fourier_pair(d, lam, mu))
    want = "compatible" if fourier_jointly_measurable(d, lam, mu) else "weakly_compatible_only"
    assert want == ("weakly_compatible_only" if outside else "compatible")
    assert cp.classify(z, x).relation in (want, "undecided")


# ---------------------------------------------------------------------------
# observable-observable and promotions
# ---------------------------------------------------------------------------


def test_same_observable_jointly_measurable():
    a = sharp_observable(PX, PMX)
    v = cp.classify(a, a)
    assert v.relation == "compatible"


def test_sharp_x_vs_sharp_z_incompatible():
    v = cp.classify(sharp_observable(PX, PMX), sharp_observable(PZ, PMZ))
    assert v.relation == "weakly_compatible_only"


def test_trivial_observable_compatible_with_any():
    # a multiple of the identity commutes with every effect
    p = dv.trivial_observable({"h": 0.3, "t": 0.7}, dim=2)
    v = cp.classify(p, sharp_observable(PZ, PMZ))
    assert v.relation == "compatible"
    assert v.notes == "fast-path: commuting"


def test_effect_vs_observable_promotion():
    v = cp.classify(effect(PX), sharp_observable(PZ, PMZ))
    assert v.relation == "weakly_compatible_only"
    v = cp.classify(effect(I2 / 2), sharp_observable(PZ, PMZ))
    assert v.relation == "compatible"


def test_joint_problem_keeps_an_effect_valid_only_at_a_loose_tolerance():
    # 1 - E has eigenvalue -5e-7; the joint problem takes it as a target
    # and does not validate it again at the default tolerance
    loose = Tolerances(psd_tol=1e-6)
    e = Effect(np.diag([1 + 5e-7, 0.3]), loose)
    obs = sharp_observable(PZ, PMZ)
    for problem in (cp.joint_problem(e, obs), cp.joint_problem(obs, e)):
        targets = [herm_from_coords(c.rhs, 2) for c in problem.constraints]
        assert any(np.allclose(t, I2 - e.matrix, rtol=0, atol=1e-12) for t in targets)
    assert cp.classify(e, obs, tol=loose).relation == "compatible"


@pytest.mark.parametrize("delta", [5e-8, 1e-7, 2e-7])
def test_engine_witness_is_held_to_feas_tol_at_a_loose_tolerance(delta, monkeypatch):
    # the joint solve finds its PSD affine point at step 0, with residual
    # about 1.22 delta: within feas_tol it is the witness, above it the
    # engine says undecided (fast paths, reading the pair as commuting,
    # still say compatible; that route disagreement is not decided here)
    loose = Tolerances(psd_tol=1e-6)
    e = Effect(np.diag([1 + delta, 0.3]), loose)
    outcomes = []
    orig = fs.solve

    def recording(*args, **kwargs):
        outcomes.append(orig(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(fs, "solve", recording)
    v = cp.classify(e, sharp_observable(PZ, PMZ), tol=loose, fast_paths=False)
    (out,) = outcomes
    assert out.iterations == 0 and out.residual == pytest.approx(1.22 * delta, rel=0.01)
    if delta < 1e-7:
        assert (out.verdict, v.relation) == ("feasible", "compatible")
    else:
        assert (out.verdict, v.relation) == ("undecided", "undecided")
        assert out.margin == float("inf") and out.witness is None


# ---------------------------------------------------------------------------
# operation-operation
# ---------------------------------------------------------------------------


def test_luders_px_vs_half_sigma_x_weakly_compatible_only():
    v = cp.classify(DEV["luders_px"], DEV["half_sigma_x"])
    assert v.relation == "weakly_compatible_only"
    lam = v.witness.common_channel
    assert od.cp_leq(DEV["luders_px"], lam, cp.witness_tolerances(cp.DEFAULT_TOL))
    assert od.cp_leq(DEV["half_sigma_x"], lam, cp.witness_tolerances(cp.DEFAULT_TOL))
    # the witness channel acts like the x-dephasing channel
    expected = px_dephasing_channel()
    from conftest import hermitian_basis

    for t in hermitian_basis(2):
        got = dv.apply_s(lam, t)
        want = dv.apply_s(expected, t)
        assert np.linalg.norm(got - want) <= 1e-5


def test_luders_px_vs_luders_pz_strongly_incompatible():
    v = cp.classify(DEV["luders_px"], DEV["luders_pz"])
    assert v.relation == "strongly_incompatible"


def test_comparable_pair_compatible():
    phi = DEV["luders_px"]
    half = CPMap(2, 2, phi.choi / 2)
    v = cp.classify(phi, half)
    assert v.relation == "compatible"
    assert "comparable" in v.notes
    assert dv.is_part_of(phi, v.witness.instrument_1)
    assert dv.is_part_of(half, v.witness.instrument_2)


def test_op_op_sdp_path_agrees_on_named_pairs():
    for d1, d2, expect in (
        ("luders_px", "half_sigma_x", "infeasible"),
        ("luders_px", "luders_pz", "infeasible"),
    ):
        out = fs.solve(cp.joint_problem(DEV[d1], DEV[d2]))
        assert out.verdict == expect


def test_op_op_sdp_feasible_for_constructed_pair():
    rng = np.random.default_rng(79)
    ins = rand_instrument(rng, n_out=4)
    op1 = ins.branch_sum(("0", "1"))
    op2 = ins.branch_sum(("1", "2"))
    out = fs.solve(cp.joint_problem(op1, op2))
    assert out.verdict == "feasible"
    v = cp.classify(op1, op2, fast_paths=False)
    assert v.relation == "compatible"
    assert dv.is_part_of(op1, v.witness.instrument_1, cp.witness_tolerances(cp.DEFAULT_TOL))
    assert dv.is_part_of(op2, v.witness.instrument_2, cp.witness_tolerances(cp.DEFAULT_TOL))


def test_pure_oracle_matches_sdp_sample():
    rng = np.random.default_rng(81)
    agree = 0
    for _ in range(12):
        scale1 = np.sqrt(rng.uniform(0.3, 1.0))
        scale2 = np.sqrt(rng.uniform(0.3, 1.0))
        f1 = choi_from_kraus(rand_kraus(rng, 2, 2, 1, scale=scale1))
        f2 = choi_from_kraus(rand_kraus(rng, 2, 2, 1, scale=scale2))
        oracle = od.pure_pair_compatible(f1, f2)
        out = fs.solve(cp.joint_problem(f1, f2))
        assert out.verdict in ("feasible", "infeasible")
        assert (out.verdict == "feasible") == oracle
        agree += 1
    assert agree == 12


# ---------------------------------------------------------------------------
# operation-effect
# ---------------------------------------------------------------------------


def test_px_vs_luders_pz_weakly_compatible_only():
    v = cp.classify(DEV["luders_pz"], effect(PX))
    assert v.relation == "weakly_compatible_only"
    w = v.witness
    assert np.allclose(
        dv.total_channel(w.instrument_1, cp.witness_tolerances(cp.DEFAULT_TOL)).choi,
        dv.total_channel(w.instrument_2, cp.witness_tolerances(cp.DEFAULT_TOL)).choi,
        atol=1e-5,
    )
    # the effect is realized inside the second instrument
    got = dv.instrument_part_effect(w.instrument_2, w.part_2, cp.witness_tolerances(cp.DEFAULT_TOL))
    assert np.allclose(got.matrix, PX, atol=1e-5)


def test_pz_vs_luders_pz_compatible_by_commutation():
    v = cp.classify(DEV["luders_pz"], effect(PZ))
    assert v.relation == "compatible"
    assert v.notes == "fast-path: commuting"
    assert dv.is_part_of(effect(PZ), v.witness.instrument_2)
    assert dv.is_part_of(DEV["luders_pz"], v.witness.instrument_1)


def test_half_identity_vs_small_operation_sufficient_condition():
    f = CPMap(2, 2, DEV["luders_px"].choi / 2)  # f_H(1) = Px/2 <= I/2
    v = cp.classify(f, effect(I2 / 2))
    assert v.relation == "compatible"


def test_px_vs_biased_luders_strongly_incompatible():
    v = cp.classify(DEV["luders_biased_z"], effect(PX))
    assert v.relation == "strongly_incompatible"


# ---------------------------------------------------------------------------
# channel pairs
# ---------------------------------------------------------------------------


def test_identity_channel_vs_luders_incompatible():
    ident = choi_from_kraus(KrausSet((I2,)))
    v = cp.classify(ident, DEV["luders_px"])
    assert v.relation == "strongly_incompatible"


def test_channel_vs_half_of_itself():
    rng = np.random.default_rng(83)
    lam = rand_cpmap(rng, channel=True)
    v = cp.classify(lam, CPMap(2, 2, lam.choi / 2))
    assert v.relation == "compatible"


def test_dephasing_channel_vs_half_sigma_x_compatible():
    v = cp.classify(DEV["px_dephasing"], DEV["half_sigma_x"])
    assert v.relation == "compatible"
    assert dv.is_part_of(DEV["half_sigma_x"], v.witness.instrument_2)


def test_channel_channel():
    rng = np.random.default_rng(85)
    lam = rand_cpmap(rng, channel=True)
    other = rand_cpmap(rng, channel=True)
    assert cp.classify(lam, lam).relation == "compatible"
    assert cp.classify(lam, other).relation == "strongly_incompatible"


def test_channel_vs_effect():
    # a projection is compatible with the matching dephasing channel
    v = cp.classify(DEV["px_dephasing"], effect(PX))
    assert v.relation == "compatible"
    # but not with the identity channel
    ident = choi_from_kraus(KrausSet((I2,)))
    v = cp.classify(ident, effect(PX))
    assert v.relation == "strongly_incompatible"
    # trivial effects pass everything
    v = cp.classify(ident, effect(I2 / 2))
    assert v.relation == "compatible"


def test_channel_vs_observable():
    rng = np.random.default_rng(87)
    eta = rand_state(rng, 2)
    contraction = dv.contraction_channel(eta)
    v = cp.classify(contraction, sharp_observable(PZ, PMZ))
    assert v.relation == "compatible"
    # a contraction channel's Choi matrix 1 (x) eta commutes with every B^T (x) 1
    assert v.notes == "fast-path: commuting"
    ident = choi_from_kraus(KrausSet((I2,)))
    v = cp.classify(ident, sharp_observable(PZ, PMZ))
    assert v.relation == "strongly_incompatible"
    trivial = dv.trivial_observable({"a": 0.5, "b": 0.5}, dim=2)
    v = cp.classify(ident, trivial)
    assert v.relation == "compatible"


# ---------------------------------------------------------------------------
# operation-observable
# ---------------------------------------------------------------------------


def test_op_vs_observable():
    # the Lueders-x operation is compatible with the sharp x observable
    v = cp.classify(DEV["luders_px"], sharp_observable(PX, PMX))
    assert v.relation == "compatible"
    # and strongly incompatible situations surface too
    v2 = cp.classify(DEV["luders_biased_z"], sharp_observable(PX, PMX))
    assert v2.relation in ("weakly_compatible_only", "strongly_incompatible")


# ---------------------------------------------------------------------------
# weak deciders
# ---------------------------------------------------------------------------


def test_weakly_compatible_ops_self():
    phi = DEV["luders_px"]
    v = cp.weakly_compatible(phi, phi)
    assert v.relation == "weakly_compatible_only"


def test_weakly_compatible_ops_strong_pair():
    v = cp.weakly_compatible(DEV["luders_px"], DEV["luders_pz"])
    assert v.relation == "strongly_incompatible"
    v = cp.weakly_compatible(DEV["luders_px"], DEV["luders_pz"], fast_paths=False)
    assert v.relation == "strongly_incompatible"
    assert "margin" in v.notes



def test_weak_solve_of_luders_px_and_half_sigma_x_ends_in_the_face_polish():
    # the projection meets feas_tol here, and the polish still runs: the
    # rank-1 structure checked next holds on the face, not at the projection
    lines = []
    v = cp.weakly_compatible(DEV["luders_px"], DEV["half_sigma_x"], fast_paths=False,
                             trace=lines.append)
    assert v.relation == "weakly_compatible_only" and v.notes == "sdp"
    assert "face-polish" in lines[-1]
    assert all("face-polish" not in line for line in lines[:-1])

def test_weak_completion_branch_has_rank1_structure():
    # any engine-found upper channel of a rank-1-deficit map is in the family
    v = cp.weakly_compatible(DEV["luders_px"], DEV["half_sigma_x"], fast_paths=False)
    assert v.relation == "weakly_compatible_only"
    lam = v.witness.common_channel
    diff = lam.choi - DEV["luders_px"].choi
    e1 = od.trace_deficit(DEV["luders_px"])
    from conftest import partial_trace

    xi = partial_trace(diff, (2, 2), keep=1) / np.trace(e1).real
    assert np.linalg.norm(diff - np.kron(e1.T, xi)) <= 1e-5


def test_rank1_oracle_agrees_with_engine():
    # the analytic completion-family oracle and the weak SDP must agree
    rng = np.random.default_rng(106)
    seen = set()
    for _ in range(8):
        f1 = rand_rank1_deficit_op(rng)
        f2 = rand_rank1_deficit_op(rng)
        fast = cp.weakly_compatible(f1, f2)
        slow = cp.weakly_compatible(f1, f2, fast_paths=False)
        assert "rank1-family" in fast.notes
        assert fast.relation == slow.relation
        seen.add(fast.relation)
    assert seen  # at least one decided either way


def test_rank1_family_never_reaches_the_engine(monkeypatch):
    # the closed-form family test decides rank-1 pairs without the engine
    def no_engine(*args, **kwargs):
        raise AssertionError("feasibility.solve called")

    monkeypatch.setattr(fs, "solve", no_engine)
    rng = np.random.default_rng(107)
    pairs = [(DEV["luders_px"], DEV["luders_pz"])]
    pairs += [(rand_rank1_deficit_op(rng), rand_rank1_deficit_op(rng)) for _ in range(6)]
    pairs += [below_common_channel(np.random.default_rng(seed)) for seed in (100, 51, 86)]
    relations = set()
    for f1, f2 in pairs:
        v = cp.classify(f1, f2)
        assert "rank1-family" in v.notes
        relations.add(v.relation)
    assert relations == {"weakly_compatible_only", "strongly_incompatible"}


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), constructed=st.booleans())
def test_rank1_family_agrees_with_engine_property(seed, constructed):
    # whenever both routes decide, they agree; a positive's channel sits above both maps
    rng = np.random.default_rng(seed)
    if constructed:
        f1, f2 = below_common_channel(rng)
    else:
        f1, f2 = rand_rank1_deficit_op(rng), rand_rank1_deficit_op(rng)
    fast = cp.weakly_compatible(f1, f2)
    slow = cp.weakly_compatible(f1, f2, fast_paths=False)
    if "undecided" not in (fast.relation, slow.relation):
        assert fast.relation == slow.relation
    if fast.relation == "weakly_compatible_only":
        lam = fast.witness.common_channel
        assert od.cp_leq(f1, lam) and od.cp_leq(f2, lam)


def test_weak_ef_ef_always():
    rng = np.random.default_rng(89)
    v = cp.weakly_compatible(rand_effect(rng, 2), rand_effect(rng, 2))
    assert v.relation == "weakly_compatible_only"


def test_weak_obs_obs_always():
    v = cp.weakly_compatible(sharp_observable(PX, PMX), sharp_observable(PZ, PMZ))
    assert v.relation == "weakly_compatible_only"


def test_weakly_compatible_instruments_with_distinct_totals():
    # instruments have no free outcome, so distinct totals leave no channel to
    # share; without fast paths the engine finds the weak problem's affine set empty
    rng = np.random.default_rng(90)
    a, b = rand_instrument(rng, n_out=3), rand_instrument(rng, n_out=2)
    for fast, notes in ((True, "fast-path: distinct-totals"), (False, "sdp margin=-inf")):
        v = cp.weakly_compatible(a, b, fast_paths=fast)
        assert (v.relation, v.witness) == ("strongly_incompatible", None)
        assert v.notes == notes


def test_a_trace_preserving_map_is_classified_as_the_channel_it_is():
    # the declared kind does not matter: validation makes the map a channel
    rng = np.random.default_rng(91)
    lam = rand_cpmap(rng, channel=True)
    others = [rand_effect(rng, 2), rand_observable(rng, 2, 3), rand_cpmap(rng),
              CPMap(2, 2, 0.5 * lam.choi), rand_cpmap(rng, channel=True),
              rand_instrument(rng, n_out=3),
              dv.canonical_instrument(lam, probs={"a": 0.4, "b": 0.6})]
    relations = set()
    for other in others:
        for fast in (True, False):
            want = cp.classify(CPMap(2, 2, lam.choi, kind="channel"), other, fast_paths=fast)
            got = cp.classify(CPMap(2, 2, lam.choi, kind="operation"), other, fast_paths=fast)
            assert (got.relation, got.notes) == (want.relation, want.notes)
            relations.add(got.relation)
    assert relations == {"compatible", "strongly_incompatible"}


def _record_questions(monkeypatch) -> list[str]:
    """Record, in order, each problem built and each weak witness assembled."""
    calls = []
    for name in ("joint_problem", "weak_problem", "_weak_witness"):
        def counting(*args, name=name, orig=getattr(cp, name)):
            calls.append(name)
            return orig(*args)

        monkeypatch.setattr(cp, name, counting)
    return calls


def test_classify_builds_problems_through_module_names(monkeypatch):
    # the traced benchmark wraps the problem builders where compat looks them up
    calls = _record_questions(monkeypatch)
    v = cp.classify(DEV["luders_px"], DEV["luders_pz"], fast_paths=False)
    assert v.relation == "strongly_incompatible"
    # the weak certificate alone decides a strongly incompatible pair
    assert calls == ["weak_problem"]


@pytest.mark.parametrize("builder", ["joint_problem", "weak_problem"])
def test_builders_take_devices_or_their_records(builder):
    # the engine hands the builders the pair's records; a record is its own
    # reading, so both give one problem, bit for bit
    d1, d2 = DEV["luders_px"], DEV["half_sigma_x"]
    from_devices = getattr(cp, builder)(d1, d2)
    from_records = getattr(cp, builder)(dv.instrument_parts(d1), dv.instrument_parts(d2))
    assert from_records.blocks == from_devices.blocks
    assert [c.terms for c in from_records.constraints] == \
        [c.terms for c in from_devices.constraints]
    assert from_records.rhs.tobytes() == from_devices.rhs.tobytes()


@pytest.mark.parametrize("n1, n2, fast_paths", [
    ("half_identity", "pz", True),  # a fast path: no problem is built
    ("luders_px", "half_sigma_x", False),  # the weak and the joint problem
])
def test_classify_reads_each_device_once(monkeypatch, n1, n2, fast_paths):
    # the pair reads both records once; witness assembly checks the pair's
    # records, and the engine hands them to each builder, which passes a
    # record through instead of reading a device again
    calls = []
    orig = cp._parts

    def counting(device):
        if not isinstance(device, dv.Parts):
            calls.append(device)
        return orig(device)

    monkeypatch.setattr(cp, "_parts", counting)
    assert cp.classify(DEV[n1], DEV[n2], fast_paths=fast_paths).witness is not None
    assert sorted(map(id, calls)) == sorted((id(DEV[n1]), id(DEV[n2])))


@pytest.mark.parametrize("n1, n2, relation, asked", [
    # quantum pairs: the weak question first; a compatible pair assembles no
    # weak witness, and only a weakly compatible one does
    ("luders_px", "half_luders_px", "compatible", ["weak_problem", "joint_problem"]),
    ("luders_pz", "pz", "compatible", ["weak_problem", "joint_problem"]),
    ("luders_px", "half_sigma_x", "weakly_compatible_only",
     ["weak_problem", "joint_problem", "_weak_witness"]),
    ("luders_pz", "px", "weakly_compatible_only",
     ["weak_problem", "joint_problem", "_weak_witness"]),
    ("luders_biased_z", "px", "strongly_incompatible", ["weak_problem"]),
    # classical and channel pairs: only the joint question
    ("px", "pz", "weakly_compatible_only", ["joint_problem", "_weak_witness"]),
    ("half_identity", "pz", "compatible", ["joint_problem"]),
    ("px_dephasing", "pz", "strongly_incompatible", ["joint_problem"]),
    ("px_dephasing", "px", "compatible", ["joint_problem"]),
])
def test_classify_asks_its_questions_in_order(monkeypatch, n1, n2, relation, asked):
    calls = _record_questions(monkeypatch)
    for d1, d2 in ((DEV[n1], DEV[n2]), (DEV[n2], DEV[n1])):
        calls.clear()
        assert cp.classify(d1, d2, fast_paths=False).relation == relation
        assert calls == asked


def _engine_pair(kind: str, rng, d: int):
    """A seeded quantum pair of a kind that the engine decides, at side d."""
    def op(n_ops):
        return choi_from_kraus(rand_kraus(rng, d, d, n_ops, scale=np.sqrt(rng.uniform(0.3, 0.95))))

    if kind == "pure op-op":
        return op(1), op(1)
    if kind == "op-ef":
        return op(2), rand_effect(rng, d)
    if kind == "op-obs":
        return op(1), rand_observable(rng, d, 2)
    return rand_instrument(rng, d, d, 2), op(1)


@pytest.mark.parametrize("kind", ["pure op-op", "op-ef", "op-obs", "ins-op"])
def test_a_certified_weak_no_leaves_the_joint_problem_infeasible(kind):
    # classify reads a weak "no" as a joint "no" without solving the joint problem
    shortcuts = 0
    for d in (2, 3):
        for s in range(6):
            d1, d2 = _engine_pair(kind, np.random.default_rng([11, d, s]), d)
            if fs.solve(cp.weak_problem(d1, d2)).verdict == "infeasible":
                shortcuts += 1
                assert fs.solve(cp.joint_problem(d1, d2)).verdict != "feasible", (d, s)
    assert shortcuts > 0


@pytest.mark.parametrize("joint, weak, relation, notes", [
    ("undecided", "infeasible", "strongly_incompatible", "sdp margin=-1.000e-01"),
    ("infeasible", "undecided", "undecided",
     "not compatible; weak undecided; sdp margin=-1.000e-01"),
    ("undecided", "undecided", "undecided", "sdp undecided margin=-1.000e-09"),
    ("undecided", "feasible", "undecided", "sdp undecided margin=-1.000e-09"),
    ("feasible", "undecided", "compatible", "sdp"),
])
def test_undecided_stages_are_read_in_question_order(monkeypatch, joint, weak, relation, notes):
    # a certified weak "no" decides the pair even when the joint engine is undecided,
    # and a feasible joint problem even when the weak engine is undecided; the pair
    # is compatible, so a "feasible" stage is the engine's own
    solve = fs.solve

    def scripted(problem, tol=fs.DEFAULT_TOL, trace=None):
        verdict = joint if problem.blocks[0][0].startswith("g") else weak
        if verdict == "feasible":
            return solve(problem, tol, trace=trace)
        margin = -0.1 if verdict == "infeasible" else -1e-9
        return fs.FeasibilityOutcome(
            verdict, None, margin, 0.0, 1, "certificate" if verdict == "infeasible" else "stall"
        )

    monkeypatch.setattr(fs, "solve", scripted)
    v = cp.classify(DEV["luders_px"], DEV["half_luders_px"], fast_paths=False)
    assert (v.relation, v.witness is not None, v.notes) == (relation, relation == "compatible",
                                                            notes)


@pytest.mark.parametrize("cls, joint, weak, relation", [
    ("quantum", None, "no", "strongly_incompatible"),  # a weak "no" is a joint "no"
    ("quantum", "yes", None, "compatible"),  # a compatible pair is weakly compatible
    ("quantum", "yes", "undecided", "compatible"),  # also when the weak engine is undecided
    ("quantum", "no", None, None),  # the weak question is still open
    ("quantum", None, "yes", None),  # and here the joint one
    ("quantum", "no", "undecided", "undecided"),
    ("classical", None, None, None),
    ("classical", "no", None, "weakly_compatible_only"),  # classical pairs are weakly compatible
    ("classical", "undecided", None, "undecided"),
    ("channel", None, None, None),
    ("channel", "no", None, "strongly_incompatible"),  # weakly compatible only if compatible
    ("channel", "yes", None, "compatible"),
    ("channel", "undecided", None, "undecided"),
])
def test_the_relation_table_fills_unasked_answers_from_the_implications(cls, joint, weak,
                                                                        relation):
    answers = [v and cp.Answer(v, "scripted") for v in (joint, weak)]
    row = cp._RELATIONS.get(cp._implied(types.SimpleNamespace(cls=cls), *answers))
    assert (row and row[0]) == relation


def test_answers_name_what_decided_them():
    p = _pair(effect(PZ), effect(I2 / 2), Tolerances())
    fast = cp._fast(p, "joint", True)
    assert (fast.value, fast.decided_by, fast.notes) == ("yes", "commuting", "fast-path: commuting")
    assert cp._fast(p, "joint", False) is None
    engine = cp._engine(p, "joint", None)
    assert engine.value == "yes" and engine.decided_by.removeprefix("engine:") in fs.EXITS
    # both yes answers carry one block per outcome pair, which only _witness
    # assembles, at the scale of what decided them
    assert not hasattr(engine, "witness") and not hasattr(engine, "outcome")
    for answer in (fast, engine):
        assert list(answer.blocks) == [(x, y) for x in p.t1 for y in p.t2]
        assert cp._witness(p, "joint", answer).instrument_1 is not None
    no = cp._fast(_pair(effect(PX), effect(PZ), Tolerances()), "joint", True)
    assert (no.value, no.decided_by, no.blocks) == ("no", "projection-commutation", None)


def test_witness_is_the_one_function_that_assembles_witnesses():
    # every witness comes from a yes answer's blocks, in one place
    callers = set()
    for path in sorted(Path(cp.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(fn)}
                if names & {"_joint_witness", "_weak_witness"}:
                    callers.add(f"{path.stem}.{fn.name}")
    assert callers == {"compat._witness"}


def test_a_fast_yes_builds_no_instrument_until_its_witness_is_read(monkeypatch):
    built = []
    stacked = Instrument.from_stack.__func__

    def recorded(cls, *args):
        built.append(stacked(cls, *args))
        return built[-1]

    monkeypatch.setattr(Instrument, "from_stack", classmethod(recorded))
    monkeypatch.setattr(Instrument, "__post_init__", lambda *args: built.append(args))
    devices = list(DEV.values()) + list(below_common_channel(np.random.default_rng(100)))
    kind = {id(d): cp._ORDER.index(dv.instrument_parts(d).kind) for d in devices}
    yes = []
    for d1, d2 in ((d1, d2) for d1 in devices for d2 in devices if kind[id(d1)] <= kind[id(d2)]):
        p = _pair(d1, d2, cp.DEFAULT_TOL)
        for question in ("joint", "weak"):
            answer = cp._fast(p, question, True)
            if answer is not None and answer.value == "yes":
                yes.append((p, question, answer))
    assert built == []
    assert {a.decided_by for _, _, a in yes} == {
        "commuting", "sum-below-identity", "comparable", "cp-order", "equal-channels",
        "total-channel", "contraction", "shared-total", "rank1-family"}
    for p, question, answer in yes:
        w = cp._witness(p, question, answer)
        assert w.instrument_1 is built[-1 if question == "joint" else -2]


def test_weak_problem_has_only_the_devices_own_blocks():
    # the rest of each unit, and every outcome of a classical device: the
    # targets smaller than the blocks; no channel block
    op = DEV["luders_px"]
    for d1, d2, names in (
        (op, DEV["half_sigma_x"], ["0:0", "1:0"]),
        (op, effect(PZ), ["0:0", "1:1", "1:0"]),
        (op, sharp_observable(PZ, PMZ), ["0:0", "1:+", "1:-"]),
        (DEV["luders_x_instrument"], op, ["1:0"]),
    ):
        assert [n for n, _ in cp.weak_problem(d1, d2).blocks] == names


def _ref_targets(device) -> dict:
    """Reference reading of a device as an instrument: outcome -> Choi matrix of a
    map on the device's own output (E^T for an effect E, whose output is
    one-dimensional), None for the free outcome."""
    if isinstance(device, Effect):
        return {"1": device.matrix.T, "0": None}
    if isinstance(device, Observable):
        return {x: device.effects[x].matrix.T for x in device.outcomes}
    if isinstance(device, Instrument):
        return {x: device.branches[x].choi for x in device.outcomes}
    if device.kind == "channel":
        return {"1": device.choi}
    return {"1": device.choi, "0": None}


def _ref_dims(d1, d2) -> tuple[int, int]:
    """Reference sides: the input side, and the output side of the devices with a
    quantum output, or the input side when neither has one."""
    quantum = [d for d in (d1, d2) if isinstance(d, (CPMap, Instrument))]
    din = quantum[0].dim_in if quantum else d1.dim
    return din, (quantum[0].dim_out if quantum else din)


def _ref_completed(device) -> dict:
    """Reference targets with the free outcome completed: the rest of the unit,
    (1 - E)^T for an effect E and (1 - F_H(1))^T for an operation F."""
    t = _ref_targets(device)
    if isinstance(device, Effect):
        t["0"] = np.eye(device.dim) - device.matrix.T
    elif isinstance(device, CPMap) and device.kind == "operation":
        t["0"] = np.eye(device.dim_in) - device.heisenberg_unit().T
    return t


def _ref_free(targets) -> bool:
    return any(t is None for t in targets.values())


def _ref_kind(device) -> str:
    """Reference kind: a map's is the one its validation fixed."""
    if isinstance(device, CPMap):
        return device.kind
    return {Effect: "effect", Observable: "observable", Instrument: "instrument"}[type(device)]


def _same(a: dict, b: dict) -> bool:
    """Same outcomes in the same order, and the same targets bit for bit."""
    return list(a) == list(b) and all(
        a[x].shape == b[x].shape and a[x].dtype == b[x].dtype and a[x].tobytes() == b[x].tobytes()
        for x in a)


def test_instrument_parts_is_the_reference_reading_of_every_device():
    # the built-in devices, and random draws of all five kinds on sides 1 to 3
    devices = list(DEV.values())
    for d in (1, 2, 3):
        for k in range(3):
            devices += [draw() for draw in _kind_draws(np.random.default_rng([53, d, k]), d).values()]
    assert {_ref_kind(d) for d in devices} == set(cp._ORDER)
    for device in devices:
        r = dv.instrument_parts(device)
        ref = _ref_targets(device)
        assert _same(r.targets, _ref_completed(device))
        assert _same(r.fixed, {x: t for x, t in ref.items() if t is not None})
        assert r.free == next((x for x, t in ref.items() if t is None), None)
        assert r.kind == _ref_kind(device)
        assert (r.dout is None) == (r.kind in ("effect", "observable"))
        assert (r.din, r.dout or r.din) == _ref_dims(device, device)
    # every quantum device here has dout == din, so only the input sides can clash
    parts = [(device, dv.instrument_parts(device)) for device in devices]
    for d1, r1 in parts:
        for d2, r2 in parts:
            if r1.din == r2.din:
                assert cp._dims(r1, r2) == _ref_dims(d1, d2)
            else:
                with pytest.raises(MatrixShapeError, match="different spaces"):
                    cp._dims(r1, r2)


def _ref_sum(mats, side: int) -> np.ndarray:
    return sum(mats[1:], mats[0]) if mats else np.zeros((side, side))


def _ref_row(names, target, dims) -> fs.AffineConstraint:
    """Reference comparison of a sum of blocks with a target: the sum itself when
    the target has the blocks' side, its partial trace over the output when it
    is smaller."""
    if target.shape[0] == dims[0] * dims[1]:
        return sum_constraint(names, target)
    rows = [partial_trace_constraint(n, dims, target) for n in names]
    return fs.AffineConstraint(tuple(r.terms[0] for r in rows), rows[0].rhs)


def _weak_problem_with_channel_block(d1, d2) -> fs.FeasibilityProblem:
    """Reference formulation: the common channel as a block ``lam``, unless a
    device without free outcome stands for it; every other device's parts
    sum to it. Targets of the blocks' side are constants, smaller ones get
    blocks."""
    targets = (_ref_targets(d1), _ref_targets(d2))
    din, dout = _ref_dims(d1, d2)
    side = din * dout
    chan = next((i for i in (0, 1) if not _ref_free(targets[i])), None)
    const = None
    if chan is None:
        blocks = ["lam"]
    elif any(t.shape[0] != side for t in targets[chan].values()):
        blocks = [cp._weak_name(chan, x) for x in targets[chan]]
    else:
        blocks, const = [], _ref_sum(list(targets[chan].values()), side)
    lam_terms, cons = [(n, 1.0) for n in blocks], []
    for i in (0, 1):
        if i == chan:
            continue
        fixed = [t for t in targets[i].values() if t is not None and t.shape[0] == side]
        own = [cp._weak_name(i, x) for x, t in targets[i].items() if t is None or t.shape[0] != side]
        blocks += own
        if const is None:
            terms = lam_terms + [(n, -1.0) for n in own]
            cons.append(sum_constraint(terms, _ref_sum(fixed, side)))
        else:
            cons.append(sum_constraint(own, const - _ref_sum(fixed, side)))
    if chan is None:
        cons.append(_ref_row(["lam"], np.eye(din), (din, dout)))
    cons += [_ref_row([cp._weak_name(i, x)], t, (din, dout))
             for i in (0, 1) for x, t in targets[i].items()
             if t is not None and t.shape[0] != side]
    return fs.FeasibilityProblem(tuple((n, side) for n in blocks), tuple(cons))


def _dense_row(names, target, dims, sides):
    """Reference encoder: one dense term matrix per block (c times the identity
    when the target has the full side; else the matrix of the partial trace over
    the output, or the identity for a block of the target's side) and the
    target's coordinates."""
    items = [n if isinstance(n, tuple) else (n, 1.0) for n in names]
    t = hermitian_part(np.asarray(target, dtype=complex))
    eye = np.eye(t.shape[0] ** 2)
    if t.shape[0] != dims[0] * dims[1]:
        return [(n, eye if sides[n] == dims[0] else fs._partial_trace_matrix(*dims))
                for n, _ in items], herm_coords(t)
    return [(n, c * eye) for n, c in items], herm_coords(t)


def _dense_matrix(names, sides, rows):
    """The dense constraint matrix (columns in block order) and right-hand side of
    ``rows``, each a list of (block name, term matrix) and the target's coordinates."""
    widths = [sides[n] ** 2 for n in names]
    offsets = dict(zip(names, np.cumsum([0] + widths)))
    a = []
    for terms, rhs in rows:
        block_row = np.zeros((len(rhs), sum(widths)))
        for n, mat in terms:
            block_row[:, offsets[n] : offsets[n] + sides[n] ** 2] += mat
        a.append(block_row)
    return tuple((n, sides[n]) for n in names), np.vstack(a), np.concatenate([rhs for _, rhs in rows])


def _dense_problem(builder, d1, d2):
    """The blocks, dense constraint matrix (columns in block order) and
    right-hand side of either question, built row by row from dense term
    matrices. Every outcome has a target (:func:`_ref_completed`), and every
    target has a row. A joint block whose two targets have side din has side
    din; every other block has the full side. A weak block stands for a
    target smaller than the full side."""
    din, dout = _ref_dims(d1, d2)
    side = din * dout
    rows = []
    if builder == "joint":
        t1, t2 = _ref_completed(d1), _ref_completed(d2)
        pairs = [(x, y) for x in t1 for y in t2]
        names = [f"g{n}" for n in range(len(pairs))]
        sides = {n: din if t1[x].shape[0] == t2[y].shape[0] == din else side
                 for n, (x, y) in zip(names, pairs)}
        for i, targets in enumerate((t1, t2)):
            for x, target in targets.items():
                own = [n for n, xy in zip(names, pairs) if xy[i] == x]
                rows.append(_dense_row(own, target, (din, dout), sides))
    else:
        parts, own, fixed = (_ref_completed(d1), _ref_completed(d2)), [], []
        for i, t in enumerate(parts):
            own.append([cp._weak_name(i, x) for x, m in t.items() if m.shape[0] != side])
            fixed.append(_ref_sum([m for m in t.values() if m.shape[0] == side], side))
        names = own[0] + own[1]
        sides = dict.fromkeys(names, side)
        terms = [(n, 1.0) for n in own[1]] + [(n, -1.0) for n in own[0]]
        rows.append(_dense_row(terms, fixed[0] - fixed[1], (din, dout), sides))
        rows += [_dense_row([cp._weak_name(i, x)], t, (din, dout), sides)
                 for i in (0, 1) for x, t in parts[i].items() if t.shape[0] != side]
    return _dense_matrix(names, sides, rows)


def _dense_problem_with_free_outcomes(builder, d1, d2):
    """The earlier encoding, as an oracle for the affine set: the free outcome of
    an effect or an operation has no target (an effect facing an observable
    reads as its binary observable), and instead the joint blocks sum to a
    channel when both devices have a free outcome, and device 1's weak total is
    trace preserving when both have one. Joint blocks are named ``x&y`` by
    their outcome pairs, in the order of the two loops."""
    din, dout = _ref_dims(d1, d2)
    side = din * dout
    rows = []
    if builder == "joint":
        t1, t2 = _ref_targets(d1), _ref_targets(d2)
        for d, t, other in ((d1, t1, d2), (d2, t2, d1)):
            if isinstance(d, Effect) and isinstance(other, Observable):
                t["0"] = np.eye(d.dim) - d.matrix.T
        pairs = [(x, y) for x in t1 for y in t2]
        names = [f"{x}&{y}" for x, y in pairs]
        sides = {n: din if all(t is None or t.shape[0] == din for t in (t1[x], t2[y])) else side
                 for n, (x, y) in zip(names, pairs)}
        for i, targets in enumerate((t1, t2)):
            for x, target in targets.items():
                if target is not None:
                    own = [n for n, xy in zip(names, pairs) if xy[i] == x]
                    rows.append(_dense_row(own, target, (din, dout), sides))
        if _ref_free(t1) and _ref_free(t2):
            rows.append(_dense_row(names, np.eye(din), (din, dout), sides))
    else:
        parts, own, fixed = (_ref_targets(d1), _ref_targets(d2)), [], []
        for i, t in enumerate(parts):
            own.append([cp._weak_name(i, x) for x, m in t.items() if m is None or m.shape[0] != side])
            fixed.append(_ref_sum([m for m in t.values() if m is not None and m.shape[0] == side], side))
        names = own[0] + own[1]
        sides = dict.fromkeys(names, side)
        terms = [(n, 1.0) for n in own[1]] + [(n, -1.0) for n in own[0]]
        rows.append(_dense_row(terms, fixed[0] - fixed[1], (din, dout), sides))
        if _ref_free(parts[0]) and _ref_free(parts[1]):
            terms, rhs = _dense_row(own[0], np.eye(din), (din, dout), sides)
            rows.append((terms, rhs - terms[0][1] @ herm_coords(fixed[0])))
        rows += [_dense_row([cp._weak_name(i, x)], t, (din, dout), sides)
                 for i in (0, 1) for x, t in parts[i].items()
                 if t is not None and t.shape[0] != side]
    return _dense_matrix(names, sides, rows)


def _kind_draws(rng, d):
    """One random device of every kind on side d, in canonical order."""
    return {
        "instrument": lambda: rand_instrument(rng, d, d, n_out=3),
        "channel": lambda: rand_cpmap(rng, d, d, channel=True),
        "operation": lambda: rand_cpmap(rng, d, d),
        "effect": lambda: rand_effect(rng, d),
        "observable": lambda: rand_observable(rng, d, 3),
    }


def _planned(problem):
    """The plan's constraint matrix, column block by column block in block order
    (the layout stacks blocks by side), and the right-hand side."""
    plan = problem.plan
    cols = [c for o, d in zip(plan.layout.offsets, plan.layout.sides) for c in range(o, o + d * d)]
    return plan.a[:, cols], np.concatenate([c.rhs for c in problem.constraints])


@pytest.mark.parametrize("d", [2, 3])
def test_typed_rows_assemble_to_the_dense_encoding(d):
    # every kind pair in canonical order, both questions: the plan's matrix
    # and the right-hand side equal the dense encoding bit for bit, column
    # block by column block (the layout stacks blocks by side)
    kinds = _kind_draws(np.random.default_rng([41, d]), d)
    order = list(kinds)
    built = 0
    for i, k1 in enumerate(order):
        for k2 in order[i:]:
            d1, d2 = kinds[k1](), kinds[k2]()
            for builder in ("joint", "weak"):
                problem = getattr(cp, f"{builder}_problem")(d1, d2)
                blocks, a, b = _dense_problem(builder, d1, d2)
                assert problem.blocks == blocks
                got_a, got_b = _planned(problem)
                assert np.array_equal(got_a, a)
                assert np.array_equal(got_b, b)
                assert not any(isinstance(op, np.ndarray) for c in problem.constraints for _, op in c.terms)
                built += 1
    assert built == 30


@pytest.mark.parametrize("d", [2, 3])
def test_completed_targets_keep_the_affine_set_of_the_free_outcome_encoding(d):
    # every kind pair in canonical order, both questions: the builders' rows
    # for the rest of each unit span what the identity and trace-preserving
    # rows of the free-outcome encoding spanned, and the two problems share
    # a point
    kinds = _kind_draws(np.random.default_rng([47, d]), d)
    order = list(kinds)
    consistent = 0
    for i, k1 in enumerate(order):
        for k2 in order[i:]:
            d1, d2 = kinds[k1](), kinds[k2]()
            for builder in ("joint", "weak"):
                problem = getattr(cp, f"{builder}_problem")(d1, d2)
                blocks, (a, b) = problem.blocks, _planned(problem)
                old_blocks, old_a, old_b = _dense_problem_with_free_outcomes(builder, d1, d2)
                if builder == "joint":  # the new names, in the old block order
                    t1, t2 = _ref_completed(d1), _ref_completed(d2)
                    names = dict(zip([f"{x}&{y}" for x in t1 for y in t2], (n for n, _ in blocks)))
                    old_blocks = tuple((names[xy], side) for xy, side in old_blocks)
                assert sorted(old_blocks) == sorted(blocks)
                # the old matrix's columns in the new block order
                offsets = dict(zip((n for n, _ in old_blocks),
                                   np.cumsum([0] + [side * side for _, side in old_blocks])))
                cols = [c for n, side in blocks for c in range(offsets[n], offsets[n] + side * side)]
                old_a = old_a[:, cols]
                rank = np.linalg.matrix_rank(a)
                assert np.linalg.matrix_rank(old_a) == rank == np.linalg.matrix_rank(np.vstack([a, old_a]))
                # each min-norm point meets both problems' rows, or (distinct
                # totals without a free outcome) neither problem has a point
                systems = ((a, b), (old_a, old_b))
                points = [np.linalg.lstsq(m, r, rcond=None)[0] for m, r in systems]
                meets = {np.linalg.norm(m @ x - r) <= 1e-9 * (1 + np.linalg.norm(r))
                         for x in points for m, r in systems}
                assert len(meets) == 1
                consistent += meets == {True}
    assert consistent == 24


def test_joint_blocks_that_no_full_side_target_reads_have_the_input_side():
    # built, not solved: a block whose targets both have side din (an
    # effect's, or the rest of a unit) has side din, every other one
    # din * dout; device 1 is the outer index; the d = 5 joint problems
    # have 1300, 1950 and 1900 coordinates, not 2500, 3750 and 2500
    rng = np.random.default_rng(43)
    op = rand_cpmap(rng, 5, 5)
    coords = []
    for d1, d2, sides in (
        (op, rand_effect(rng, 5), [25, 25, 5, 5]),
        (op, rand_observable(rng, 5, 3), [25] * 3 + [5] * 3),
        (op, rand_cpmap(rng, 5, 5), [25, 25, 25, 5]),
        (rand_cpmap(rng, 2, 3), rand_effect(rng, 2), [6, 6, 2, 2]),
        (rand_cpmap(rng, 3, 3, channel=True), rand_effect(rng, 3), [9, 9]),
        (rand_effect(rng, 3), rand_observable(rng, 3, 2), [3] * 4),
    ):
        blocks = cp.joint_problem(d1, d2).blocks
        assert [side for _, side in blocks] == sides
        coords.append(sum(side * side for _, side in blocks))
    assert coords[:3] == [1300, 1950, 1900]
    # a classical pair's weak blocks have the side of its measure-and-prepare witness
    e1, e2 = rand_effect(rng, 3), rand_effect(rng, 3)
    assert cp.weak_problem(e1, e2).blocks == tuple((n, 9) for n in ("0:1", "0:0", "1:1", "1:0"))


def test_unobserved_engine_branches_are_measured_and_prepared():
    # the engine's joint witness of luders_pz and pz: the branches of the free
    # outcome of the operation are solved at side 2 and lifted to kron(h, 1/2)
    v = cp.classify(DEV["luders_pz"], DEV["pz"], fast_paths=False)
    assert v.relation == "compatible" and v.notes == "sdp"
    branches = v.witness.instrument_1.branches
    for x in ("0&1", "0&0"):
        choi = branches[x].choi
        h = np.einsum("iaja->ij", choi.reshape(2, 2, 2, 2))
        assert np.array_equal(choi, np.kron(h, I2 / 2))
    assert not np.allclose(branches["1&1"].choi, np.kron(np.einsum(
        "iaja->ij", branches["1&1"].choi.reshape(2, 2, 2, 2)), I2 / 2))
    cert = cp.kraus_witness(v)
    assert cert.kind == "joint"


def test_weak_problem_agrees_with_the_channel_block_formulation():
    pairs = [(DEV[n1], DEV[n2]) for kind, _, n1, n2 in TABLE1_CELLS if kind != "ef-ef"]
    pairs += [below_common_channel(np.random.default_rng(s)) for s in (100, 51, 86, 37, 1, 12, 20)]
    pairs.append((DEV["luders_px"], effect(PZ)))
    pairs += _qutrit_tail()[:6]
    rng = np.random.default_rng(113)
    pairs += [tuple(choi_from_kraus(rand_kraus(rng, 3, 3, 2, scale=np.sqrt(rng.uniform(0.3, 0.9))))
                    for _ in range(2)) for _ in range(3)]
    verdicts = set()
    for d1, d2 in pairs:
        got = fs.solve(cp.weak_problem(d1, d2)).verdict
        assert got == fs.solve(_weak_problem_with_channel_block(d1, d2)).verdict != "undecided"
        verdicts.add(got)
    assert verdicts == {"feasible", "infeasible"}


def _second_runs(monkeypatch) -> list:
    """Record (face ranks, outcome) of every second run of ``solve``: a
    run on a face that ``_read_face`` returned."""
    runs, read = [], []
    orig_run, orig_read = fs._run, fs._read_face

    def reading(*args):
        read.append(orig_read(*args))
        return read[-1]

    def recording(plan, b, bases, tol, trace):
        out, last = orig_run(plan, b, bases, tol, trace)
        if any(bases is f for f in read):
            runs.append((tuple(None if u is None else u.shape[1] for u in bases), out))
        return out, last

    monkeypatch.setattr(fs, "_read_face", reading)
    monkeypatch.setattr(fs, "_run", recording)
    return runs


@pytest.mark.parametrize("seed", [86, 37, 1, 12, 20])
def test_channel_block_problem_polishes_on_one_face_profile(seed, monkeypatch):
    # boundary witnesses on a (2, 1, 1) face, which a fixed threshold of 0.5
    # reads as (1, 1, 1); the one face read from the path must be that face,
    # and the second run on it decides at step 0 (seeds 86 and 12 take its
    # witness; 37, 1 and 20 fall back to the first run's projection)
    runs = _second_runs(monkeypatch)
    f1, f2 = below_common_channel(np.random.default_rng(seed))
    assert fs.solve(_weak_problem_with_channel_block(f1, f2)).verdict == "feasible"
    assert [(face, out.iterations) for face, out in runs] == [((2, 1, 1), 0)]
    assert (runs[0][1].verdict == "feasible") == (seed in (86, 12))


# ---------------------------------------------------------------------------
# classify dispatch
# ---------------------------------------------------------------------------


def test_classify_headline_pairs():
    assert cp.classify(DEV["luders_px"], DEV["half_sigma_x"]).relation == "weakly_compatible_only"
    assert cp.classify(DEV["luders_px"], DEV["luders_pz"]).relation == "strongly_incompatible"
    assert cp.classify(DEV["px"], DEV["luders_pz"]).relation == "weakly_compatible_only"
    assert cp.classify(DEV["px"], DEV["luders_biased_z"]).relation == "strongly_incompatible"
    assert cp.classify(DEV["px"], DEV["pz"]).relation == "weakly_compatible_only"


def test_classify_orientation_swap():
    v1 = cp.classify(DEV["px"], DEV["luders_pz"])
    v2 = cp.classify(DEV["luders_pz"], DEV["px"])
    assert v1.relation == v2.relation == "weakly_compatible_only"
    # the effect sits in instrument_2 of v1 and instrument_1 of v2
    e1 = dv.instrument_part_effect(
        v1.witness.instrument_2, v1.witness.part_2, cp.witness_tolerances(cp.DEFAULT_TOL)
    )
    e2 = dv.instrument_part_effect(
        v2.witness.instrument_1, v2.witness.part_1, cp.witness_tolerances(cp.DEFAULT_TOL)
    )
    assert np.allclose(e1.matrix, e2.matrix, atol=1e-6)


def test_classify_instrument_channel():
    ins = DEV["luders_x_instrument"]
    v = cp.classify(ins, dv.total_channel(ins))
    assert v.relation == "compatible"
    other = dv.contraction_channel(PZ)
    assert cp.classify(ins, other).relation == "strongly_incompatible"


def test_classify_instrument_instrument():
    ins = DEV["luders_x_instrument"]
    flipped = Instrument(("-", "+"), {"-": ins.branches["-"], "+": ins.branches["+"]})
    v = cp.classify(ins, flipped)
    assert v.relation == "compatible"
    rng = np.random.default_rng(91)
    other = rand_instrument(rng, n_out=2)
    assert cp.classify(ins, other).relation == "strongly_incompatible"


def test_classify_unsupported_pair():
    with pytest.raises(cp.UnsupportedPairError):
        cp.classify(DEV["px"], PX)
    with pytest.raises(cp.UnsupportedPairError):
        cp.weakly_compatible(PX, DEV["luders_x_instrument"])


def test_parts_of_an_instrument_are_compatible_with_it():
    rng = np.random.default_rng(92)
    coarse = dv.PointerMap({"0": "a", "1": "a", "2": "b"})
    for k in range(2):
        ins = rand_instrument(rng, n_out=3, ops_per_branch=1 + k)
        parts = (
            dv.instrument_part_effect(ins, ("1",)),
            dv.induced_observable(dv.relabel(ins, coarse)),
            ins.branch_sum(("0", "1")),
            dv.total_channel(ins),
            dv.relabel(ins, coarse),
        )
        for part in parts:
            for v in (cp.classify(part, ins), cp.classify(ins, part)):
                assert v.relation == "compatible"
                assert v.witness.instrument_1 is v.witness.instrument_2


def test_instrument_strong_exactly_when_its_total_channel_is():
    # weak compatibility with an instrument is compatibility with its total
    rng = np.random.default_rng(94)
    ins = DEV["luders_x_instrument"]
    lam = dv.total_channel(ins)
    devices = [
        effect(PX), effect(PZ),
        sharp_observable(PX, PMX), sharp_observable(PZ, PMZ),
        DEV["luders_px"], DEV["luders_pz"], DEV["half_sigma_x"],
    ] + [rand_cpmap(rng) for _ in range(3)]
    strong = set()
    for x in devices:
        with_ins = cp.classify(x, ins).relation == "strongly_incompatible"
        with_total = cp.classify(x, lam).relation == "strongly_incompatible"
        assert with_ins == with_total
        strong.add(with_ins)
    assert strong == {True, False}


def test_weakly_compatible_instrument_pairs():
    ins = DEV["luders_x_instrument"]
    v = cp.weakly_compatible(ins, dv.total_channel(ins))
    assert v.relation == "weakly_compatible_only"
    v = cp.weakly_compatible(effect(PZ), ins)
    assert v.relation == "strongly_incompatible"
    v = cp.weakly_compatible(effect(PX), ins)
    assert v.relation == "weakly_compatible_only"
    assert np.allclose(v.witness.common_channel.choi, dv.total_channel(ins).choi, atol=1e-5)


def test_hierarchy_never_downgrades():
    # compatible construction pairs never classify below compatible
    rng = np.random.default_rng(93)
    for _ in range(5):
        ins = rand_instrument(rng, n_out=3)
        op1 = ins.branch_sum(("0",))
        op2 = ins.branch_sum(("0", "1"))
        v = cp.classify(op1, op2)
        assert v.relation == "compatible"


def test_monotonicity_effect_of_compatible_operation():
    rng = np.random.default_rng(95)
    for _ in range(5):
        ins = rand_instrument(rng, n_out=3)
        op1 = ins.branch_sum(("0",))
        op2 = ins.branch_sum(("1",))
        assert cp.classify(op1, op2).relation == "compatible"
        e1 = Effect(op1.heisenberg_unit())
        e2 = Effect(op2.heisenberg_unit())
        assert cp.classify(op2, e1).relation == "compatible"
        assert cp.classify(e1, e2).relation == "compatible"


def test_projection_commutation_iff_for_operations():
    # random rotated Lueders operations against their own projection
    rng = np.random.default_rng(96)
    for _ in range(5):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q = np.linalg.qr(g)[0]
        p = Effect(q @ np.diag([1.0, 0.0]) @ q.conj().T)
        phi = luders_of(p.matrix)
        v = cp.classify(phi, p)
        assert (v.relation, v.notes) == ("compatible", "fast-path: commuting")
        # the same operation against a non-commuting projection is incompatible
        if np.linalg.norm(p.matrix @ PX - PX @ p.matrix) > 1e-2:
            assert cp._commuting(_pair(phi, effect(PX), Tolerances())) is None
            assert cp.classify(phi, effect(PX)).relation != "compatible"


def test_noncommuting_projection_pairs_never_compatible():
    rng = np.random.default_rng(97)
    for _ in range(10):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        p = Effect(np.outer(v, v.conj()))
        if np.linalg.norm(p.matrix @ PX - PX @ p.matrix) < 1e-3:
            continue
        assert cp.classify(p, effect(PX)).relation != "compatible"


# ---------------------------------------------------------------------------
# Kraus certificates
# ---------------------------------------------------------------------------


def apply_kraus_subset(ops, idx, rho):
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for i in idx:
        out = out + ops[i] @ rho @ ops[i].conj().T
    return out


def test_engine_agrees_with_construction_on_compatible_pairs():
    # pairs carved out of one instrument are compatible; the engine with
    # fast paths disabled must agree, and witnesses must re-validate
    rng = np.random.default_rng(98)
    for k in range(8):
        ins = rand_instrument(rng, n_out=3, ops_per_branch=1 + k % 2)
        op1 = ins.branch_sum(("0",))
        op2 = ins.branch_sum(("1",)) if k % 2 else ins.branch_sum(("0", "1"))
        v = cp.classify(op1, op2, fast_paths=False)
        assert v.relation == "compatible"


def test_mixed_dimension_pairs():
    # operations from qubit into qutrit space, decided end to end
    rng = np.random.default_rng(102)
    ins = rand_instrument(rng, 2, 3, n_out=3)
    op1 = ins.branch_sum(("0",))
    op2 = ins.branch_sum(("1",))
    v = cp.classify(op1, op2)
    assert v.relation == "compatible"
    wtol = cp.witness_tolerances(cp.DEFAULT_TOL)
    assert dv.is_part_of(op1, v.witness.instrument_1, wtol)
    # effect against the same rectangular operation
    e1 = Effect(op1.heisenberg_unit())
    assert cp.classify(op2, e1).relation == "compatible"
    # channel vs operation with rectangular dims
    lam = dv.total_channel(ins)
    assert cp.classify(lam, op1).relation == "compatible"


def test_decider_dimension_mismatches():
    from qcompat.matkit import MatrixShapeError

    qutrit_effect = Effect(np.eye(3) / 3)
    with pytest.raises(MatrixShapeError):
        cp.classify(effect(PX), qutrit_effect)
    with pytest.raises(MatrixShapeError):
        cp.classify(DEV["luders_px"], qutrit_effect)
    rng = np.random.default_rng(104)
    other = rand_cpmap(rng, 3, 3)
    with pytest.raises(MatrixShapeError):
        cp.classify(DEV["luders_px"], other)
    with pytest.raises(MatrixShapeError):
        cp.weakly_compatible(DEV["luders_px"], other)


def test_kraus_witness_joint():
    v = cp.classify(DEV["luders_px"], CPMap(2, 2, DEV["luders_px"].choi / 2))
    cert = cp.kraus_witness(v)
    assert cert.kind == "joint"
    from conftest import hermitian_basis

    for t in hermitian_basis(2):
        got1 = apply_kraus_subset(cert.k_ops, cert.j1, t)
        assert np.linalg.norm(got1 - dv.apply_s(DEV["luders_px"], t)) <= 1e-6
        got2 = apply_kraus_subset(cert.k_ops, cert.j2, t)
        assert np.linalg.norm(got2 - dv.apply_s(DEV["luders_px"], t) / 2) <= 1e-6
    gram = sum(k.conj().T @ k for k in cert.k_ops)
    assert np.allclose(gram, I2, atol=1e-6)


def test_kraus_witness_paired_weak():
    v = cp.classify(DEV["luders_px"], DEV["half_sigma_x"])
    cert = cp.kraus_witness(v)
    assert cert.kind == "paired"
    assert len(cert.k_ops) == len(cert.l_ops)
    from conftest import hermitian_basis

    for t in hermitian_basis(2):
        total_k = apply_kraus_subset(cert.k_ops, range(len(cert.k_ops)), t)
        total_l = apply_kraus_subset(cert.l_ops, range(len(cert.l_ops)), t)
        assert np.linalg.norm(total_k - total_l) <= 1e-5
        got1 = apply_kraus_subset(cert.k_ops, cert.j1, t)
        assert np.linalg.norm(got1 - dv.apply_s(DEV["luders_px"], t)) <= 1e-5
        got2 = apply_kraus_subset(cert.l_ops, cert.j2, t)
        assert np.linalg.norm(got2 - dv.apply_s(DEV["half_sigma_x"], t)) <= 1e-5


def test_kraus_witness_checks_the_trace_condition_at_the_witness_scale():
    # a branch of the weak witness of luders_px and biased_z has sum K^*K
    # about 1 + 1.3e-8: above psd_tol, within the scale the engine's witness
    # is held to, so the export drops eigenvalues at psd_tol only
    for a, b in ((DEV["luders_px"], DEV["biased_z"]), (DEV["biased_z"], DEV["luders_px"])):
        v = cp.classify(a, b)
        assert v.relation == "weakly_compatible_only"
        assert cp.kraus_witness(v).kind == "paired"


def test_kraus_witness_null_operation():
    null = CPMap(2, 2, np.zeros((4, 4)))
    v = cp.classify(null, DEV["luders_px"])
    assert v.relation == "compatible"
    cert = cp.kraus_witness(v)
    assert cert.j1 == ()


def test_kraus_witness_rejects_wrong_subset():
    # a certificate whose index subset realizes the other device is refused
    import dataclasses

    v = cp.classify(DEV["luders_px"], CPMap(2, 2, DEV["luders_px"].choi / 2))
    cert = cp.kraus_witness(v)
    bad = dataclasses.replace(cert, j1=cert.j2)
    wtol = cp.witness_tolerances(cp.DEFAULT_TOL)
    with pytest.raises(cp.WitnessValidationError):
        cp._validate_certificate(bad, v.witness, wtol)
    weak = cp.classify(DEV["luders_px"], DEV["half_sigma_x"])
    cert = cp.kraus_witness(weak)
    bad = dataclasses.replace(cert, j1=())
    with pytest.raises(cp.WitnessValidationError):
        cp._validate_certificate(bad, weak.witness, wtol)


def test_kraus_certificate_tampering_is_caught():
    import dataclasses

    wtol = cp.witness_tolerances(cp.DEFAULT_TOL)
    v = cp.classify(DEV["luders_px"], CPMap(2, 2, DEV["luders_px"].choi / 2))
    cert = cp.kraus_witness(v)
    scaled = dataclasses.replace(cert, k_ops=(1.01 * cert.k_ops[0],) + cert.k_ops[1:])
    with pytest.raises(cp.WitnessValidationError, match="not normalized"):
        cp._validate_certificate(scaled, v.witness, wtol)
    assert cert.j1
    dropped = dataclasses.replace(cert, j1=cert.j1[1:])
    with pytest.raises(cp.WitnessValidationError, match="does not reproduce"):
        cp._validate_certificate(dropped, v.witness, wtol)

    weak = cp.classify(DEV["luders_px"], DEV["half_sigma_x"])
    cert = cp.kraus_witness(weak)
    assert cert.kind == "paired"
    # a unitary in front of one operator keeps the list normalized and
    # changes its total channel
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    i = max(range(len(cert.l_ops)), key=lambda i: np.linalg.norm(cert.l_ops[i]))
    l_ops = cert.l_ops[:i] + (u @ cert.l_ops[i] @ np.diag([1, 1j]),) + cert.l_ops[i + 1:]
    perturbed = dataclasses.replace(cert, l_ops=l_ops)
    with pytest.raises(cp.WitnessValidationError, match="different total channels"):
        cp._validate_certificate(perturbed, weak.witness, wtol)


def test_kraus_witness_takes_one_eigh_per_instrument_and_few_maps(monkeypatch):
    # Upper bounds on the work of classify + kraus_witness, as counted when
    # the Kraus export took one batched eigh per instrument. Before that, the
    # export took one eigh per nonzero branch: 4 and 3 here. The CPMap counts
    # (4 state preparations, the total and 2 carved parts; 3 branches, the
    # total and 2 carved parts) did not change.
    calls = {"cpmap": 0, "eigh": 0}
    post, eigh = CPMap.__post_init__, np.linalg.eigh

    def counted_post(self, tol):
        calls["cpmap"] += 1
        return post(self, tol)

    def counted_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(CPMap, "__post_init__", counted_post)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    effects = Effect(np.diag([0.3, 0.8])), Effect(np.diag([0.6, 0.1]))
    ops = DEV["luders_px"], CPMap(2, 2, DEV["luders_px"].choi / 2)
    pairs = {"fast-path: commuting": (*effects, 7, 1), "fast-path: comparable": (*ops, 6, 1)}
    for notes, (d1, d2, max_maps, max_eigh) in pairs.items():
        calls.update(cpmap=0, eigh=0)
        v = cp.classify(d1, d2)
        cp.kraus_witness(v)
        assert (v.relation, v.notes) == ("compatible", notes)
        assert calls["cpmap"] <= max_maps
        assert calls["eigh"] <= max_eigh


def test_kraus_witness_requires_witness():
    v = cp.Verdict("strongly_incompatible", None, "")
    with pytest.raises(ValueError):
        cp.kraus_witness(v)


def test_kraus_witness_refuses_a_pointer_part():
    # an observable's part is a pointer map, which names no index subset
    v = cp.classify(DEV["sharp_z"], DEV["pz"])
    assert v.witness.part_1 is None and v.witness.pointer_1 is not None
    with pytest.raises(ValueError, match="subset-realized parts"):
        cp.kraus_witness(v)


def test_verdict_refuses_an_unknown_relation():
    with pytest.raises(ValueError, match="unknown relation 'maybe'"):
        cp.Verdict("maybe", None, "")


# ---------------------------------------------------------------------------
# ancilla-level verification
# ---------------------------------------------------------------------------


def test_classify_fuzz_never_crashes():
    # random pairs of all five kinds: classification must always produce a
    # verdict, never an internal error, and stay order-symmetric
    rng = np.random.default_rng(424242)
    from conftest import rand_observable

    def rand_device(kind):
        if kind == "effect":
            return rand_effect(rng, 2)
        if kind == "observable":
            return rand_observable(rng, 2, int(rng.integers(2, 4)))
        if kind == "operation":
            return rand_cpmap(rng, 2, 2, n_ops=int(rng.integers(1, 3)))
        if kind == "channel":
            return rand_cpmap(rng, 2, 2, n_ops=2, channel=True)
        return rand_instrument(rng, n_out=int(rng.integers(2, 4)))

    kinds = ("effect", "observable", "operation", "channel", "instrument")
    for trial in range(24):
        k1, k2 = rng.choice(kinds), rng.choice(kinds)
        d1, d2 = rand_device(k1), rand_device(k2)
        v = cp.classify(d1, d2)
        assert v.relation in (
            "compatible", "weakly_compatible_only", "strongly_incompatible", "undecided"
        )
        if k1 in ("effect", "observable") and k2 in ("effect", "observable"):
            assert v.relation != "strongly_incompatible"
        assert cp.classify(d2, d1).relation == v.relation


def test_ancilla_verification_compatible_pair():
    from qcompat import dilation as dl

    v = cp.classify(DEV["luders_pz"], effect(PZ))
    report = dl.verify_ancilla_characterization(DEV["luders_pz"], effect(PZ), v)
    assert report.coexistence_relation == "compatible"


def test_ancilla_verification_weak_pair():
    from qcompat import dilation as dl

    v = cp.classify(DEV["luders_px"], DEV["half_sigma_x"])
    report = dl.verify_ancilla_characterization(DEV["luders_px"], DEV["half_sigma_x"], v)
    assert report.coexistence_relation is None
    assert report.effect_1.dim == report.dilation.ancilla_dim


def test_ancilla_verification_comparable_pair():
    from qcompat import dilation as dl

    phi = DEV["luders_px"]
    half = CPMap(2, 2, phi.choi / 2)
    v = cp.classify(phi, half)
    report = dl.verify_ancilla_characterization(phi, half, v)
    # on the ancilla, the half map shows up as half the effect of the full map
    assert np.allclose(report.effect_2.matrix, report.effect_1.matrix / 2, atol=1e-6)


def test_ancilla_verification_equal_maps():
    from qcompat import dilation as dl

    phi = DEV["luders_px"]
    v = cp.classify(phi, phi)
    report = dl.verify_ancilla_characterization(phi, phi, v)
    assert np.allclose(report.effect_1.matrix, report.effect_2.matrix, atol=1e-6)


def test_ancilla_verification_checks_the_witness_against_its_devices():
    # the weak witness of px and pz holds neither luders_px nor sharp_z as a
    # part, though its common channel dilates and both its parts have effects
    from qcompat import dilation as dl

    v = cp.classify(DEV["px"], DEV["pz"])
    assert v.relation == "weakly_compatible_only"
    with pytest.raises(cp.WitnessValidationError, match="device 1"):
        dl.verify_ancilla_characterization(DEV["luders_px"], DEV["sharp_z"], v)


@pytest.mark.parametrize("a, b", [("sharp_x", "sharp_z"), ("luders_x_instrument", "px"),
                                  ("px_dephasing", "sharp_x")])
def test_ancilla_verification_needs_subset_parts(a, b):
    # the witness holds its devices, but a pointer map names no one ancilla effect
    from qcompat import dilation as dl

    v = cp.classify(DEV[a], DEV[b])
    cp.check_witness(DEV[a], DEV[b], v.witness, cp.witness_tolerances(cp.DEFAULT_TOL))
    with pytest.raises(ValueError, match="subset part"):
        dl.verify_ancilla_characterization(DEV[a], DEV[b], v)


def test_ancilla_verification_needs_a_witness():
    from qcompat import dilation as dl

    v = cp.Verdict("strongly_incompatible", None, "")
    with pytest.raises(ValueError, match="no witness to verify"):
        dl.verify_ancilla_characterization(DEV["luders_px"], DEV["luders_pz"], v)


# ---------------------------------------------------------------------------
# two routes: fast paths on and off give the same relation
# ---------------------------------------------------------------------------


def _diag_in(u, values):
    return (u * np.asarray(values)) @ u.conj().T


def _observable(*mats):
    return Observable(tuple(str(i) for i in range(len(mats))),
                      {str(i): Effect(m) for i, m in enumerate(mats)})


def _scaled_kraus(rng, scale):
    return choi_from_kraus(rand_kraus(rng, 2, 2, 2, scale=scale))


def _fast_path_sample():
    """(fast path named in the notes, device, device): one pair per fast path of
    every kind pair, with both outcomes where a path has two; "sdp" names the
    engine, which decides a projection paired with an operation or a channel."""
    rng = np.random.default_rng(2012)
    u = np.linalg.qr(rand_complex(rng, 2))[0]
    e, f = Effect(_diag_in(u, [0.3, 0.8])), Effect(_diag_in(u, [0.6, 0.1]))
    obs = _observable(_diag_in(u, [0.2, 0.7]), _diag_in(u, [0.8, 0.3]))
    coin = dv.trivial_observable({"a": 0.3, "b": 0.7}, 2)
    ks = rand_kraus(rng, 2, 2, 2).ops
    lam = choi_from_kraus(KrausSet(ks))
    small = _scaled_kraus(rng, np.sqrt(0.4))
    ins = rand_instrument(rng, n_out=3)
    flips = Instrument(("a", "b"), {"a": choi_from_kraus(KrausSet((I2 / np.sqrt(2),))),
                                    "b": choi_from_kraus(KrausSet((SX / np.sqrt(2),)))})
    dephased = choi_from_kraus(KrausSet((_diag_in(u, [0.8, 0]), _diag_in(u, [0, 0.6]))))
    luders_u = Instrument(("a", "b"), {"a": dv.luders(Effect(_diag_in(u, [1.0, 0.0]))),
                                       "b": dv.luders(Effect(_diag_in(u, [0.0, 1.0])))})
    return [
        ("commuting", e, f),
        ("sum-below-identity", effect(0.45 * PX), effect(0.45 * PZ)),
        ("projection-commutation", effect(PX), effect(0.9 * PZ)),
        ("commuting", rand_effect(rng, 2), coin),
        ("commuting", rand_observable(rng, 2, 3), effect(0.4 * I2)),
        ("commuting", e, obs),
        ("commuting", coin, rand_observable(rng, 2, 2)),
        ("commuting", obs,
         _observable(_diag_in(u, [0.5, 0.1]), _diag_in(u, [0.5, 0.9]))),
        ("commuting", dv.luders(Effect(_diag_in(u, [1.0, 0.0]))), e),
        ("sum-below-identity", Effect(0.5 * rand_effect(rng, 2).matrix), small),
        ("sdp", rand_cpmap(rng), effect(PX)),
        ("commuting", f,
         choi_from_kraus(KrausSet((_diag_in(u, [1, 0]), _diag_in(u, [0, 1]))))),
        ("sdp", lam, effect(PX)),
        ("commuting", dephased, obs),
        ("commuting", dv.contraction_channel(rand_state(rng, 2)), rand_observable(rng, 2, 3)),
        ("commuting", coin, lam),
        ("commuting", luders_u, f),
        ("commuting", obs, luders_u),
        ("comparable", choi_from_kraus(KrausSet((0.9 * ks[0],))), CPMap(2, 2, 0.9 * lam.choi)),
        ("sum-below-identity", CPMap(2, 2, 0.3 * lam.choi), _scaled_kraus(rng, np.sqrt(0.3))),
        ("pure-oracle", rand_rank1_deficit_op(rng), rand_rank1_deficit_op(rng)),
        ("rank1-family", *below_common_channel(rng)),
        ("cp-order", CPMap(2, 2, lam.choi), rand_rank1_deficit_op(rng)),
        ("cp-order", lam, choi_from_kraus(KrausSet((0.8 * ks[0],)))),
        ("cp-order", rand_rank1_deficit_op(rng), lam),
        ("equal-channels", lam, CPMap(2, 2, lam.choi.copy(), kind="channel")),
        ("distinct-channels", lam, choi_from_kraus(rand_kraus(rng, 2, 2, 2))),
        ("total-channel", dv.total_channel(ins), ins),
        ("total-channel", ins, lam),
        ("distinct-totals", ins, rand_instrument(rng, n_out=2)),
        ("shared-total", DEV["luders_x_instrument"], flips),
    ]


def _qutrit_tail():
    """Six op-ef pairs whose sum exceeds the identity, and six 3-outcome observable pairs."""
    pairs = []
    for s in range(6):
        rng = np.random.default_rng([3, s])
        while True:
            op = choi_from_kraus(rand_kraus(rng, 3, 3, 2, scale=np.sqrt(rng.uniform(0.2, 0.95))))
            e = rand_effect(rng, 3)
            if np.linalg.eigvalsh(op.heisenberg_unit() + e.matrix)[-1] > 1.0 + 1e-3:
                break
        pairs.append((op, e))
    for s in range(6):
        rng = np.random.default_rng([4, s])
        pairs.append((rand_observable(rng, 3, 3), rand_observable(rng, 3, 3)))
    return pairs


def _both_routes(d1, d2) -> cp.Verdict:
    fast = cp.classify(d1, d2)
    slow = cp.classify(d1, d2, fast_paths=False)
    assert fast.relation == slow.relation != "undecided", (fast.notes, slow.notes)
    return fast


def _overnormalized_observable():
    """An observable that ``Observable`` admits at DEFAULT_TOL, its sum's top
    eigenvalue 1 + 1.5e-9 above 1 + psd_tol: the sum misses the identity by
    2.1e-9 in Frobenius norm, inside eq_tol (1 + ||sum||_F) = 2.4e-9."""
    return _observable(np.diag([0.9, 0.1]), np.diag([0.1 + 1.5e-9, 0.9 + 1.5e-9]))


def _measure_prepare(state):
    """The z-basis measurement that prepares ``state`` after either outcome."""
    return Instrument(("0", "1"), {str(k): CPMap(2, 2, np.kron(np.diag(np.eye(2)[k]), state))
                                   for k in range(2)})


@pytest.mark.parametrize("name", [*DEV, "contraction", "measure-prepare"])
def test_an_admitted_observable_gets_one_relation_on_both_routes_and_orders(name):
    # a witness total inherits the observable's normalization, so witnesses of a
    # pair with an observable are checked at the witness scale; at the pair's own
    # tolerances, classify raised NormalizationError against px, sharp_x,
    # luders_pz and the two devices that prepare diag(0.25, 0.75)
    obs = _overnormalized_observable()
    total = sum(e.matrix for e in obs.effects.values())
    assert np.linalg.eigvalsh(total)[-1] > 1.0 + cp.DEFAULT_TOL.psd_tol
    state = np.diag([0.25, 0.75])
    other = {"contraction": lambda: dv.contraction_channel(state),
             "measure-prepare": lambda: _measure_prepare(state)}.get(name, lambda: DEV[name])()
    relations = {cp.classify(*pair, fast_paths=fast).relation
                 for pair in ((obs, other), (other, obs)) for fast in (True, False)}
    assert len(relations) == 1 and relations != {"undecided"}, relations


def _shaped_pair(kind, din, dout, n_ops, seed):
    """A pair of the kind on input side din and output side dout; the maps have
    enough Kraus operators (dout * n >= din) to be scaled from a channel."""
    rng = np.random.default_rng([47, seed])
    n_ops = max(n_ops, -(-din // dout))
    if kind == "ins-ef":
        d1 = rand_instrument(rng, din, dout, n_out=2, ops_per_branch=-(-din // (2 * dout)))
    else:
        d1 = rand_cpmap(rng, din, dout, n_ops=n_ops)
    if kind == "op-op":
        return d1, rand_cpmap(rng, din, dout, n_ops=n_ops)
    if kind == "op-obs":
        return d1, rand_observable(rng, din, 3)
    return d1, rand_effect(rng, din)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["op-op", "op-ef", "op-obs", "ins-ef"]), din=st.integers(1, 3),
       dout=st.integers(1, 3), n_ops=st.integers(1, 2), seed=st.integers(0, 2**16),
       swap=st.booleans())
@example(kind="op-op", din=1, dout=2, n_ops=2, seed=0, swap=False)  # a wrong "no" at d_in = 1
@example(kind="op-op", din=1, dout=2, n_ops=2, seed=1, swap=False)  # a singular dual basis
def test_unusual_shapes_agree_on_both_routes(kind, din, dout, n_ops, seed, swap):
    # one-dimensional inputs or outputs and unequal sides: both routes give one
    # relation, and every exported Kraus certificate validates
    d1, d2 = _shaped_pair(kind, din, dout, n_ops, seed)
    if swap:
        d1, d2 = d2, d1
    verdicts = [cp.classify(d1, d2, fast_paths=fast) for fast in (True, False)]
    assert verdicts[0].relation == verdicts[1].relation, [v.notes for v in verdicts]
    for v in verdicts:
        w = v.witness
        if w is not None and w.part_1 is not None and w.part_2 is not None:
            cp.kraus_witness(v)


def test_fast_paths_agree_with_engine_on_every_path():
    sample = _fast_path_sample()
    covered = {tuple(sorted((dv.instrument_parts(d).kind for d in (d1, d2)), key=cp._ORDER.index))
               for _, d1, d2 in sample}
    assert covered >= set(cp._JOINT_PATHS) | set(cp._WEAK_PATHS)
    for path, d1, d2 in sample:
        assert path in _both_routes(d1, d2).notes


_ROUTE_FREE_KINDS = ["ef-ef", "ef-obs", "obs-obs", "ch-ef", "ch-obs", "ch-op"]


def _route_free_pair(kinds, d, rng):
    make = {"ef": lambda: rand_effect(rng, d),
            "obs": lambda: rand_observable(rng, d, int(rng.integers(2, 4))),
            "ch": lambda: rand_cpmap(rng, d, d, n_ops=2, channel=True),
            "op": lambda: rand_cpmap(rng, d, d, n_ops=2)}
    return tuple(make[k]() for k in kinds.split("-"))


@settings(max_examples=40, deadline=None)
@given(kinds=st.sampled_from(_ROUTE_FREE_KINDS), d=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**16))
def test_the_engine_agrees_with_the_implications_the_table_applies_on_both_routes(kinds, d,
                                                                                   seed):
    # classify fills an unasked answer on both routes: a classical pair is
    # weakly compatible, and a pair with a channel is weakly compatible exactly
    # when it is compatible; the engine, asked both questions, must agree
    d1, d2 = _route_free_pair(kinds, d, np.random.default_rng([77, seed]))
    weak = fs.solve(cp.weak_problem(d1, d2)).verdict
    if kinds.startswith("ch"):
        assert fs.solve(cp.joint_problem(d1, d2)).verdict == weak
    else:
        assert weak == "feasible"


def _coin(p, delta=0.0 * I2) -> Observable:
    """The trivial observable (p, 1 - p), its effects moved by +delta and -delta."""
    return _observable(p * I2 + delta, (1 - p) * I2 - delta)


def _steepest(b: np.ndarray, norm: float) -> np.ndarray:
    """The traceless Hermitian delta of Frobenius norm ``norm`` with the largest [delta, b]."""
    paulis = [m / np.sqrt(2) for m in (SX, SY, SZ)]
    comm = np.array([(m @ b - b @ m).ravel() for m in paulis]).T
    c = np.linalg.svd(np.vstack([comm.real, comm.imag]))[2][0]
    return norm * sum(ck * m for ck, m in zip(c, paulis))


def test_trivial_observables_take_the_commuting_path():
    # a multiple of the identity commutes with everything, so the commuting
    # path decides trivial effects and observables against any observable,
    # and trivial observables against a channel
    rng = np.random.default_rng(2020)
    for _ in range(3):
        obs = rand_observable(rng, 2, int(rng.integers(2, 4)))
        pairs = [(effect(rng.uniform() * I2), obs), (_coin(rng.uniform()), obs),
                 (_coin(rng.uniform()), rand_effect(rng, 2))]
        for d1, d2 in pairs + [(d2, d1) for d1, d2 in pairs]:
            assert _both_routes(d1, d2).notes == "fast-path: commuting"
        lam = rand_cpmap(rng, channel=True)
        coin = _coin(rng.uniform())
        for d1, d2 in ((lam, coin), (coin, lam)):
            assert _both_routes(d1, d2).notes == "fast-path: commuting"
    # within eq_tol of trivial (as close() reads it: up to eq_tol (1 + |E|_F)),
    # in a random direction or in the one that makes the commutator with a
    # random or a sharp observable largest, on both routes
    eq_tol = Tolerances().eq_tol
    for _ in range(4):
        u = np.linalg.qr(rand_complex(rng, 2))[0]
        sharp = _observable(_diag_in(u, [1.0, 0.0]), _diag_in(u, [0.0, 1.0]))
        for obs in (rand_observable(rng, 2, int(rng.integers(2, 4))), sharp):
            p = rng.uniform(0.1, 0.9)
            edge = 0.999 * eq_tol * (1 + np.sqrt(2) * min(p, 1 - p))
            h = hermitian_part(rand_complex(rng, 2))
            h -= np.trace(h).real / 2 * I2
            for delta in (rng.uniform() * edge * h / np.linalg.norm(h),
                          _steepest(obs.effects["0"].matrix, edge)):
                for d1, d2 in ((_coin(p, delta), obs), (obs, _coin(p, delta))):
                    assert _both_routes(d1, d2).relation == "compatible"


def test_commuting_rule_fires_on_a_commuting_range():
    # a Lueders projection's range commutes with its own projection and not
    # with a rotated one; a contraction channel's range, the multiples of the
    # identity, commutes with everything
    assert cp.classify(luders_of(PZ), effect(PZ)).notes == "fast-path: commuting"
    assert cp._commuting(_pair(luders_of(PZ), effect(PX), Tolerances())) is None
    contraction = dv.contraction_channel(rand_state(np.random.default_rng(43), 2))
    assert cp.classify(contraction, effect(PX)).notes == "fast-path: commuting"


@pytest.mark.parametrize("eps, accepted", [(1e-8, False), (1e-9, False), (3e-10, True)])
def test_commuting_rule_boundary(eps, accepted):
    # ||[J, B^T x 1]||_F = sqrt(2) eps for B = E and B = 1 - E, against
    # eq_tol (1 + ||J (B^T x 1)||_F): 1.7e-9 for E and 1.3e-9 for 1 - E
    e = effect(np.diag([0.7, 0.2]) + eps * SX)
    v = _both_routes(luders_of(PZ), e)
    assert (v.notes == "fast-path: commuting") is accepted


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_eps=st.floats(-13.0, -7.0), exact=st.booleans())
def test_commuting_rule_near_the_boundary_agrees_with_the_engine(seed, log_eps, exact):
    # a map whose Kraus operators end in eigenprojectors of E has a range that
    # commutes with E; with E moved eps off, the rule fires on the exact pair,
    # a witness it returns validates (also as Kraus operators), and the engine
    # gives the same relation
    rng = np.random.default_rng(seed)
    eps = 0.0 if exact else 10.0 ** log_eps
    din, dout = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    u = np.linalg.qr(rand_complex(rng, din))[0]
    ops = [rand_complex(rng, dout, din) @ np.outer(u[:, k], u[:, k].conj()) for k in range(din)]
    top = np.linalg.eigvalsh(sum(k.conj().T @ k for k in ops))[-1]
    m = choi_from_kraus(KrausSet(tuple(k / np.sqrt(1.5 * top) for k in ops)))
    e = (u * rng.uniform(0.2, 0.8, din)) @ u.conj().T + eps * rand_herm(rng, din) / din
    v = _both_routes(m, effect(e))
    assert v.notes == "fast-path: commuting" or not exact
    if v.notes == "fast-path: commuting":
        cp.kraus_witness(v)


_COMMUTING_ROWS = ["ef-ef", "ef-obs", "obs-obs", "op-ef", "op-obs", "ch-ef", "ch-obs",
                   "ins-ef", "ins-obs"]


def _commuting_pair(row, din, dout, seed):
    """A pair of the row's kinds that commute: one basis is cut into groups with
    projections Q_g; the second device's effects are combinations of the Q_g,
    and every part of the first acts within the groups (an effect is a sum of
    effects on the groups, a map has Kraus operators k V_g^* with V_g the
    group's basis vectors), so its Heisenberg range commutes with each Q_g."""
    rng = np.random.default_rng([53, seed])
    u = np.linalg.qr(rand_complex(rng, din))[0]
    cut = rng.integers(0, din, din)
    isos = [u[:, cut == g] for g in np.unique(cut)]
    first, second = row.split("-")

    def effects(n, within):
        # n effects summing to the identity, each within the groups or a combination of the Q_g
        mats = [np.zeros((din, din), dtype=complex) for _ in range(n)]
        for v in isos:
            if within:
                parts = [e.matrix for e in rand_observable(rng, v.shape[1], n).effects.values()]
            else:
                parts = [w * np.eye(v.shape[1]) for w in rng.dirichlet(np.ones(n))]
            for m, part in zip(mats, parts):
                m += v @ part @ v.conj().T
        return [hermitian_part(m) for m in mats]

    def classical(kind, within):
        if kind == "ef":
            return Effect(effects(2, within)[0] * rng.uniform(0.3, 1.0))
        return _observable(*effects(int(rng.integers(2, 4)), within))

    if first in ("ef", "obs"):
        return classical(first, True), classical(second, False)
    n_out = 2 if first == "ins" else 1
    ops = [[] for _ in range(n_out)]
    for v in isos:
        scale = 1.0 if first != "op" else np.sqrt(rng.uniform(0.2, 0.95))
        n_ops = n_out * max(2, -(-v.shape[1] // dout))  # enough to span the group
        ks = rand_kraus(rng, v.shape[1], dout, n_ops, scale=scale).ops
        for i, k in enumerate(ks):
            ops[i % n_out].append(k @ v.conj().T)
    maps = [choi_from_kraus(KrausSet(tuple(k))) for k in ops]
    d1 = Instrument(("a", "b"), dict(zip("ab", maps))) if first == "ins" else maps[0]
    return d1, classical(second, False)


@settings(max_examples=30, deadline=None)
@given(row=st.sampled_from(_COMMUTING_ROWS), din=st.integers(2, 3), dout=st.integers(1, 3),
       seed=st.integers(0, 2**16))
@example(row="ef-ef", din=3, dout=1, seed=15296)  # branch Choi eigenvalues of 7.3e-6
def test_commuting_pairs_take_the_commuting_rule_on_every_classical_row(row, din, dout, seed):
    # in both orders: the rule decides the pair, the engine gives the same
    # relation, each device is a part of the witness instrument, and the
    # witness exports as Kraus operators where both parts are subsets
    d1, d2 = _commuting_pair(row, din, dout, seed)
    loose = cp.witness_tolerances(Tolerances())
    for a, b in ((d1, d2), (d2, d1)):
        fast, slow = (cp.classify(a, b, fast_paths=fast) for fast in (True, False))
        assert fast.notes == "fast-path: commuting"
        assert fast.relation == slow.relation == "compatible", slow.notes
        for v in (fast, slow):
            assert dv.is_part_of(a, v.witness.instrument_1, loose)
            assert dv.is_part_of(b, v.witness.instrument_2, loose)
            if v.witness.part_1 is not None and v.witness.part_2 is not None:
                cp.kraus_witness(v)


def test_luders_x_instrument_and_px_commute():
    # an instrument against an effect: the Lueders X instrument's branches
    # commute with px (x) 1, so the rule decides the pair in both orders
    ins, px = DEV["luders_x_instrument"], DEV["px"]
    for a, b in ((ins, px), (px, ins)):
        v = _both_routes(a, b)
        assert (v.relation, v.notes) == ("compatible", "fast-path: commuting")
        assert dv.is_part_of(a, v.witness.instrument_1) and dv.is_part_of(b, v.witness.instrument_2)


def test_fast_paths_agree_with_engine_on_table1():
    for _, _, n1, n2 in TABLE1_CELLS:
        _both_routes(DEV[n1], DEV[n2])


def test_fast_paths_agree_with_engine_on_qutrit_tail():
    for d1, d2 in _qutrit_tail():
        _both_routes(d1, d2)


_STRENGTH = {"strongly_incompatible": 0, "weakly_compatible_only": 1, "compatible": 2}


def _mixed_pair(p, q, t):
    """The pair t p + (1 - t) q of two pairs of one kind pair: op-ef pairs mix
    their Choi matrices and effects, observable pairs outcome by outcome."""
    def mix(a, b):
        if isinstance(a, CPMap):
            return CPMap(a.dim_in, a.dim_out, t * a.choi + (1 - t) * b.choi)
        if isinstance(a, Effect):
            return Effect(t * a.matrix + (1 - t) * b.matrix)
        return Observable(a.outcomes, {x: mix(a.effects[x], b.effects[x]) for x in a.outcomes})

    return mix(p[0], q[0]), mix(p[1], q[1])


def test_qutrit_tail_relations_are_covariant_and_never_fall_under_parts():
    # relations the definitions force, decided by the engine alone: turning
    # both devices by one unitary keeps the relation; a part of the operation
    # (t Phi) or a post-processed effect (x E + y (1 - E)) relates at least as
    # strongly; undecided is allowed on either side
    rng = np.random.default_rng(2012)
    tail = _qutrit_tail()
    relations = []
    for i, (d1, d2) in enumerate(tail):
        relation = cp.classify(d1, d2, fast_paths=False).relation
        relations.append(relation)
        u = haar_unitary(rng, 3)
        turned = cp.classify(conjugate(d1, u), conjugate(d2, u), fast_paths=False).relation
        assert turned == relation or "undecided" in (turned, relation), i
        if not isinstance(d1, CPMap):  # the six op-ef pairs come first
            continue
        e = d2.matrix
        for a, b in ((CPMap(3, 3, 0.9 * d1.choi), d2), (CPMap(3, 3, 0.7 * d1.choi), d2),
                     (d1, Effect(0.9 * e + 0.05 * (np.eye(3) - e))),
                     (d1, Effect(0.8 * e + 0.1 * (np.eye(3) - e)))):
            smaller = cp.classify(a, b, fast_paths=False).relation
            assert "undecided" in (smaller, relation) or \
                _STRENGTH[smaller] >= _STRENGTH[relation], i
    # mixing consecutive pairs of one kind pair, with one weight t, relates at
    # least as strongly as the weaker of the two: their witnesses' instruments,
    # mixed over the disjoint union of their outcomes, share the mixed total
    for i in (0, 1, 2, 3, 4, 6, 7, 8, 9, 10):  # op-ef pairs, then observable pairs
        mixed = cp.classify(*_mixed_pair(tail[i], tail[i + 1], rng.uniform(0.2, 0.8)),
                            fast_paths=False).relation
        pair = relations[i : i + 2]
        assert "undecided" in [mixed, *pair] or \
            _STRENGTH[mixed] >= min(_STRENGTH[r] for r in pair), i


@pytest.mark.parametrize("name", ["fastpath-mix", "pure-opop", "engine-tail"])
def test_fast_paths_agree_with_engine_on_benchmark_workloads(name):
    # one round of each benchmark workload at the seed its figures are quoted
    # for, from the workloads module that conftest runs from its source
    for pair in benchmark_workloads.WORKLOADS[name](90210):
        relation = _both_routes(pair.d1, pair.d2).relation
        assert pair.expected is None or relation in pair.expected, pair.pid


def test_witness_instruments_match_the_per_matrix_constructors(monkeypatch):
    # every witness instrument is validated as one stack; rebuilt branch by
    # branch from the same raw Choi matrices, it must come out bit for bit
    built = []
    stacked = Instrument.from_stack.__func__

    def recorded(cls, outcomes, chois, dim_in, dim_out, tol=None):
        out = stacked(cls, outcomes, chois, dim_in, dim_out, tol)
        built.append((dict(chois), tol, out))
        return out

    monkeypatch.setattr(Instrument, "from_stack", classmethod(recorded))
    wl = benchmark_workloads
    calls = [(p.d1, p.d2, fast) for p in wl.fastpath_mix(90210) for fast in (True, False)]
    calls += [(p.d1, p.d2, p.fast_paths) for p in wl.engine_tail(90210, 0)]
    verdicts = [cp.classify(d1, d2, fast_paths=fast) for d1, d2, fast in calls]
    # both relations occur, a compatible witness holding one joint instrument
    # twice and a weak one two instruments
    shapes = {(v.relation, v.witness.instrument_1 is v.witness.instrument_2)
              for v in verdicts if v.witness is not None}
    assert shapes == {("compatible", True), ("weakly_compatible_only", False)}
    assert len(built) > len(calls) // 2
    for chois, tol, ins in built:
        one = Instrument(ins.outcomes, {x: CPMap(ins.dim_in, ins.dim_out, chois[x], tol=tol)
                                        for x in ins.outcomes}, tol=tol)
        pairs = [(one.branches[x], ins.branches[x]) for x in ins.outcomes]
        pairs.append((dv.total_channel(one, tol), dv.total_channel(ins, tol)))
        for want, got in pairs:
            assert got.kind == want.kind
            assert got.choi.tobytes() == want.choi.tobytes()
            assert got.heisenberg_unit().tobytes() == want.heisenberg_unit().tobytes()


def _classical(d1, d2) -> bool:
    """Whether both devices read as effects or observables."""
    return {dv.instrument_parts(d).kind for d in (d1, d2)} <= {"effect", "observable"}


def _sides(w):
    """Each side of a witness: its instrument's branches as bytes, its part and its pointer."""
    def side(ins, part, pointer):
        return ([(x, ins.branches[x].choi.tobytes()) for x in ins.outcomes], part,
                None if pointer is None else (pointer.mapping, pointer.codomain))

    return [side(w.instrument_1, w.part_1, w.pointer_1),
            side(w.instrument_2, w.part_2, w.pointer_2)]


@pytest.mark.parametrize("fast", [True, False])
def test_every_builtin_witness_is_two_instruments_with_one_total(fast):
    # one witness shape for both relations: a compatible pair's two
    # instruments are one object, the common channel is both totals, device
    # i is a part of instrument i, and the reversed call of a pair of two
    # kinds, which runs in the same canonical order, swaps the witness
    wtol = cp.witness_tolerances(cp.DEFAULT_TOL)
    verdicts = {(a, b): cp.classify(DEV[a], DEV[b], fast_paths=fast) for a in DEV for b in DEV}
    positive = 0
    for (a, b), v in verdicts.items():
        w = v.witness
        assert (w is not None) == (v.relation in ("compatible", "weakly_compatible_only")), (a, b)
        if w is None:
            continue
        positive += 1
        cp.check_witness(DEV[a], DEV[b], w, wtol)
        assert (v.relation == "compatible") == (w.instrument_1 is w.instrument_2), (a, b)
        for i, ins in enumerate((w.instrument_1, w.instrument_2)):
            assert close(w.common_channel.choi, dv.total_channel(ins, wtol).choi, wtol), (a, b)
            # every built-in device that the witness holds as device i, its own
            # included, is found by the part-of search
            for c in DEV.values():
                pair = [DEV[a], DEV[b]]
                pair[i] = c
                try:
                    cp.check_witness(*pair, w, wtol)
                except cp.WitnessValidationError:
                    continue
                if len(ins.outcomes) <= dv.PART_SEARCH_LIMIT:
                    assert dv.is_part_of(c, ins, wtol), (a, b, i)
        back = verdicts[b, a]
        assert back.relation == v.relation, (a, b)
        if dv.instrument_parts(DEV[a]).kind == dv.instrument_parts(DEV[b]).kind:
            continue
        assert back.notes == v.notes
        assert _sides(back.witness) == _sides(w)[::-1]
        assert back.witness.common_channel.choi.tobytes() == w.common_channel.choi.tobytes()
        if _classical(DEV[a], DEV[b]) and v.relation == "compatible":
            # both orientations read one joint observable off their joint instrument
            g, h = (dv.induced_observable(x.witness.instrument_1, wtol) for x in (v, back))
            assert g.outcomes == h.outcomes, (a, b)
            for x in g.outcomes:
                assert g.effects[x].matrix.tobytes() == h.effects[x].matrix.tobytes(), (a, b)
    assert positive > len(verdicts) // 2


def test_commuting_observables_witness_takes_few_eigvalsh_calls(monkeypatch):
    rng = np.random.default_rng(2014)
    u = np.linalg.qr(rand_complex(rng, 2))[0]
    a = _observable(_diag_in(u, [0.5, 0.1]), _diag_in(u, [0.3, 0.3]), _diag_in(u, [0.2, 0.6]))
    b = _observable(_diag_in(u, [0.1, 0.7]), _diag_in(u, [0.6, 0.2]), _diag_in(u, [0.3, 0.1]))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    v = cp.classify(a, b)
    assert v.relation == "compatible" and v.notes == "fast-path: commuting"
    assert len(v.witness.instrument_1.outcomes) == 9
    # the witness takes one Choi stack of the instrument and its total (Choi
    # matrices, then their units, whose spectra also bound the branches as
    # effects)
    assert len(calls) <= 2, calls


@pytest.mark.parametrize("name", ["ef-ef", "op-ef"])
def test_carved_effects_take_no_eigvalsh_of_their_own(name, monkeypatch):
    # a carved effect is compared with its device's target by check_witness,
    # which takes no spectrum; the witness stack holds the branches and the
    # total only, whatever the kind pair
    d1, d2 = {"ef-ef": (effect(PZ), effect(I2 / 2)), "op-ef": (DEV["luders_pz"], DEV["pz"])}[name]
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    v = cp.classify(d1, d2)
    assert v.relation == "compatible" and "fast-path" in v.notes
    # the witness stack of four branches and the total: Choi matrices, then units
    assert calls == [(5, 4, 4), (5, 2, 2)]


def _rank1_observable(rng, d: int) -> Observable:
    """d + 1 rank-1 effects v v^* from the columns of d rows of a random unitary."""
    u = np.linalg.qr(rand_complex(rng, d + 1))[0][:d]
    return Observable(tuple(str(k) for k in range(d + 1)),
                      {str(k): Effect(np.outer(u[:, k], u[:, k].conj())) for k in range(d + 1)})


def _noisy(axis, a):
    """The effect (1 + a axis) / 2 of a Pauli axis."""
    return effect((I2 + a * axis) / 2)


def _noisy_observable(axis, a):
    return sharp_observable((I2 + a * axis) / 2, (I2 - a * axis) / 2)


# compatible pairs whose effects have sigma_y components, where E and E^T differ
_Y_PAIRS = {
    "ef-ef-commuting": lambda: (_noisy(SY, 0.5), _noisy(SY, -0.3)),
    "ef-ef-noisy": lambda: (_noisy(SY, 0.5), _noisy(SX + SY, 0.4)),
    "ef-obs": lambda: (_noisy(SY, 0.5), _noisy_observable(SX, 0.5)),
    "obs-obs": lambda: (_noisy_observable(SY, 0.6), _noisy_observable(SX + SZ, 0.5)),
    "op-ef": lambda: (luders_of((I2 + SY) / 2), _noisy(SY, 0.4)),
}


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("name", sorted(_Y_PAIRS))
def test_witnesses_keep_the_orientation_of_sigma_y(name, fast):
    # a slip between E and E^T is invisible on real effects; sigma_y is imaginary
    d1, d2 = _Y_PAIRS[name]()
    v = cp.classify(d1, d2, fast_paths=fast)
    assert v.relation == "compatible"
    w, wtol = v.witness, cp.witness_tolerances(cp.DEFAULT_TOL)
    assert dv.is_part_of(d1, w.instrument_1, wtol) and dv.is_part_of(d2, w.instrument_2, wtol)
    if not _classical(d1, d2):
        assert name == "op-ef"
        return
    joint = dv.induced_observable(w.instrument_1, wtol).effects
    for d, part, pointer in ((d1, w.part_1, w.pointer_1), (d2, w.part_2, w.pointer_2)):
        if isinstance(d, Effect):
            wants = [(d.matrix, part)]
        else:
            wants = [(d.effects[y].matrix, pointer.preimage(y)) for y in d.outcomes]
        for want, labels in wants:
            assert close(want, sum(joint[lab].matrix for lab in labels), wtol)


@pytest.mark.parametrize("d", [2, 3])
def test_maps_into_one_dimension_read_like_effects(d):
    # the map rho -> tr(E rho) has Choi matrix E^T at output side 1; as a
    # CPMap it must stand in the same relation to every partner as Effect(E)
    rng = np.random.default_rng([17, d])
    agreed = 0
    for _ in range(3):
        e = rand_effect(rng, d).matrix
        g = rand_effect(rng, d).matrix
        partners = (rand_effect(rng, d), _rank1_observable(rng, d), CPMap(d, 1, g.T))
        for other in partners:
            for fast in (True, False):
                want = cp.classify(Effect(e), other, fast_paths=fast).relation
                assert cp.classify(CPMap(d, 1, e.T), other, fast_paths=fast).relation == want
                assert cp.classify(other, CPMap(d, 1, e.T), fast_paths=fast).relation == want
                agreed += 2
    assert agreed == 36


# ---------------------------------------------------------------------------
# check_witness: device i a part of instrument i, both totals the common channel
# ---------------------------------------------------------------------------

_WTOL = cp.witness_tolerances(cp.DEFAULT_TOL)


def _exchanged(d1, d2, w):
    """The weak witness of sharp_x and sharp_z with the two images of pointer 1 exchanged."""
    assert w.pointer_1.mapping == {"+": "+", "-": "-"}
    return d1, d2, dataclasses.replace(w, pointer_1=dv.PointerMap({"+": "-", "-": "+"}))


def _moved(d1, d2, w):
    """The joint instrument with the first branch of part 1 moved along itself by twice
    the eq_tol scale of device 1's target, built at a tolerance that lets it pass."""
    x, target = w.part_1[0], dv.instrument_parts(d1).targets["1"]
    step = 2 * _WTOL.eq_tol * (1 + np.linalg.norm(target))
    chois = {y: m.choi for y, m in w.instrument_1.branches.items()}
    chois[x] = chois[x] * (1 + step / np.linalg.norm(chois[x]))
    loose = Tolerances(eq_tol=1e-3, psd_tol=1e-3, feas_tol=1e-3)
    ins = Instrument.from_stack(w.instrument_1.outcomes, chois, 2, 2, loose)
    return d1, d2, dataclasses.replace(w, instrument_1=ins, instrument_2=ins)


def _other_total(d1, d2, w):
    """Instrument 2 replaced by device 2's canonical instrument, which holds device 2
    as outcome "1" and has another total."""
    ins = dv.canonical_instrument(d2)
    assert not close(dv.total_channel(ins).choi, w.common_channel.choi, _WTOL)
    return d1, d2, dataclasses.replace(w, instrument_2=ins)


def _other_channel(d1, d2, w):
    """The joint witness with a common channel that is not its instrument's total."""
    other = dv.total_channel(dv.canonical_instrument(DEV["luders_pz"]))
    assert w.instrument_1 is w.instrument_2
    assert not close(dv.total_channel(w.instrument_1).choi, other.choi, _WTOL)
    return d1, d2, dataclasses.replace(w, common_channel=other)


def _mirrored(d1, d2, w):
    """Device 1 replaced by its transpose, which the summed units of part 1 miss only
    in their imaginary sigma_y part."""
    return _noisy(SY, -0.5), d2, w


# case -> (pair, fault, what the message names)
_WITNESS_FAULTS = {
    "devices-of-another-pair": ((DEV["luders_px"], DEV["half_luders_px"]),
                                lambda d1, d2, w: (d1, DEV["luders_pz"], w), "device 2"),
    "pointer-exchanged": ((DEV["sharp_x"], DEV["sharp_z"]), _exchanged, "device 1"),
    "branch-moved": ((DEV["luders_px"], DEV["half_luders_px"]), _moved, "device 1"),
    "different-totals": ((DEV["luders_px"], DEV["half_sigma_x"]), _other_total, "instrument 2"),
    "joint-total-not-common": ((DEV["luders_px"], DEV["half_luders_px"]), _other_channel,
                               "instrument 1"),
    "effect-transposed": ((_noisy(SY, 0.5), _noisy_observable(SX, 0.5)), _mirrored, "device 1"),
}


@pytest.mark.parametrize("case", sorted(_WITNESS_FAULTS))
def test_check_witness_rejects_a_witness_that_does_not_hold_its_devices(case):
    # the witness of the pair passes; with the fault it fails, naming the device
    # or the instrument at fault
    (d1, d2), fault, named = _WITNESS_FAULTS[case]
    w = cp.classify(d1, d2).witness
    cp.check_witness(d1, d2, w, _WTOL)
    with pytest.raises(cp.WitnessValidationError, match=named):
        cp.check_witness(*fault(d1, d2, w), _WTOL)


def test_witness_tolerances_are_one_instance_per_tolerance_set():
    wtol = cp.witness_tolerances(cp.DEFAULT_TOL)
    assert cp.witness_tolerances(Tolerances()) is wtol
    assert wtol == Tolerances(eq_tol=100.0 * 1e-7, psd_tol=100.0 * 1e-7, feas_tol=100.0 * 1e-7)
    loose = Tolerances(eq_tol=1e-3, psd_tol=1e-9, feas_tol=1e-6)
    assert cp.witness_tolerances(loose) == Tolerances(eq_tol=1e-3, psd_tol=100.0 * 1e-6,
                                                      feas_tol=100.0 * 1e-6)


def _small_and_large(delta):
    """An observable whose two targets differ in norm a thousandfold, moved by delta Z."""
    return Observable(("a", "b"), {"a": effect((1 - 1e-3) * I2 - delta * SZ),
                                   "b": effect(1e-3 * I2 + delta * SZ)})


@pytest.mark.parametrize("delta, held", [(5e-10, True), (1.5e-9, False), (3e-9, False)])
def test_is_part_of_and_check_witness_compare_each_target_at_its_own_scale(delta, held):
    # the small target moves by delta sqrt(2): within eq_tol of its own scale
    # at 5e-10, beyond it at 1.5e-9, though within eq_tol of the large one's
    ins = dv.canonical_instrument(_small_and_large(0.0))
    ident = dv.PointerMap({"a": "a", "b": "b"})
    w = cp.Witness(ins, ins, dv.total_channel(ins), pointer_1=ident, pointer_2=ident)
    d = _small_and_large(delta)
    assert dv.is_part_of(d, ins) is held
    if held:
        cp.check_witness(d, _small_and_large(0.0), w, cp.DEFAULT_TOL)
    else:
        with pytest.raises(cp.WitnessValidationError, match="device 1"):
            cp.check_witness(d, _small_and_large(0.0), w, cp.DEFAULT_TOL)


# ---------------------------------------------------------------------------
# tampered witnesses: each fault is caught by its validation stage
# ---------------------------------------------------------------------------

_ETA = I2 / 2
_OFF = 1e-3 / np.sqrt(2)  # mixing PX and P-X by this moves a unit 1e-3 in Frobenius norm


def _mixed(a, b, t):
    return (1 - t) * a + t * b


def _tampered_joint(case):
    """The dephasing channel and sharp_x as parts of the Lueders-x instrument, with a fault."""
    p = _pair(DEV["px_dephasing"], DEV["sharp_x"], cp.DEFAULT_TOL)
    plus, minus = luders_of(PX).choi, luders_of(PMX).choi
    blocks = {("1", "+"): plus, ("1", "-"): minus}
    if case == "negative-branch":  # P-x's Lueders Choi matrix spans a kernel vector of Px's
        blocks["1", "+"] = plus - 1e-4 * minus
    elif case == "total-not-channel":
        blocks = {xy: 0.9 * m for xy, m in blocks.items()}
    elif case == "pointer-miss":
        blocks = {("1", "+"): _mixed(plus, minus, _OFF), ("1", "-"): _mixed(minus, plus, _OFF)}
    elif case == "unit-below-zero":
        # Choi eigenvalue -8e-6 on both output levels: within psd_tol, unit -1.6e-5 is not
        blocks["1", "+"] = plus - 8e-6 * np.kron(PMX.T, I2)
    return p, blocks


def _tampered_weak(case):
    """sharp_x and sharp_z, each measured and then prepared into I/2, with a fault."""
    p = _pair(sharp_observable(PX, PMX), sharp_observable(PZ, PMZ), cp.DEFAULT_TOL)
    blocks = {(i, x): state_prep_choi(e.matrix, _ETA)
              for i, d in enumerate((p.d1, p.d2)) for x, e in d.effects.items()}
    plus, minus = blocks[0, "+"], blocks[0, "-"]
    if case == "negative-branch":
        blocks[0, "+"] = plus - 1e-4 * np.kron(PMX.T, PZ)
    elif case == "total-not-channel":
        blocks[0, "+"], blocks[0, "-"] = 0.9 * plus, 0.9 * minus
    elif case == "pointer-miss":
        blocks[0, "+"], blocks[0, "-"] = _mixed(plus, minus, _OFF), _mixed(minus, plus, _OFF)
    elif case == "unit-below-zero":
        blocks[0, "+"] = plus - 8e-6 * np.kron(PMX.T, I2)
    elif case == "unit-above-one":  # stopped by the Choi check, before any unit stack
        blocks[0, "+"] = (1 + 1e-4) * plus
    return p, blocks


@pytest.mark.parametrize("case, error", [
    (None, None),
    ("negative-branch", PositivityError),
    ("total-not-channel", dv.NormalizationError),
    ("pointer-miss", cp.WitnessValidationError),
    ("unit-below-zero", dv.EffectBoundsError),
])
def test_tampered_joint_witness_is_rejected(case, error):
    p, blocks = _tampered_joint(case)
    if error is None:
        w = cp._joint_witness(p, blocks, p.wtol)
        assert w.instrument_1 is w.instrument_2 and w.pointer_2.preimage("+") == ("1&+",)
        return
    with pytest.raises(error):
        cp._joint_witness(p, blocks, p.wtol)


def test_tampered_classical_joint_observable_is_rejected():
    # a classical pair's blocks are the transposed effects of its joint
    # observable; the witness stack's unit check bounds each lifted block's
    # unit, that effect, by 1 at the same threshold
    p = _pair(effect(PZ), effect(I2 / 2), cp.DEFAULT_TOL)
    blocks = {("1", "1"): PZ / 2, ("1", "0"): PZ / 2, ("0", "1"): PMZ / 2, ("0", "0"): PMZ / 2}
    w = cp._joint_witness(p, blocks, p.wtol)
    assert w.instrument_1 is w.instrument_2
    blocks["1", "1"] = (1 + 1e-4) * PZ
    with pytest.raises(dv.TraceConditionError):
        cp._joint_witness(p, blocks, p.wtol)


@pytest.mark.parametrize("case, error", [
    (None, None),
    ("negative-branch", PositivityError),
    ("total-not-channel", dv.NormalizationError),
    ("pointer-miss", cp.WitnessValidationError),
    ("unit-below-zero", dv.EffectBoundsError),
    ("unit-above-one", dv.TraceConditionError),
])
def test_tampered_weak_witness_is_rejected(case, error):
    p, blocks = _tampered_weak(case)
    if error is None:
        w = cp._weak_witness(p, blocks, p.wtol)
        assert w.instrument_1 is not w.instrument_2
        assert w.pointer_1.preimage("+") == ("+",)
        return
    with pytest.raises(error):
        cp._weak_witness(p, blocks, p.wtol)


# ---------------------------------------------------------------------------
# the problem builders' rows and the Table-1 solves, pinned
# ---------------------------------------------------------------------------


def _encoded_row(blocks, target, din, dout):
    """``cp._row``'s rule, written through the reference row helpers of conftest."""
    if target.shape[0] == din * dout:
        return sum_constraint([n for n, _ in blocks], target)
    row = partial_trace_constraint(blocks[0][0], (din, dout), target)
    op = row.terms[0][1]
    return fs.AffineConstraint(tuple((n, 1.0 if d == din else op) for n, d in blocks), row.rhs)


def _encoded_totals_row(d1, d2, terms):
    """``weak_problem``'s first row through ``sum_constraint``."""
    parts = (dv.instrument_parts(d1), dv.instrument_parts(d2))
    din, dout = cp._dims(*parts)
    side = din * dout
    fixed = [cp._sum([m for m in r.targets.values() if m.shape[0] == side], side)
             for r in parts]
    return sum_constraint(terms, fixed[0] - fixed[1])


@pytest.mark.parametrize("builder", [cp.joint_problem, cp.weak_problem])
def test_problem_rows_equal_the_encoders_rows_byte_for_byte(builder, monkeypatch):
    # the builders write each row once, without the helpers' hermitian_part:
    # their targets are exactly Hermitian, so the rows keep their bytes
    pairs = [(DEV[a], DEV[b]) for a in DEV for b in DEV]
    built = [builder(d1, d2) for d1, d2 in pairs]
    monkeypatch.setattr(cp, "_row", _encoded_row)
    for (d1, d2), got in zip(pairs, built):
        want = builder(d1, d2)
        rows = list(want.constraints)
        if builder is cp.weak_problem:
            rows[0] = _encoded_totals_row(d1, d2, rows[0].terms)
        assert got.blocks == want.blocks and len(got.constraints) == len(rows)
        for g, w in zip(got.constraints, rows):
            assert g.terms == w.terms
            assert g.rhs.dtype == w.rhs.dtype and g.rhs.tobytes() == w.rhs.tobytes()


# (exit, steps) of every solve of each Table-1 cell, in order; cells not
# listed make no solve
_TABLE1_SOLVES = {
    True: {
        ("luders_px", "half_sigma_x"): [("face", 6)],
        ("luders_pz", "px"): [("path", 0), ("affine", 0)],
        ("luders_biased_z", "px"): [("affine", 0)],
    },
    False: {
        ("luders_px", "half_luders_px"): [("path", 0), ("path", 0)],
        ("luders_px", "half_sigma_x"): [("face", 6), ("affine", 0)],
        ("luders_px", "luders_pz"): [("affine", 0)],
        ("luders_pz", "pz"): [("path", 0), ("path", 0)],
        ("luders_pz", "px"): [("path", 0), ("affine", 0)],
        ("luders_biased_z", "px"): [("affine", 0)],
        ("half_identity", "pz"): [("path", 0)],
        ("px", "pz"): [("affine", 0)],
    },
}


@pytest.mark.parametrize("fast_paths, steps", [(True, 6), (False, 6)])
def test_table1_solves_are_pinned(fast_paths, steps, monkeypatch):
    solves = []
    orig = fs.solve

    def recorded(*args, **kwargs):
        out = orig(*args, **kwargs)
        solves.append((out.exit, out.iterations))
        return out

    monkeypatch.setattr(fs, "solve", recorded)
    got = {}
    for _, _, n1, n2 in TABLE1_CELLS:
        solves.clear()
        cp.classify(DEV[n1], DEV[n2], fast_paths=fast_paths)
        if solves:
            got[n1, n2] = list(solves)
    assert got == _TABLE1_SOLVES[fast_paths]
    assert sum(n for cell in got.values() for _, n in cell) == steps
