import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompat import compat as cp
from qcompat import devices as dv
from qcompat import feasibility as fs
from qcompat import order as od
from qcompat.devices import CPMap, Effect, Instrument, KrausSet, Observable, choi_from_kraus
from qcompat.matkit import Tolerances, herm_from_coords
from qcompat.fixtures import (
    I2,
    PMX,
    PMZ,
    PX,
    PZ,
    SX,
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
    rand_complex,
    rand_cpmap,
    rand_effect,
    rand_instrument,
    rand_kraus,
    rand_observable,
    rand_rank1_deficit_op,
    rand_state,
)


DEV = builtin_devices()


# ---------------------------------------------------------------------------
# effect-effect
# ---------------------------------------------------------------------------


def test_noncommuting_projections_incompatible_but_weak():
    v = cp.classify(effect(PX), effect(PZ))
    assert v.relation == "weakly_compatible_only"
    assert isinstance(v.witness, cp.WeakWitness)
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
    assert dv.is_part_of(e1, v.witness.instrument)
    assert dv.is_part_of(e2, v.witness.instrument)


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
        g = v.witness.joint_observable
        m1 = g.effect_of(v.witness.part_1).matrix
        m2 = g.effect_of(v.witness.part_2).matrix
        assert np.allclose(m1, e1.matrix, atol=1e-5)
        assert np.allclose(m2, e2.matrix, atol=1e-5)


def test_ef_ef_never_strongly_incompatible():
    rng = np.random.default_rng(77)
    for _ in range(25):
        v = cp.classify(rand_effect(rng, 2), rand_effect(rng, 2))
        assert v.relation != "strongly_incompatible"


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
    p = dv.trivial_observable({"h": 0.3, "t": 0.7}, dim=2)
    v = cp.classify(p, sharp_observable(PZ, PMZ))
    assert v.relation == "compatible"
    assert "trivial" in v.notes


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
    assert dv.is_part_of(phi, v.witness.instrument)
    assert dv.is_part_of(half, v.witness.instrument)


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
    assert dv.is_part_of(op1, v.witness.instrument, cp.witness_tolerances(cp.DEFAULT_TOL))
    assert dv.is_part_of(op2, v.witness.instrument, cp.witness_tolerances(cp.DEFAULT_TOL))


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
    assert "commutation" in v.notes
    assert dv.is_part_of(effect(PZ), v.witness.instrument)
    assert dv.is_part_of(DEV["luders_pz"], v.witness.instrument)


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
    assert dv.is_part_of(DEV["half_sigma_x"], v.witness.instrument)


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
    assert "contraction" in v.notes
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


def test_classify_builds_problems_through_module_names(monkeypatch):
    # the traced benchmark wraps the problem builders where compat looks them up
    calls = []
    for name in ("joint_problem", "weak_problem"):
        def counting(d1, d2, name=name, orig=getattr(cp, name)):
            calls.append(name)
            return orig(d1, d2)

        monkeypatch.setattr(cp, name, counting)
    v = cp.classify(DEV["luders_px"], DEV["luders_pz"], fast_paths=False)
    assert v.relation == "strongly_incompatible"
    assert sorted(calls) == ["joint_problem", "weak_problem"]


def test_weak_problem_has_only_the_devices_own_blocks():
    # free outcomes, and every outcome of a classical device; no channel block
    op = DEV["luders_px"]
    for d1, d2, names in (
        (op, DEV["half_sigma_x"], ["0:0", "1:0"]),
        (op, effect(PZ), ["0:0", "1:1", "1:0"]),
        (op, sharp_observable(PZ, PMZ), ["0:0", "1:+", "1:-"]),
        (DEV["luders_x_instrument"], op, ["1:0"]),
    ):
        assert [n for n, _ in cp.weak_problem(d1, d2).blocks] == names


def _weak_problem_with_channel_block(d1, d2) -> fs.FeasibilityProblem:
    """Reference formulation: the common channel as a block ``lam``, unless a
    device without free outcome stands for it; every other device's parts
    sum to it."""
    devices, targets = (d1, d2), (cp._parts(d1), cp._parts(d2))
    din, dout = cp._dims(d1, d2)
    quantum = dout is not None
    side = din * dout if quantum else din
    chan = next((i for i in (0, 1) if not cp._free(targets[i])), None)
    const = None
    if chan is None:
        blocks = ["lam"]
    elif cp._classical(devices[chan]):
        blocks = [cp._weak_name(chan, x) for x in targets[chan]]
    else:
        blocks, const = [], cp._sum(list(targets[chan].values()), side)
    lam_terms, cons = [(n, 1.0) for n in blocks], []
    for i in (0, 1):
        if i == chan:
            continue
        quantum_i = not cp._classical(devices[i])
        fixed = [t for t in targets[i].values() if t is not None and quantum_i]
        own = [cp._weak_name(i, x) for x, t in targets[i].items() if t is None or not quantum_i]
        blocks += own
        if const is None:
            terms = lam_terms + [(n, -1.0) for n in own]
            cons.append(fs.encode_sum_constraint(terms, cp._sum(fixed, side)))
        else:
            cons.append(fs.encode_sum_constraint(own, const - cp._sum(fixed, side)))
    if chan is None:
        cons.append(cp._row(["lam"], np.eye(din), quantum, (din, dout)))
    cons += [cp._row([cp._weak_name(i, x)], t, quantum, (din, dout))
             for i in (0, 1) if cp._classical(devices[i])
             for x, t in targets[i].items() if t is not None]
    return fs.FeasibilityProblem(tuple((n, side) for n in blocks), tuple(cons))


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
                assert isinstance(v.witness, cp.CompatWitness)


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
        assert od.commutes_with_range(phi, p)
        assert cp.classify(phi, p).relation == "compatible"
        # the same operation against a non-commuting projection is incompatible
        if np.linalg.norm(p.matrix @ PX - PX @ p.matrix) > 1e-2:
            assert not od.commutes_with_range(phi, effect(PX))
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
    assert dv.is_part_of(op1, v.witness.instrument, wtol)
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
    pairs = {"fast-path: commuting-effects": (*effects, 7, 1), "fast-path: comparable": (*ops, 6, 1)}
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
    every kind pair, with both outcomes where a path has two."""
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
    return [
        ("commuting-effects", e, f),
        ("sum-below-identity", effect(0.45 * PX), effect(0.45 * PZ)),
        ("projection-commutation", effect(PX), effect(0.9 * PZ)),
        ("trivial-observable", rand_effect(rng, 2), coin),
        ("trivial-observable", rand_observable(rng, 2, 3), effect(0.4 * I2)),
        ("commuting-observables", e, obs),
        ("trivial-observable", coin, rand_observable(rng, 2, 2)),
        ("commuting-observables", obs,
         _observable(_diag_in(u, [0.5, 0.1]), _diag_in(u, [0.5, 0.9]))),
        ("range-commutation", dv.luders(Effect(_diag_in(u, [1.0, 0.0]))), e),
        ("sum-below-identity", Effect(0.5 * rand_effect(rng, 2).matrix), small),
        ("projection-commutation", rand_cpmap(rng), effect(PX)),
        ("range-commutation", f,
         choi_from_kraus(KrausSet((_diag_in(u, [1, 0]), _diag_in(u, [0, 1]))))),
        ("projection-commutation", lam, effect(PX)),
        ("contraction-channel", dv.contraction_channel(rand_state(rng, 2)),
         rand_observable(rng, 2, 3)),
        ("trivial-observable", coin, lam),
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


def test_fast_paths_agree_with_engine_on_every_path():
    sample = _fast_path_sample()
    covered = {tuple(sorted(map(cp._kind, (d1, d2)), key=cp._ORDER.index)) for _, d1, d2 in sample}
    assert covered >= set(cp._JOINT_PATHS) | set(cp._WEAK_PATHS)
    for path, d1, d2 in sample:
        assert path in _both_routes(d1, d2).notes


def test_fast_paths_agree_with_engine_on_table1():
    for _, _, n1, n2 in TABLE1_CELLS:
        _both_routes(DEV[n1], DEV[n2])


def test_fast_paths_agree_with_engine_on_qutrit_tail():
    for d1, d2 in _qutrit_tail():
        _both_routes(d1, d2)
