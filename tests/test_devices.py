import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompat import devices as dv
from qcompat import matkit as mk
from qcompat import memo as mm
from qcompat.fixtures import (
    I2, PMX, PMZ, PX, PZ, SX, SY, SZ, builtin_devices, effect, luders_of, sharp_observable,
)

from conftest import (
    hermitian_basis,
    loose_pointer,
    rand_complex,
    rand_cpmap,
    rand_herm,
    rand_effect,
    rand_instrument,
    rand_observable,
    rand_state,
    state_prep_choi,
)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_effect_rejects_non_hermitian():
    with pytest.raises(mk.HermiticityError):
        dv.Effect(np.array([[0, 1], [0, 0]], dtype=complex))


def test_effect_rejects_out_of_bounds():
    with pytest.raises(dv.EffectBoundsError):
        dv.Effect(1.5 * np.eye(2))
    with pytest.raises(dv.EffectBoundsError):
        dv.Effect(-0.1 * np.eye(2))


def test_effect_accepts_degenerate():
    dv.Effect(np.zeros((2, 2)))
    dv.Effect(np.eye(3))


@pytest.mark.parametrize("build, error, message", [
    (lambda: dv.Effect(np.diag([1 + 5e-9, 0.2])), dv.EffectBoundsError,
     "effect eigenvalues [2.000e-01, 1 + 5.000e-09] outside [0, 1]"),
    (lambda: dv.CPMap(1, 1, [[1 + 5e-9]]), dv.TraceConditionError,
     "map increases trace: ||F_H(1)|| = 1 + 5.000e-09 > 1"),
    (lambda: dv.KrausSet((np.diag([1 + 5e-9, 0.5]),)), dv.TraceConditionError,
     "sum K^*K has eigenvalue 1 + 1.000e-08 > 1"),
], ids=["effect", "map", "kraus"])
def test_a_value_just_above_one_is_printed_as_its_excess(build, error, message):
    # to four significant digits, or to six decimals, 1 + 5e-9 reads as 1
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_summed_effect_keeps_the_tolerance():
    obs, loose = loose_pointer()
    assert obs.effect_of(["a"], loose).matrix[0, 0] == 1 + 5e-7
    with pytest.raises(dv.EffectBoundsError):
        obs.effect_of(["a"])


def test_a_repeated_label_is_rejected_not_counted_twice():
    # with weights 0.3 and 0.7, ["a", "a"] would read as 0.6 * 1, and as an
    # effect outside [0, 1] on a sharp pointer
    coin = dv.trivial_observable({"a": 0.3, "b": 0.7}, dim=2)
    with pytest.raises(dv.OutcomeError, match="repeated"):
        coin.effect_of(["a", "a"])
    sharp = dv.Observable(("+", "-"), {"+": effect(PZ), "-": effect(PMZ)})
    with pytest.raises(dv.OutcomeError, match="repeated"):
        sharp.effect_of(["+", "+"])
    ins = luders_x_instrument()
    with pytest.raises(dv.OutcomeError, match="repeated"):
        ins.branch_sum(["+", "+"])
    assert np.allclose(coin.effect_of(["a", "b"]).matrix, I2)


@pytest.mark.parametrize("build", [
    lambda: dv.Effect(np.zeros((0, 0))),
    lambda: dv.CPMap(1, 0, np.zeros((0, 0))),
    lambda: dv.CPMap(-1, -4, np.eye(4)),
    lambda: dv.CPMap(2.0, 2, np.eye(4)),
    lambda: dv.CPMap.from_stack(1, 0, np.zeros((1, 0, 0))),
    lambda: dv.CPMap.from_stack(-1, -4, np.eye(4)[None]),
    lambda: dv.Instrument.from_stack({"a": np.eye(4)}, -1, -4),
    lambda: dv.KrausSet((np.zeros((0, 0)),)),
], ids=["effect-0", "map-side-0", "map-negative-sides", "map-float-side",
        "map-stack-side-0", "map-stack-negative-sides", "instrument-negative-sides",
        "kraus-0"])
def test_empty_and_negative_sides_are_shape_errors(build):
    # these reached IndexError, or passed the shape check because
    # (-1)(-4) = 4, and failed later inside numpy
    with pytest.raises(mk.MatrixShapeError):
        build()


@pytest.mark.parametrize("build, error, match", [
    (lambda: dv.Observable((), {}), dv.OutcomeError, "at least one outcome"),
    (lambda: dv.Observable(("a", "a"), {"a": effect(I2)}), dv.OutcomeError, "duplicate"),
    (lambda: dv.Observable(("a", "b"), {"a": effect(I2), "b": dv.Effect(np.zeros((3, 3)))}),
     mk.MatrixShapeError, "one dimension"),
    (lambda: dv.CPMap(2, 2, np.eye(4) / 2, kind="unitary"), ValueError, "unknown map kind"),
    (lambda: dv.CPMap(2, 2, np.eye(2)), mk.MatrixShapeError, "Choi shape"),
    (lambda: dv.Instrument(("a", "b"), {"a": luders_of(I2), "b": dv.CPMap(2, 3, np.zeros((6, 6)))}),
     mk.MatrixShapeError, "share input/output"),
    (lambda: dv.Instrument((), {}), dv.OutcomeError, "at least one outcome"),
    (lambda: dv.Instrument(("a", "a"), {"a": luders_of(I2)}), dv.OutcomeError, "duplicate"),
    (lambda: dv.Instrument(("a",), {"b": luders_of(I2)}), dv.OutcomeError, "do not match"),
    (lambda: sharp_observable(PZ, PMZ).effect_of(["0"]), dv.OutcomeError, "unknown outcome"),
    (lambda: dv.KrausSet(()), ValueError, "empty Kraus set"),
    (lambda: dv.PointerMap({"a": "x"}, ("y",)), dv.OutcomeError, "not contained"),
    (lambda: dv.four_effect_decomposition(np.ones((2, 3))), mk.MatrixShapeError, "square"),
    (lambda: dv.trivial_observable({"a": 0.5, "b": 0.6}, 2), ValueError,
     "p must be a probability distribution"),
    (lambda: dv.instrument_parts(object()), dv.UnsupportedPairError,
     "unsupported device type object"),
    (lambda: dv.canonical_instrument(object()), dv.UnsupportedPairError,
     "unsupported device type object"),
], ids=["observable-no-outcomes", "observable-duplicate-labels", "observable-mixed-sides",
        "map-unknown-kind", "map-choi-shape", "instrument-mixed-sides", "instrument-no-outcomes",
        "instrument-duplicate-labels", "instrument-mismatched-labels", "effect-of-unknown",
        "kraus-empty", "pointer-outside-codomain", "four-effects-not-square",
        "trivial-observable-probs", "instrument-parts-type",
        "canonical-instrument-type"])
def test_validators_raise_what_their_docstrings_promise(build, error, match):
    with pytest.raises(error, match=match) as info:
        build()
    assert info.type is error


def test_observable_rejects_bad_sum():
    with pytest.raises(dv.NormalizationError):
        dv.Observable(("a", "b"), {"a": effect(PX), "b": effect(PX)})


def test_observable_label_mismatch():
    with pytest.raises(dv.OutcomeError):
        dv.Observable(("a", "b"), {"a": effect(PX), "c": effect(PMX)})


def test_cpmap_rejects_negative_choi():
    j = np.diag([1.0, -0.1, 0.5, 0.5])
    with pytest.raises(mk.PositivityError):
        dv.CPMap(2, 2, j)


def test_cpmap_rejects_trace_increasing():
    # rho -> 2 rho is CP but increases trace
    j = 2.0 * dv.choi_from_kraus(dv.KrausSet((I2,))).choi
    with pytest.raises(dv.TraceConditionError):
        dv.CPMap(2, 2, j)


def test_cpmap_channel_kind_requires_trace_preserving():
    half = dv.choi_from_kraus(dv.KrausSet((I2 / np.sqrt(2),)))
    with pytest.raises(dv.TraceConditionError):
        dv.CPMap(2, 2, half.choi, kind="channel")


def test_a_map_is_a_channel_exactly_when_it_preserves_trace():
    # the kind comes from validation, whatever the construction path or the declared kind
    rng = np.random.default_rng(16)
    ident = dv.kraus_choi([I2])
    channels = [ident, rand_cpmap(rng, channel=True).choi]
    operations = [rand_cpmap(rng).choi, (1 - 1e-7) * ident]
    for j, kind in [(j, "channel") for j in channels] + [(j, "operation") for j in operations]:
        for m in (dv.CPMap(2, 2, j), dv.CPMap.from_stack(2, 2, [j])[0]):
            assert m.kind == kind
            assert m.is_trace_preserving() is (kind == "channel")
    for j in operations:
        with pytest.raises(dv.TraceConditionError):
            dv.CPMap(2, 2, j, kind="channel")
    assert dv.choi_from_kraus(dv.KrausSet((I2,))).kind == "channel"
    for j in channels:
        for chois in ({"0": j}, {"0": 0.5 * j, "1": 0.5 * j}):
            branch = "channel" if len(chois) == 1 else "operation"
            maps = {x: dv.CPMap(2, 2, c) for x, c in chois.items()}
            for ins in (dv.Instrument(tuple(chois), maps),
                        dv.Instrument.from_stack(chois, 2, 2)):
                assert [ins.branches[x].kind for x in ins.outcomes] == [branch] * len(chois)
                assert dv.total_channel(ins).kind == "channel"
                assert ins.branch_sum(ins.outcomes).kind == "channel"
    # a map 1e-7 short of preserving trace is a channel when validated at eq_tol 1e-6,
    # and keeps that kind when asked again at a tighter tolerance
    loose = mk.Tolerances(eq_tol=1e-6, psd_tol=1e-6, feas_tol=1e-5)
    near = dv.CPMap(2, 2, (1 - 1e-7) * ident, tol=loose)
    assert near.kind == "channel" and near.is_trace_preserving(loose)
    assert not near.is_trace_preserving()


def test_instrument_total_must_be_channel():
    quarter = dv.choi_from_kraus(dv.KrausSet((I2 / 2,)))
    with pytest.raises(dv.NormalizationError):
        dv.Instrument(("0", "1"), {"0": quarter, "1": quarter})
    # a branch next to a whole channel: the sum increases the trace
    ident = dv.choi_from_kraus(dv.KrausSet((I2,)))
    with pytest.raises(dv.NormalizationError):
        dv.Instrument(("0", "1"), {"0": quarter, "1": ident})


def test_kraus_set_rejects_unnormalizable():
    with pytest.raises(dv.TraceConditionError):
        dv.KrausSet((2.0 * I2,))


def test_heisenberg_unit_is_kept_read_only():
    rng = np.random.default_rng(11)
    for din, dout in ((2, 2), (2, 3), (3, 1)):
        m = rand_cpmap(rng, din, dout, n_ops=2)
        hu = m.heisenberg_unit()
        assert hu is m.heisenberg_unit()
        assert np.array_equal(hu, dv.apply_h(m, np.eye(dout)))
        with pytest.raises(ValueError):
            hu[0, 0] = 0.0


def test_total_channel_is_the_branch_sum_at_any_tolerance():
    rng = np.random.default_rng(12)
    ins = rand_instrument(rng, n_out=3)
    want = sum(ins.branches[x].choi for x in ins.outcomes)
    own = dv.total_channel(ins)
    assert own is dv.total_channel(ins, mk.Tolerances())
    loose = mk.Tolerances(eq_tol=1e-6, psd_tol=1e-6, feas_tol=1e-5)
    other = dv.total_channel(ins, loose)
    assert other is not own
    for lam in (own, other):
        assert lam.kind == "channel"
        assert np.array_equal(lam.choi, want)


def _bad_choi(case: str) -> np.ndarray:
    j = 0.25 * np.eye(4, dtype=complex)  # the map rho -> tr(rho) 1/2, with unit 1/2
    if case == "nan":
        j[1, 2] = np.nan
    elif case == "non-hermitian":
        j[0, 1] = 0.1
    elif case == "negative-eigenvalue":
        v = np.array([1.0, 1j, 0.0, 1.0]) / np.sqrt(3.0)
        j = j - (0.25 + 1e-6) * np.outer(v, v.conj())
    elif case == "trace-increasing":
        j = 2.5 * j
    return j


def _raised(build) -> type:
    with pytest.raises(ValueError) as info:
        build()
    return type(info.value)


@pytest.mark.parametrize("case, error", [
    ("nan", ValueError),
    ("non-hermitian", mk.HermiticityError),
    ("negative-eigenvalue", mk.PositivityError),
    ("trace-increasing", dv.TraceConditionError),
])
def test_stacked_maps_reject_what_one_map_rejects(case, error):
    rng = np.random.default_rng(13)
    good = [rand_cpmap(rng, 2, 2, n_ops=2).choi / 3 for _ in range(3)]
    bad = _bad_choi(case)
    labels = ("a", "b", "c", "d")
    assert _raised(lambda: dv.CPMap(2, 2, bad)) is error
    assert _raised(lambda: dv.CPMap.from_stack(2, 2, good + [bad])) is error
    chois = dict(zip(labels, good + [bad]))
    assert _raised(lambda: dv.Instrument.from_stack(chois, 2, 2)) is error


@pytest.mark.parametrize("case, error", [
    ("nan", ValueError),
    ("non-hermitian", mk.HermiticityError),
    ("above-one", dv.EffectBoundsError),
    ("below-zero", dv.EffectBoundsError),
])
def test_an_effect_rejects_each_fault_with_its_error(case, error):
    bad = {"nan": np.array([[0.5, np.nan], [np.nan, 0.5]]),
           "non-hermitian": np.array([[0.5, 0.1], [0.0, 0.5]]),
           "above-one": np.diag([1.1, 0.2]),
           "below-zero": np.diag([0.3, -1e-6])}[case]
    assert _raised(lambda: dv.Effect(bad)) is error


def test_both_instrument_constructors_reject_a_branch_whose_unit_is_not_an_effect():
    # Choi eigenvalue -8e-6 on both output levels, within psd_tol; the unit's
    # eigenvalue -1.6e-5 is not
    from qcompat.compat import witness_tolerances

    wtol = witness_tolerances(mk.DEFAULT_TOL)
    d = 8e-6 * np.kron(PMX.T, I2)
    chois = {"+": luders_of(PX).choi - d, "-": luders_of(PMX).choi, "r": d}
    with pytest.raises(dv.EffectBoundsError):
        dv.Instrument(tuple(chois), {x: dv.CPMap(2, 2, j, tol=wtol) for x, j in chois.items()},
                      tol=wtol)
    with pytest.raises(dv.EffectBoundsError):
        dv.Instrument.from_stack(chois, 2, 2, wtol)


def test_stacked_instrument_rejects_a_total_that_is_not_a_channel():
    quarter = dv.choi_from_kraus(dv.KrausSet((I2 / 2,))).choi
    ident = dv.choi_from_kraus(dv.KrausSet((I2,))).choi
    for chois in ([quarter] * 3, [quarter, ident]):
        labels = tuple(str(i) for i in range(len(chois)))
        maps = {x: dv.CPMap(2, 2, j) for x, j in zip(labels, chois)}
        assert _raised(lambda: dv.Instrument(labels, maps)) is dv.NormalizationError
        assert _raised(lambda: dv.Instrument.from_stack(dict(zip(labels, chois)), 2, 2)) \
            is dv.NormalizationError


def test_stacked_constructors_match_one_by_one_bit_for_bit():
    rng = np.random.default_rng(15)
    for din, dout in ((2, 2), (2, 3), (3, 2)):
        ins = rand_instrument(rng, din, dout, n_out=3, ops_per_branch=2)
        # raw Choi matrices that are Hermitian only within eq_tol
        raw = {x: ins.branches[x].choi + 1e-13 * rand_complex(rng, din * dout)
               for x in ins.outcomes}
        one = dv.Instrument(ins.outcomes, {x: dv.CPMap(din, dout, j) for x, j in raw.items()})
        stacked = dv.Instrument.from_stack(raw, din, dout)
        maps = dv.CPMap.from_stack(din, dout, list(raw.values()))
        for x, m in zip(ins.outcomes, maps):
            want = one.branches[x]
            for got in (stacked.branches[x], m):
                assert got.kind == want.kind == "operation"
                assert got.choi.tobytes() == want.choi.tobytes()
                assert got.heisenberg_unit().tobytes() == want.heisenberg_unit().tobytes()
        totals = [dv.total_channel(i) for i in (one, stacked)]
        assert totals[0].kind == totals[1].kind == "channel"
        assert totals[0].choi.tobytes() == totals[1].choi.tobytes()
        assert totals[0].heisenberg_unit().tobytes() == totals[1].heisenberg_unit().tobytes()
        label_sets = [("0",), ("0", "2"), (), ins.outcomes]
        for labels in label_sets:
            got = ins.branch_sum(labels)
            j = np.zeros((din * dout, din * dout), dtype=complex)
            for x in labels:
                j = j + ins.branches[x].choi
            want = dv.CPMap(din, dout, j)
            assert got.kind == ("channel" if len(labels) == 3 else "operation")
            assert got.choi.tobytes() == want.choi.tobytes()
            assert got.heisenberg_unit().tobytes() == want.heisenberg_unit().tobytes()
        for got, chois in _derived_instruments(rng, ins):
            _assert_built_branch_by_branch(got, chois)


def _derived_instruments(rng, ins):
    """Instruments that relabel, canonical_instrument and model_instrument build, each
    with the raw Choi matrices that the branch-by-branch construction would validate."""
    din, dout = ins.dim_in, ins.dim_out
    side = din * dout
    # "9" is not an outcome, and "c" has no preimage
    f = dv.PointerMap({"0": "a", "1": "b", "2": "a", "9": "b"}, codomain=("a", "b", "c"))
    coarse = {}
    for y in f.codomain:
        j = np.zeros((side, side), dtype=complex)
        for x in f.preimage(y):
            if x in ins.branches:
                j = j + ins.branches[x].choi
        coarse[y] = j
    yield dv.relabel(ins, f), coarse
    rho0 = np.eye(din) / din
    e = rand_effect(rng, din)
    yield dv.canonical_instrument(e), {"1": state_prep_choi(e.matrix, rho0),
                                       "0": state_prep_choi(np.eye(din) - e.matrix, rho0)}
    obs = rand_observable(rng, din, 3)
    yield dv.canonical_instrument(obs), {x: state_prep_choi(obs.effects[x].matrix, rho0)
                                         for x in obs.outcomes}
    lam = dv.total_channel(ins)
    probs = {"a": 0.25, "b": 0.75}
    yield dv.canonical_instrument(lam, probs=probs), {x: p * lam.choi for x, p in probs.items()}
    model = mm.synthesize_model(ins)
    g = dv.PointerMap({x: "even" if int(x) % 2 == 0 else "odd" for x in model.pointer.outcomes})
    effs = [model.pointer.effect_of(g.preimage(y)).matrix for y in g.codomain]
    yield mm.model_instrument(model, g), dict(zip(g.codomain, mm._model_chois(model, effs)))


def _assert_built_branch_by_branch(got, chois):
    din, dout = got.dim_in, got.dim_out
    want = dv.Instrument(tuple(chois), {x: dv.CPMap(din, dout, j) for x, j in chois.items()})
    assert got.outcomes == want.outcomes
    pairs = [(got.branches[x], want.branches[x]) for x in want.outcomes]
    pairs.append((dv.total_channel(got), dv.total_channel(want)))
    for g, w in pairs:
        assert (g.dim_in, g.dim_out, g.kind) == (w.dim_in, w.dim_out, w.kind)
        assert g.choi.tobytes() == w.choi.tobytes()
        assert g.heisenberg_unit().tobytes() == w.heisenberg_unit().tobytes()


def _validated_matrices(device) -> list:
    """What validation hands out for a device: its effects, or its maps' Choi
    matrices and units (an instrument's branches and its total), and then every
    :func:`devices.instrument_parts` target."""
    if isinstance(device, dv.Effect):
        mats = [device.matrix]
    elif isinstance(device, dv.Observable):
        mats = [e.matrix for e in device.effects.values()]
    else:
        maps = [device] if isinstance(device, dv.CPMap) else \
            [*device.branches.values(), dv.total_channel(device)]
        mats = [m for f in maps for m in (f.choi, f.heisenberg_unit())]
    return mats + list(dv.instrument_parts(device).targets.values())


def test_validated_matrices_are_exactly_hermitian():
    # the invariant that lets sums and differences of validated matrices skip
    # hermitian_part: every matrix validation hands out is Hermitian entry for
    # entry, also when its raw input was Hermitian only within eq_tol
    rng = np.random.default_rng(16)
    builtin = list(builtin_devices().values())
    devices = builtin + [dv.canonical_instrument(d) for d in builtin]
    for d in (2, 3, 2, 3, 2, 3):
        ins = rand_instrument(rng, d, d, n_out=3, ops_per_branch=2)
        devices += [rand_effect(rng, d), rand_observable(rng, d, 3), rand_cpmap(rng, d, d),
                    rand_cpmap(rng, d, d, channel=True), rand_cpmap(rng, d, 5 - d), ins]
        devices += [got for got, _ in _derived_instruments(rng, ins)]
        raw = {x: ins.branches[x].choi + 1e-13 * rand_complex(rng, d * d) for x in ins.outcomes}
        devices += [dv.Instrument(ins.outcomes, {x: dv.CPMap(d, d, j) for x, j in raw.items()}),
                    dv.Instrument.from_stack(raw, d, d)]
    mats = [m for device in devices for m in _validated_matrices(device)]
    assert len(mats) > 700
    for m in mats:
        assert np.array_equal(m, m.conj().T)


# ---------------------------------------------------------------------------
# Choi / Kraus conversions
# ---------------------------------------------------------------------------


def test_identity_channel_choi():
    m = dv.choi_from_kraus(dv.KrausSet((I2,)))
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            eij = np.zeros((2, 2), dtype=complex)
            eij[i, j] = 1
            expected += np.kron(eij, eij)
    assert np.allclose(m.choi, expected)
    assert m.kind == "channel"
    assert np.trace(m.choi) == pytest.approx(2.0)


def test_choi_of_luders_px_matches_conjugation():
    m = dv.choi_from_kraus(dv.KrausSet((PX,)))
    rng = np.random.default_rng(2)
    for _ in range(5):
        rho = rand_herm(rng, 2)
        assert np.allclose(dv.apply_s(m, rho), PX @ rho @ PX)
    assert m.kind == "operation"


def test_kraus_choi_roundtrip_action():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = rand_cpmap(rng, 2, 2, n_ops=2)
        back = dv.choi_from_kraus(dv.kraus_from_choi(m))
        for b in hermitian_basis(2):
            assert np.linalg.norm(dv.apply_s(m, b) - dv.apply_s(back, b)) <= 1e-9


def test_kraus_from_identity_channel_is_unitary():
    ks = dv.kraus_from_choi(dv.choi_from_kraus(dv.KrausSet((I2,))))
    assert len(ks.ops) == 1
    k = ks.ops[0]
    assert np.allclose(k.conj().T @ k, I2)


def test_kraus_of_contraction_channel():
    # rho -> tr(rho)|0><0| has two rank-1 Kraus operators; check by action
    eta = np.diag([1.0, 0.0]).astype(complex)
    m = dv.contraction_channel(eta)
    ks = dv.kraus_from_choi(m)
    assert len(ks.ops) == 2
    for b in hermitian_basis(2):
        expected = np.trace(b) * eta
        got = sum(k @ b @ k.conj().T for k in ks.ops)
        assert np.linalg.norm(got - expected) <= 1e-10


def test_kraus_of_luders_pz_single_operator():
    ks = dv.kraus_from_choi(luders_of(PZ))
    assert len(ks.ops) == 1
    phase = ks.ops[0][0, 0]
    assert np.allclose(ks.ops[0], phase * PZ)
    assert abs(abs(phase) - 1.0) < 1e-12


def test_kraus_lists_match_kraus_from_choi_bit_for_bit():
    rng = np.random.default_rng(14)
    maps = [rand_cpmap(rng, 2, 3, n_ops=k) for k in (1, 2, 3)]
    maps.append(dv.CPMap(2, 3, np.zeros((6, 6))))
    lists = dv.kraus_lists(maps)
    for m, ops in zip(maps, lists):
        single = dv.kraus_from_choi(m).ops
        assert len(ops) == len(single)
        assert all(np.array_equal(a, b) for a, b in zip(ops, single))


def test_kraus_lists_check_the_trace_condition():
    # valid at a loose tolerance, a trace increase of 1e-7 at the default one
    loose = mk.Tolerances(eq_tol=1e-6, psd_tol=1e-6)
    ident = dv.choi_from_kraus(dv.KrausSet((I2,))).choi
    big = dv.CPMap(2, 2, (1 + 1e-7) * ident, tol=loose)
    assert len(dv.kraus_lists([luders_of(PZ), big], loose)) == 2
    with pytest.raises(dv.TraceConditionError):
        dv.kraus_lists([luders_of(PZ), big])


def test_kraus_from_choi_checks_the_trace_condition_once(monkeypatch):
    loose = mk.Tolerances(eq_tol=1e-6, psd_tol=1e-6)
    ident = dv.choi_from_kraus(dv.KrausSet((I2,))).choi
    big = dv.CPMap(2, 2, (1 + 1e-7) * ident, tol=loose)
    checks = []
    check = dv._check_trace_condition
    monkeypatch.setattr(dv, "_check_trace_condition", lambda *a: checks.append(1) or check(*a))
    ks = dv.kraus_from_choi(big, loose)
    assert checks == [1]
    assert not any(k.flags.writeable for k in ks.ops)
    with pytest.raises(dv.TraceConditionError):
        dv.kraus_from_choi(big)


def test_kraus_helpers_take_plain_lists_and_no_maps():
    ops = [PX, PMX]
    m = dv.choi_from_kraus(ops)
    assert np.array_equal(m.choi, dv.choi_from_kraus(dv.KrausSet(tuple(ops))).choi)
    assert m.kind == "channel"
    with pytest.raises(dv.TraceConditionError):
        dv.choi_from_kraus([I2, PX])
    assert dv.kraus_lists([]) == []


def test_kraus_choi_adds_outer_products_in_order():
    rng = np.random.default_rng(15)
    ops = np.array([rand_complex(rng, 3, 2) for _ in range(4)])
    want = np.zeros((6, 6), dtype=complex)
    for k in ops:
        v = k.T.reshape(-1)
        want += np.outer(v, v.conj())
    assert np.array_equal(dv.kraus_choi(ops), want)
    assert np.array_equal(dv.kraus_choi(ops[:0]), np.zeros((6, 6)))


# ---------------------------------------------------------------------------
# application and duality
# ---------------------------------------------------------------------------


def test_apply_h_unital_for_channels():
    rng = np.random.default_rng(6)
    for _ in range(5):
        lam = rand_cpmap(rng, 2, 2, n_ops=3, channel=True)
        assert np.allclose(dv.apply_h(lam, I2), I2)


def test_apply_s_luders_px_on_pz():
    # hand multiplication: Px Pz Px = <x+|Pz|x+> Px = Px/2
    got = dv.apply_s(luders_of(PX), PZ)
    assert np.allclose(got, PX / 2)


def test_schrodinger_heisenberg_duality():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = rand_cpmap(rng, 2, 3, n_ops=2)
        rho = rand_herm(rng, 2)
        t = rand_herm(rng, 3)
        lhs = np.trace(dv.apply_s(m, rho) @ t)
        rhs = np.trace(rho @ dv.apply_h(m, t))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_apply_dim_mismatch():
    m = luders_of(PX)
    with pytest.raises(mk.MatrixShapeError):
        dv.apply_s(m, np.eye(3))
    with pytest.raises(mk.MatrixShapeError):
        dv.apply_h(m, np.eye(3))


# ---------------------------------------------------------------------------
# four-effect decomposition
# ---------------------------------------------------------------------------


def test_four_effect_identity():
    coeffs, effects = dv.four_effect_decomposition(I2)
    resum = sum(c * e.matrix for c, e in zip(coeffs, effects))
    assert np.allclose(resum, I2)
    assert any(np.allclose(e.matrix, I2) for e in effects)


def test_four_effect_complex_input():
    t = SX + 1j * SY
    coeffs, effects = dv.four_effect_decomposition(t)
    resum = sum(c * e.matrix for c, e in zip(coeffs, effects))
    assert np.linalg.norm(resum - t) <= 1e-12


def test_four_effect_on_effect_input():
    coeffs, effects = dv.four_effect_decomposition(PX)
    resum = sum(c * e.matrix for c, e in zip(coeffs, effects))
    assert np.allclose(resum, PX)


def test_four_effect_random_resum():
    rng = np.random.default_rng(10)
    for _ in range(20):
        t = rand_complex(rng, 3)
        coeffs, effects = dv.four_effect_decomposition(t)
        resum = sum(c * e.matrix for c, e in zip(coeffs, effects))
        assert np.linalg.norm(resum - t) <= 1e-10 * (1 + np.linalg.norm(t))


# ---------------------------------------------------------------------------
# parts of instruments
# ---------------------------------------------------------------------------


def luders_x_instrument():
    return dv.Instrument(("+", "-"), {"+": luders_of(PX), "-": luders_of(PMX)})


def test_total_channel_of_luders_x_instrument():
    # the branch sum acts as rho/2 + sx rho sx/2
    lam = dv.total_channel(luders_x_instrument())
    rng = np.random.default_rng(12)
    rho = rand_state(rng, 2)
    expected = rho / 2 + SX @ rho @ SX / 2
    assert np.allclose(dv.apply_s(lam, rho), expected)
    assert lam.kind == "channel"


def test_relabel_constant_collapses_to_total():
    ins = luders_x_instrument()
    const = dv.PointerMap({"+": "all", "-": "all"})
    out = dv.relabel(ins, const)
    assert out.outcomes == ("all",)
    assert np.allclose(out.branches["all"].choi, dv.total_channel(ins).choi)


def test_relabel_requires_total_map():
    ins = luders_x_instrument()
    with pytest.raises(dv.OutcomeError):
        dv.relabel(ins, dv.PointerMap({"+": "a"}))


@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d", "e"]),
        st.sampled_from(["x", "y", "z"]),
        min_size=1,
    )
)
@settings(max_examples=60, deadline=None)
def test_pointer_map_preimages_partition_domain(mapping):
    f = dv.PointerMap(mapping)
    seen = []
    for y in f.codomain:
        seen.extend(f.preimage(y))
    assert sorted(seen) == sorted(mapping)
    assert set(f.codomain) >= set(mapping.values())
    f.check_total(mapping.keys())
    with pytest.raises(dv.OutcomeError):
        f.check_total(list(mapping.keys()) + ["missing-label"])


def test_induced_observable_of_measure_and_prepare():
    rng = np.random.default_rng(14)
    from conftest import rand_observable

    a = rand_observable(rng, 2, 3)
    ins = dv.canonical_instrument(a, anchor_state=rand_state(rng, 2))
    got = dv.induced_observable(ins)
    for x in a.outcomes:
        assert np.allclose(got.effects[x].matrix, a.effects[x].matrix)


def test_instrument_part_effect_and_op():
    ins = luders_x_instrument()
    e = dv.instrument_part_effect(ins, ("+",))
    assert np.allclose(e.matrix, PX)
    op = dv.instrument_part_op(ins, ("+",))
    assert np.allclose(op.choi, luders_of(PX).choi)
    empty = dv.instrument_part_op(ins, ())
    assert np.allclose(empty.choi, 0)


def test_null_operation_is_part_of_anything():
    null = dv.CPMap(2, 2, np.zeros((4, 4)))
    assert dv.is_part_of(null, luders_x_instrument())


def test_channel_part_requires_total_match():
    ins = luders_x_instrument()
    contraction = dv.contraction_channel(PZ)
    assert not dv.is_part_of(contraction, ins)
    assert dv.is_part_of(dv.total_channel(ins), ins)


def test_channel_part_keeps_the_instrument_tolerance():
    # a total that is a channel only at the witness scale, as engine witnesses are
    from qcompat.compat import witness_tolerances

    wtol = witness_tolerances(mk.DEFAULT_TOL)
    branches = {"+": dv.CPMap(2, 2, luders_of(PX).choi, tol=wtol),
                "-": dv.CPMap(2, 2, (1 + 3e-8) * luders_of(PMX).choi, tol=wtol)}
    ins = dv.Instrument(("+", "-"), branches, tol=wtol)
    x_dephasing = dv.choi_from_kraus(dv.KrausSet((PX, PMX)))
    assert dv.is_part_of(x_dephasing, ins, wtol)


def test_effect_part_subset_search():
    ins = luders_x_instrument()
    assert dv.is_part_of(effect(PX), ins)
    assert dv.is_part_of(effect(I2), ins)
    assert dv.is_part_of(effect(np.zeros((2, 2))), ins)
    assert not dv.is_part_of(effect(PZ), ins)


def test_observable_part_identity_pointer():
    ins = luders_x_instrument()
    sharp_x = dv.induced_observable(ins)
    assert dv.is_part_of(sharp_x, ins)
    sharp_z = dv.Observable(("+", "-"), {"+": effect(PZ), "-": effect(PMZ)})
    assert not dv.is_part_of(sharp_z, ins)


def test_instrument_part_via_pointer():
    rng = np.random.default_rng(16)
    ins = rand_instrument(rng, n_out=4)
    f = dv.PointerMap({"0": "a", "1": "a", "2": "b", "3": "b"})
    coarse = dv.relabel(ins, f)
    assert dv.is_part_of(coarse, ins)
    assert dv.is_part_of(ins, ins)


def test_part_search_bound():
    branches = {str(i): dv.CPMap(1, 1, np.array([[1 / 13]])) for i in range(13)}
    ins = dv.Instrument(tuple(str(i) for i in range(13)), branches)
    with pytest.raises(dv.OutcomeBoundError):
        dv.is_part_of(dv.Effect(np.array([[0.5]])), ins)


def _subset_iter(outcomes):
    for r in range(len(outcomes) + 1):
        yield from itertools.combinations(outcomes, r)


def _check_part_bound(ins):
    if len(ins.outcomes) > dv.PART_SEARCH_LIMIT:
        raise dv.OutcomeBoundError(f"outcome set of size {len(ins.outcomes)}")


def _pointer_assignments(ins, targets, summand, tol):
    labels = list(targets)
    src = list(ins.outcomes)
    sums = {y: np.zeros_like(next(iter(targets.values()))) for y in labels}
    scale = 1.0 + max(mk.frob_norm(t) for t in targets.values())

    def feasible(y):
        gap = targets[y] - sums[y]
        return float(np.linalg.eigvalsh(mk.hermitian_part(gap))[0]) >= -tol.psd_tol * scale

    def rec(k):
        if k == len(src):
            if all(mk.close(targets[y], sums[y], tol) for y in labels):
                yield {src[i]: assignment[i] for i in range(len(src))}
            return
        for y in labels:
            sums[y] = sums[y] + summand(src[k])
            assignment.append(y)
            if feasible(y):
                yield from rec(k + 1)
            assignment.pop()
            sums[y] = sums[y] - summand(src[k])

    assignment = []
    yield from rec(0)


def reference_is_part_of(device, ins, tol=mk.DEFAULT_TOL):
    """The part-of relation kind by kind: subsets of outcomes for effects and
    operations, the total for channels, pointer functions for observables and
    instruments."""
    if isinstance(device, dv.Effect):
        _check_part_bound(ins)
        per = {x: ins.branches[x].heisenberg_unit() for x in ins.outcomes}
        for subset in _subset_iter(ins.outcomes):
            s = sum((per[x] for x in subset), np.zeros((ins.dim_in, ins.dim_in), dtype=complex))
            if mk.close(device.matrix, s, tol):
                return True
        return False
    if isinstance(device, dv.CPMap):
        if device.kind == "channel":
            return mk.close(device.choi, dv.total_channel(ins, tol).choi, tol)
        _check_part_bound(ins)
        side = ins.dim_in * ins.dim_out
        for subset in _subset_iter(ins.outcomes):
            s = sum((ins.branches[x].choi for x in subset), np.zeros((side, side), dtype=complex))
            if mk.close(device.choi, s, tol):
                return True
        return False
    _check_part_bound(ins)
    if isinstance(device, dv.Observable):
        per = {x: ins.branches[x].heisenberg_unit() for x in ins.outcomes}
        targets = {y: device.effects[y].matrix for y in device.outcomes}
        return next(_pointer_assignments(ins, targets, lambda x: per[x], tol), None) is not None
    targets = {y: device.branches[y].choi for y in device.outcomes}
    return next(
        _pointer_assignments(ins, targets, lambda x: ins.branches[x].choi, tol), None
    ) is not None


def _drawn_part(rng, ins, kind, eps):
    """A device of the given kind carved from the instrument by a random subset or
    pointer, then mixed with weight eps into a random device of the same kind."""
    labels = ins.outcomes
    subset = tuple(x for x in labels if rng.random() < 0.5)
    m = int(rng.integers(1, len(labels) + 1))
    pointer = dv.PointerMap({x: str(rng.integers(m)) for x in labels},
                            codomain=tuple(str(i) for i in range(m)))
    if kind == "effect":
        e = dv.instrument_part_effect(ins, subset).matrix
        return dv.Effect((1 - eps) * e + eps * rand_effect(rng, 2).matrix)
    if kind in ("operation", "channel"):
        chan = kind == "channel"
        j = dv.total_channel(ins).choi if chan else ins.branch_sum(subset).choi
        other = rand_cpmap(rng, channel=chan).choi
        return dv.CPMap(2, 2, (1 - eps) * j + eps * other, kind=kind)
    coarse = dv.relabel(ins, pointer)
    if kind == "observable":
        obs, other = dv.induced_observable(coarse), rand_observable(rng, 2, m)
        return dv.Observable(obs.outcomes, {
            y: dv.Effect((1 - eps) * obs.effects[y].matrix + eps * other.effects[y].matrix)
            for y in obs.outcomes})
    other = rand_instrument(rng, n_out=m)
    return dv.Instrument(coarse.outcomes, {
        y: dv.CPMap(2, 2, (1 - eps) * coarse.branches[y].choi + eps * other.branches[y].choi)
        for y in coarse.outcomes})


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_out=st.integers(2, 6),
    kind=st.sampled_from(["effect", "observable", "operation", "channel", "instrument"]),
    eps=st.sampled_from([0.0, 1e-11, 1e-10, 1e-9, 2e-9, 3e-9, 1e-8, 1e-3]),
)
def test_is_part_of_agrees_with_the_kind_by_kind_reference(seed, n_out, kind, eps):
    rng = np.random.default_rng(seed)
    ins = rand_instrument(rng, n_out=n_out)
    device = _drawn_part(rng, ins, kind, eps)
    assert dv.is_part_of(device, ins) == reference_is_part_of(device, ins)


def test_part_search_keeps_parts_within_eq_tol():
    # the prune must not cut an assignment that the final eq_tol check accepts
    tol = mk.Tolerances(eq_tol=1e-6, psd_tol=1e-9)
    ins = luders_x_instrument()
    e = dv.Effect((1 - 1e-7) * PX)
    obs = dv.Observable(("+", "-"), {"+": e, "-": dv.Effect(PMX + 1e-7 * PX)})
    assert dv.is_part_of(e, ins, tol) and reference_is_part_of(e, ins, tol)
    assert dv.is_part_of(obs, ins, tol)


def test_part_of_checks_the_spaces():
    ins = luders_x_instrument()
    wide = rand_cpmap(np.random.default_rng(31), 2, 3)
    narrow = dv.Instrument(("0",), {"0": rand_cpmap(np.random.default_rng(32), 3, 2, channel=True)})
    for device, other in ((effect(np.eye(3) / 2), ins), (wide, ins), (wide, narrow)):
        with pytest.raises(mk.MatrixShapeError):
            dv.is_part_of(device, other)


def test_channel_readings_need_no_outcome_bound():
    # a trace-preserving map is a channel, declared so or not, and is compared with
    # the total, whatever the number of outcomes
    rng = np.random.default_rng(30)
    ins = rand_instrument(rng, n_out=dv.PART_SEARCH_LIMIT + 1)
    total = dv.total_channel(ins)
    other = rand_cpmap(rng, channel=True)
    for choi, want in ((total.choi, True), (other.choi, False)):
        for kind in ("channel", "operation"):
            device = dv.CPMap(2, 2, choi, kind=kind)
            assert dv.is_part_of(device, ins) is want
            assert reference_is_part_of(device, ins) is want
    with pytest.raises(dv.OutcomeBoundError):
        dv.is_part_of(dv.CPMap(2, 2, ins.branches["0"].choi), ins)


# ---------------------------------------------------------------------------
# canonical constructions
# ---------------------------------------------------------------------------


def test_canonical_instrument_effect():
    ins = dv.canonical_instrument(effect(PX), anchor_state=I2 / 2)
    assert np.allclose(dv.instrument_part_effect(ins, ("1",)).matrix, PX)
    assert dv.is_part_of(effect(PX), ins)


def test_canonical_instrument_channel_single_branch():
    rng = np.random.default_rng(18)
    lam = rand_cpmap(rng, 2, 2, channel=True)
    ins = dv.canonical_instrument(lam, probs={"0": 1.0})
    assert np.allclose(ins.branches["0"].choi, lam.choi)
    assert dv.is_part_of(lam, ins)


def test_canonical_instrument_operation_completion_branch():
    ins = dv.canonical_instrument(luders_of(PX), anchor_state=PZ)
    got = dv.instrument_part_effect(ins, ("0",)).matrix
    assert np.allclose(got, I2 - PX)
    assert dv.is_part_of(luders_of(PX), ins)


@pytest.mark.parametrize("din, dout", [(2, 2), (2, 3), (2, 1), (1, 2)])
def test_canonical_instrument_holds_the_device_as_outcome_1(din, dout):
    # every kind: an effect's, an operation's or a channel's part is outcome
    # "1" (the rest of the unit "0"), an observable's and an instrument's
    # outcomes are their own
    rng = np.random.default_rng([21, din, dout])
    devices = (rand_effect(rng, din), rand_observable(rng, din, 3), rand_cpmap(rng, din, dout),
               rand_cpmap(rng, din, dout, channel=True), rand_instrument(rng, din, dout, n_out=3))
    assert [dv.instrument_parts(d).kind for d in devices] == [
        "effect", "observable", "operation", "channel", "instrument"]
    for device in devices:
        ins = dv.canonical_instrument(device)
        assert dv.is_part_of(device, ins)
        if isinstance(device, dv.Effect):
            assert ins.outcomes == ("1", "0")
            got = dv.instrument_part_effect(ins, ("1",)).matrix
            assert np.allclose(got, device.matrix, atol=1e-12)
            rest = dv.instrument_part_effect(ins, ("0",)).matrix
            assert np.allclose(rest, np.eye(din) - device.matrix, atol=1e-12)
        elif isinstance(device, dv.Observable):
            assert ins.outcomes == device.outcomes
            for x in device.outcomes:
                got = dv.instrument_part_effect(ins, (x,)).matrix
                assert np.allclose(got, device.effects[x].matrix, atol=1e-12)
        elif isinstance(device, dv.Instrument):
            assert ins.outcomes == device.outcomes
            for x in device.outcomes:
                assert ins.branch_sum((x,)).choi.tobytes() == device.branches[x].choi.tobytes()
        else:
            assert ins.outcomes == (("1",) if device.kind == "channel" else ("1", "0"))
            assert ins.branch_sum(("1",)).choi.tobytes() == device.choi.tobytes()
            if device.kind == "operation":
                rest = dv.instrument_part_effect(ins, ("0",)).matrix
                assert np.allclose(rest, np.eye(din) - device.heisenberg_unit(), atol=1e-12)


def test_canonical_instrument_many_anchors():
    # the same device embeds for every anchor state choice
    rng = np.random.default_rng(20)
    dev_effect = effect(PX)
    dev_op = luders_of(PZ)
    for _ in range(10):
        rho0 = rand_state(rng, 2)
        assert dv.is_part_of(dev_effect, dv.canonical_instrument(dev_effect, anchor_state=rho0))
        assert dv.is_part_of(dev_op, dv.canonical_instrument(dev_op, anchor_state=rho0))


def test_canonical_constructions_keep_the_tolerance():
    loose = mk.Tolerances(psd_tol=1e-6)
    e = dv.Effect(np.diag([1 + 5e-7, 0.3]), loose)
    obs = dv.Observable(("a", "b"), {"a": e, "b": dv.Effect(I2 - e.matrix, loose)}, loose)
    for device in (e, obs):
        assert dv.is_part_of(device, dv.canonical_instrument(device, tol=loose), loose)
    lam = dv.contraction_channel(np.diag([1 + 5e-7, -5e-7]), tol=loose)
    assert lam.kind == "channel"


def test_canonical_instrument_rejects_bad_state():
    with pytest.raises(ValueError):
        dv.canonical_instrument(effect(PX), anchor_state=2 * I2)


@pytest.mark.parametrize("rho, error", [
    (np.ones((2, 3)) / 2, mk.MatrixShapeError),
    (np.array([[0.5, 0.5], [0.0, 0.5]]), mk.HermiticityError),
    (np.diag([1.5, -0.5]), mk.PositivityError),
    (np.diag([0.5, 0.4]), ValueError),
], ids=["not-square", "not-hermitian", "negative-eigenvalue", "trace"])
def test_every_state_check_rejects_what_is_not_a_state(rho, error):
    for build in (lambda: dv._check_state(rho, mk.DEFAULT_TOL),
                  lambda: dv.contraction_channel(rho),
                  lambda: dv.canonical_instrument(effect(PX), anchor_state=rho)):
        with pytest.raises(error) as info:
            build()
        assert info.type is error


def test_canonical_instrument_rejects_bad_probs_and_a_misshaped_anchor():
    ident = dv.luders(effect(I2))
    for probs in ({"a": 0.7, "b": 0.2}, {"a": 1.2, "b": -0.2}):
        with pytest.raises(ValueError, match="probability distribution") as info:
            dv.canonical_instrument(ident, probs=probs)
        assert info.type is ValueError
    with pytest.raises(mk.MatrixShapeError, match="output space"):
        dv.canonical_instrument(luders_of(PX), anchor_state=np.eye(3) / 3)


def test_canonical_instrument_rejects_inputs_it_cannot_use():
    # probs weight the copies of a channel only, and an anchor state is
    # prepared only after a measured target, which a channel and an
    # instrument do not have
    rng = np.random.default_rng(23)
    lam = rand_cpmap(rng, 2, 2, channel=True)
    cases = [(luders_of(PX), {"probs": {"a": 0.4, "b": 0.6}}, "probs"),
             (effect(PX), {"probs": {"a": 1.0}}, "probs"),
             (lam, {"anchor_state": np.eye(7)}, "anchor_state"),
             (rand_instrument(rng, 2, 2, n_out=2), {"anchor_state": I2 / 2}, "anchor_state")]
    for device, kwargs, name in cases:
        with pytest.raises(ValueError, match=name) as info:
            dv.canonical_instrument(device, **kwargs)
        assert info.type is ValueError


def test_luders_of_identity_is_identity_channel():
    m = dv.luders(effect(I2))
    rng = np.random.default_rng(22)
    rho = rand_state(rng, 2)
    assert np.allclose(dv.apply_s(m, rho), rho)
    assert m.kind == "channel"


def test_contraction_channel_action():
    lam = dv.contraction_channel(PZ)
    assert np.allclose(dv.apply_s(lam, PX), PZ)
    assert np.allclose(dv.apply_h(lam, SX), np.trace(PZ @ SX) * I2)


def test_luders_biased_z_matches_root_conjugation():
    a = PZ + PMZ / 2
    m = luders_of(a)
    root = np.diag([1.0, np.sqrt(0.5)]).astype(complex)
    rng = np.random.default_rng(24)
    rho = rand_state(rng, 2)
    assert np.allclose(dv.apply_s(m, rho), root @ rho @ root)


def test_trivial_observable():
    obs = dv.trivial_observable({"h": 0.25, "t": 0.75}, dim=2)
    assert np.allclose(obs.effects["h"].matrix, 0.25 * I2)
    assert np.allclose(obs.effects["t"].matrix, 0.75 * I2)
    with pytest.raises(ValueError):
        dv.trivial_observable({"h": 0.5, "t": 0.75}, dim=2)


def test_duality_on_full_basis_random_maps():
    rng = np.random.default_rng(26)
    basis_in = hermitian_basis(2)
    basis_out = hermitian_basis(2)
    for _ in range(5):
        m = rand_cpmap(rng, 2, 2, n_ops=3)
        for rho in basis_in:
            for t in basis_out:
                lhs = np.trace(dv.apply_s(m, rho) @ t)
                rhs = np.trace(rho @ dv.apply_h(m, t))
                assert abs(lhs - rhs) <= 1e-10
