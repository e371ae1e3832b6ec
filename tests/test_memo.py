import numpy as np
import pytest

from qcompat import devices as dv
from qcompat import memo as mm
from qcompat.devices import CPMap, Instrument, KrausSet, PointerMap, choi_from_kraus
from qcompat.fixtures import I2, PMX, PMZ, PX, PZ, effect, luders_of, sharp_observable
from qcompat.matkit import HermiticityError, MatrixShapeError, PositivityError

from conftest import (
    loose_pointer,
    rand_complex,
    rand_instrument,
    rand_observable,
    rand_state,
    state_prep_choi,
)


def luders_x_instrument():
    return Instrument(("+", "-"), {"+": luders_of(PX), "-": luders_of(PMX)})


def test_swap_model_reads_pointer_statistics():
    rng = np.random.default_rng(99)
    eta = rand_state(rng, 2)
    model = mm.swap_model(eta, sharp_observable(PZ, PMZ))
    for _ in range(5):
        rho = rand_state(rng, 2)
        p_plus = mm.model_probability(model, rho, ("+",))
        assert p_plus == pytest.approx(float(np.trace(rho @ PZ).real), abs=1e-10)


def test_swap_model_and_poststate_refuse_the_wrong_sides():
    with pytest.raises(MatrixShapeError, match="pointer dimension must match the probe"):
        mm.swap_model(np.eye(3) / 3, sharp_observable(PZ, PMZ))
    model = mm.swap_model(I2 / 2, sharp_observable(PZ, PMZ))
    with pytest.raises(MatrixShapeError, match="state must live on the model input space"):
        mm.model_poststate(model, np.eye(3) / 3, ("+",))


def test_swap_model_induced_observable_is_pointer():
    rng = np.random.default_rng(101)
    eta = rand_state(rng, 2)
    model = mm.swap_model(eta, sharp_observable(PZ, PMZ))
    ins = mm.model_instrument(model)
    obs = dv.induced_observable(ins)
    assert np.allclose(obs.effects["+"].matrix, PZ, atol=1e-10)
    assert np.allclose(obs.effects["-"].matrix, PMZ, atol=1e-10)


def test_model_instrument_keeps_the_tolerance():
    # the pointer is valid only at the loose tolerance; its summed effects
    # must be validated there too
    pointer, loose = loose_pointer()
    eta = np.diag([1.0, 0.0]).astype(complex)
    model = mm.MeasurementModel(2, 2, 2, 2, eta, np.eye(4), pointer, tol=loose)
    ins = mm.model_instrument(model, tol=loose)
    assert np.allclose(ins.branches["a"].choi, (1 + 5e-7) * np.outer([1, 0, 0, 1], [1, 0, 0, 1]))
    assert mm.model_probability(model, eta, ("a",), tol=loose) == pytest.approx(1 + 5e-7)
    assert np.allclose(mm.model_poststate(model, eta, ("a",), tol=loose), (1 + 5e-7) * eta)


def test_complete_unitary_keeps_prescribed_columns_and_checks_unitarity():
    rng = np.random.default_rng(31)
    q = np.linalg.qr(rand_complex(rng, 6, 6))[0]
    u = mm._complete_unitary({0: q[:, 0], 3: q[:, 1]}, 6, mm.DEFAULT_TOL)
    assert np.array_equal(u[:, 0], q[:, 0]) and np.array_equal(u[:, 3], q[:, 1])
    assert np.linalg.norm(u.conj().T @ u - np.eye(6)) <= 1e-13
    with pytest.raises(mm.ModelSynthesisError, match="unitary completion failed"):
        mm._complete_unitary({0: q[:, 0], 3: 2 * q[:, 1]}, 6, mm.DEFAULT_TOL)


def test_swap_model_trivial_pointer():
    rng = np.random.default_rng(103)
    eta = rand_state(rng, 2)
    trivial = dv.trivial_observable({"a": 0.25, "b": 0.75}, dim=2)
    model = mm.swap_model(eta, trivial)
    obs = dv.induced_observable(mm.model_instrument(model))
    assert np.allclose(obs.effects["a"].matrix, 0.25 * I2, atol=1e-10)


def test_swap_model_channel_is_contraction():
    rng = np.random.default_rng(105)
    eta = rand_state(rng, 2)
    model = mm.swap_model(eta, sharp_observable(PZ, PMZ))
    lam = mm.model_channel(model)
    for _ in range(5):
        rho = rand_state(rng, 2)
        assert np.allclose(dv.apply_s(lam, rho), eta, atol=1e-10)


def test_probabilities_normalize_and_poststates_match():
    rng = np.random.default_rng(107)
    ins = rand_instrument(rng, n_out=3)
    model = mm.synthesize_model(ins)
    for _ in range(5):
        rho = rand_state(rng, 2)
        total = 0.0
        for x in model.outcomes():
            p = mm.model_probability(model, rho, (x,))
            post = mm.model_poststate(model, rho, (x,))
            assert p >= -1e-12
            assert float(np.trace(post).real) == pytest.approx(p, abs=1e-10)
            evals = np.linalg.eigvalsh((post + post.conj().T) / 2)
            assert evals[0] >= -1e-9
            total += p
        assert total == pytest.approx(1.0, abs=1e-10)
        full = mm.model_poststate(model, rho, model.outcomes())
        lam = dv.total_channel(ins)
        assert np.allclose(full, dv.apply_s(lam, rho), atol=1e-8)


def test_synthesized_luders_model_statistics():
    model = mm.synthesize_model(luders_x_instrument())
    p = mm.model_probability(model, PZ, ("+",))
    assert p == pytest.approx(float(np.trace(PZ @ PX).real), abs=1e-8)


def test_synthesis_roundtrip_random_instruments():
    rng = np.random.default_rng(109)
    for n_out, din, dout, ops in ((2, 2, 2, 1), (3, 2, 2, 2), (4, 3, 3, 1), (2, 3, 2, 1)):
        ins = rand_instrument(rng, din, dout, n_out=n_out, ops_per_branch=ops)
        model = mm.synthesize_model(ins)
        induced = mm.model_instrument(model)
        assert induced.outcomes == ins.outcomes
        for x in ins.outcomes:
            assert np.linalg.norm(induced.branches[x].choi - ins.branches[x].choi) <= 1e-8


def test_identity_channel_instrument_model():
    ident = choi_from_kraus(KrausSet((I2,)))
    ins = Instrument(("0",), {"0": ident})
    model = mm.synthesize_model(ins)
    rng = np.random.default_rng(111)
    rho = rand_state(rng, 2)
    assert np.allclose(mm.model_poststate(model, rho, ("0",)), rho, atol=1e-8)


def test_measure_and_prepare_model_recovers_observable():
    rng = np.random.default_rng(113)
    a = rand_observable(rng, 2, 3)
    ins = dv.canonical_instrument(a, anchor_state=rand_state(rng, 2))
    model = mm.synthesize_model(ins)
    obs = dv.induced_observable(mm.model_instrument(model))
    for x in a.outcomes:
        assert np.allclose(obs.effects[x].matrix, a.effects[x].matrix, atol=1e-8)


def test_pointer_independence_of_channel():
    rng = np.random.default_rng(115)
    ins = rand_instrument(rng, n_out=2)
    model = mm.synthesize_model(ins)
    other_pointer = dv.trivial_observable(
        {x: 1.0 / len(model.outcomes()) for x in model.outcomes()}, dim=model.dim_v2
    )
    sibling = mm.MeasurementModel(
        model.dim_in, model.dim_out, model.dim_v1, model.dim_v2,
        model.eta, model.u, other_pointer,
    )
    lam1 = mm.model_channel(model)
    lam2 = mm.model_channel(sibling)
    assert np.allclose(lam1.choi, lam2.choi)


def test_constant_pointer_map_gives_total_channel():
    rng = np.random.default_rng(117)
    ins = rand_instrument(rng, n_out=2)
    model = mm.synthesize_model(ins)
    const = PointerMap({x: "all" for x in model.outcomes()})
    collapsed = mm.model_instrument(model, const)
    assert collapsed.outcomes == ("all",)
    assert np.allclose(
        collapsed.branches["all"].choi, dv.total_channel(ins).choi, atol=1e-8
    )


def test_model_is_part_of():
    ins = luders_x_instrument()
    model = mm.synthesize_model(ins)
    assert mm.model_is_part_of(model, effect(PX))
    assert mm.model_is_part_of(model, luders_of(PX))
    assert mm.model_is_part_of(model, dv.total_channel(ins))
    assert not mm.model_is_part_of(model, effect(PZ))


def test_shared_model_pair_identical_apart_from_pointer():
    i1 = luders_x_instrument()
    # a different instrument with the same total channel
    k1 = PX / np.sqrt(2)
    i2 = Instrument(
        ("a", "b", "c"),
        {
            "a": choi_from_kraus(KrausSet((k1,))),
            "b": choi_from_kraus(KrausSet((k1,))),
            "c": luders_of(PMX),
        },
    )
    m1, m2 = mm.shared_model_pair(i1, i2)
    assert np.array_equal(m1.u, m2.u) and np.array_equal(m1.eta, m2.eta)
    ind1, ind2 = mm.model_instrument(m1), mm.model_instrument(m2)
    for x in i1.outcomes:
        assert np.linalg.norm(ind1.branches[x].choi - i1.branches[x].choi) <= 1e-8
    for x in i2.outcomes:
        assert np.linalg.norm(ind2.branches[x].choi - i2.branches[x].choi) <= 1e-8


def test_model_check_names_the_missing_branch():
    # the Lueders x model does not realize the Lueders z instrument
    model = mm.synthesize_model(luders_x_instrument())
    luders_z = Instrument(("+", "-"), {"+": luders_of(PZ), "-": luders_of(PMZ)})
    with pytest.raises(mm.ModelSynthesisError, match="branch '\\+'"):
        mm._check_realizes(model, luders_z, mm.DEFAULT_TOL)


def test_shared_model_pair_same_instrument():
    ins = luders_x_instrument()
    m1, m2 = mm.shared_model_pair(ins, ins)
    assert np.array_equal(m1.u, m2.u)
    for x in ins.outcomes:
        assert np.allclose(
            m1.pointer.effects[x].matrix, m2.pointer.effects[x].matrix
        )


def test_shared_model_pair_contraction_instruments():
    rng = np.random.default_rng(119)
    eta = rand_state(rng, 2)
    a1 = rand_observable(rng, 2, 2)
    a2 = rand_observable(rng, 2, 3)
    i1 = Instrument(
        a1.outcomes,
        {x: CPMap(2, 2, state_prep_choi(a1.effects[x].matrix, eta)) for x in a1.outcomes},
    )
    i2 = Instrument(
        a2.outcomes,
        {x: CPMap(2, 2, state_prep_choi(a2.effects[x].matrix, eta)) for x in a2.outcomes},
    )
    m1, m2 = mm.shared_model_pair(i1, i2)
    assert np.array_equal(m1.u, m2.u)
    assert m1.pointer.outcomes != m2.pointer.outcomes


def test_shared_model_pair_rejects_different_totals():
    rng = np.random.default_rng(121)
    i1 = rand_instrument(rng, n_out=2)
    i2 = rand_instrument(rng, n_out=2)
    with pytest.raises(mm.TotalMismatchError):
        mm.shared_model_pair(i1, i2)


def test_shared_model_pair_mismatch_is_the_dilation_error():
    # one error class: catching dilation's also catches shared_model_pair's
    from qcompat import dilation as dl

    rng = np.random.default_rng(121)
    i1 = rand_instrument(rng, n_out=2)
    i2 = rand_instrument(rng, n_out=2)
    with pytest.raises(dl.TotalMismatchError):
        mm.shared_model_pair(i1, i2)


def test_model_validation_errors():
    rng = np.random.default_rng(123)
    eta = rand_state(rng, 2)
    pointer = sharp_observable(PZ, PMZ)
    with pytest.raises(ValueError):
        mm.MeasurementModel(2, 2, 2, 2, eta, np.eye(4) * 2, pointer)
    with pytest.raises(Exception):
        mm.MeasurementModel(2, 2, 2, 3, eta, np.eye(4), pointer)


@pytest.mark.parametrize("field, value, error", [
    ("u", np.eye(6), MatrixShapeError),
    ("eta", np.eye(3) / 3, MatrixShapeError),
    ("eta", np.array([[0.5, 0.5], [0.0, 0.5]]), HermiticityError),
    ("eta", np.diag([1.5, -0.5]), PositivityError),
    ("eta", np.diag([0.5, 0.4]), ValueError),
    ("pointer", sharp_observable(np.diag([1.0, 0, 0]), np.diag([0, 1.0, 1.0])), MatrixShapeError),
], ids=["unitary-side", "probe-shape", "probe-hermitian", "probe-psd", "probe-trace",
        "pointer-dim"])
def test_model_rejects_a_bad_unitary_probe_state_or_pointer(field, value, error):
    # the probe state is checked as every state is, by devices._check_state
    args = {"eta": I2 / 2, "u": np.eye(4), "pointer": sharp_observable(PZ, PMZ)}
    args[field] = value
    with pytest.raises(error) as info:
        mm.MeasurementModel(2, 2, 2, 2, args["eta"], args["u"], args["pointer"])
    assert info.type is error


@pytest.mark.parametrize("din, dout, dv1, dv2, u", [
    (0, 0, 2, 2, np.zeros((0, 0))),
    (2.0, 2, 2, 2, np.eye(4)),
    (2, 2, True, 2, np.eye(4)),
    (2, 2, 2, -2, np.eye(4)),
    (2, "2", 2, 2, np.eye(4)),
], ids=["zero-system", "float-input", "bool-probe", "negative-pointer-side", "string-output"])
def test_model_rejects_sides_that_are_not_positive_integers(din, dout, dv1, dv2, u):
    # the four sides are checked as a map's two are, by matkit.side_product
    with pytest.raises(MatrixShapeError, match="not positive integers"):
        mm.MeasurementModel(din, dout, dv1, dv2, I2 / 2, u, sharp_observable(PZ, PMZ))


@pytest.mark.parametrize("din, dout, dv1, dv2", [(2, 3, 3, 2), (3, 2, 2, 3)])
def test_induced_chois_match_probed_poststates(din, dout, dv1, dv2):
    """Each induced Choi matrix is sum_ij |i><j| (x) poststate(|i><j|), probed unit by unit,
    and each post-state is Tr_V2[(1 (x) f) U (rho (x) eta) U*], built densely here."""
    rng = np.random.default_rng([29, din])
    u = np.linalg.qr(rand_complex(rng, din * dv1))[0]
    eta = rand_state(rng, dv1)
    model = mm.MeasurementModel(din, dout, dv1, dv2, eta, u, rand_observable(rng, dv2, 3))

    def probed(labels):
        j = np.zeros((din * dout, din * dout), dtype=complex)
        for i in range(din):
            for k in range(din):
                unit = np.zeros((din, din))
                unit[i, k] = 1.0
                j[i * dout:(i + 1) * dout, k * dout:(k + 1) * dout] = mm.model_poststate(
                    model, unit, labels)
        return j

    induced = mm.model_instrument(model)
    for x in model.outcomes():
        assert np.linalg.norm(induced.branches[x].choi - probed((x,))) <= 1e-12
    coarse = mm.model_instrument(model, PointerMap({"0": "a", "1": "b", "2": "a"}))
    assert np.linalg.norm(coarse.branches["a"].choi - probed(("0", "2"))) <= 1e-12
    assert np.linalg.norm(mm.model_channel(model).choi - probed(model.outcomes())) <= 1e-12

    for labels in (("0",), ("1", "2"), model.outcomes()):
        rho = rand_state(rng, din)
        w = (u @ np.kron(rho, eta) @ u.conj().T).reshape(dout, dv2, dout, dv2)
        dense = np.einsum("mvnw,wv->mn", w, model.pointer.effect_of(labels).matrix)
        assert np.linalg.norm(mm.model_poststate(model, rho, labels) - dense) <= 1e-13
        assert mm.model_probability(model, rho, labels) == pytest.approx(
            float(np.trace(dense).real), abs=1e-13)
