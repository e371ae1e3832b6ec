import numpy as np
import pytest

from qcompat import devices as dv
from qcompat import dilation as dl
from qcompat import matkit as mk
from qcompat.devices import CPMap, Instrument, KrausSet, choi_from_kraus
from qcompat.fixtures import I2, PMX, PX, PZ, luders_of

from conftest import hermitian_basis, rand_complex, rand_cpmap, rand_herm, rand_state


def x_dephasing():
    return choi_from_kraus(KrausSet((PX, PMX)))


def test_identity_channel_dilation():
    dil = dl.minimal_stinespring(choi_from_kraus(KrausSet((I2,))))
    assert dil.ancilla_dim == 1
    assert dil.minimal
    assert np.allclose(dil.v.conj().T @ dil.v, I2)
    assert np.allclose(dil.v @ dil.v.conj().T, np.eye(2))


def test_dephasing_channel_dilation():
    lam = x_dephasing()
    dil = dl.minimal_stinespring(lam)
    assert dil.ancilla_dim == 2
    assert dil.minimal
    assert np.allclose(dil.v.conj().T @ dil.v, I2)


def test_contraction_to_pure_state_dilation():
    eta = np.diag([1.0, 0.0]).astype(complex)
    dil = dl.minimal_stinespring(dv.contraction_channel(eta))
    assert dil.ancilla_dim == 2


def test_dilation_roundtrip_on_basis():
    rng = np.random.default_rng(51)
    for _ in range(10):
        m = rand_cpmap(rng, 2, 2, n_ops=2)
        dil = dl.minimal_stinespring(m)
        for t in hermitian_basis(2):
            assert np.linalg.norm(dil.heisenberg(t) - dv.apply_h(m, t)) <= 1e-9


def test_dilation_norm_identity():
    rng = np.random.default_rng(53)
    m = rand_cpmap(rng, 2, 2, n_ops=2)
    dil = dl.minimal_stinespring(m)
    v_norm_sq = np.linalg.norm(dil.v, ord=2) ** 2
    hu_norm = np.linalg.eigvalsh(m.heisenberg_unit())[-1]
    assert v_norm_sq == pytest.approx(hu_norm, abs=1e-9)


def test_dilation_takes_the_exported_kraus_operators():
    # a Choi eigenvalue of 1.5e-9: above psd_tol, below psd_tol * tr J = 2e-9,
    # so a rank threshold scaled by the trace would drop a Kraus operator the
    # export keeps
    eps = 1.5e-9
    k1 = np.diag([1.0, np.sqrt(1.0 - eps)])
    k2 = np.sqrt(eps) * np.array([[0.0, 1.0], [0.0, 0.0]])
    m = choi_from_kraus(KrausSet((k1, k2)))
    ops = dv.kraus_lists([m])[0][::-1]
    dil = dl.minimal_stinespring(m)
    assert dil.ancilla_dim == len(ops) == 2 and dil.minimal
    assert np.array_equal(dil.kraus_columns(), np.column_stack([k.T.reshape(-1) for k in ops]))


def test_zero_map_dilation_is_not_minimal():
    dil = dl.minimal_stinespring(CPMap(2, 3, np.zeros((6, 6))))
    assert dil.ancilla_dim == 1
    assert not dil.minimal
    assert np.array_equal(dil.v, np.zeros((3, 2)))


def test_rn_raises_on_zero_padded_dilation():
    rng = np.random.default_rng(57)
    lam = rand_cpmap(rng, 2, 2, n_ops=2, channel=True)
    dil = dl.minimal_stinespring(lam)
    da = dil.ancilla_dim + 1
    w = np.hstack([dil.kraus_columns(), np.zeros((4, 1))])
    v = w.reshape(2, 2, da).transpose(1, 2, 0).reshape(2 * da, 2)
    padded = dl.StinespringDilation(lam, v, da, minimal=False)
    assert np.array_equal(padded.kraus_columns(), w)
    # the padded dilation still dilates the map; only the extraction is not unique
    assert np.allclose(padded.heisenberg(PZ), dv.apply_h(lam, PZ), atol=1e-12)
    with pytest.raises(dl.NonMinimalDilationError):
        dl.radon_nikodym_effect(padded, CPMap(2, 2, lam.choi / 2))


def test_unitary_freedom_between_minimal_dilations():
    rng = np.random.default_rng(55)
    lam = rand_cpmap(rng, 2, 2, n_ops=2, channel=True)
    dil1 = dl.minimal_stinespring(lam)
    # an independently presented minimal dilation: rotate the ancilla
    g = rand_complex(rng, dil1.ancilla_dim)
    q, _ = np.linalg.qr(g)
    v2 = mk.kron(np.eye(2), q) @ dil1.v
    dil2 = dl.StinespringDilation(lam, v2, dil1.ancilla_dim, True)
    u = dl.ancilla_intertwiner(dil1, dil2)
    assert np.allclose(u @ u.conj().T, np.eye(dil1.ancilla_dim), atol=1e-8)
    assert np.linalg.norm(v2 - mk.kron(np.eye(2), u) @ dil1.v) <= 1e-7


def test_rn_effect_of_whole_map_is_identity():
    rng = np.random.default_rng(57)
    lam = rand_cpmap(rng, 2, 2, n_ops=2, channel=True)
    dil = dl.minimal_stinespring(lam)
    e = dl.radon_nikodym_effect(dil, lam)
    assert np.allclose(e.matrix, np.eye(dil.ancilla_dim), atol=1e-8)


def test_rn_effect_of_half_map_is_half_identity():
    rng = np.random.default_rng(59)
    lam = rand_cpmap(rng, 2, 2, n_ops=2, channel=True)
    dil = dl.minimal_stinespring(lam)
    e = dl.radon_nikodym_effect(dil, CPMap(2, 2, lam.choi / 2))
    assert np.allclose(e.matrix, np.eye(dil.ancilla_dim) / 2, atol=1e-8)


def test_rn_effect_of_luders_branch_is_rank_one_projection():
    lam = x_dephasing()
    dil = dl.minimal_stinespring(lam)
    e = dl.radon_nikodym_effect(dil, luders_of(PX))
    evals = np.linalg.eigvalsh(e.matrix)
    assert np.allclose(np.sort(evals), [0.0, 1.0], atol=1e-8)
    rebuilt = dl.map_from_ancilla_effect(dil, e.matrix)
    for t in hermitian_basis(2):
        assert np.linalg.norm(dv.apply_h(rebuilt, t) - dv.apply_h(luders_of(PX), t)) <= 1e-8


def test_rn_extraction_inverts_construction():
    rng = np.random.default_rng(61)
    for _ in range(10):
        lam = rand_cpmap(rng, 2, 2, n_ops=2, channel=True)
        dil = dl.minimal_stinespring(lam)
        da = dil.ancilla_dim
        h = rand_herm(rng, da)
        evals, vecs = np.linalg.eigh(h)
        e0 = (vecs * np.clip(evals / (np.abs(evals).max() + 1e-12) * 0.5 + 0.5, 0, 1)) @ vecs.conj().T
        f = dl.map_from_ancilla_effect(dil, e0)
        e = dl.radon_nikodym_effect(dil, f)
        assert np.linalg.norm(e.matrix - e0) <= 1e-8


def test_rn_raises_on_non_dominated():
    rng = np.random.default_rng(63)
    lam = rand_cpmap(rng, 2, 2, n_ops=2, channel=True)
    dil = dl.minimal_stinespring(lam)
    other = rand_cpmap(rng, 2, 2, n_ops=1)
    if not dl.cp_leq(other, lam):
        with pytest.raises(dl.NotDominatedError):
            dl.radon_nikodym_effect(dil, other)


def test_rn_observable_of_luders_instrument():
    lam = x_dephasing()
    dil = dl.minimal_stinespring(lam)
    ins = Instrument(("+", "-"), {"+": luders_of(PX), "-": luders_of(PMX)})
    obs = dl.rn_observable(dil, ins)
    a_plus = obs.effects["+"].matrix
    a_minus = obs.effects["-"].matrix
    assert np.allclose(a_plus + a_minus, np.eye(2), atol=1e-8)
    # two orthogonal rank-1 projections
    for a in (a_plus, a_minus):
        assert np.allclose(np.sort(np.linalg.eigvalsh(a)), [0.0, 1.0], atol=1e-8)
    assert np.linalg.norm(a_plus @ a_minus) <= 1e-8


def test_rn_observable_single_branch():
    rng = np.random.default_rng(65)
    lam = rand_cpmap(rng, 2, 2, n_ops=2, channel=True)
    dil = dl.minimal_stinespring(lam)
    ins = Instrument(("0",), {"0": lam})
    obs = dl.rn_observable(dil, ins)
    assert np.allclose(obs.effects["0"].matrix, np.eye(dil.ancilla_dim), atol=1e-8)


def test_rn_observable_weighted_channel_instrument():
    rng = np.random.default_rng(67)
    lam = rand_cpmap(rng, 2, 2, n_ops=2, channel=True)
    dil = dl.minimal_stinespring(lam)
    ins = dv.canonical_instrument(lam, probs={"a": 0.3, "b": 0.7})
    obs = dl.rn_observable(dil, ins)
    assert np.allclose(obs.effects["a"].matrix, 0.3 * np.eye(dil.ancilla_dim), atol=1e-8)
    assert np.allclose(obs.effects["b"].matrix, 0.7 * np.eye(dil.ancilla_dim), atol=1e-8)


def test_rn_observable_total_mismatch():
    rng = np.random.default_rng(69)
    lam = rand_cpmap(rng, 2, 2, n_ops=2, channel=True)
    other = rand_cpmap(rng, 2, 2, n_ops=2, channel=True)
    dil = dl.minimal_stinespring(lam)
    ins = Instrument(("0",), {"0": other})
    with pytest.raises(dl.TotalMismatchError):
        dl.rn_observable(dil, ins)
