import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompat import compat as cp
from qcompat import devices as dv
from qcompat import order as od
from qcompat.devices import CPMap, KrausSet, choi_from_kraus
from qcompat.fixtures import I2, PMX, PMZ, PX, PZ, SX, effect, half_sigma_x, luders_of
from qcompat.matkit import close

from conftest import (
    hermitian_basis, rand_complex, rand_cpmap, rand_herm, rand_kraus, rand_rank1_deficit_op,
    rand_state,
)


def transposition_pair():
    """rho -> tr(rho) 1/3 and rho -> (tr(rho) 1 + rho^T)/3 on a qubit."""
    j1 = np.kron(I2, I2) / 3
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            eij = np.zeros((2, 2), dtype=complex)
            eij[i, j] = 1
            swap += np.kron(eij, eij.T)
    j2 = (np.kron(I2, I2) + swap) / 3
    return CPMap(2, 2, j1), CPMap(2, 2, j2, kind="channel")


def test_cp_leq_reflexive_and_scaling():
    rng = np.random.default_rng(31)
    lam = rand_cpmap(rng, channel=True)
    assert od.cp_leq(lam, lam)
    half = CPMap(2, 2, lam.choi / 2)
    assert od.cp_leq(half, lam)
    assert not od.cp_leq(lam, half)


def test_cp_leq_transposition_counterexample():
    phi1, phi2 = transposition_pair()
    assert not od.cp_leq(phi1, phi2)
    # the difference is positive on every pure state even though not CP
    rng = np.random.default_rng(33)
    for _ in range(50):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        diff = dv.apply_s(phi2, rho) - dv.apply_s(phi1, rho)
        assert np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0] >= -1e-10


def test_cp_leq_transitive_on_chains():
    rng = np.random.default_rng(35)
    for _ in range(10):
        base = choi_from_kraus(rand_kraus(rng, 2, 2, 2, scale=np.sqrt(0.3)))
        inc1 = choi_from_kraus(rand_kraus(rng, 2, 2, 1, scale=np.sqrt(0.2)))
        inc2 = choi_from_kraus(rand_kraus(rng, 2, 2, 1, scale=np.sqrt(0.2)))
        mid = CPMap(2, 2, base.choi + inc1.choi)
        top = CPMap(2, 2, mid.choi + inc2.choi)
        assert od.cp_leq(base, mid) and od.cp_leq(mid, top) and od.cp_leq(base, top)


def test_cp_leq_dim_mismatch():
    from qcompat.matkit import MatrixShapeError

    with pytest.raises(MatrixShapeError):
        od.cp_leq(rand_cpmap(np.random.default_rng(0)), rand_cpmap(np.random.default_rng(0), 3, 3))


def test_is_pure():
    assert od.is_pure(luders_of(PX))
    assert od.is_pure(half_sigma_x())
    assert od.is_pure(CPMap(2, 2, np.zeros((4, 4))))
    two_kraus = choi_from_kraus(KrausSet((PX, PMX)))
    assert not od.is_pure(two_kraus)


def test_choi_rank():
    assert od.choi_rank(luders_of(PX)) == 1
    assert od.choi_rank(choi_from_kraus(KrausSet((PX, PMX)))) == 2
    assert od.choi_rank(CPMap(2, 2, np.zeros((4, 4)))) == 0


def test_pure_pair_luders_px_vs_half_sigma_x_incompatible():
    assert not od.pure_pair_compatible(luders_of(PX), half_sigma_x())


def test_pure_pair_comparable_compatible():
    phi = luders_of(PX)
    assert od.pure_pair_compatible(phi, CPMap(2, 2, phi.choi / 2))


def test_pure_pair_sum_is_operation():
    a = choi_from_kraus(KrausSet((PX / np.sqrt(2),)))
    b = choi_from_kraus(KrausSet((PMX / np.sqrt(2),)))
    assert od.pure_pair_compatible(a, b)


def test_pure_pair_requires_purity():
    mixed = choi_from_kraus(KrausSet((PX / np.sqrt(2), PMX / np.sqrt(2))))
    with pytest.raises(od.PurityError):
        od.pure_pair_compatible(mixed, mixed)


def test_rank1_family_luders_px_fixes_px():
    rng = np.random.default_rng(37)
    phi = luders_of(PX)
    for _ in range(5):
        xi = rand_state(rng, 2)
        lam = od.rank1_channel_family(phi, xi)
        assert lam.kind == "channel"
        assert np.allclose(dv.apply_s(lam, PX), PX)
        assert od.cp_leq(phi, lam)


def test_rank1_family_of_channel_is_itself():
    rng = np.random.default_rng(39)
    lam = rand_cpmap(rng, channel=True)
    fam = od.rank1_channel_family(lam, rand_state(rng, 2))
    assert np.allclose(fam.choi, lam.choi)


def test_rank1_family_rejects_rank2_deficit():
    with pytest.raises(od.RankConditionError):
        od.rank1_channel_family(half_sigma_x(), I2 / 2)


def test_rank1_families_luders_px_pz_disjoint():
    # the two Lueders projections admit no common upper channel
    phi1, phi2 = luders_of(PX), luders_of(PZ)
    res = od.rank1_upper_channels_equal(phi1, phi2)
    assert res.equal is False
    assert res.reason.startswith("span residual")
    # independent separation check at rho = PX: no pair of completion
    # states makes the two family outputs agree there
    rho = PX
    e1, e2 = od.trace_deficit(phi1), od.trace_deficit(phi2)
    a1 = float(np.trace(rho @ e1).real)
    a2 = float(np.trace(rho @ e2).real)
    d = dv.apply_s(phi2, rho) - dv.apply_s(phi1, rho)
    evals = np.linalg.eigvalsh((d + d.conj().T) / 2)
    pos = float(np.sum(evals[evals > 0]))
    neg = float(-np.sum(evals[evals < 0]))
    assert (
        abs(float(np.trace(d).real) - (a1 - a2)) > 1e-6
        or pos > a1 + 1e-6
        or neg > a2 + 1e-6
    )


def test_rank1_families_same_map_intersect():
    phi = luders_of(PX)
    res = od.rank1_upper_channels_equal(phi, phi)
    assert res.equal
    assert res.channel is not None
    assert od.cp_leq(phi, res.channel)


def test_rank1_families_weak_pair_from_dephasing():
    # both halves of the x-dephasing channel sit below it
    a = CPMap(2, 2, luders_of(PX).choi * 0.9)
    b = CPMap(2, 2, luders_of(PMX).choi * 0.9)
    # deficits have rank 2 here, so the oracle must refuse
    with pytest.raises(od.RankConditionError):
        od.rank1_upper_channels_equal(a, b)


def test_rank1_families_parallel_deficits_disjoint():
    # same deficit direction but incompatible coherences: no common channel
    phi1 = luders_of(PX)
    phi2 = luders_of(PX + PMX / 2)
    res = od.rank1_upper_channels_equal(phi1, phi2)
    assert res.equal is False
    assert res.reason.startswith("span residual")


def test_rank1_families_parallel_deficits_intersect():
    # phi and a shrunk copy of a channel completing it do intersect
    phi1 = luders_of(PX)
    lam = od.rank1_channel_family(phi1, PMX)  # = x-dephasing channel
    res = od.rank1_upper_channels_equal(phi1, lam)
    assert res.equal
    assert np.allclose(res.channel.choi, lam.choi, atol=1e-7)


P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def below_depolarizing(x1, x2, v2=P1, a=0.25, b=0.25):
    """Maps J_i = kron(1, 1/2) - kron(a_i v_i, x_i) with deficits E_i^T = a_i v_i.

    With trace-one x_i the deficit is rank 1 along P0 (side 1) and v2
    (side 2); their families meet at the depolarizing channel exactly
    when x1 and x2 are states.
    """
    base = np.kron(I2, I2 / 2)
    return CPMap(2, 2, base - np.kron(a * P0, x1)), CPMap(2, 2, base - np.kron(b * v2, x2))


def check_common_member(res, phi1, phi2):
    assert res.equal is True
    lam = res.channel
    assert lam.kind == "channel"
    assert od.cp_leq(phi1, lam) and od.cp_leq(phi2, lam)
    for xi in (res.xi1, res.xi2):
        assert np.linalg.eigvalsh(xi)[0] >= -1e-9
        assert np.trace(xi).real == pytest.approx(1.0, abs=1e-9)


def test_rank1_families_unique_split_psd():
    # independent deficit directions: the duals force xi_i = x_i, both states
    phi1, phi2 = below_depolarizing(PX, PZ)
    res = od.rank1_upper_channels_equal(phi1, phi2)
    check_common_member(res, phi1, phi2)
    assert np.allclose(res.xi1, PX, atol=1e-12) and np.allclose(res.xi2, PZ, atol=1e-12)
    assert np.allclose(res.channel.choi, np.kron(I2, I2 / 2), atol=1e-12)


def test_rank1_families_unique_split_not_psd():
    # the forced xi1 = diag(1.2, -0.2) is no state, so the families miss
    phi1, phi2 = below_depolarizing(np.diag([1.2, -0.2]).astype(complex), I2 / 2)
    res = od.rank1_upper_channels_equal(phi1, phi2)
    assert res.equal is False
    assert res.reason == "xi1 has eigenvalue -2.000e-01"


def test_rank1_families_span_residual():
    # random rank-1 pure maps: the difference leaves the span of the families
    rng = np.random.default_rng(5)
    res = od.rank1_upper_channels_equal(rand_rank1_deficit_op(rng), rand_rank1_deficit_op(rng))
    assert res.equal is False
    assert res.reason.startswith("span residual")
    assert float(res.reason.split()[-1]) > 1e-3


@pytest.mark.parametrize("eps", [1e-3, 1e-6])
def test_rank1_families_parallel_trace_test(eps):
    # parallel deficits, D = xi1 - xi2 = diag(1 + t, -t - 1): states with
    # this difference exist exactly when tr D+ = 1 + t <= 1
    y = P1.copy()
    below = below_depolarizing(np.diag([1 - eps, eps]).astype(complex), y, v2=P0)
    res = od.rank1_upper_channels_equal(*below)
    check_common_member(res, *below)
    above = below_depolarizing(np.diag([1 + eps, -eps]).astype(complex), y, v2=P0)
    res = od.rank1_upper_channels_equal(*above)
    assert res.equal is False
    assert res.reason.startswith(f"tr D+ = {1 + eps:.6g}, xi1 has eigenvalue")


def test_rank1_families_parallel_within_tolerance_is_undecided():
    # tr D+ = 1 + 2e-8 puts xi1's eigenvalue at -1e-8: above the -100 psd_tol
    # refutation floor, yet the witness branch would sit below -psd_tol
    phi1, phi2 = below_depolarizing(np.diag([1 + 2e-8, -2e-8]).astype(complex), P1, v2=P0)
    res = od.rank1_upper_channels_equal(phi1, phi2)
    assert res.equal is None
    assert res.reason.startswith("uncertified")
    assert res.channel is None


@pytest.mark.parametrize("tilt", [1e-2, 1e-6, 1e-10])
def test_rank1_families_split_by_deficit_angle(tilt):
    # the families meet at the depolarizing channel for every tilt of the
    # second deficit direction; a clear tilt takes the dual route, a tilt
    # within eq_tol the parallel one, and the ill-conditioned band between
    # them is left undecided, which classify hands to the engine
    v = np.array([1.0, tilt]) / np.hypot(1.0, tilt)
    phi1, phi2 = below_depolarizing(PX, PZ, v2=np.outer(v, v).astype(complex))
    res = od.rank1_upper_channels_equal(phi1, phi2)
    if tilt == 1e-6:
        assert res.equal is None
        assert res.reason.startswith("deficit directions nearly parallel")
        assert cp.weakly_compatible(phi1, phi2).relation == "weakly_compatible_only"
    else:
        check_common_member(res, phi1, phi2)
        if tilt == 1e-2:
            assert np.allclose(res.xi1, PX, atol=1e-9) and np.allclose(res.xi2, PZ, atol=1e-9)


def test_rank1_families_parallel_pair_on_the_cp_boundary_meets():
    # two qubit maps below one channel, with parallel deficit directions and
    # each on the CP boundary (J = lam - t kron(vv*, x) at the largest t);
    # lam itself is a common member, so the families meet
    rng = np.random.default_rng([6, 32])
    lam = choi_from_kraus(rand_kraus(rng, 2, 2, 4)).choi
    v = rand_complex(rng, 2, 1)[:, 0]
    v /= np.linalg.norm(v)
    w, q = np.linalg.eigh(lam)
    inv_root = (q / np.sqrt(w)) @ q.conj().T
    maps = []
    for u in (v, v * np.exp(1j * rng.uniform(0, 6))):
        k = np.kron(np.outer(u, u.conj()), rand_state(rng, 2))
        t = 1.0 / np.linalg.eigvalsh(inv_root @ k @ inv_root)[-1]
        j = lam - min(t, 0.9) * k
        maps.append(CPMap(2, 2, (j + j.conj().T) / 2))
    res = od.rank1_upper_channels_equal(*maps)
    check_common_member(res, *maps)


@pytest.mark.parametrize("swap", [False, True])
def test_rank1_families_channel_against_rank1_map(swap):
    # a channel is its own family: it meets phi's family exactly when it sits above phi
    phi = luders_of(PX)
    z_dephasing = CPMap(2, 2, luders_of(PZ).choi + luders_of(PMZ).choi, kind="channel")
    for lam, meets in ((od.rank1_channel_family(phi, PMX), True), (z_dephasing, False)):
        pair = (lam, phi) if swap else (phi, lam)
        res = od.rank1_upper_channels_equal(*pair)
        assert res.equal is meets
        if meets:
            assert np.allclose(res.channel.choi, lam.choi, atol=1e-12)
            assert (res.xi1 is None) is swap and (res.xi2 is None) is not swap
        else:
            assert res.reason.startswith("span residual")


def test_trivial_effect_detector():
    assert od.is_trivial_effect(effect(I2 / 2))
    assert od.is_trivial_effect(effect(np.zeros((2, 2))))
    assert not od.is_trivial_effect(effect(PX))


def test_null_operation_detector():
    assert od.is_null_operation(CPMap(2, 2, np.zeros((4, 4))))
    assert not od.is_null_operation(luders_of(PX))


def test_contraction_channel_roundtrip():
    rng = np.random.default_rng(41)
    eta = rand_state(rng, 2)
    lam = dv.contraction_channel(eta)
    got = od.is_contraction_channel(lam)
    assert got is not None
    assert np.allclose(got, eta)


def test_identity_channel_is_not_contraction():
    ident = choi_from_kraus(KrausSet((I2,)))
    assert od.is_contraction_channel(ident) is None


def test_operations_are_not_contraction_channels():
    assert od.is_contraction_channel(luders_of(PX)) is None


def test_commutes_with_range():
    assert od.commutes_with_range(luders_of(PZ), effect(PZ))
    assert not od.commutes_with_range(luders_of(PZ), effect(PX))
    rng = np.random.default_rng(43)
    contraction = dv.contraction_channel(rand_state(rng, 2))
    assert od.commutes_with_range(contraction, effect(PX))


def _range_commutes_per_basis(m, e, tol=od.DEFAULT_TOL):
    """Reference: the commutator with the image of every basis operator."""
    for b in hermitian_basis(m.dim_out):
        x = dv.apply_h(m, b)
        if not close(x @ e.matrix, e.matrix @ x, tol):
            return False
    return True


def _contraction_per_basis(m, tol=od.DEFAULT_TOL):
    """Reference: rho -> tr(rho) eta checked on every basis operator."""
    if not m.is_trace_preserving(tol):
        return False
    eta = dv.apply_s(m, np.eye(m.dim_in) / m.dim_in)
    return all(close(dv.apply_s(m, b), np.trace(b) * eta, tol) for b in hermitian_basis(m.dim_in))


@pytest.mark.parametrize("eps, accepted", [(1e-8, False), (1e-9, False), (3e-10, True)])
def test_commutes_with_range_boundary(eps, accepted):
    # ||[J, E^T x 1]||_F = sqrt(2) eps against eq_tol = 1e-9
    e = effect(np.diag([0.7, 0.2]) + eps * SX)
    assert od.commutes_with_range(luders_of(PZ), e) is accepted


@pytest.mark.parametrize("eps, accepted", [(1e-8, False), (1e-9, False), (3e-10, True)])
def test_contraction_channel_boundary(eps, accepted):
    # conjugating 1 x eta by 1 + eps (sx x sx) leaves ||J - 1 x eta'||_F = 2 eps
    lam = dv.contraction_channel(np.diag([0.7, 0.3]))
    a = np.eye(4) + eps * np.kron(SX, SX)
    m = CPMap(2, 2, a @ lam.choi @ a.conj().T, kind="channel")
    assert (od.is_contraction_channel(m) is not None) is accepted


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_eps=st.floats(-13.0, -7.0), exact=st.booleans())
def test_choi_tests_never_looser_than_per_basis(seed, log_eps, exact):
    """Near the boundary, every acceptance is also a per-basis acceptance."""
    rng = np.random.default_rng(seed)
    eps = 0.0 if exact else 10.0 ** log_eps
    din, dout = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    # a map whose Kraus operators end in eigenprojectors of E has a range commuting with E
    u = np.linalg.qr(rand_complex(rng, din))[0]
    ops = [rand_complex(rng, dout, din) @ np.outer(u[:, k], u[:, k].conj()) for k in range(din)]
    top = np.linalg.eigvalsh(sum(k.conj().T @ k for k in ops))[-1]
    m = choi_from_kraus(KrausSet(tuple(k / np.sqrt(1.5 * top) for k in ops)))
    e = (u * rng.uniform(0.2, 0.8, din)) @ u.conj().T + eps * rand_herm(rng, din) / din
    if od.commutes_with_range(m, effect(e)):
        assert _range_commutes_per_basis(m, effect(e))
    # a channel eps away from a contraction channel
    eta = rand_state(rng, dout)
    other = choi_from_kraus(rand_kraus(rng, din, dout, 2))
    c = CPMap(din, dout, (1 - eps) * np.kron(np.eye(din), eta) + eps * other.choi, kind="channel")
    if od.is_contraction_channel(c) is not None:
        assert _contraction_per_basis(c)
