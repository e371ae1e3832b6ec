import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompat import matkit as mk

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PX = (I2 + SX) / 2
PZ = (I2 + SZ) / 2


def rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def rand_herm(rng, n):
    a = rand_complex(rng, n)
    return (a + a.conj().T) / 2


def rand_psd(rng, n):
    a = rand_complex(rng, n)
    return a @ a.conj().T


def test_kron_identity():
    assert np.allclose(mk.kron(I2, I2), np.eye(4))


def test_kron_pauli_blocks():
    got = mk.kron(SX, SZ)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0:2, 2:4] = SZ
    expected[2:4, 0:2] = SZ
    assert np.allclose(got, expected)


def test_kron_entry_formula():
    # oracle: direct index formula (i*br+k, j*bc+l) = A[i,j] * B[k,l]
    rng = np.random.default_rng(7)
    a, b = rand_complex(rng, 3), rand_complex(rng, 3)
    got = mk.kron(a, b)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for ell in range(3):
                    assert got[i * 3 + k, j * 3 + ell] == pytest.approx(a[i, j] * b[k, ell])


def test_kron_associative_bilinear():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b, c = (rand_complex(rng, 2) for _ in range(3))
        assert np.linalg.norm(mk.kron(mk.kron(a, b), c) - mk.kron(a, mk.kron(b, c))) <= 1e-10
        s, t = rng.standard_normal(2)
        lhs = mk.kron(s * a + t * b, c)
        rhs = s * mk.kron(a, c) + t * mk.kron(b, c)
        assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_partial_trace_product_states():
    rng = np.random.default_rng(3)
    a, b = rand_complex(rng, 2), rand_complex(rng, 3)
    m = mk.kron(a, b)
    assert np.allclose(mk.partial_trace(m, (2, 3), keep=0), np.trace(b) * a)
    assert np.allclose(mk.partial_trace(m, (2, 3), keep=1), np.trace(a) * b)


def test_partial_trace_identity():
    assert np.allclose(mk.partial_trace(np.eye(4), (2, 2), keep=1), 2 * I2)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    m = rand_herm(rng, 6)
    for keep in (0, 1):
        assert np.trace(mk.partial_trace(m, (2, 3), keep)) == pytest.approx(np.trace(m))


def test_partial_trace_dim_mismatch():
    with pytest.raises(mk.MatrixShapeError):
        mk.partial_trace(np.eye(5), (2, 3), keep=0)


def test_herm_eig_pauli_and_projection():
    evals, _ = mk.herm_eig(SZ)
    assert np.allclose(evals, [-1.0, 1.0])
    evals, _ = mk.herm_eig(PX)
    assert np.allclose(evals, [0.0, 1.0])


def test_herm_eig_reconstruction():
    rng = np.random.default_rng(13)
    h = rand_herm(rng, 8)
    evals, evecs = mk.herm_eig(h)
    assert np.all(np.diff(evals) >= 0)
    assert np.linalg.norm((evecs * evals) @ evecs.conj().T - h) <= 1e-10 * (1 + np.linalg.norm(h))
    assert np.linalg.norm(evecs.conj().T @ evecs - np.eye(8)) <= 1e-10


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(mk.HermiticityError):
        mk.herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_project_psd_clamps_sigma_z():
    assert np.allclose(mk.project_psd(SZ), PZ)


def test_project_psd_fixed_point_and_idempotent():
    rng = np.random.default_rng(17)
    for p in (PX, PZ, np.eye(3)):
        assert np.allclose(mk.project_psd(p), p)
    h = rand_herm(rng, 4)
    once = mk.project_psd(h)
    assert np.allclose(mk.project_psd(once), once)
    assert mk.is_psd(once)


def test_project_psd_optimality_sampled():
    # oracle: no PSD matrix in a sampled neighborhood is closer in Frobenius norm
    rng = np.random.default_rng(19)
    h = rand_herm(rng, 3)
    p = mk.project_psd(h)
    base = np.linalg.norm(h - p)
    for _ in range(200):
        d = rand_herm(rng, 3)
        d /= np.linalg.norm(d)
        for eps in (0.01, 0.1, 0.5):
            candidate = mk.project_psd(p + eps * d)
            assert np.linalg.norm(h - candidate) >= base - 1e-12


def test_hermitian_basis_qubit_is_normalized_paulis():
    basis = mk.hermitian_basis(2)
    expected = [I2, SX, SY, SZ]
    assert len(basis) == 4
    for got, want in zip(basis, expected):
        assert np.allclose(got, want / np.sqrt(2))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_basis_orthonormal(d):
    basis = mk.hermitian_basis(d)
    assert len(basis) == d * d
    for i, a in enumerate(basis):
        assert np.allclose(a, a.conj().T)
        for j, b in enumerate(basis):
            assert mk.frob_inner(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_hermitian_basis_expansion_resums():
    rng = np.random.default_rng(23)
    h = rand_herm(rng, 4)
    basis = mk.hermitian_basis(4)
    coeffs = [mk.frob_inner(b, h).real for b in basis]
    resum = sum(c * b for c, b in zip(coeffs, basis))
    assert np.linalg.norm(resum - h) <= 1e-10


def test_mat_sqrt_projection_and_scalar():
    assert np.allclose(mk.mat_sqrt(PX), PX)
    assert np.allclose(mk.mat_sqrt(4 * I2), 2 * I2)


def test_mat_sqrt_square_and_compare():
    rng = np.random.default_rng(29)
    p = rand_psd(rng, 5)
    r = mk.mat_sqrt(p)
    assert np.linalg.norm(r @ r - p) <= 1e-10 * (1 + np.linalg.norm(p))
    assert mk.is_psd(r)


def test_mat_sqrt_rejects_negative():
    with pytest.raises(mk.PositivityError):
        mk.mat_sqrt(SZ)


def test_predicates():
    assert mk.is_hermitian(SX)
    assert not mk.is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert mk.is_psd(PX)
    assert not mk.is_psd(SZ)
    assert mk.frob_inner(SX, SY) == pytest.approx(0.0)
    assert mk.frob_inner(SX, SX) == pytest.approx(2.0)


def test_close_is_scale_free():
    big = 1e12 * np.eye(3)
    assert mk.close(big, big + 1e-9 * np.eye(3) * np.linalg.norm(big) * 0.1)
    assert not mk.close(np.eye(3), 2 * np.eye(3))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        mk.as_matrix(np.array([[np.nan, 0], [0, 1]]))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_herm_coords_roundtrip_isometry(d, seed):
    rng = np.random.default_rng(seed)
    h = rand_herm(rng, d)
    x = mk.herm_coords(h)
    assert x.shape == (d * d,)
    assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(h), rel=1e-12, abs=1e-12)
    back = mk.herm_from_coords(x, d)
    assert np.linalg.norm(back - h) <= 1e-12 * (1 + np.linalg.norm(h))


@pytest.mark.parametrize("d", range(1, 10))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_herm_stack_packers_equal_rowwise(d, seed):
    # the stack packers give the same bits as the one-matrix reference
    rng = np.random.default_rng([d, seed])
    n = 5
    rows = rng.standard_normal((n, d * d))
    stack = mk.herm_stack_from_coords(rows, d)
    assert stack.shape == (n, d, d)
    for row, h in zip(rows, stack):
        assert np.array_equal(h, mk.herm_from_coords(row, d))
    herms = np.stack([rand_herm(rng, d) for _ in range(n)])
    coords = mk.herm_stack_coords(herms)
    assert coords.shape == (n, d * d)
    for h, x in zip(herms, coords):
        assert np.array_equal(x, mk.herm_coords(h))
    back = mk.herm_stack_coords(stack)
    assert np.array_equal(back, np.stack([mk.herm_coords(h) for h in stack]))
    assert np.linalg.norm(back - rows) <= 1e-12 * (1 + np.linalg.norm(rows))


def test_tolerances_defaults_and_validation():
    tol = mk.Tolerances()
    assert tol.eq_tol == 1e-9 and tol.psd_tol == 1e-9 and tol.feas_tol == 1e-7
    with pytest.raises(ValueError):
        mk.Tolerances(eq_tol=-1.0)
