import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompat import matkit as mk

from conftest import frob_inner, hermitian_basis, is_psd, partial_trace

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


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_kron_unchecked_gives_the_bits_of_kron():
    # the engine's products: an orthonormal basis with its conjugate, and a
    # complex basis with a real identity on either side
    rng = np.random.default_rng(5)
    for n, r in ((2, 1), (4, 2), (6, 3), (3, 3)):
        u = np.linalg.qr(rand_complex(rng, n, r))[0]
        for a, b in ((u, u.conj()), (u, np.eye(2)), (np.eye(3), u), (u[:, ::-1], u.conj()[::2])):
            assert _same_bits(mk.kron_unchecked(a, b), mk.kron(a, b))


@pytest.mark.parametrize("x", [
    np.zeros(0), np.zeros((0, 3)), np.array([-2.5]), np.array([[3.0 - 4.0j]]),
    np.array([3, 4]), np.zeros(0, dtype=complex),
    np.random.default_rng(1).standard_normal(17),
    np.random.default_rng(2).standard_normal((5, 7)),
    rand_complex(np.random.default_rng(3), 6),
    rand_complex(np.random.default_rng(4), 1, 9)[0],
    rand_complex(np.random.default_rng(5), 4, 4).T,
], ids=["empty", "empty-matrix", "one", "one-complex", "int", "empty-complex", "real-vector",
        "real-matrix", "complex-matrix", "complex-vector", "complex-transposed"])
def test_frob_norm_gives_the_bits_of_linalg_norm(x):
    assert _same_bits(np.float64(mk.frob_norm(x)), np.float64(np.linalg.norm(x)))


def test_herm_from_coords_is_exactly_hermitian():
    # solver witnesses are unpacked coordinates, returned without hermitian_part
    rng = np.random.default_rng(9)
    for d in range(1, 7):
        for x in (rng.standard_normal(d * d), -np.abs(rng.standard_normal(d * d)), np.zeros(d * d)):
            h = mk.herm_from_coords(x, d)
            assert _same_bits(h, mk.hermitian_part(h))


def test_partial_trace_product_states():
    rng = np.random.default_rng(3)
    a, b = rand_complex(rng, 2), rand_complex(rng, 3)
    m = mk.kron(a, b)
    assert np.allclose(partial_trace(m, (2, 3), keep=0), np.trace(b) * a)
    assert np.allclose(partial_trace(m, (2, 3), keep=1), np.trace(a) * b)


def test_partial_trace_identity():
    assert np.allclose(partial_trace(np.eye(4), (2, 2), keep=1), 2 * I2)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    m = rand_herm(rng, 6)
    for keep in (0, 1):
        assert np.trace(partial_trace(m, (2, 3), keep)) == pytest.approx(np.trace(m))


def test_partial_trace_dim_mismatch():
    with pytest.raises(mk.MatrixShapeError):
        partial_trace(np.eye(5), (2, 3), keep=0)


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


def test_close_and_is_hermitian_are_false_on_mismatched_shapes():
    assert not mk.close(np.eye(2), np.eye(3))
    assert not mk.is_hermitian(np.ones((2, 3)))


def test_hermitian_basis_qubit_is_normalized_paulis():
    basis = hermitian_basis(2)
    expected = [I2, SX, SY, SZ]
    assert len(basis) == 4
    for got, want in zip(basis, expected):
        assert np.allclose(got, want / np.sqrt(2))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_basis_orthonormal(d):
    basis = hermitian_basis(d)
    assert len(basis) == d * d
    for i, a in enumerate(basis):
        assert np.allclose(a, a.conj().T)
        for j, b in enumerate(basis):
            assert frob_inner(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_hermitian_basis_expansion_resums():
    rng = np.random.default_rng(23)
    h = rand_herm(rng, 4)
    basis = hermitian_basis(4)
    coeffs = [frob_inner(b, h).real for b in basis]
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
    assert is_psd(r)


def test_mat_sqrt_rejects_negative():
    with pytest.raises(mk.PositivityError):
        mk.mat_sqrt(SZ)


def test_predicates():
    assert mk.is_hermitian(SX)
    assert not mk.is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert is_psd(PX)
    assert not is_psd(SZ)
    assert frob_inner(SX, SY) == pytest.approx(0.0)
    assert frob_inner(SX, SX) == pytest.approx(2.0)


def test_close_is_scale_free():
    big = 1e12 * np.eye(3)
    assert mk.close(big, big + 1e-9 * np.eye(3) * np.linalg.norm(big) * 0.1)
    assert not mk.close(np.eye(3), 2 * np.eye(3))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        mk.as_matrix(np.array([[np.nan, 0], [0, 1]]))


@pytest.mark.parametrize("build, match", [
    (lambda: mk.as_matrix(np.zeros((2, 2, 2))), "2-d matrix, got ndim=3"),
    (lambda: mk.herm_from_coords(np.zeros(3), 2), "expected 4 coordinates, got 3"),
    (lambda: mk.side_product(2, 0), "sides 2, 0 are not positive integers"),
    (lambda: mk.side_product(True), "not positive integers"),
    (lambda: mk.side_product(2.0), "not positive integers"),
], ids=["matrix-3d", "coords-count", "side-0", "side-bool", "side-float"])
def test_shape_validators_raise_shape_errors(build, match):
    with pytest.raises(mk.MatrixShapeError, match=match):
        build()


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


def index_coords(h):
    """Reference packing by index: diagonal, then sqrt(2) Re and Im of the upper triangle."""
    iu = np.triu_indices(h.shape[0], k=1)
    return np.concatenate([h.diagonal().real, np.sqrt(2.0) * h[iu].real, np.sqrt(2.0) * h[iu].imag])


def index_from_coords(x, d):
    """Reference unpacking by index, the inverse of index_coords."""
    iu = np.triu_indices(d, k=1)
    n_off = len(iu[0])
    h = np.zeros((d, d), dtype=complex)
    h[iu] = (x[d : d + n_off] + 1j * x[d + n_off :]) / np.sqrt(2.0)
    h = h + h.conj().T
    h[np.diag_indices(d)] = x[:d]
    return h


@pytest.mark.parametrize("d", range(1, 10))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_herm_stack_packers_equal_rowwise(d, seed):
    # the matmul packers, of stacks and of single matrices, give the bits
    # of the packing by index
    rng = np.random.default_rng([d, seed])
    n = 5
    rows = rng.standard_normal((n, d * d))
    stack = mk.herm_stack_from_coords(rows, d)
    assert stack.shape == (n, d, d)
    for row, h in zip(rows, stack):
        assert np.array_equal(h, mk.herm_from_coords(row, d))
        assert np.array_equal(h, index_from_coords(row, d))
    herms = np.stack([rand_herm(rng, d) for _ in range(n)])
    coords = mk.herm_stack_coords(herms)
    assert coords.shape == (n, d * d)
    for h, x in zip(herms, coords):
        assert np.array_equal(x, mk.herm_coords(h))
        assert np.array_equal(x, index_coords(h))
    assert np.linalg.norm(mk.herm_stack_from_coords(coords, d) - herms) <= 1e-12 * (
        1 + np.linalg.norm(herms)
    )
    back = mk.herm_stack_coords(stack)
    assert np.array_equal(back, np.stack([mk.herm_coords(h) for h in stack]))
    assert np.linalg.norm(back - rows) <= 1e-12 * (1 + np.linalg.norm(rows))


def test_tolerances_defaults_and_validation():
    tol = mk.Tolerances()
    assert tol.eq_tol == 1e-9 and tol.psd_tol == 1e-9 and tol.feas_tol == 1e-7
    with pytest.raises(ValueError):
        mk.Tolerances(eq_tol=-1.0)


@pytest.mark.parametrize("field", ["eq_tol", "psd_tol", "feas_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_tolerances_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match="finite"):
        mk.Tolerances(**{field: value})
