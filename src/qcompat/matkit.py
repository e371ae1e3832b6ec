"""Dense complex linear-algebra kernel.

Deterministic building blocks used by every other module: Kronecker
products, partial traces, Hermitian eigendecomposition, PSD projection,
orthonormal Hermitian operator bases, and tolerance-aware predicates.
All functions are pure; all matrices are plain complex ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MatrixShapeError(ValueError):
    """Input dimensions are inconsistent with the requested operation."""


class HermiticityError(ValueError):
    """An operation required a Hermitian matrix and did not get one."""


class PositivityError(ValueError):
    """An operation required a PSD matrix and found a negative eigenvalue."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the toolkit.

    eq_tol   -- relative Frobenius threshold for matrix equality
    psd_tol  -- eigenvalue floor below which a matrix counts as non-PSD
    feas_tol -- residual threshold for feasibility verdicts
    """

    eq_tol: float = 1e-9
    psd_tol: float = 1e-9
    feas_tol: float = 1e-7

    def __post_init__(self) -> None:
        if self.eq_tol < 0 or self.psd_tol < 0 or self.feas_tol < 0:
            raise ValueError("tolerances must be nonnegative")


DEFAULT_TOL = Tolerances()


def as_matrix(a) -> np.ndarray:
    """Coerce to a C-ordered complex matrix and reject non-finite entries."""
    m = np.ascontiguousarray(np.asarray(a, dtype=complex))
    if m.ndim != 2:
        raise MatrixShapeError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def frob_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def frob_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Frobenius inner product tr(a† b)."""
    return complex(np.vdot(a, b))


def close(a: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Scale-free matrix equality: ||a - b||_F <= eq_tol * (1 + ||a||_F)."""
    if a.shape != b.shape:
        return False
    return frob_norm(a - b) <= tol.eq_tol * (1.0 + frob_norm(a))


def is_hermitian(h: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        return False
    return frob_norm(h - h.conj().T) <= tol.eq_tol * (1.0 + frob_norm(h))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor on the slow index."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor slot of a square matrix on a bipartite space.

    ``dims = (d0, d1)`` gives the slot sides (slot 0 is the slow index);
    ``keep`` selects the surviving slot. Linear and trace-preserving.
    """
    d0, d1 = dims
    m = as_matrix(m)
    if m.shape != (d0 * d1, d0 * d1):
        raise MatrixShapeError(f"matrix side {m.shape[0]} != {d0}*{d1}")
    if keep not in (0, 1):
        raise ValueError("keep must be 0 or 1")
    t = m.reshape(d0, d1, d0, d1)
    if keep == 0:
        return np.ascontiguousarray(np.einsum("ikjk->ij", t))
    return np.ascontiguousarray(np.einsum("kikj->ij", t))


def herm_eig(h: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (evals ascending, evecs as columns). Raises HermiticityError
    when the input is not Hermitian within eq_tol.
    """
    h = as_matrix(h)
    if not is_hermitian(h, tol):
        raise HermiticityError("input is not Hermitian within eq_tol")
    evals, evecs = np.linalg.eigh(hermitian_part(h))
    return evals, evecs


def is_psd(h: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """PSD within psd_tol; requires Hermiticity within eq_tol."""
    if not is_hermitian(h, tol):
        return False
    evals = np.linalg.eigvalsh(hermitian_part(as_matrix(h)))
    return bool(evals[0] >= -tol.psd_tol)


def project_psd(h: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Frobenius-nearest PSD matrix: clamp negative eigenvalues to zero."""
    evals, evecs = herm_eig(h, tol)
    clamped = np.maximum(evals, 0.0)
    out = (evecs * clamped) @ evecs.conj().T
    return hermitian_part(out)


def mat_sqrt(p: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Principal (PSD) square root of a PSD matrix.

    Eigenvalues at or below the PSD floor count as exact zeros; taking
    their square root would otherwise amplify rounding noise from
    eps-level to sqrt(eps)-level.
    """
    evals, evecs = herm_eig(p, tol)
    if evals[0] < -tol.psd_tol:
        raise PositivityError(f"matrix has negative eigenvalue {evals[0]:.3e}")
    clean = np.where(evals > tol.psd_tol, evals, 0.0)
    root = np.sqrt(clean)
    return hermitian_part((evecs * root) @ evecs.conj().T)


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of the d x d matrices (Frobenius pairing).

    Ordering: normalized identity, symmetric off-diagonal pairs,
    antisymmetric off-diagonal pairs, traceless diagonal matrices.
    Real combinations span the Hermitian matrices; complex combinations
    span everything.
    """
    if d <= 0:
        raise ValueError("dimension must be positive")
    basis: list[np.ndarray] = [np.eye(d, dtype=complex) / np.sqrt(d)]
    r2 = 1.0 / np.sqrt(2.0)
    for k in range(1, d):
        for j in range(k):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = r2
            m[k, j] = r2
            basis.append(m)
    for k in range(1, d):
        for j in range(k):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j * r2
            m[k, j] = 1j * r2
            basis.append(m)
    for ell in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        norm = np.sqrt(ell * (ell + 1.0))
        m[np.arange(ell), np.arange(ell)] = 1.0 / norm
        m[ell, ell] = -ell / norm
        basis.append(m)
    return basis


_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _triu(d: int) -> tuple[np.ndarray, np.ndarray]:
    if d not in _TRIU_CACHE:
        _TRIU_CACHE[d] = np.triu_indices(d, k=1)
    return _TRIU_CACHE[d]


def herm_coords(h: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix.

    Packs the diagonal and the sqrt(2)-weighted real/imaginary upper
    triangle, so the Euclidean norm of the coordinates equals the
    Frobenius norm of the matrix.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    iu = _triu(d)
    r2 = np.sqrt(2.0)
    return np.concatenate(
        [h.diagonal().real, r2 * h[iu].real, r2 * h[iu].imag]
    )


def herm_from_coords(x: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`herm_coords`."""
    x = np.asarray(x, dtype=float)
    if x.size != d * d:
        raise MatrixShapeError(f"expected {d * d} coordinates, got {x.size}")
    n_off = d * (d - 1) // 2
    diag = x[:d]
    re = x[d : d + n_off]
    im = x[d + n_off :]
    h = np.zeros((d, d), dtype=complex)
    iu = _triu(d)
    r2 = np.sqrt(2.0)
    h[iu] = (re + 1j * im) / r2
    h = h + h.conj().T
    h[np.arange(d), np.arange(d)] = diag
    return h


def coord_matrix(linear, d: int) -> np.ndarray:
    """Real matrix of a linear map on d x d Hermitian matrices.

    Coordinates are those of :func:`herm_coords`; column k is the image
    of the k-th unit coordinate vector.
    """
    cols = []
    for k in range(d * d):
        unit = np.zeros(d * d)
        unit[k] = 1.0
        cols.append(herm_coords(linear(herm_from_coords(unit, d))))
    return np.column_stack(cols)


_PACK_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _pack_tables(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables that pack side-d Hermitian stacks, cached per d.

    ``unpack`` maps each row-major matrix entry to its position in
    ``[diag, upper, conj(upper)]``; ``pack`` maps each coordinate to its
    position in the float view of the flattened matrix; ``scale`` weights
    the coordinates (1 on the diagonal, sqrt(2) off it).
    """
    if d not in _PACK_CACHE:
        iu, ju = _triu(d)
        n_off = len(iu)
        unpack = np.empty((d, d), dtype=np.intp)
        unpack[np.arange(d), np.arange(d)] = np.arange(d)
        unpack[iu, ju] = d + np.arange(n_off)
        unpack[ju, iu] = d + n_off + np.arange(n_off)
        diag = np.arange(d) * (d + 1)
        upper = iu * d + ju
        pack = np.concatenate([2 * diag, 2 * upper, 2 * upper + 1])
        scale = np.concatenate([np.ones(d), np.full(2 * n_off, np.sqrt(2.0))])
        _PACK_CACHE[d] = (unpack.ravel(), pack, scale)
    return _PACK_CACHE[d]


def herm_stack_coords(stack: np.ndarray) -> np.ndarray:
    """Row-wise :func:`herm_coords` of a (n, d, d) Hermitian stack."""
    n, d, _ = stack.shape
    _, pack, scale = _pack_tables(d)
    flat = np.ascontiguousarray(stack, dtype=complex).reshape(n, d * d).view(float)
    return flat[:, pack] * scale


def herm_stack_from_coords(x: np.ndarray, d: int) -> np.ndarray:
    """Row-wise :func:`herm_from_coords` of (n, d*d) coordinate rows."""
    n = x.shape[0]
    n_off = d * (d - 1) // 2
    unpack, _, _ = _pack_tables(d)
    upper = (x[:, d : d + n_off] + 1j * x[:, d + n_off :]) / np.sqrt(2.0)
    vals = np.concatenate([x[:, :d], upper, upper.conj()], axis=1)
    return vals[:, unpack].reshape(n, d, d)
