"""Dense complex linear-algebra kernel.

Deterministic building blocks used by every other module: Kronecker
products, Hermitian eigendecomposition, square roots, isometric
Hermitian coordinates, and tolerance-aware predicates.
All functions are pure; all matrices are plain complex ndarrays.
"""

from __future__ import annotations

import functools
import math
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
    m = np.ascontiguousarray(a, dtype=complex)
    if m.ndim != 2:
        raise MatrixShapeError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def frob_norm(a: np.ndarray) -> float:
    """Frobenius norm, with ``np.linalg.norm``'s arithmetic and without its dispatch."""
    x = np.asarray(a).ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    if x.dtype.kind != "f":
        x = x.astype(float)
    return math.sqrt(x.dot(x))


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
    """(a + a*) / 2, of a matrix or of each matrix in a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def checked_hermitian_part(h: np.ndarray, tol: Tolerances, what: str) -> np.ndarray:
    """:func:`hermitian_part` of a square h that passes :func:`is_hermitian`
    (one conjugate transpose serves both); else HermiticityError naming ``what``."""
    ht = h.conj().T
    if not frob_norm(h - ht) <= tol.eq_tol * (1.0 + frob_norm(h)):
        raise HermiticityError(f"{what} is not Hermitian")
    return (h + ht) / 2.0


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor on the slow index (np.kron's products)."""
    a, b = as_matrix(a), as_matrix(b)
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


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


@functools.cache
def _pack_matrices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only real matrices that pack side-d Hermitian matrices, cached per d.

    Coordinates are the diagonal, then the sqrt(2)-weighted real and
    imaginary parts of the upper triangle (row-major). ``unpack`` is
    (d*d, 2*d*d): a coordinate row times it is the float view of the
    row-major complex matrix. ``pack`` is (2*d*d, d*d) and reads the
    coordinates back from that float view. Each output entry has a
    single nonzero term, so both products are exact up to the weights.
    """
    iu, ju = np.triu_indices(d, k=1)
    n_off = len(iu)
    diag, upper, lower = np.arange(d) * (d + 1), iu * d + ju, ju * d + iu
    re, im = d + np.arange(n_off), d + n_off + np.arange(n_off)
    r2 = 1.0 / np.sqrt(2.0)
    unpack = np.zeros((d * d, 2 * d * d))
    unpack[np.arange(d), 2 * diag] = 1.0
    unpack[re, 2 * upper] = unpack[re, 2 * lower] = r2
    unpack[im, 2 * upper + 1] = r2
    unpack[im, 2 * lower + 1] = -r2
    pack = np.zeros((2 * d * d, d * d))
    pack[2 * diag, np.arange(d)] = 1.0
    pack[2 * upper, re] = pack[2 * upper + 1, im] = np.sqrt(2.0)
    unpack.flags.writeable = pack.flags.writeable = False
    return unpack, pack


def herm_coords(h: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix.

    Packs the diagonal and the sqrt(2)-weighted real/imaginary upper
    triangle, so the Euclidean norm of the coordinates equals the
    Frobenius norm of the matrix.
    """
    h = np.ascontiguousarray(h, dtype=complex)
    return h.reshape(-1).view(float) @ _pack_matrices(h.shape[0])[1]


def herm_from_coords(x: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`herm_coords`."""
    x = np.asarray(x, dtype=float)
    if x.size != d * d:
        raise MatrixShapeError(f"expected {d * d} coordinates, got {x.size}")
    return (x.reshape(d * d) @ _pack_matrices(d)[0]).view(complex).reshape(d, d)


def herm_stack_coords(stack: np.ndarray) -> np.ndarray:
    """Row-wise :func:`herm_coords` of a (n, d, d) Hermitian stack."""
    n, d, _ = stack.shape
    flat = np.ascontiguousarray(stack, dtype=complex).reshape(n, d * d).view(float)
    return flat @ _pack_matrices(d)[1]


def herm_stack_from_coords(x: np.ndarray, d: int) -> np.ndarray:
    """Row-wise :func:`herm_from_coords` of (n, d*d) coordinate rows."""
    return (x @ _pack_matrices(d)[0]).view(complex).reshape(len(x), d, d)
