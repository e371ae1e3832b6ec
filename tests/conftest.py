"""Shared random-object generators for the test suite."""

import numpy as np

from qcompat.devices import CPMap, Effect, Instrument, KrausSet, Observable, choi_from_kraus
from qcompat.matkit import (
    DEFAULT_TOL,
    MatrixShapeError,
    Tolerances,
    as_matrix,
    hermitian_part,
    is_hermitian,
)


def rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def rand_herm(rng, n):
    a = rand_complex(rng, n)
    return (a + a.conj().T) / 2


def rand_psd(rng, n):
    a = rand_complex(rng, n)
    return a @ a.conj().T


def rand_state(rng, n):
    p = rand_psd(rng, n)
    return p / np.trace(p).real


def rand_effect(rng, n):
    h = rand_psd(rng, n)
    top = np.linalg.eigvalsh(h)[-1]
    return Effect(h / (top * (1.0 + rng.uniform(0.05, 1.0))))


def rand_kraus(rng, din, dout, n_ops, scale=1.0):
    """Kraus set with sum K^*K = scale^2 * I (a channel at scale 1)."""
    ops = [rand_complex(rng, dout, din) for _ in range(n_ops)]
    gram = sum(k.conj().T @ k for k in ops)
    evals, evecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    inv_root = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return KrausSet(tuple(scale * k @ inv_root for k in ops))


def rand_cpmap(rng, din=2, dout=2, n_ops=2, channel=False):
    scale = 1.0 if channel else np.sqrt(rng.uniform(0.2, 0.95))
    return choi_from_kraus(rand_kraus(rng, din, dout, n_ops, scale=scale))


def rand_observable(rng, dim, n_out):
    """Observable from normalized random PSD pieces."""
    pieces = [rand_psd(rng, dim) for _ in range(n_out)]
    total = sum(pieces)
    evals, evecs = np.linalg.eigh((total + total.conj().T) / 2)
    inv_root = (evecs / np.sqrt(evals)) @ evecs.conj().T
    labels = tuple(str(i) for i in range(n_out))
    effects = {
        lab: Effect(inv_root @ p @ inv_root) for lab, p in zip(labels, pieces)
    }
    return Observable(labels, effects)


def rand_instrument(rng, din=2, dout=2, n_out=2, ops_per_branch=1):
    """Instrument from a random normalized Kraus set split across outcomes."""
    ks = rand_kraus(rng, din, dout, n_out * ops_per_branch, scale=1.0)
    labels = tuple(str(i) for i in range(n_out))
    branches = {}
    for i, lab in enumerate(labels):
        chunk = ks.ops[i * ops_per_branch : (i + 1) * ops_per_branch]
        branches[lab] = choi_from_kraus(KrausSet(chunk))
    return Instrument(labels, branches)


def rand_rank1_deficit_op(rng):
    """Random operation whose trace deficit 1 - K*K has rank exactly 1."""
    s = rng.uniform(0.2, 0.9)
    u = np.linalg.qr(rand_complex(rng, 2))[0]
    v = np.linalg.qr(rand_complex(rng, 2))[0]
    k = u @ np.diag([1.0, np.sqrt(s)]) @ v.conj().T
    return choi_from_kraus(KrausSet((k,)))


def below_common_channel(rng):
    """Two pure qubit maps with rank-1 deficits below one channel.

    The channel has Kraus operators {K1, R1} with R1 of rank 1; mixing
    them by a unitary chosen so that det(R2) = 0 gives a second pair
    {K2, R2}, so both {K1} and {K2} sit below the channel.
    """
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    r1 = rng.uniform(0.3, 0.9) * np.outer(a / np.linalg.norm(a), (b / np.linalg.norm(b)).conj())
    evals, evecs = np.linalg.eigh(np.eye(2) - r1.conj().T @ r1)
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    haar = q * (np.diag(r) / np.abs(np.diag(r)))
    k1 = haar @ (evecs * np.sqrt(evals)) @ evecs.conj().T
    adj = np.array([[r1[1, 1], -r1[0, 1]], [-r1[1, 0], r1[0, 0]]])
    ratio = -np.linalg.det(k1) / np.trace(adj @ k1)  # u / v with det(u R1 + v K1) = 0
    v = 1.0 / np.sqrt(1.0 + abs(ratio) ** 2)
    k2 = -np.conj(v) * r1 + np.conj(ratio * v) * k1
    return choi_from_kraus(KrausSet((k1,))), choi_from_kraus(KrausSet((k2,)))


def loose_pointer():
    """A two-outcome observable valid at psd_tol 1e-6 with an effect eigenvalue
    of 1 + 5e-7, and that tolerance."""
    loose = Tolerances(psd_tol=1e-6)
    mats = {"a": np.diag([1 + 5e-7, 0.0]), "b": np.diag([-5e-7, 1.0])}
    effects = {x: Effect(m, loose) for x, m in mats.items()}
    return Observable(("a", "b"), effects, loose), loose


# ---------------------------------------------------------------------------
# linear algebra that only the tests need
# ---------------------------------------------------------------------------


def frob_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Frobenius inner product tr(a† b)."""
    return complex(np.vdot(a, b))


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


def is_psd(h: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """PSD within psd_tol; requires Hermiticity within eq_tol."""
    if not is_hermitian(h, tol):
        return False
    evals = np.linalg.eigvalsh(hermitian_part(as_matrix(h)))
    return bool(evals[0] >= -tol.psd_tol)


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
