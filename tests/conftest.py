"""Shared random-object generators for the test suite.

The basic draws wrap the benchmark's own generators in perfbench/workloads.py,
so that the tests and the benchmark sample one distribution.
"""

import sys
import types
from pathlib import Path

import numpy as np

from qcompat.devices import CPMap, Effect, Instrument, KrausSet, Observable, choi_from_kraus
from qcompat.feasibility import AffineConstraint, PartialTrace
from qcompat.matkit import (
    DEFAULT_TOL,
    MatrixShapeError,
    Tolerances,
    as_matrix,
    herm_coords,
    hermitian_part,
    is_hermitian,
    kron,
)


def _load_benchmark_workloads() -> types.ModuleType:
    """perfbench/workloads.py, executed once from its source, so that no byte code is
    written next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    wl = types.ModuleType("perfbench_workloads")
    sys.modules[wl.__name__] = wl  # its dataclass looks itself up there
    exec(compile(path.read_text(), str(path), "exec"), wl.__dict__)
    return wl


benchmark_workloads = _load_benchmark_workloads()
rand_complex = benchmark_workloads.rand_complex
rand_psd = benchmark_workloads.rand_psd
haar_unitary = benchmark_workloads.haar_unitary


def rand_herm(rng, n):
    a = rand_complex(rng, n)
    return (a + a.conj().T) / 2


def rand_state(rng, n):
    p = rand_psd(rng, n)
    return p / np.trace(p).real


def rand_effect(rng, n):
    return Effect(benchmark_workloads.rand_effect_matrix(rng, n))


def rand_kraus(rng, din, dout, n_ops, scale=1.0):
    """Kraus set with sum K^*K = scale^2 * I (a channel at scale 1)."""
    return KrausSet(tuple(benchmark_workloads.rand_kraus_ops(rng, din, dout, n_ops, scale)))


def rand_cpmap(rng, din=2, dout=2, n_ops=2, channel=False):
    scale = 1.0 if channel else np.sqrt(rng.uniform(0.2, 0.95))
    return choi_from_kraus(rand_kraus(rng, din, dout, n_ops, scale=scale))


def rand_observable(rng, dim, n_out):
    """Observable from normalized random PSD pieces, labelled "0", "1", ..."""
    wl = benchmark_workloads
    return wl.observable(wl.rand_observable_matrices(rng, dim, n_out))


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


def conjugate(device, u):
    """An effect, an observable or a map with input and output conjugated by the
    unitary u: E -> u E u^*, and Phi -> u Phi(u^* . u) u^*, whose Choi matrix
    (input slot first) is (conj(u) x u) C (conj(u) x u)^*."""
    if isinstance(device, Effect):
        return Effect(hermitian_part(u @ device.matrix @ u.conj().T))
    if isinstance(device, Observable):
        return Observable(device.outcomes,
                          {x: conjugate(e, u) for x, e in device.effects.items()})
    w = np.kron(u.conj(), u)
    return CPMap(device.dim_in, device.dim_out, hermitian_part(w @ device.choi @ w.conj().T))


def noisy_fourier_pair(d, lam, mu):
    """Z^lam and X^mu: the sharp observables of the computational and the Fourier
    basis in dimension d, each effect P mixed with white noise, t P + (1 - t) 1/d."""
    fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)

    def noisy(basis, t):
        labels = tuple(str(x) for x in range(d))
        return Observable(labels, {x: Effect(t * np.outer(v, v.conj()) + (1 - t) * np.eye(d) / d)
                                   for x, v in zip(labels, basis.T)})

    return noisy(np.eye(d), lam), noisy(fourier, mu)


def fourier_jointly_measurable(d, lam, mu) -> bool:
    """The closed-form oracle for :func:`noisy_fourier_pair` (Carmeli, Heinosaari &
    Toigo, PRA 85, 012109 (2012)): Z^lam and X^mu are jointly measurable iff
    lam + mu <= 1 or lam^2 + mu^2 + (2 (d - 2) / d)(1 - lam)(1 - mu) <= 1. At
    d = 2 it is the unbiased Busch criterion, lam^2 + mu^2 <= 1."""
    return lam + mu <= 1 or lam ** 2 + mu ** 2 + 2 * (d - 2) / d * (1 - lam) * (1 - mu) <= 1


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


def state_prep_choi(effect_matrix, rho0) -> np.ndarray:
    """Choi matrix of the measure-and-prepare map ``rho -> tr[E rho] rho0``."""
    return kron(np.asarray(effect_matrix).T, rho0)


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


def sum_constraint(blocks, target: np.ndarray) -> AffineConstraint:
    """The typed row ``sum_i c_i X_i = target`` for same-side blocks, with the
    target's Hermitian part as right-hand side. ``blocks`` holds names or
    (name, coefficient) pairs; a bare name gets coefficient +1."""
    terms = (item if isinstance(item, tuple) else (item, 1.0) for item in blocks)
    rhs = herm_coords(hermitian_part(as_matrix(target)))
    return AffineConstraint(tuple((n, float(c)) for n, c in terms), rhs)


def partial_trace_constraint(block: str, dims: tuple[int, int], target) -> AffineConstraint:
    """The typed row ``Tr_2(X) = target`` for a block on the bipartite space ``dims``."""
    rhs = herm_coords(hermitian_part(as_matrix(target)))
    return AffineConstraint(((block, PartialTrace(tuple(dims))),), rhs)


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
