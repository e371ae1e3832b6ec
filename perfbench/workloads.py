"""Seeded device-pair workloads for the classify benchmark.

Each workload is a *round*: an ordered list of device pairs with a fixed
mix of categories. The timed loop cycles whole rounds. Every pair carries
what its verdict is checked against: a set of allowed relations fixed by
the construction, an analytic oracle or the paper's Table 1.

Only this module decides which inputs the program sees; the program
receives the generated devices and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from qcompat import devices as dv
from qcompat import order as od
from qcompat.devices import CPMap, Effect, Instrument, Observable
from qcompat.fixtures import TABLE1_CELLS, builtin_devices

COMPATIBLE = "compatible"
WEAK = "weakly_compatible_only"
STRONG = "strongly_incompatible"

# Table 1 rows, as named in qcompat.fixtures, to relations.
TABLE1_RELATION = {
    "compatible": COMPATIBLE,
    "incompatible but weakly compatible": WEAK,
    "strongly incompatible": STRONG,
}

# engine-tail draws its corpus from this seed; --seed picks the frames
CORPUS_SEED = 2012


@dataclass(frozen=True)
class Pair:
    """One classify call of a round.

    ``expected`` is the set of relations the verdict may take; None when
    only the structural rules apply.
    """

    pid: int
    category: str
    d1: object
    d2: object
    fast_paths: bool = True
    expected: frozenset[str] | None = None


# ---------------------------------------------------------------------------
# random objects (the same draws as the test suite's generators)
# ---------------------------------------------------------------------------


def rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def rand_psd(rng, n):
    a = rand_complex(rng, n)
    return a @ a.conj().T


def rand_effect_matrix(rng, n):
    h = rand_psd(rng, n)
    top = np.linalg.eigvalsh(h)[-1]
    return h / (top * (1.0 + rng.uniform(0.05, 1.0)))


def rand_kraus_ops(rng, din, dout, n_ops, scale=1.0):
    """Kraus operators with sum K^*K = scale^2 * I."""
    ops = [rand_complex(rng, dout, din) for _ in range(n_ops)]
    gram = sum(k.conj().T @ k for k in ops)
    evals, evecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    inv_root = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return [scale * k @ inv_root for k in ops]


def rand_observable_matrices(rng, dim, n_out):
    pieces = [rand_psd(rng, dim) for _ in range(n_out)]
    total = sum(pieces)
    evals, evecs = np.linalg.eigh((total + total.conj().T) / 2)
    inv_root = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return [inv_root @ p @ inv_root for p in pieces]


def haar_unitary(rng, d):
    q, r = np.linalg.qr(rand_complex(rng, d))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def choi_of(ops) -> np.ndarray:
    dout, din = ops[0].shape
    side = din * dout
    j = np.zeros((side, side), dtype=complex)
    for k in ops:
        v = k.T.reshape(side)
        j += np.outer(v, v.conj())
    return j


def cpmap(ops, channel=False) -> CPMap:
    dout, din = ops[0].shape
    return CPMap(din, dout, choi_of(ops), kind="channel" if channel else "operation")


def observable(mats) -> Observable:
    labels = tuple(str(i) for i in range(len(mats)))
    return Observable(labels, {x: Effect(m) for x, m in zip(labels, mats)})


def top_eig(h) -> float:
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2)[-1])


def min_eig(h) -> float:
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2)[0])


def heisenberg_unit(ops) -> np.ndarray:
    return sum(k.conj().T @ k for k in ops)


def diag_in(u, values) -> np.ndarray:
    return (u * np.asarray(values)) @ u.conj().T


def projector(v) -> np.ndarray:
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# fastpath-mix: every pair built so that one analytic fast path decides it
# ---------------------------------------------------------------------------


def _ef_commuting(rng, k):
    u = haar_unitary(rng, 2)
    e1 = Effect(diag_in(u, rng.uniform(0, 1, 2)))
    e2 = Effect(diag_in(u, rng.uniform(0, 1, 2)))
    return e1, e2, {COMPATIBLE}


def _ef_sum_below(rng, k):
    while True:
        a, b = rand_effect_matrix(rng, 2), rand_effect_matrix(rng, 2)
        scale = 0.99 / max(1.0, top_eig(a + b))
        a, b = scale * a, scale * b
        if np.linalg.norm(a @ b - b @ a) > 1e-3:
            return Effect(a), Effect(b), {COMPATIBLE}


def _ef_projection(rng, k):
    # a projection and an effect are coexistent exactly when they commute
    while True:
        p = projector(rand_complex(rng, 2, 1)[:, 0])
        e = rand_effect_matrix(rng, 2)
        if np.linalg.norm(p @ e - e @ p) > 0.05 and top_eig(p + e) > 1.05:
            return _swap_odd(k, Effect(p), Effect(e), {WEAK})


def _diag_observable(rng, u, n_out):
    weights = rng.dirichlet(np.ones(n_out), size=u.shape[0])  # rows: eigenvector
    return observable([diag_in(u, weights[:, k]) for k in range(n_out)])


def _trivial_observable(rng, dim, n_out):
    p = rng.dirichlet(np.ones(n_out))
    return dv.trivial_observable({str(i): float(x) for i, x in enumerate(p)}, dim)


def _ef_obs_commuting(rng, k):
    u = haar_unitary(rng, 2)
    e = Effect(diag_in(u, rng.uniform(0, 1, 2)))
    return e, _diag_observable(rng, u, 2 + int(rng.integers(2))), {COMPATIBLE}


def _ef_obs_trivial(rng, k):
    n_out = 2 + int(rng.integers(2))
    if k % 2 == 0:
        e = Effect(rand_effect_matrix(rng, 2))
        return e, _trivial_observable(rng, 2, n_out), {COMPATIBLE}
    e = Effect(rng.uniform(0.1, 0.9) * np.eye(2))
    return e, observable(rand_observable_matrices(rng, 2, n_out)), {COMPATIBLE}


def _obs_obs_commuting(rng, k):
    u = haar_unitary(rng, 2)
    a = _diag_observable(rng, u, 2 + int(rng.integers(2)))
    b = _diag_observable(rng, u, 2 + int(rng.integers(2)))
    return a, b, {COMPATIBLE}


def _obs_obs_trivial(rng, k):
    a = _trivial_observable(rng, 2, 2 + int(rng.integers(2)))
    b = observable(rand_observable_matrices(rng, 2, 2 + int(rng.integers(2))))
    return _swap_odd(k, a, b, {COMPATIBLE})


def _swap_odd(k, a, b, expected):
    """Odd draws of a category pass the pair in the other order."""
    return (a, b, expected) if k % 2 == 0 else (b, a, expected)


def _op_ef_range(rng, k):
    # Lueders map of a rank-1 projection; the effect commutes with its range
    u = haar_unitary(rng, 2)
    p = diag_in(u, [1.0, 0.0])
    f = cpmap([p])
    e = Effect(diag_in(u, rng.uniform(0, 1, 2)))
    return _swap_odd(k, f, e, {COMPATIBLE})


def _op_ef_sum_below(rng, k):
    while True:
        ops = rand_kraus_ops(rng, 2, 2, 2, scale=np.sqrt(rng.uniform(0.2, 0.7)))
        room = np.eye(2) - heisenberg_unit(ops)
        e = rand_effect_matrix(rng, 2)
        e = e * 0.98 * min(1.0, min_eig(room) / top_eig(e))
        if top_eig(e) > 0.05:
            return _swap_odd(k, cpmap(ops), Effect(e), {COMPATIBLE})


def _op_op_comparable(rng, k):
    ops = rand_kraus_ops(rng, 2, 2, 2, scale=np.sqrt(rng.uniform(0.3, 0.95)))
    return _swap_odd(k, cpmap(ops[:1]), cpmap(ops), {COMPATIBLE})


def _op_op_sum_below(rng, k):
    while True:
        a = rand_kraus_ops(rng, 2, 2, 2, scale=np.sqrt(rng.uniform(0.1, 0.5)))
        b = rand_kraus_ops(rng, 2, 2, 2, scale=np.sqrt(rng.uniform(0.1, 0.5)))
        if top_eig(heisenberg_unit(a) + heisenberg_unit(b)) > 0.99:
            continue
        diff = choi_of(b) - choi_of(a)
        if min(min_eig(diff), min_eig(-diff)) < -0.02:  # not comparable
            return cpmap(a), cpmap(b), {COMPATIBLE}


def _rank1_deficit_kraus(rng):
    """A pure qubit operation whose trace deficit has rank 1."""
    v, w = haar_unitary(rng, 2), haar_unitary(rng, 2)
    return v @ np.diag([1.0, rng.uniform(0.2, 0.9)]) @ w.conj().T


def _below_common_channel(rng):
    """Two pure maps with rank-1 deficits below one channel, by construction.

    The channel has Kraus operators {K1, R1} with R1 of rank 1. Mixing them
    by the unitary [[u, v], [-conj(v), conj(u)]] gives a second Kraus pair
    {K2, R2}; u/v is chosen so that det(R2) = 0, so K2's deficit R2*R2 has
    rank 1 as well. Both {K1} and {K2} sit below the channel.
    """
    a = rand_complex(rng, 2, 1)[:, 0]
    b = rand_complex(rng, 2, 1)[:, 0]
    r1 = rng.uniform(0.3, 0.9) * np.outer(a / np.linalg.norm(a), (b / np.linalg.norm(b)).conj())
    evals, evecs = np.linalg.eigh(np.eye(2) - r1.conj().T @ r1)
    k1 = haar_unitary(rng, 2) @ (evecs * np.sqrt(evals)) @ evecs.conj().T
    adj = np.array([[r1[1, 1], -r1[0, 1]], [-r1[1, 0], r1[0, 0]]])
    ratio = -np.linalg.det(k1) / np.trace(adj @ k1)  # u / v with det(u R1 + v K1) = 0
    v = 1.0 / np.sqrt(1.0 + abs(ratio) ** 2)
    u = ratio * v
    k2 = -np.conj(v) * r1 + np.conj(u) * k1
    return k1, k2


def _op_op_rank1(rng, k):
    """Incompatible pure pairs with rank-1 deficits.

    Half are weakly compatible by construction (a common upper channel
    exists); the other half are random, and only their incompatibility is
    known (from the pure-pair oracle).
    """
    constructed = k % 2 == 0
    while True:
        if constructed:
            k1, k2 = _below_common_channel(rng)
        else:
            k1, k2 = _rank1_deficit_kraus(rng), _rank1_deficit_kraus(rng)
        if top_eig(k1.conj().T @ k1 + k2.conj().T @ k2) <= 1.02:
            continue
        f1, f2 = cpmap([k1]), cpmap([k2])
        if not od.pure_pair_compatible(f1, f2):
            return f1, f2, {WEAK} if constructed else {WEAK, STRONG}


def _ch_op(rng, k):
    ops = rand_kraus_ops(rng, 2, 2, 2)
    lam = cpmap(ops, channel=True)
    if k % 4 < 2:
        return _swap_odd(k, lam, cpmap([ops[0] * np.sqrt(rng.uniform(0.3, 1.0))]), {COMPATIBLE})
    while True:
        f = rand_kraus_ops(rng, 2, 2, 1, scale=np.sqrt(rng.uniform(0.3, 0.9)))
        if min_eig(choi_of(ops) - choi_of(f)) < -0.05:
            return _swap_odd(k, lam, cpmap(f), {STRONG})


def _ch_ch(rng, k):
    ops = rand_kraus_ops(rng, 2, 2, 2)
    if k % 2 == 0:
        return cpmap(ops, channel=True), cpmap(ops, channel=True), {COMPATIBLE}
    other = rand_kraus_ops(rng, 2, 2, 2)
    return cpmap(ops, channel=True), cpmap(other, channel=True), {STRONG}


def _ch_ef_range(rng, k):
    # dephasing in the effect's eigenbasis
    u = haar_unitary(rng, 2)
    lam = cpmap([diag_in(u, [1.0, 0.0]), diag_in(u, [0.0, 1.0])], channel=True)
    e = Effect(diag_in(u, rng.uniform(0, 1, 2)))
    return _swap_odd(k, lam, e, {COMPATIBLE})


def _ch_obs_contraction(rng, k):
    p = rand_psd(rng, 2)
    lam = dv.contraction_channel(p / np.trace(p).real)
    a = observable(rand_observable_matrices(rng, 2, 2 + int(rng.integers(2))))
    return _swap_odd(k, lam, a, {COMPATIBLE})


def _rand_instrument(rng, n_out):
    ops = rand_kraus_ops(rng, 2, 2, n_out)
    labels = tuple(str(i) for i in range(n_out))
    return Instrument(labels, {x: cpmap([k]) for x, k in zip(labels, ops)}), ops


def _ins_ch(rng, k):
    ins, ops = _rand_instrument(rng, 2 + int(rng.integers(2)))
    if k % 4 < 2:
        return _swap_odd(k, ins, cpmap(ops, channel=True), {COMPATIBLE})
    return _swap_odd(k, ins, cpmap(rand_kraus_ops(rng, 2, 2, 2), channel=True), {STRONG})


def _ins_ins(rng, k):
    a, _ = _rand_instrument(rng, 2 + int(rng.integers(2)))
    b, _ = _rand_instrument(rng, 2 + int(rng.integers(2)))
    return a, b, {STRONG}


FASTPATH_CATEGORIES = (
    ("ef-ef/commuting-effects", _ef_commuting),
    ("ef-ef/sum-below-identity", _ef_sum_below),
    ("ef-ef/projection-commutation", _ef_projection),
    ("ef-obs/commuting-observables", _ef_obs_commuting),
    ("ef-obs/trivial-observable", _ef_obs_trivial),
    ("obs-obs/commuting-observables", _obs_obs_commuting),
    ("obs-obs/trivial-observable", _obs_obs_trivial),
    ("op-ef/range-commutation", _op_ef_range),
    ("op-ef/sum-below-identity", _op_ef_sum_below),
    ("op-op/comparable", _op_op_comparable),
    ("op-op/sum-below-identity", _op_op_sum_below),
    ("op-op/pure-oracle+rank1-family", _op_op_rank1),
    ("ch-op/cp-order", _ch_op),
    ("ch-ch/equal-or-distinct", _ch_ch),
    ("ch-ef/range-commutation", _ch_ef_range),
    ("ch-obs/contraction-channel", _ch_obs_contraction),
    ("ins-ch/total-channel", _ins_ch),
    ("ins-ins/distinct-totals", _ins_ins),
)
FASTPATH_PER_CATEGORY = 8


def fastpath_mix(seed: int) -> list[Pair]:
    """Round-robin over the fast-path categories, fresh pairs per seed.

    Builders get the draw index k and alternate their variants (argument
    order, compatible or not) by it, so every round has the same mix.
    """
    rngs = [np.random.default_rng([seed, i]) for i in range(len(FASTPATH_CATEGORIES))]
    pairs: list[Pair] = []
    for k in range(FASTPATH_PER_CATEGORY):
        for (name, build), rng in zip(FASTPATH_CATEGORIES, rngs):
            d1, d2, expected = build(rng, k)
            pairs.append(Pair(len(pairs), name, d1, d2, expected=frozenset(expected)))
    return pairs


# ---------------------------------------------------------------------------
# pure-opop and engine-tail: a fixed corpus, seen in seeded unitary frames
#
# Engine pairs cost from milliseconds to seconds, so fresh random pairs per
# seed would make a run's total time depend on whether the seed happened to
# draw slow pairs. These two workloads therefore fix their corpus and let
# the seed draw a Haar-random unitary U per pair and round: the program
# classifies (U d1 U*, U d2 U*). Relations, facial reductions and the Dykstra geometry
# are unitarily covariant (the engine's coordinates are isometric), so each
# pair does the same work in every frame while its input bits differ.
# ---------------------------------------------------------------------------


def conjugate(u, dev):
    """The device in the frame u; maps conjugate as (conj(U) x U) J (conj(U) x U)*."""
    if isinstance(dev, Effect):
        return Effect(u @ dev.matrix @ u.conj().T)
    if isinstance(dev, Observable):
        return Observable(dev.outcomes, {x: Effect(u @ dev.effects[x].matrix @ u.conj().T)
                                         for x in dev.outcomes})
    w = np.kron(u.conj(), u)
    return CPMap(dev.dim_in, dev.dim_out, w @ dev.choi @ w.conj().T, kind=dev.kind)


def _dim(dev) -> int:
    return dev.dim_in if isinstance(dev, CPMap) else dev.dim


def framed(corpus, seed: int, round_index: int, pinned=frozenset()) -> list[Pair]:
    """corpus: (category, d1, d2, fast_paths, check) with check(d1, d2) -> expected.

    Every round sees the corpus in its own frames; pairs whose index is in
    ``pinned`` keep the corpus frame.
    """
    rng = np.random.default_rng([seed, round_index])
    pairs = []
    for category, d1, d2, fast_paths, check in corpus:
        u = haar_unitary(rng, _dim(d1))
        if len(pairs) not in pinned:
            d1, d2 = conjugate(u, d1), conjugate(u, d2)
        expected = check(d1, d2)
        pairs.append(Pair(len(pairs), category, d1, d2, fast_paths,
                          None if expected is None else frozenset(expected)))
    return pairs


def interleave(streams: list[list]) -> list:
    """Round-robin merge, so every stretch of a round has the same mix."""
    out = []
    while any(streams):
        for s in streams:
            if s:
                out.append(s.pop(0))
    return out


PURE_CORPUS_SEED = 707  # criterion 07's generator seed
PURE_COMPATIBLE = 16
PURE_INCOMPATIBLE = 40


def _pure_oracle(f1: CPMap, f2: CPMap) -> set[str]:
    return {COMPATIBLE} if od.pure_pair_compatible(f1, f2) else {WEAK, STRONG}


def pure_opop(seed: int, round_index: int = 0) -> list[Pair]:
    """Criterion 07's pure qubit operation pairs, engine only.

    The corpus keeps the first 16 compatible and first 40 incompatible
    pairs that criterion 07's generator draws, so 71 % take the
    infeasible route; each verdict is checked against the pure-pair
    oracle evaluated on the framed pair.
    """
    rng = np.random.default_rng(PURE_CORPUS_SEED)
    buckets: dict[bool, list] = {True: [], False: []}
    quota = {True: PURE_COMPATIBLE, False: PURE_INCOMPATIBLE}
    while any(len(buckets[k]) < quota[k] for k in quota):
        s1 = np.sqrt(rng.uniform(0.25, 1.0))
        s2 = np.sqrt(rng.uniform(0.25, 1.0))
        f1 = cpmap(rand_kraus_ops(rng, 2, 2, 1, scale=s1))
        f2 = cpmap(rand_kraus_ops(rng, 2, 2, 1, scale=s2))
        oracle = od.pure_pair_compatible(f1, f2)
        if len(buckets[oracle]) < quota[oracle]:
            buckets[oracle].append(("op-op/pure", f1, f2, False, _pure_oracle))
    # one compatible pair after every two or three incompatible ones
    streams = [buckets[True]] + [buckets[False][i::2] for i in range(2)]
    return framed(interleave(streams), seed, round_index)


# engine-tail


def _reaches_engine_ef(a, b) -> bool:
    commute = np.linalg.norm(a @ b - b @ a) <= 1e-6
    below = top_eig(a + b) <= 1.0 + 1e-6
    proj = any(np.linalg.norm(m @ m - m) <= 1e-6 for m in (a, b))
    return not (commute or below or proj)


def _generic_ef(dim):
    def build(rng):
        while True:
            a, b = rand_effect_matrix(rng, dim), rand_effect_matrix(rng, dim)
            if _reaches_engine_ef(a, b):
                return Effect(a), Effect(b)
    return build


def _obs_pair(n_out):
    def build(rng):
        return (observable(rand_observable_matrices(rng, 2, n_out)),
                observable(rand_observable_matrices(rng, 2, n_out)))
    return build


def _op(rng):
    return rand_kraus_ops(rng, 2, 2, 2, scale=np.sqrt(rng.uniform(0.2, 0.95)))


def _engine_op_ef(rng):
    while True:
        ops, e = _op(rng), rand_effect_matrix(rng, 2)
        if top_eig(heisenberg_unit(ops) + e) > 1.0 + 1e-3:
            return cpmap(ops), Effect(e)


def _engine_op_obs(rng):
    return cpmap(_op(rng)), observable(rand_observable_matrices(rng, 2, 2))


def _engine_ch_ef(rng):
    return cpmap(rand_kraus_ops(rng, 2, 2, 2), channel=True), Effect(rand_effect_matrix(rng, 2))


def _engine_ch_obs(rng):
    return (cpmap(rand_kraus_ops(rng, 2, 2, 2), channel=True),
            observable(rand_observable_matrices(rng, 2, 2)))


PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _bloch_effect(vec) -> np.ndarray:
    return 0.5 * (np.eye(2) + sum(c * s for c, s in zip(vec, PAULI)))


def _bloch_vector(dev) -> np.ndarray:
    m = dev.matrix if isinstance(dev, Effect) else dev.effects["0"].matrix
    return np.array([np.trace(m @ s).real for s in PAULI])


def _busch_oracle(d1, d2) -> set[str]:
    """Busch (1986): unbiased E_a, E_b are coexistent iff |a+b| + |a-b| <= 2."""
    a, b = _bloch_vector(d1), _bloch_vector(d2)
    return {COMPATIBLE if np.linalg.norm(a + b) + np.linalg.norm(a - b) <= 2.0 else WEAK}


def _busch(kind, outside: bool):
    """Unbiased qubit effects (or binary observables) at a relative distance
    eps in [0.02, 0.08] inside or outside Busch's boundary."""

    def build(rng):
        target = 2.0 * (1.0 + (1 if outside else -1) * rng.uniform(0.02, 0.08))
        while True:
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            a, b = a / np.linalg.norm(a), rng.uniform(0.6, 1.0) * b / np.linalg.norm(b)
            scale = target / (np.linalg.norm(a + b) + np.linalg.norm(a - b))
            if scale < 0.98:  # keeps both Bloch vectors inside the ball
                break
        e1, e2 = (_bloch_effect(scale * v) for v in (a, b))
        if kind == "ef":
            return Effect(e1), Effect(e2)
        return observable([e1, np.eye(2) - e1]), observable([e2, np.eye(2) - e2])

    return build


def _no_oracle(d1, d2):
    return None


ENGINE_CATEGORIES = (
    # (category, builder, pairs per round, oracle)
    ("ef-ef/generic-qubit", _generic_ef(2), 6, _no_oracle),
    ("ef-ef/generic-qutrit", _generic_ef(3), 3, _no_oracle),
    ("obs-obs/2-outcome", _obs_pair(2), 4, _no_oracle),
    ("obs-obs/3-outcome", _obs_pair(3), 3, _no_oracle),
    ("op-ef/generic", _engine_op_ef, 3, _no_oracle),
    ("op-obs/generic", _engine_op_obs, 3, _no_oracle),
    ("ch-ef/generic", _engine_ch_ef, 3, _no_oracle),
    ("ch-obs/generic", _engine_ch_obs, 3, _no_oracle),
    ("ef-ef/busch-inside", _busch("ef", outside=False), 2, _busch_oracle),
    ("ef-ef/busch-outside", _busch("ef", outside=True), 2, _busch_oracle),
    ("obs-obs/busch-inside", _busch("obs", outside=False), 2, _busch_oracle),
    ("obs-obs/busch-outside", _busch("obs", outside=True), 2, _busch_oracle),
)


# engine-tail pairs whose Dykstra iteration count depends on rounding: it
# changed across ten seeded frames at the commit that added the benchmark
# (pair 17, an op-obs pair, took 400 to 5750 iterations, and also varied
# under exact permutation and quarter-phase frames). They keep the corpus
# frame for every seed, so that a run's throughput does not measure which
# frame the seed drew; they stay in the round, slow tail included.
ROUNDING_SENSITIVE = frozenset({4, 15, 17, 29})


def engine_tail(seed: int, round_index: int = 0) -> list[Pair]:
    """Engine-bound pairs with fast paths on, then the Table-1 cells with
    fast paths off; the corpus is drawn from CORPUS_SEED."""
    streams = []
    for i, (category, build, count, oracle) in enumerate(ENGINE_CATEGORIES):
        rng = np.random.default_rng([CORPUS_SEED, i])
        streams.append([(category, *build(rng), True, oracle) for _ in range(count)])
    table = builtin_devices()
    cells = [
        (f"table1/{col}", table[n1], table[n2], False,
         lambda d1, d2, rel=TABLE1_RELATION[row]: {rel})
        for col, row, n1, n2 in TABLE1_CELLS
    ]
    return framed(interleave(streams) + cells, seed, round_index, pinned=ROUNDING_SENSITIVE)


WORKLOADS = {
    "fastpath-mix": fastpath_mix,
    "pure-opop": pure_opop,
    "engine-tail": engine_tail,
}
# workloads whose later rounds see the corpus in fresh frames, so that a
# pair's cost is its median over several frames; fastpath-mix repeats its
# pairs
REFRAMED = frozenset({"pure-opop", "engine-tail"})


# ---------------------------------------------------------------------------
# verdict checks
# ---------------------------------------------------------------------------

_MEASUREMENTS = (Effect, Observable)


def _is_channel(dev) -> bool:
    return isinstance(dev, CPMap) and dev.kind == "channel"


def structural_failure(pair: Pair, relation: str) -> str | None:
    """Rules that hold for every pair of the given kinds."""
    if relation == "undecided":
        return "undecided verdict"
    kinds = (pair.d1, pair.d2)
    if all(isinstance(d, _MEASUREMENTS) for d in kinds) and relation == STRONG:
        return "effect/observable pair classified strongly incompatible"
    channel_vs_measurement = (
        (_is_channel(pair.d1) and isinstance(pair.d2, _MEASUREMENTS))
        or (_is_channel(pair.d2) and isinstance(pair.d1, _MEASUREMENTS))
    )
    if channel_vs_measurement and relation == WEAK:
        return "channel vs effect/observable pair classified weakly compatible only"
    return None
