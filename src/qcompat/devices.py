"""Quantum device types and their canonical constructions.

Five device kinds live here: effects and observables (classical output),
operations and channels (quantum output, represented by a CPMap in Choi
form), and instruments (both outputs). The module also provides
Kraus/Choi conversion, Schroedinger/Heisenberg application, relabeling,
and the standard instrument constructions that embed any single device
into an instrument. ``instrument_parts`` is the one table that reads
every device as an instrument, and ``is_part_of`` is one pointer search
over it.

Choi convention: for a map ``F`` from states on the input space (side
``dim_in``) to states on the output space (side ``dim_out``),

    J(F) = sum_ij |i><j| (x) F(|i><j|)

with the input slot on the slow index. The Schroedinger action is
``F(rho) = Tr_in[J (rho^T (x) I_out)]``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .matkit import (
    DEFAULT_TOL,
    MatrixShapeError,
    PositivityError,
    Tolerances,
    as_matrix,
    checked_hermitian_part,
    close,
    frob_norm,
    hermitian_part,
    kron,
    mat_sqrt,
)


class EffectBoundsError(ValueError):
    """Hermitian but with eigenvalues outside [0, 1]."""


class NormalizationError(ValueError):
    """Observable or instrument does not sum to the required total."""


class TraceConditionError(ValueError):
    """Map is not trace-non-increasing, or not trace-preserving for a channel."""


class OutcomeError(ValueError):
    """Unknown outcome label."""


class OutcomeBoundError(ValueError):
    """Outcome set too large for exhaustive part-of search."""


def _freeze(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Device types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Effect:
    """Hermitian operator E with 0 <= E <= 1."""

    matrix: np.ndarray
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, tol: Tolerances | None) -> None:
        tol = tol or DEFAULT_TOL
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise MatrixShapeError("effect matrix must be square")
        h = checked_hermitian_part(m, tol, "effect matrix")
        evals = np.linalg.eigvalsh(h)
        if evals[0] < -tol.psd_tol or evals[-1] > 1.0 + tol.psd_tol:
            raise EffectBoundsError(
                f"effect eigenvalues [{evals[0]:.3e}, {evals[-1]:.3e}] outside [0, 1]"
            )
        h.flags.writeable = False
        object.__setattr__(self, "matrix", h)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Observable:
    """Finite outcome-labelled family of effects summing to the identity."""

    outcomes: tuple[str, ...]
    effects: dict[str, Effect]
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, tol: Tolerances | None) -> None:
        tol = tol or DEFAULT_TOL
        object.__setattr__(self, "outcomes", tuple(str(x) for x in self.outcomes))
        if not self.outcomes:
            raise OutcomeError("observable needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise OutcomeError("duplicate outcome labels")
        if set(self.effects) != set(self.outcomes):
            raise OutcomeError("effect labels do not match outcome list")
        dims = {e.dim for e in self.effects.values()}
        if len(dims) != 1:
            raise MatrixShapeError("all effects must share one dimension")
        total = sum(e.matrix for e in self.effects.values())
        if not close(total, np.eye(self.dim), tol):
            raise NormalizationError("effects do not sum to the identity")

    @property
    def dim(self) -> int:
        return next(iter(self.effects.values())).dim

    def effect_of(self, labels, tol: Tolerances | None = None) -> Effect:
        """Summed effect over an outcome subset, validated at ``tol``."""
        labels = list(labels)
        for x in labels:
            if x not in self.effects:
                raise OutcomeError(f"unknown outcome {x!r}")
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for x in labels:
            m = m + self.effects[x].matrix
        return Effect(m, tol)


@dataclass(frozen=True, eq=False)
class CPMap:
    """Completely positive trace-non-increasing map in canonical Choi form.

    ``kind`` is "operation" or "channel"; channels are additionally
    trace-preserving. Validation computes the Heisenberg unit once and
    keeps it, read-only.
    """

    dim_in: int
    dim_out: int
    choi: np.ndarray
    kind: str = "operation"
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, tol: Tolerances | None) -> None:
        tol = tol or DEFAULT_TOL
        if self.kind not in ("operation", "channel"):
            raise ValueError(f"unknown map kind {self.kind!r}")
        j = as_matrix(self.choi)
        side = self.dim_in * self.dim_out
        if j.shape != (side, side):
            raise MatrixShapeError(f"Choi side {j.shape[0]} != dim_in*dim_out = {side}")
        j = checked_hermitian_part(j, tol, "Choi matrix")
        evals = np.linalg.eigvalsh(j)
        if evals[0] < -tol.psd_tol:
            raise PositivityError(f"Choi matrix has eigenvalue {evals[0]:.3e} < 0")
        j.flags.writeable = False
        object.__setattr__(self, "choi", j)
        t = j.reshape(self.dim_in, self.dim_out, self.dim_in, self.dim_out)
        hu = np.ascontiguousarray(np.einsum("jmim->ij", t))
        hu.flags.writeable = False
        object.__setattr__(self, "_unit", hu)
        top = float(np.linalg.eigvalsh(hermitian_part(hu))[-1])
        if top > 1.0 + tol.psd_tol:
            raise TraceConditionError(f"map increases trace: ||F_H(1)|| = {top:.6f} > 1")
        if self.kind == "channel" and not close(hu, np.eye(self.dim_in), tol):
            raise TraceConditionError("channel is not trace-preserving")

    @property
    def _t4(self) -> np.ndarray:
        return self.choi.reshape(self.dim_in, self.dim_out, self.dim_in, self.dim_out)

    def heisenberg_unit(self) -> np.ndarray:
        """The effect F_H(1) that the map assigns to the unit (read-only)."""
        return self._unit

    def is_trace_preserving(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return close(self.heisenberg_unit(), np.eye(self.dim_in), tol)


@dataclass(frozen=True, eq=False)
class Instrument:
    """Outcome-labelled family of operations whose sum is a channel.

    The validated total channel is kept for :func:`total_channel`.
    """

    outcomes: tuple[str, ...]
    branches: dict[str, CPMap]
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, tol: Tolerances | None) -> None:
        tol = tol or DEFAULT_TOL
        object.__setattr__(self, "outcomes", tuple(str(x) for x in self.outcomes))
        if not self.outcomes:
            raise OutcomeError("instrument needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise OutcomeError("duplicate outcome labels")
        if set(self.branches) != set(self.outcomes):
            raise OutcomeError("branch labels do not match outcome list")
        dims = {(b.dim_in, b.dim_out) for b in self.branches.values()}
        if len(dims) != 1:
            raise MatrixShapeError("all branches must share input/output dimensions")
        total = sum(self.branches[x].choi for x in self.outcomes)
        din, dout = next(iter(dims))
        try:
            channel = CPMap(din, dout, total, kind="channel", tol=tol)
        except (TraceConditionError, PositivityError) as exc:
            raise NormalizationError(f"branch sum is not a channel: {exc}") from exc
        object.__setattr__(self, "_total", (tol, channel))

    @property
    def dim_in(self) -> int:
        return next(iter(self.branches.values())).dim_in

    @property
    def dim_out(self) -> int:
        return next(iter(self.branches.values())).dim_out

    def branch_sum(self, labels, tol: Tolerances = DEFAULT_TOL) -> CPMap:
        """Summed operation over an outcome subset (the empty sum is null)."""
        labels = list(labels)
        for x in labels:
            if x not in self.branches:
                raise OutcomeError(f"unknown outcome {x!r}")
        side = self.dim_in * self.dim_out
        j = np.zeros((side, side), dtype=complex)
        for x in labels:
            j = j + self.branches[x].choi
        return _validated_map(self.dim_in, self.dim_out, j, tol)


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Kraus operators K_j (output x input each) with sum K_j^* K_j <= 1."""

    ops: tuple[np.ndarray, ...]
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, tol: Tolerances | None) -> None:
        tol = tol or DEFAULT_TOL
        ops = tuple(as_matrix(k) for k in self.ops)
        if not ops:
            raise ValueError("empty Kraus set")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise MatrixShapeError("Kraus operators must share one shape")
        _check_trace_condition(sum(k.conj().T @ k for k in ops), tol)
        object.__setattr__(self, "ops", tuple(_freeze(k) for k in ops))

    @property
    def dim_in(self) -> int:
        return self.ops[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.ops[0].shape[0]


@dataclass(frozen=True)
class PointerMap:
    """Total relabeling function between outcome sets.

    ``codomain`` fixes the output outcome order; it defaults to the order
    of first appearance of the images.
    """

    mapping: dict[str, str]
    codomain: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        images = []
        for v in self.mapping.values():
            if v not in images:
                images.append(v)
        cod = tuple(self.codomain) if self.codomain else tuple(images)
        if not set(images) <= set(cod):
            raise OutcomeError("mapping image is not contained in the codomain")
        object.__setattr__(self, "codomain", cod)

    def preimage(self, label: str) -> tuple[str, ...]:
        return tuple(x for x, y in self.mapping.items() if y == label)

    def check_total(self, outcomes) -> None:
        missing = [x for x in outcomes if x not in self.mapping]
        if missing:
            raise OutcomeError(f"pointer map is not total; missing {missing}")


# ---------------------------------------------------------------------------
# Choi / Kraus conversion and application
# ---------------------------------------------------------------------------


def _check_trace_condition(grams: np.ndarray, tol: Tolerances) -> None:
    """Raise TraceConditionError unless every sum K^*K (one matrix, or a stack) is <= 1."""
    top = float(np.linalg.eigvalsh(hermitian_part(grams))[..., -1].max())
    if top > 1.0 + tol.psd_tol:
        raise TraceConditionError(f"sum K^*K has eigenvalue {top:.6f} > 1")


def kraus_choi(ops) -> np.ndarray:
    """Choi matrix of ``rho -> sum_k K_k rho K_k^*`` for a (n, dim_out, dim_in) stack;
    the outer products of vec(K_k^T) are summed in stack order, as one by one."""
    ops = np.asarray(ops)
    n, dout, din = ops.shape
    v = ops.swapaxes(-1, -2).reshape(n, din * dout)
    return (v[:, :, None] * v.conj()[:, None, :]).sum(axis=0)


def _validated_map(din: int, dout: int, j: np.ndarray, tol: Tolerances) -> CPMap:
    """The map with Choi matrix j, validated once; a channel when it is trace-preserving."""
    m = CPMap(din, dout, j, tol=tol)
    if m.is_trace_preserving(tol):
        object.__setattr__(m, "kind", "channel")
    return m


def choi_from_kraus(k: KrausSet | list, tol: Tolerances = DEFAULT_TOL) -> CPMap:
    """Canonical Choi matrix of ``rho -> sum_j K_j rho K_j^*``.

    The result is a channel exactly when the Kraus set is normalized.
    """
    if not isinstance(k, KrausSet):
        k = KrausSet(tuple(k), tol=tol)
    return _validated_map(k.dim_in, k.dim_out, kraus_choi(k.ops), tol)


def kraus_lists(maps: list[CPMap], tol: Tolerances = DEFAULT_TOL, check: bool = True) -> list:
    """Kraus operators of several same-shape maps, from one batched Choi eigh.

    Eigenvalues at or below psd_tol are dropped; a map left with none
    yields the single zero operator. ``check`` applies KrausSet's trace
    condition to every list, on one stack of sums K^*K.
    """
    if not maps:
        return []
    din, dout = maps[0].dim_in, maps[0].dim_out
    # CPMap validation left every Choi matrix exactly Hermitian
    evals, evecs = np.linalg.eigh(np.array([m.choi for m in maps]))
    keep = evals > tol.psd_tol
    vecs = evecs.swapaxes(-1, -2).reshape(*evals.shape, din, dout).swapaxes(-1, -2)
    ops = np.sqrt(np.where(keep, evals, 0.0))[..., None, None] * vecs
    if check:
        v = ops.reshape(len(maps), -1, din)
        _check_trace_condition(v.conj().swapaxes(-1, -2) @ v, tol)
    kept = ops[keep]
    kept.flags.writeable = False
    flat, ends = list(kept), np.cumsum(keep.sum(axis=1)).tolist()
    return [tuple(flat[a:b]) if b > a else (_freeze(np.zeros((dout, din), dtype=complex)),)
            for a, b in zip([0] + ends, ends)]


def kraus_from_choi(m: CPMap, tol: Tolerances = DEFAULT_TOL) -> KrausSet:
    """Kraus operators from the Choi eigendecomposition: :func:`kraus_lists` of one
    map, whose trace condition KrausSet checks."""
    return KrausSet(kraus_lists([m], tol, check=False)[0], tol=tol)


def apply_s(m: CPMap, rho: np.ndarray) -> np.ndarray:
    """Schroedinger-picture action on an input-space matrix."""
    rho = as_matrix(rho)
    if rho.shape != (m.dim_in, m.dim_in):
        raise MatrixShapeError("state dimension does not match the map input")
    return np.ascontiguousarray(np.einsum("ij,imjn->mn", rho, m._t4))


def apply_h(m: CPMap, t: np.ndarray) -> np.ndarray:
    """Heisenberg-picture action on an output-space matrix."""
    t = as_matrix(t)
    if t.shape != (m.dim_out, m.dim_out):
        raise MatrixShapeError("operator dimension does not match the map output")
    return np.ascontiguousarray(np.einsum("jmin,nm->ij", m._t4, t))


# ---------------------------------------------------------------------------
# Four-effect span
# ---------------------------------------------------------------------------


def four_effect_decomposition(
    t: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> tuple[tuple[complex, ...], tuple[Effect, ...]]:
    """Write an arbitrary square matrix as sum_i c_i E_i over four effects.

    Split into Hermitian and anti-Hermitian parts, each Hermitian part
    into positive/negative parts by an operator-norm shift, and scale
    each positive part down to an effect. Zero parts give the zero
    effect with coefficient zero.
    """
    t = as_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise MatrixShapeError("input must be square")
    tr = hermitian_part(t)
    ti = (t - t.conj().T) / 2j
    coeffs: list[complex] = []
    effects: list[Effect] = []
    for part, unit in ((tr, 1.0 + 0j), (ti, 1j)):
        norm = float(np.abs(np.linalg.eigvalsh(hermitian_part(part))).max())
        plus = (norm * np.eye(part.shape[0]) + part) / 2.0
        minus = (norm * np.eye(part.shape[0]) - part) / 2.0
        for p, sign in ((plus, 1.0), (minus, -1.0)):
            top = float(np.linalg.eigvalsh(hermitian_part(p))[-1])
            if top <= tol.psd_tol:
                coeffs.append(0j)
                effects.append(Effect(np.zeros_like(p)))
            else:
                coeffs.append(unit * sign * top)
                effects.append(Effect(p / top, tol=tol))
    return tuple(coeffs), tuple(effects)


# ---------------------------------------------------------------------------
# Parts of instruments
# ---------------------------------------------------------------------------

PART_SEARCH_LIMIT = 12


def instrument_part_effect(ins: Instrument, labels, tol: Tolerances = DEFAULT_TOL) -> Effect:
    """The effect I_H(X, 1) induced by an outcome subset."""
    op = ins.branch_sum(labels, tol)
    return Effect(op.heisenberg_unit(), tol=tol)


def instrument_part_op(ins: Instrument, labels, tol: Tolerances = DEFAULT_TOL) -> CPMap:
    """The operation I(X, .) induced by an outcome subset."""
    return ins.branch_sum(labels, tol)


def induced_observable(ins: Instrument, tol: Tolerances = DEFAULT_TOL) -> Observable:
    """The observable x -> I_H(x, 1)."""
    effects = {x: Effect(ins.branches[x].heisenberg_unit(), tol=tol) for x in ins.outcomes}
    return Observable(ins.outcomes, effects, tol=tol)


def total_channel(ins: Instrument, tol: Tolerances = DEFAULT_TOL) -> CPMap:
    """The channel I(Omega, .): the instrument's own, when tol is the one it was validated with."""
    own_tol, total = ins._total
    if tol == own_tol:
        return total
    return CPMap(ins.dim_in, ins.dim_out, total.choi, kind="channel", tol=tol)


def relabel(ins: Instrument, f: PointerMap, tol: Tolerances = DEFAULT_TOL) -> Instrument:
    """Coarse-grain an instrument along a pointer function."""
    f.check_total(ins.outcomes)
    branches = {}
    side = ins.dim_in * ins.dim_out
    for y in f.codomain:
        j = np.zeros((side, side), dtype=complex)
        for x in f.preimage(y):
            if x in ins.branches:
                j = j + ins.branches[x].choi
        branches[y] = CPMap(ins.dim_in, ins.dim_out, j, tol=tol)
    return Instrument(f.codomain, branches, tol=tol)


def instrument_parts(device) -> dict[str, np.ndarray | None]:
    """The device as an instrument: outcome -> fixed target, None for the free outcome.

    Targets are effects for classical devices and Choi matrices
    otherwise. Effects and operations leave outcome "0" free; a channel
    has the one outcome "1".
    """
    if isinstance(device, Effect):
        return {"1": device.matrix, "0": None}
    if isinstance(device, Observable):
        return {x: device.effects[x].matrix for x in device.outcomes}
    if isinstance(device, Instrument):
        return {x: device.branches[x].choi for x in device.outcomes}
    if isinstance(device, CPMap):
        return {"1": device.choi} if device.kind == "channel" else {"1": device.choi, "0": None}
    raise TypeError(f"unsupported device type {type(device).__name__}")


def _has_pointer(targets: dict, per: dict[str, np.ndarray], tol: Tolerances) -> bool:
    """DFS over pointer functions from the outcomes of ``per`` onto ``targets``.

    ``per[x]`` is the matrix contributed by instrument outcome x. A None
    target is free: it takes any labels and is never checked. The scale
    comes from the fixed targets. Assignments whose partial sums exceed
    a fixed target in the PSD order by more than the larger tolerance
    are pruned: every summand is PSD, so such a sum stays more than
    eq_tol away from its target.
    """
    src = list(per)
    fixed = {y: t for y, t in targets.items() if t is not None}
    scale = 1.0 + max(frob_norm(t) for t in fixed.values())
    floor = -max(tol.eq_tol, tol.psd_tol) * scale

    def rec(k: int, sums: dict) -> bool:
        if k == len(src):
            return all(frob_norm(fixed[y] - sums[y]) <= tol.eq_tol * scale for y in fixed)
        for y in targets:
            if y in fixed:
                branch = {**sums, y: sums[y] + per[src[k]]}
                gap = hermitian_part(fixed[y] - branch[y])
                if float(np.linalg.eigvalsh(gap)[0]) < floor:
                    continue
            else:
                branch = sums
            if rec(k + 1, branch):
                return True
        return False

    return rec(0, {y: np.zeros_like(t) for y, t in fixed.items()})


def is_part_of(device, ins: Instrument, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Decide whether a device arises from an instrument.

    Some pointer function from the instrument's outcomes onto the
    device's :func:`instrument_parts` must reproduce every fixed target;
    the free outcome takes the labels left over. A trace-preserving map
    is read as a channel, whose one target is the instrument's total.
    Searches with more than one target are exhaustive and bounded by
    PART_SEARCH_LIMIT outcomes.
    """
    targets = instrument_parts(device)
    if isinstance(device, (Effect, Observable)):
        spaces = (device.dim,), (ins.dim_in,)
        per = {x: ins.branches[x].heisenberg_unit() for x in ins.outcomes}
    else:
        spaces = (device.dim_in, device.dim_out), (ins.dim_in, ins.dim_out)
        per = {x: ins.branches[x].choi for x in ins.outcomes}
    if spaces[0] != spaces[1]:
        raise MatrixShapeError("device dimensions do not match the instrument")
    if isinstance(device, CPMap) and device.is_trace_preserving(tol):
        targets = {"1": device.choi}
    if len(targets) > 1 and len(ins.outcomes) > PART_SEARCH_LIMIT:
        raise OutcomeBoundError(
            f"outcome set of size {len(ins.outcomes)} exceeds the exhaustive "
            f"search limit {PART_SEARCH_LIMIT}"
        )
    return _has_pointer(targets, per, tol)


# ---------------------------------------------------------------------------
# Canonical constructions
# ---------------------------------------------------------------------------


def _check_state(rho: np.ndarray, tol: Tolerances) -> np.ndarray:
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise MatrixShapeError("state must be square")
    h = checked_hermitian_part(rho, tol, "state")
    evals = np.linalg.eigvalsh(h)
    if evals[0] < -tol.psd_tol:
        raise PositivityError(f"state has negative eigenvalue {evals[0]:.3e}")
    if abs(float(np.trace(rho).real) - 1.0) > 1e-8:
        raise ValueError("state trace differs from 1")
    return h


def state_prep_choi(effect_matrix: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """Choi of ``rho -> tr[E rho] rho0``."""
    return kron(np.asarray(effect_matrix).T, rho0)


def canonical_instrument(
    device,
    anchor_state: np.ndarray | None = None,
    probs: dict[str, float] | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Instrument:
    """Embed a single device into an instrument that has it as a part.

    Effects get a binary measure-and-prepare instrument around an anchor
    state, observables an |Omega|-ary one, operations a binary instrument
    with a completion branch, and channels a probability-weighted family
    of copies. The anchor state (default: maximally mixed) parametrizes
    an uncountable family of valid embeddings.
    """
    if isinstance(device, (Effect, Observable)):
        d = device.dim
        rho0 = _check_state(anchor_state if anchor_state is not None else np.eye(d) / d, tol)
        if isinstance(device, Effect):
            effects = {"0": device.matrix, "1": np.eye(d) - device.matrix}
        else:
            effects = {x: device.effects[x].matrix for x in device.outcomes}
        branches = {x: CPMap(d, rho0.shape[0], state_prep_choi(e, rho0), tol=tol)
                    for x, e in effects.items()}
        return Instrument(tuple(branches), branches, tol=tol)
    if isinstance(device, CPMap) and device.kind == "channel":
        if probs is None:
            probs = {"0": 1.0}
        total = sum(probs.values())
        if abs(total - 1.0) > 1e-9 or any(p < -1e-12 for p in probs.values()):
            raise ValueError("probs must be a probability distribution")
        outcomes = tuple(probs)
        branches = {
            x: CPMap(device.dim_in, device.dim_out, max(p, 0.0) * device.choi, tol=tol)
            for x, p in probs.items()
        }
        return Instrument(outcomes, branches, tol=tol)
    if isinstance(device, CPMap):
        dk = device.dim_out
        rho0 = _check_state(anchor_state if anchor_state is not None else np.eye(dk) / dk, tol)
        if rho0.shape[0] != dk:
            raise MatrixShapeError("anchor state must live on the output space")
        deficit = np.eye(device.dim_in) - device.heisenberg_unit()
        branches = {
            "0": device,
            "1": CPMap(device.dim_in, dk, state_prep_choi(deficit, rho0), tol=tol),
        }
        return Instrument(("0", "1"), branches, tol=tol)
    raise TypeError(f"unsupported device type {type(device).__name__}")


def luders(a: Effect, tol: Tolerances = DEFAULT_TOL) -> CPMap:
    """The operation ``rho -> sqrt(A) rho sqrt(A)``."""
    root = mat_sqrt(a.matrix, tol)
    return choi_from_kraus(KrausSet((root,), tol=tol), tol)


def contraction_channel(eta: np.ndarray, dim_in: int | None = None, tol: Tolerances = DEFAULT_TOL) -> CPMap:
    """The channel ``rho -> tr(rho) eta`` for a fixed output state eta."""
    eta = _check_state(eta, tol)
    din = dim_in if dim_in is not None else eta.shape[0]
    return CPMap(din, eta.shape[0], kron(np.eye(din), eta), kind="channel", tol=tol)


def trivial_observable(p: dict[str, float], dim: int, tol: Tolerances = DEFAULT_TOL) -> Observable:
    """The observable ``x -> p(x) 1`` for a probability distribution p."""
    if abs(sum(p.values()) - 1.0) > 1e-9 or any(v < -1e-12 for v in p.values()):
        raise ValueError("p must be a probability distribution")
    outcomes = tuple(p)
    effects = {x: Effect(max(v, 0.0) * np.eye(dim), tol=tol) for x, v in p.items()}
    return Observable(outcomes, effects, tol=tol)
