"""Compatibility of device pairs, decided with re-validated witnesses.

Every device is read as an instrument through the table of parts
``devices.instrument_parts``, one per outcome: a fixed target (an effect
for classical devices, a Choi matrix otherwise) or free. Two devices are compatible when both are parts of
one joint instrument (``joint_problem``), and weakly compatible when two
instruments, one containing each device, have equal totals
(``weak_problem``, with blocks for the devices' own outcomes only).

``classify`` asks the joint question, then the weak one, and returns
compatible, weakly_compatible_only, strongly_incompatible, or undecided.
Both questions go through one stage: the pair's analytic fast paths,
then the engine, whose outcome becomes a verdict in one place. Positive
verdicts carry a witness that is re-validated before it is returned. A
flag disables the optional fast paths so the engine can be cross-checked
against independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import feasibility as fs
from .devices import (
    CPMap,
    Effect,
    Instrument,
    Observable,
    PointerMap,
    instrument_parts as _parts,
    kraus_choi,
    kraus_from_choi,
    kraus_lists,
    state_prep_choi,
    total_channel,
)
from .matkit import (
    DEFAULT_TOL,
    MatrixShapeError,
    Tolerances,
    close,
    frob_norm,
    herm_coords,
    hermitian_part,
    kron,
    mat_sqrt,
)
from .order import (
    RankConditionError,
    commutes_with_range,
    cp_leq,
    is_contraction_channel,
    is_pure,
    is_trivial_effect,
    pure_pair_compatible,
    rank1_upper_channels_equal,
)


class UnsupportedPairError(ValueError):
    """An input is not one of the five device kinds."""


@dataclass(frozen=True, eq=False)
class CompatWitness:
    """Joint instrument carrying both devices as parts.

    Subsets (for effects, operations, channels) or pointer maps (for
    observables and instruments) record how each device arises.
    """

    instrument: Instrument
    part_1: tuple[str, ...] | None = None
    part_2: tuple[str, ...] | None = None
    pointer_1: PointerMap | None = None
    pointer_2: PointerMap | None = None
    joint_observable: Observable | None = None


@dataclass(frozen=True, eq=False)
class WeakWitness:
    """Two instruments with one total channel, one device part in each."""

    instrument_1: Instrument
    instrument_2: Instrument
    common_channel: CPMap
    part_1: tuple[str, ...] | None = None
    part_2: tuple[str, ...] | None = None
    pointer_1: PointerMap | None = None
    pointer_2: PointerMap | None = None


@dataclass(frozen=True, eq=False)
class Verdict:
    relation: str  # compatible | weakly_compatible_only | strongly_incompatible | undecided
    witness: CompatWitness | WeakWitness | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        allowed = {"compatible", "weakly_compatible_only", "strongly_incompatible", "undecided"}
        if self.relation not in allowed:
            raise ValueError(f"unknown relation {self.relation!r}")


class WitnessValidationError(AssertionError):
    """A constructed witness failed its re-validation; internal error."""


def witness_tolerances(tol: Tolerances) -> Tolerances:
    """Relaxed thresholds for devices assembled from solver output.

    Engine witnesses satisfy constraints to feas_tol, not eq_tol, so
    re-validation anywhere downstream scales with the solver precision.
    """
    c = 100.0
    return Tolerances(
        eq_tol=max(tol.eq_tol, c * tol.feas_tol),
        psd_tol=max(tol.psd_tol, c * tol.feas_tol),
        feas_tol=c * tol.feas_tol,
    )


def state_prep_map(effect_matrix: np.ndarray, eta: np.ndarray, tol: Tolerances) -> CPMap:
    """The operation ``rho -> tr[E rho] eta``."""
    choi = state_prep_choi(effect_matrix, eta)
    return CPMap(np.shape(effect_matrix)[0], eta.shape[0], choi, tol=tol)


# ---------------------------------------------------------------------------
# devices as instruments
# ---------------------------------------------------------------------------

# canonical argument order of a pair; verdicts are swapped back afterwards
_ORDER = ("instrument", "channel", "operation", "effect", "observable")


def _kind(device) -> str:
    if isinstance(device, Effect):
        return "effect"
    if isinstance(device, Observable):
        return "observable"
    if isinstance(device, Instrument):
        return "instrument"
    if isinstance(device, CPMap):
        return "channel" if device.kind == "channel" else "operation"
    raise UnsupportedPairError(f"unsupported device type {type(device).__name__}")


def _classical(device) -> bool:
    return isinstance(device, (Effect, Observable))


def _free(parts) -> bool:
    return any(t is None for t in parts.values())


def _joint_parts(d1, d2):
    """The parts of both devices as the joint question sees them.

    An effect facing an observable is read as its binary observable,
    with targets E and 1 - E.
    """
    t1, t2 = _parts(d1), _parts(d2)
    for d, t, other in ((d1, t1, d2), (d2, t2, d1)):
        if isinstance(d, Effect) and isinstance(other, Observable):
            t["0"] = np.eye(d.dim) - d.matrix
    return t1, t2


def _dims(d1, d2) -> tuple[int, int | None]:
    """Shared input side, and output side (None when both are classical)."""
    sides_in = {d.dim if _classical(d) else d.dim_in for d in (d1, d2)}
    sides_out = {d.dim_out for d in (d1, d2) if not _classical(d)}
    if len(sides_in) != 1 or len(sides_out) > 1:
        raise MatrixShapeError("devices live on different spaces")
    return sides_in.pop(), (sides_out.pop() if sides_out else None)


def _sum(mats, side: int) -> np.ndarray:
    """Sum of matrices; the empty sum is the zero matrix."""
    return sum(mats[1:], mats[0]) if mats else np.zeros((side, side))


# ---------------------------------------------------------------------------
# the two feasibility problems
# ---------------------------------------------------------------------------


def _row(names, target: np.ndarray, heisenberg: bool, dims) -> fs.AffineConstraint:
    """``sum of blocks = target``, or ``Tr_out(sum of blocks) = target^T``."""
    if not heisenberg:
        return fs.encode_sum_constraint(names, target)
    hu = fs.encode_heisenberg_unit_constraint(names[0], dims, target)
    return fs.AffineConstraint(tuple((n, hu.terms[0][1]) for n in names), hu.rhs)


def _joint_pairs(t1, t2) -> list[tuple[str, str]]:
    """Outcome pairs in block order.

    A device without a free outcome is the outer index when the other
    device has one; otherwise device 1 is.
    """
    if _free(t1) and not _free(t2):
        return [(x, y) for y in t2 for x in t1]
    return [(x, y) for x in t1 for y in t2]


def joint_problem(d1, d2) -> fs.FeasibilityProblem:
    """Both devices as parts of one instrument, one block per outcome pair.

    Each fixed target of device 1, then of device 2, is the sum of its
    blocks; the blocks sum to a channel when both devices have a free
    outcome. Classical pairs use effect blocks; otherwise blocks are
    Choi matrices and effect targets constrain ``Tr_out``.
    """
    t1, t2 = _joint_parts(d1, d2)
    din, dout = _dims(d1, d2)
    quantum = dout is not None
    pairs = _joint_pairs(t1, t2)
    names = [f"g{n}" for n in range(len(pairs))]
    cons = []
    for i, (d, targets) in enumerate(((d1, t1), (d2, t2))):
        for x, target in targets.items():
            if target is not None:
                own = [n for n, xy in zip(names, pairs) if xy[i] == x]
                cons.append(_row(own, target, quantum and _classical(d), (din, dout)))
    if _free(t1) and _free(t2):
        cons.append(_row(names, np.eye(din), quantum, (din, dout)))
    side = din * dout if quantum else din
    return fs.FeasibilityProblem(tuple((n, side) for n in names), tuple(cons))


def _weak_name(i: int, x: str) -> str:
    return f"{i}:{x}"


def weak_problem(d1, d2) -> fs.FeasibilityProblem:
    """Two instruments, one containing each device, with one total channel.

    Each instrument has one block per free outcome and, for a classical
    device, per outcome; the fixed Choi parts of a quantum device are
    constants. Rows: the two totals agree (``sum own_2 - sum own_1 =
    sum fixed_1 - sum fixed_2``); device 1's total is trace preserving,
    when both devices have a free outcome (otherwise a fixed total or
    the effect targets imply it); then the effect targets.
    """
    din, dout = _dims(d1, d2)
    quantum = dout is not None
    side = din * dout if quantum else din
    devices, parts = (d1, d2), (_parts(d1), _parts(d2))
    own, fixed = [], []
    for i, (d, t) in enumerate(zip(devices, parts)):
        own.append([_weak_name(i, x) for x, m in t.items() if m is None or _classical(d)])
        fixed.append(_sum([m for m in t.values() if m is not None and not _classical(d)], side))
    terms = [(n, 1.0) for n in own[1]] + [(n, -1.0) for n in own[0]]
    cons = [fs.encode_sum_constraint(terms, fixed[0] - fixed[1])]
    if _free(parts[0]) and _free(parts[1]):
        # the row's map applied to the fixed total moves to the right-hand side
        tp = _row(own[0], np.eye(din), quantum, (din, dout))
        cons.append(fs.AffineConstraint(tp.terms, tp.rhs - tp.terms[0][1] @ herm_coords(fixed[0])))
    cons += [_row([_weak_name(i, x)], t, quantum, (din, dout))
             for i, d in enumerate(devices) if _classical(d)
             for x, t in parts[i].items() if t is not None]
    return fs.FeasibilityProblem(tuple((n, side) for n in own[0] + own[1]), tuple(cons))


# ---------------------------------------------------------------------------
# witness assembly and re-validation
# ---------------------------------------------------------------------------


class _Pair:
    """A device pair in canonical order, as fast paths and assemblers see it."""

    def __init__(self, d1, d2, tol: Tolerances):
        self.d1, self.d2, self.tol = d1, d2, tol
        self.wtol = witness_tolerances(tol)
        self.kinds = (_kind(d1), _kind(d2))
        self.classical = _classical(d1) and _classical(d2)
        self.din, self.dout = _dims(d1, d2)
        self.t1, self.t2 = _joint_parts(d1, d2)


def _carve(ins: Instrument, device, owner: dict[str, str], wtol: Tolerances):
    """(subset, pointer) carving the device out of the instrument, re-validated.

    ``owner`` maps each instrument label to a device outcome; every fixed
    target of the device must come back from its labels.
    """
    for x, target in _parts(device).items():
        if target is None:
            continue
        got = ins.branch_sum([lab for lab, y in owner.items() if y == x], wtol)
        got = Effect(got.heisenberg_unit(), tol=wtol).matrix if _classical(device) else got.choi
        if not close(target, got, wtol):
            raise WitnessValidationError(f"{_kind(device)} is not reproduced by the witness")
    if isinstance(device, (Observable, Instrument)):
        return None, PointerMap(owner, codomain=device.outcomes)
    return tuple(lab for lab, x in owner.items() if x == "1"), None


def _joint_verdict(p: _Pair, blocks: dict, notes: str, vtol: Tolerances) -> Verdict:
    """Joint instrument from one block per outcome pair, re-validated.

    Classical pairs give effects, measured and then prepared into the
    maximally mixed state; other pairs give Choi matrices.
    """
    labels = {xy: f"{xy[0]}&{xy[1]}" for xy in blocks}
    joint = None
    if p.classical:
        effects = {labels[xy]: Effect(m, tol=vtol) for xy, m in blocks.items()}
        joint = Observable(tuple(effects), effects, tol=vtol)
        eta = np.eye(p.din) / p.din
        branches = {lab: state_prep_map(e.matrix, eta, vtol) for lab, e in effects.items()}
    else:
        branches = {labels[xy]: CPMap(p.din, p.dout, m, tol=vtol) for xy, m in blocks.items()}
    ins = Instrument(tuple(branches), branches, tol=vtol)
    (s1, q1), (s2, q2) = (_carve(ins, d, {labels[xy]: xy[i] for xy in blocks}, vtol)
                          for i, d in enumerate((p.d1, p.d2)))
    return Verdict("compatible", CompatWitness(ins, s1, s2, q1, q2, joint), notes)


def _weak_verdict(p: _Pair, blocks: dict, lam, notes: str, vtol: Tolerances) -> Verdict:
    """Two instruments sharing a total channel, re-validated.

    Device i keeps its own outcomes: each is its block ``blocks[i, x]``,
    its fixed Choi part, or, for the free outcome, what the channel
    ``lam`` leaves over.
    """
    dout = p.dout or p.din
    instruments = []
    for i, device in enumerate((p.d1, p.d2)):
        parts = _parts(device)
        choi = {}
        for x, target in parts.items():
            if (i, x) in blocks:
                choi[x] = blocks[i, x]
            elif target is not None and not _classical(device):
                choi[x] = target
        free = [x for x in parts if x not in choi]
        if free:
            choi[free[0]] = lam - _sum(list(choi.values()), lam.shape[0])
        branches = {x: CPMap(p.din, dout, choi[x], tol=vtol) for x in parts}
        instruments.append(Instrument(tuple(parts), branches, tol=vtol))
    i1, i2 = instruments
    lam1, lam2 = total_channel(i1, vtol), total_channel(i2, vtol)
    if not close(lam1.choi, lam2.choi, vtol):
        raise WitnessValidationError("witness instruments do not share their total channel")
    (s1, q1), (s2, q2) = (_carve(ins, d, {x: x for x in ins.outcomes}, vtol)
                          for d, ins in ((p.d1, i1), (p.d2, i2)))
    return Verdict("weakly_compatible_only", WeakWitness(i1, i2, lam1, s1, s2, q1, q2), notes)


def _contraction(p: _Pair, notes: str = "always weakly compatible") -> Verdict:
    """Classical devices are always weakly compatible.

    Both instruments measure and then prepare one fixed state, so both
    totals are the contraction channel to that state.
    """
    eta = np.eye(p.din) / p.din
    blocks = {(i, x): state_prep_choi(t, eta) for i, d in enumerate((p.d1, p.d2))
              for x, t in _parts(d).items() if t is not None}
    return _weak_verdict(p, blocks, kron(np.eye(p.din), eta), notes, p.tol)


def _swap_verdict(v: Verdict) -> Verdict:
    w = v.witness
    if isinstance(w, CompatWitness):
        w = CompatWitness(w.instrument, w.part_2, w.part_1, w.pointer_2, w.pointer_1,
                          w.joint_observable)
    elif isinstance(w, WeakWitness):
        w = WeakWitness(w.instrument_2, w.instrument_1, w.common_channel,
                        w.part_2, w.part_1, w.pointer_2, w.pointer_1)
    return Verdict(v.relation, w, v.notes)


# ---------------------------------------------------------------------------
# fast paths: each returns a verdict, the notes of a "no" to its question,
# or None
# ---------------------------------------------------------------------------


def _commute(a: np.ndarray, b: np.ndarray, tol: Tolerances) -> bool:
    return close(a @ b, b @ a, tol)


def _measure(p: _Pair, e: np.ndarray) -> np.ndarray:
    """Block measuring E: E itself, or E then the maximally mixed output."""
    return e if p.classical else state_prep_choi(e, np.eye(p.dout) / p.dout)


def _commuting_effects(p: _Pair):
    e1, e2 = p.d1.matrix, p.d2.matrix
    if not _commute(e1, e2, p.tol):
        return None
    g11 = hermitian_part(e1 @ e2)
    blocks = {("1", "1"): g11, ("1", "0"): e1 - g11, ("0", "1"): e2 - g11,
              ("0", "0"): np.eye(p.din) - e1 - e2 + g11}
    return _joint_verdict(p, blocks, "fast-path: commuting-effects", p.wtol)


def _sum_below_identity(p: _Pair):
    """Effects or operations that fit side by side below the identity."""
    gram = sum(d.matrix if isinstance(d, Effect) else d.heisenberg_unit() for d in (p.d1, p.d2))
    if float(np.linalg.eigvalsh(hermitian_part(gram))[-1]) > 1.0 + p.tol.psd_tol:
        return None
    own = [_measure(p, d.matrix) if isinstance(d, Effect) else d.choi for d in (p.d1, p.d2)]
    leftover = hermitian_part(np.eye(p.din) - gram)
    blocks = {("1", "0"): own[0], ("0", "1"): own[1], ("0", "0"): _measure(p, leftover)}
    vtol = p.wtol if p.classical else p.tol
    return _joint_verdict(p, blocks, "fast-path: sum-below-identity", vtol)


def _projection(p: _Pair):
    # a projection is compatible only with what commutes with it, checked before
    for d in (p.d1, p.d2):
        if isinstance(d, Effect) and close(d.matrix @ d.matrix, d.matrix, p.tol):
            return "fast-path: projection-commutation"
    return None


def _trivial_observable(p: _Pair):
    """A multiple-of-identity observable is a coin flip next to the other device."""
    for i, (d, t, other) in enumerate(((p.d1, p.t1, p.t2), (p.d2, p.t2, p.t1))):
        effects = d.effects.values() if isinstance(d, Observable) else (d,)
        if _classical(d) and not _free(t) and all(is_trivial_effect(e, p.tol) for e in effects):
            w = {x: float(np.trace(e).real) / p.din for x, e in t.items()}
            blocks = {((x, y) if i == 0 else (y, x)): w[x] * s
                      for x in w for y, s in other.items()}
            vtol = p.wtol if p.classical else p.tol
            return _joint_verdict(p, blocks, "fast-path: trivial-observable", vtol)
    return None


def _commuting_observables(p: _Pair):
    t1, t2 = p.t1, p.t2
    if not all(_commute(t1[x], t2[y], p.tol) for x in t1 for y in t2):
        return None
    blocks = {(x, y): hermitian_part(t1[x] @ t2[y]) for x in t1 for y in t2}
    return _joint_verdict(p, blocks, "fast-path: commuting-observables", p.wtol)


def _comparable(p: _Pair):
    """Comparable operations: the smaller one, the difference, a completion."""
    for lo, hi, split in ((p.d1, p.d2, ("0", "1")), (p.d2, p.d1, ("1", "0"))):
        if cp_leq(lo, hi, p.tol):
            leftover = hermitian_part(np.eye(p.din) - hi.heisenberg_unit())
            blocks = {("1", "1"): lo.choi, split: hermitian_part(hi.choi - lo.choi),
                      ("0", "0"): _measure(p, leftover)}
            return _joint_verdict(p, blocks, "fast-path: comparable", p.tol)
    return None


def _pure_oracle(p: _Pair):
    if not (is_pure(p.d1, p.tol) and is_pure(p.d2, p.tol)):
        return None
    # comparability and the sum condition were just excluded
    if pure_pair_compatible(p.d1, p.d2, p.tol):
        raise WitnessValidationError(
            "pure oracle claims compatibility outside its construction cases"
        )
    return "fast-path: pure-oracle"


def _range_commutation(p: _Pair):
    """Split the map along an effect that commutes with its range."""
    f, e = p.d1, p.d2
    if not commutes_with_range(f, e, p.tol):
        return None
    root = mat_sqrt(e.matrix, p.tol)
    comp_root = mat_sqrt(np.eye(e.dim) - e.matrix, p.tol)
    ks = kraus_from_choi(f, p.tol).ops
    blocks = {("1", "1"): kraus_choi([k @ root for k in ks]),
              ("1", "0"): kraus_choi([k @ comp_root for k in ks])}
    if p.kinds[0] == "operation":
        deficit = hermitian_part(np.eye(f.dim_in) - f.heisenberg_unit())
        blocks[("0", "1")] = _measure(p, hermitian_part(e.matrix @ deficit))
        blocks[("0", "0")] = _measure(p, hermitian_part((np.eye(e.dim) - e.matrix) @ deficit))
    return _joint_verdict(p, blocks, "fast-path: range-commutation", p.tol)


def _contraction_channel(p: _Pair):
    eta = is_contraction_channel(p.d1, p.tol)
    if eta is None:
        return None
    blocks = {("1", x): state_prep_choi(p.d2.effects[x].matrix, eta) for x in p.d2.outcomes}
    return _joint_verdict(p, blocks, "fast-path: contraction-channel", p.tol)


def _cp_order(p: _Pair):
    """Channel vs operation: compatible exactly when the operation sits below."""
    lam, f = p.d1, p.d2
    if not cp_leq(f, lam, p.tol):
        return Verdict("strongly_incompatible", None, "fast-path: cp-order")
    blocks = {("1", "1"): f.choi, ("1", "0"): hermitian_part(lam.choi - f.choi)}
    return _joint_verdict(p, blocks, "fast-path: cp-order", p.tol)


def _totals_agree(p: _Pair) -> bool:
    side = p.din * p.dout
    t1, t2 = (_sum(list(_parts(d).values()), side) for d in (p.d1, p.d2))
    return close(t1, t2, p.tol)


# kind pair -> (notes when the totals agree, notes when they differ)
_TOTAL_NOTES = {
    ("channel", "channel"): ("fast-path: equal-channels", "fast-path: distinct-channels"),
    ("instrument", "channel"): ("fast-path: total-channel", "fast-path: total-channel"),
    ("instrument", "instrument"): (None, "fast-path: distinct-totals"),
}


def _totals(p: _Pair):
    """Devices without free outcome: distinct totals rule out even weak compatibility.

    Against a channel, agreeing totals make the first device itself the
    joint instrument.
    """
    agree, differ = _TOTAL_NOTES[p.kinds]
    if not _totals_agree(p):
        return Verdict("strongly_incompatible", None, differ)
    if agree is not None:
        return _joint_verdict(p, {(x, "1"): t for x, t in _parts(p.d1).items()}, agree, p.tol)
    return None


def _shared_total(p: _Pair):
    """Devices without free outcome share a total channel exactly when the totals agree."""
    if not _totals_agree(p):
        return "fast-path: distinct-totals"
    return _weak_verdict(p, {}, None, "fast-path: shared-total", p.tol)


def _weak_cp_order(p: _Pair):
    """A channel in the pair forces the common upper channel to equal it."""
    tp = [f.is_trace_preserving(p.tol) for f in (p.d1, p.d2)]
    if not any(tp):
        return None
    lam, other = (p.d1, p.d2) if tp[0] else (p.d2, p.d1)
    ok = close(p.d1.choi, p.d2.choi, p.tol) if all(tp) else cp_leq(other, lam, p.tol)
    if not ok:
        return "fast-path: cp-order"
    return _weak_verdict(p, {}, lam.choi, "fast-path: cp-order", p.tol)


def _rank1_family(p: _Pair):
    """Rank-1 trace deficits: intersect the two one-parameter channel families."""
    try:
        overlap = rank1_upper_channels_equal(p.d1, p.d2, p.tol)
    except RankConditionError:
        return None
    if overlap.equal is None:
        return None
    if overlap.equal:
        return _weak_verdict(p, {}, overlap.channel.choi, "fast-path: rank1-family", p.tol)
    return f"fast-path: rank1-family ({overlap.reason})"


# Fast paths per canonical kind pair, in the order they run. Structural
# ones decide their pairs outright and run even with fast paths off.
_JOINT_PATHS = {
    ("effect", "effect"): (_commuting_effects, _sum_below_identity, _projection),
    ("effect", "observable"): (_trivial_observable, _commuting_observables),
    ("observable", "observable"): (_trivial_observable, _commuting_observables),
    ("operation", "operation"): (_comparable, _sum_below_identity, _pure_oracle),
    ("operation", "effect"): (_range_commutation, _projection, _sum_below_identity),
    ("channel", "effect"): (_range_commutation, _projection),
    ("channel", "observable"): (_contraction_channel, _trivial_observable),
    ("channel", "operation"): (_cp_order,),
    ("channel", "channel"): (_totals,),
    ("instrument", "channel"): (_totals,),
    ("instrument", "instrument"): (_totals,),
}
_WEAK_PATHS = {
    ("effect", "effect"): (_contraction,),
    ("effect", "observable"): (_contraction,),
    ("observable", "observable"): (_contraction,),
    ("operation", "operation"): (_weak_cp_order, _rank1_family),
    ("channel", "channel"): (_shared_total,),
    ("instrument", "channel"): (_shared_total,),
    ("instrument", "instrument"): (_shared_total,),
}
_STRUCTURAL = {_cp_order, _totals, _shared_total, _contraction}


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def _oriented(stage, d1, d2, tol: Tolerances, *args) -> Verdict:
    """Run a stage on the pair in canonical order; orient the verdict as given."""
    swap = _ORDER.index(_kind(d1)) > _ORDER.index(_kind(d2))
    v = stage(_Pair(d2, d1, tol) if swap else _Pair(d1, d2, tol), *args)
    return _swap_verdict(v) if swap else v


def _joint_sdp(p: _Pair, witness: dict) -> Verdict:
    blocks = {xy: witness[f"g{n}"] for n, xy in enumerate(_joint_pairs(p.t1, p.t2))}
    return _joint_verdict(p, blocks, "sdp", p.wtol)


def _weak_sdp(p: _Pair, witness: dict) -> Verdict:
    blocks = {(i, x): witness[n] for i, d in enumerate((p.d1, p.d2)) for x in _parts(d)
              if (n := _weak_name(i, x)) in witness}
    return _weak_verdict(p, blocks, None, "sdp", p.wtol)


def _stage(p: _Pair, paths: dict, builder: str, assemble, fast_paths: bool, max_iter: int,
           trace):
    """One question: its fast paths, then the engine on the problem that the
    function named ``builder`` encodes. Returns a verdict, or the notes of a "no"."""
    for path in paths.get(p.kinds, ()):
        if fast_paths or path in _STRUCTURAL:
            decision = path(p)
            if decision is not None:
                return decision
    # the builder is looked up here, at call time, where the traced benchmark wraps it
    out = fs.solve(globals()[builder](p.d1, p.d2), p.tol, max_iter, trace=trace)
    if out.verdict == "feasible":
        return assemble(p, out.witness)
    if out.verdict == "undecided":
        return Verdict("undecided", None, f"sdp undecided margin={out.margin:.3e}")
    return f"sdp margin={out.margin:.3e}"


def _decide(p: _Pair, fast_paths: bool, max_iter: int, trace) -> Verdict:
    notes = _stage(p, _JOINT_PATHS, "joint_problem", _joint_sdp, fast_paths, max_iter, trace)
    if isinstance(notes, Verdict):
        return notes
    if p.classical:
        return _contraction(p, notes)
    if "channel" in p.kinds:
        # the common channel of a weak witness would have to be this channel
        return Verdict("strongly_incompatible", None, notes)
    weak = _decide_weak(p, fast_paths, max_iter, trace)
    if weak.relation == "undecided":
        return Verdict("undecided", None, f"not compatible; weak undecided; {notes}")
    return Verdict(weak.relation, weak.witness, f"{notes}; {weak.notes}")


def _decide_weak(p: _Pair, fast_paths: bool, max_iter: int, trace) -> Verdict:
    v = _stage(p, _WEAK_PATHS, "weak_problem", _weak_sdp, fast_paths, max_iter, trace)
    return v if isinstance(v, Verdict) else Verdict("strongly_incompatible", None, v)


def classify(d1, d2, tol: Tolerances = DEFAULT_TOL, fast_paths: bool = True,
             max_iter: int = 100, trace=None) -> Verdict:
    """Three-way classification of any pair of devices.

    Returns compatible, weakly_compatible_only, strongly_incompatible,
    or undecided. Pairs of classical devices are always weakly
    compatible, and a pair with a channel that is not compatible is
    strongly incompatible; other pairs that are not compatible go on to
    the weak question. The witness orientation matches the argument
    order.
    """
    return _oriented(_decide, d1, d2, tol, fast_paths, max_iter, trace)


def weakly_compatible(d1, d2, tol: Tolerances = DEFAULT_TOL, fast_paths: bool = True,
                      max_iter: int = 100, trace=None) -> Verdict:
    """Decide whether two instruments containing the devices share a total channel.

    Positive answers come back as ``weakly_compatible_only`` with both
    instruments; whether the pair is also compatible is not examined.
    """
    return _oriented(_decide_weak, d1, d2, tol, fast_paths, max_iter, trace)


# ---------------------------------------------------------------------------
# Kraus certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KrausCertificate:
    """Kraus-operator account of a verdict witness.

    ``joint`` certificates share one list realizing both devices via
    index subsets; ``paired`` certificates hold two equal-length lists
    with identical total channels.
    """

    kind: str  # joint | paired
    k_ops: tuple[np.ndarray, ...]
    l_ops: tuple[np.ndarray, ...] | None
    j1: tuple[int, ...]
    j2: tuple[int, ...]


def _instrument_kraus(ins: Instrument, subset, tol: Tolerances):
    """Kraus operators of the nonzero branches, their owners, and a subset's indices.

    All branches share one batched eigendecomposition.
    """
    nonzero = [x for x in ins.outcomes if frob_norm(ins.branches[x].choi) > tol.eq_tol]
    lists = kraus_lists([ins.branches[x] for x in nonzero], tol)
    owned = [(k, x) for x, ops in zip(nonzero, lists) for k in ops]
    owners = [x for _, x in owned]
    return [k for k, _ in owned], owners, tuple(i for i, x in enumerate(owners) if x in subset)


def kraus_witness(v: Verdict, tol: Tolerances = DEFAULT_TOL) -> KrausCertificate:
    """Export a verdict witness as Kraus operators with index subsets.

    The certificate is re-validated: subset sums reproduce the devices'
    actions, the full sums are normalized, and paired lists share their
    total channel.
    """
    wtol = witness_tolerances(tol)
    if v.witness is None:
        raise ValueError("verdict carries no witness")
    w = v.witness
    if w.part_1 is None or w.part_2 is None:
        raise ValueError(
            "Kraus index subsets exist only for subset-realized parts "
            "(effects, operations, channels)"
        )
    if isinstance(w, CompatWitness):
        ops, owners, j1 = _instrument_kraus(w.instrument, w.part_1, wtol)
        j2 = tuple(i for i, x in enumerate(owners) if x in w.part_2)
        cert = KrausCertificate("joint", tuple(ops), None, j1, j2)
    else:
        k_ops, _, j1 = _instrument_kraus(w.instrument_1, w.part_1, wtol)
        l_ops, _, j2 = _instrument_kraus(w.instrument_2, w.part_2, wtol)
        n = max(len(k_ops), len(l_ops), 1)
        shape = (w.instrument_1.dim_out, w.instrument_1.dim_in)
        k_ops = tuple(k_ops + [np.zeros(shape, dtype=complex)] * (n - len(k_ops)))
        l_ops = tuple(l_ops + [np.zeros(shape, dtype=complex)] * (n - len(l_ops)))
        cert = KrausCertificate("paired", k_ops, l_ops, j1, j2)
    _validate_certificate(cert, w, wtol)
    return cert


def _validate_certificate(cert: KrausCertificate, w, wtol: Tolerances) -> None:
    """Check a certificate against the witness it was exported from.

    Every Kraus list is normalized, paired lists share their total
    channel, and the Choi sum over each index subset equals the summed
    branches of the witness part it stands for. Each list is checked as
    one (n, dim_out, dim_in) stack.
    """
    k_ops = np.array(cert.k_ops)
    l_ops = None if cert.l_ops is None else np.array(cert.l_ops)
    if isinstance(w, CompatWitness):
        sides = ((k_ops, cert.j1, w.instrument, w.part_1),
                 (k_ops, cert.j2, w.instrument, w.part_2))
    else:
        sides = ((k_ops, cert.j1, w.instrument_1, w.part_1),
                 (l_ops, cert.j2, w.instrument_2, w.part_2))
    ins = sides[0][2]
    side = ins.dim_in * ins.dim_out
    for ops in (k_ops,) if l_ops is None else (k_ops, l_ops):
        if not close(np.einsum("kai,kaj->ij", ops.conj(), ops), np.eye(ins.dim_in), wtol):
            raise WitnessValidationError("Kraus list is not normalized")
    if l_ops is not None and not close(kraus_choi(k_ops), kraus_choi(l_ops), wtol):
        raise WitnessValidationError("paired Kraus lists have different total channels")
    for ops, idx, ins, part in sides:
        want = _sum([ins.branches[x].choi for x in part], side)
        if not close(want, kraus_choi(ops[list(idx)]), wtol):
            raise WitnessValidationError("Kraus subset does not reproduce its witness part")
