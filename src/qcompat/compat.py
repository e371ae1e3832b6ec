"""Compatibility of device pairs, decided with re-validated witnesses.

Every device is read as an instrument through the one table
``devices.instrument_parts``: its kind, its sides, and a target for every
outcome, the Choi matrix of a map on the device's own output (E^T for an
effect E, whose output is one-dimensional), where the free outcome "0" of
an effect or an operation is the rest of the unit, (1 - E)^T or
(1 - F_H(1))^T of side ``din``. A pair holds both records, which its
witness is checked against and the engine hands the builders (a record
is its own reading), so ``classify`` reads each device once. Blocks are
Choi matrices on side ``din * dout``, with ``dout`` the quantum output
side, else ``din``; a joint block whose targets both have side ``din``
has side ``din``, and :func:`_measure` lifts it. :func:`_row` compares
block sums with targets.
Two devices are compatible when both are parts of one joint instrument
(``joint_problem``), and weakly compatible when two instruments, one
containing each device, have equal totals (``weak_problem``, with blocks
for the devices' own outcomes only). Both relations have one witness
shape, :class:`Witness`: two instruments with one total channel, device
i a part of instrument i, which :func:`check_witness` checks by
``devices.holds_part``, the rule ``devices.is_part_of`` searches with. A
compatible pair's two are the same joint instrument, which is how
compatibility implies weak compatibility.

``classify`` returns compatible, weakly_compatible_only,
strongly_incompatible, or undecided. Each of its two questions, joint
and weak, gets one :class:`Answer`. ``_STEPS`` orders the questions: the
joint fast paths, then, for a quantum pair without a channel, the weak
question, whose certified "no" decides the pair without the joint solve,
then the joint engine. ``_RELATIONS`` reads the relation from the two
answers, once the paper's three implications (:func:`_implied`) have
filled in an unasked one and the weak one of a compatible pair. A kind
pair lists only fast paths that decide pairs no other path of its row
decides. Every trace-preserving map is a channel here, whatever it was
declared.
A yes answer, from a fast path or the engine, carries only its witness's
blocks; :func:`_witness` is the one function that assembles them into a
:class:`Witness`, re-validated and checked, and only for the answer the
relation reads, so every positive verdict carries a witness. Without fast
paths the engine decides every question, so that it can be cross-checked
against them and against independent oracles; the implications hold on
both routes, since they are theorems.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import feasibility as fs
from .devices import (
    CPMap,
    Instrument,
    PointerMap,
    UnsupportedPairError,  # noqa: F401  (re-exported: the package and the CLI name it here)
    holds_part,
    instrument_parts as _parts,
    kraus_choi,
    kraus_from_choi,  # noqa: F401  (unused here; perfbench/tracer.py wraps compat.kraus_from_choi)
    kraus_lists,
    part_sums,
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
    kron_unchecked,
)
from .order import (
    RankConditionError,
    cp_leq,
    is_pure,
    rank1_upper_channels_equal,
)


@dataclass(frozen=True, eq=False)
class Witness:
    """Two instruments with one total channel, device i a part of instrument i.

    A compatible pair's two instruments are one joint instrument, the
    same object, and ``common_channel`` is its own validated total.
    Subsets (for effects, operations, channels) or pointer maps (for
    observables and instruments) record how each device arises.
    """

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
    witness: Witness | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        allowed = {"compatible", "weakly_compatible_only", "strongly_incompatible", "undecided"}
        if self.relation not in allowed:
            raise ValueError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True, eq=False)
class Answer:
    """One question's answer, yes, no or undecided, and what decided it: a fast
    path's name, or ``engine:<exit>``. A yes carries its witness's blocks, which
    :func:`_witness` assembles when a relation reads them."""

    value: str  # yes | no | undecided
    decided_by: str
    blocks: dict | None = None
    notes: str = ""


class WitnessValidationError(AssertionError):
    """A constructed witness failed its re-validation; internal error."""


@functools.lru_cache(maxsize=32)
def witness_tolerances(tol: Tolerances) -> Tolerances:
    """Relaxed thresholds for devices assembled from solver output; one frozen
    instance per ``tol``, cached.

    Engine witnesses satisfy constraints to feas_tol, not eq_tol, so
    re-validation anywhere downstream scales with the solver precision.
    """
    c = 100.0
    return Tolerances(
        eq_tol=max(tol.eq_tol, c * tol.feas_tol),
        psd_tol=max(tol.psd_tol, c * tol.feas_tol),
        feas_tol=c * tol.feas_tol,
    )


# ---------------------------------------------------------------------------
# devices as instruments
# ---------------------------------------------------------------------------

# canonical argument order of a pair; verdicts are swapped back afterwards
_ORDER = ("instrument", "channel", "operation", "effect", "observable")


def _dims(r1, r2) -> tuple[int, int]:
    """Shared input side of two devices' parts, and the pair's one output side: the
    quantum one, else din."""
    if r1.din != r2.din or (None not in (r1.dout, r2.dout) and r1.dout != r2.dout):
        raise MatrixShapeError("devices live on different spaces")
    return r1.din, r1.dout or r2.dout or r1.din


def _sum(mats, side: int) -> np.ndarray:
    """Sum of matrices; the empty sum is the zero matrix."""
    return sum(mats[1:], mats[0]) if mats else np.zeros((side, side))


# ---------------------------------------------------------------------------
# the two feasibility problems
# ---------------------------------------------------------------------------


@functools.cache
def _trace_out(din: int, dout: int) -> fs.PartialTrace:
    """The one trace over the output slot of side-``din * dout`` blocks, per layout."""
    return fs.PartialTrace((din, dout))


def _row(blocks, target: np.ndarray, din: int, dout: int) -> fs.AffineConstraint:
    """``S = target`` for S the sum of the (name, side) blocks, when the target has
    the full side ``din * dout``; else ``Tr_out(S) = target``, where a block of
    side ``din`` enters as itself, the partial trace of its lift (:func:`_measure`).

    Targets come from validated devices, or are their sums and differences,
    so they are exactly Hermitian: the row takes their coordinates once,
    without a ``hermitian_part``.
    """
    op = 1.0 if target.shape[0] == din * dout else _trace_out(din, dout)
    return fs.AffineConstraint(tuple((n, 1.0 if d == din else op) for n, d in blocks),
                               herm_coords(target))


def joint_problem(d1, d2) -> fs.FeasibilityProblem:
    """Both devices, or their ``instrument_parts`` records, as parts of one
    instrument, one block per outcome pair.

    Each target of device 1, then of device 2, is matched by the sum of
    its blocks (:func:`_row`); device 1 is the outer index. The targets of
    each device sum to a channel, or to the identity under Tr_out, so the
    blocks do too. A block whose two targets have side ``din`` is read only
    through Tr_out and has side ``din``: each PSD h is Tr_out of the PSD
    kron(h, 1/dout) (:func:`_measure`).
    """
    r1, r2 = _parts(d1), _parts(d2)
    din, dout = _dims(r1, r2)
    t1, t2 = r1.targets, r2.targets
    pairs = [(x, y) for x in t1 for y in t2]
    blocks = [(f"g{n}", din if t1[x].shape[0] == t2[y].shape[0] == din else din * dout)
              for n, (x, y) in enumerate(pairs)]
    cons = [_row([b for b, xy in zip(blocks, pairs) if xy[i] == x], target, din, dout)
            for i, targets in enumerate((t1, t2)) for x, target in targets.items()]
    return fs.FeasibilityProblem(tuple(blocks), tuple(cons))


def _weak_name(i: int, x: str) -> str:
    return f"{i}:{x}"


def weak_problem(d1, d2) -> fs.FeasibilityProblem:
    """Two instruments, one containing each device (or record), with one total
    channel.

    Each instrument has one block per target smaller than the blocks (an
    effect's, an operation's rest of the unit, also in a classical pair);
    targets of the blocks' side are constants. Rows: the two totals agree
    (``sum own_2 - sum own_1 = sum fixed_1 - sum fixed_2``), then the
    smaller targets. Each device's targets sum to a channel, or to the
    identity under Tr_out, so device 1's total is trace preserving.
    """
    r1, r2 = _parts(d1), _parts(d2)
    din, dout = _dims(r1, r2)
    side = din * dout
    targets = (r1.targets, r2.targets)
    own = [[_weak_name(i, x) for x, m in t.items() if m.shape[0] != side]
           for i, t in enumerate(targets)]
    fixed = [_sum([m for m in t.values() if m.shape[0] == side], side) for t in targets]
    terms = [(n, 1.0) for n in own[1]] + [(n, -1.0) for n in own[0]]
    cons = [fs.AffineConstraint(terms, herm_coords(fixed[0] - fixed[1]))]
    cons += [_row([(_weak_name(i, x), side)], m, din, dout)
             for i, t in enumerate(targets) for x, m in t.items() if m.shape[0] != side]
    return fs.FeasibilityProblem(tuple((n, side) for n in own[0] + own[1]), tuple(cons))


# ---------------------------------------------------------------------------
# witness assembly and re-validation
# ---------------------------------------------------------------------------


class _Pair:
    """A device pair in canonical order with each device's record, as fast paths and
    assemblers see it."""

    def __init__(self, d1, d2, r1, r2, tol: Tolerances):
        self.d1, self.d2, self.r1, self.r2, self.tol = d1, d2, r1, r2, tol
        self.wtol = witness_tolerances(tol)
        self.kinds = (r1.kind, r2.kind)
        self.cls = "classical" if set(self.kinds) <= {"effect", "observable"} else \
            "channel" if "channel" in self.kinds else "quantum"
        self.din, self.dout = _dims(r1, r2)
        # its fast-path witnesses' scale: a witness total inherits an observable's
        # normalization, which the observable's eq_tol admits
        self.vtol = self.wtol if self.cls == "classical" or "observable" in self.kinds else tol
        self.t1, self.t2 = r1.targets, r2.targets
        self.prepared = np.eye(self.dout) / self.dout  # the state :func:`_measure` prepares


def check_witness(d1, d2, witness: Witness, tol: Tolerances) -> None:
    """Check that device i, or its ``instrument_parts`` record, is a part of
    instrument i and that both totals are the common channel; else
    WitnessValidationError naming the device or instrument.

    Instrument i's labels go to device i's outcomes through ``pointer_i``,
    or, with a subset ``part_i``, to outcome "1", and the rest to the free
    outcome; :func:`devices.holds_part`, the rule ``devices.is_part_of``
    searches with, compares each fixed target with the sum of their branches
    (:func:`devices.part_sums`). Only sums and norms are taken. A joint
    instrument, the same object twice, has its total checked once.
    """
    for i, r, ins, part, pointer in (
            (1, _parts(d1), witness.instrument_1, witness.part_1, witness.pointer_1),
            (2, _parts(d2), witness.instrument_2, witness.part_2, witness.pointer_2)):
        owner = pointer.mapping if pointer is not None else dict.fromkeys(part or (), "1")
        if r.din != ins.dim_in or r.dout not in (None, ins.dim_out) or \
                not holds_part(r, part_sums(r, ins, owner), tol):
            raise WitnessValidationError(f"device {i} ({r.kind}) is not a part of instrument {i}")
        if i == 1 or ins is not witness.instrument_1:
            total = _sum([m.choi for m in ins.branches.values()], ins.dim_in * ins.dim_out)
            if not close(total, witness.common_channel.choi, tol):
                raise WitnessValidationError(f"instrument {i}'s total is not the common channel")


def _carve(r, owner: dict[str, str]):
    """(subset, pointer) of a device in its witness instrument, whose labels ``owner``
    maps to the device's outcomes: a pointer map for an observable or an
    instrument, else the labels of outcome "1"."""
    if r.kind in ("observable", "instrument"):
        return None, PointerMap(owner, codomain=tuple(r.targets))
    return tuple(lab for lab, x in owner.items() if x == "1"), None


def _measure(p: _Pair, c: np.ndarray) -> np.ndarray:
    """A block's witness branch: c itself on the pair's output, or an effect's G^T of
    side ``din`` measured and the maximally mixed state prepared, kron(c, 1/dout).
    The lift coerces and checks nothing: ``Instrument.from_stack`` checks the
    whole stack, and numpy casts the real state to complex before it multiplies."""
    return c if c.shape[0] == p.din * p.dout else kron_unchecked(c, p.prepared)


def _joint_witness(p: _Pair, blocks: dict, vtol: Tolerances) -> Witness:
    """Joint instrument from one block per outcome pair, re-validated as one stack and
    then checked against both devices' records (:func:`check_witness`).

    Blocks are Choi matrices on the pair's output, or an effect's G^T of
    side ``din``, which :func:`_measure` lifts.
    """
    labels = {xy: f"{xy[0]}&{xy[1]}" for xy in blocks}
    mats = {labels[xy]: _measure(p, m) for xy, m in blocks.items()}
    ins = Instrument.from_stack(tuple(mats), mats, p.din, p.dout, vtol)
    (s1, q1), (s2, q2) = (_carve(r, {labels[xy]: xy[i] for xy in blocks})
                          for i, r in enumerate((p.r1, p.r2)))
    w = Witness(ins, ins, total_channel(ins, vtol), s1, s2, q1, q2)
    check_witness(p.r1, p.r2, w, vtol)
    return w


def _weak_witness(p: _Pair, blocks: dict, vtol: Tolerances) -> Witness:
    """Two instruments, each re-validated as one stack, then checked against both
    devices and the first one's total (:func:`check_witness`).

    Device i keeps its own outcomes: each is its block ``blocks[i, x]``, or its
    target when that has the witness's side.
    """
    instruments, carved = [], []
    for i, r in enumerate((p.r1, p.r2)):
        choi = {x: blocks.get((i, x), t) for x, t in r.targets.items()}
        instruments.append(Instrument.from_stack(tuple(r.targets), choi, p.din, p.dout, vtol))
        carved.append(_carve(r, {x: x for x in r.targets}))
    (i1, i2), ((s1, q1), (s2, q2)) = instruments, carved
    w = Witness(i1, i2, total_channel(i1, vtol), s1, s2, q1, q2)
    check_witness(p.r1, p.r2, w, vtol)
    return w


def _contraction(p: _Pair) -> Answer:
    """Classical devices are always weakly compatible.

    Both instruments measure and then prepare one fixed state (:func:`_measure`),
    so both totals are the contraction channel to that state; an effect's free
    outcome "0" is what that channel leaves over after its outcome "1".
    """
    lam = _measure(p, np.eye(p.din))
    blocks = {(i, x): _measure(p, t) for i, r in enumerate((p.r1, p.r2))
              for x, t in r.fixed.items()}
    blocks.update({(i, "0"): lam - blocks[i, "1"] for i, r in enumerate((p.r1, p.r2))
                   if r.free is not None})
    return _yes("contraction", blocks, "always weakly compatible")


def _swap_verdict(v: Verdict) -> Verdict:
    w = v.witness
    if w is not None:
        w = Witness(w.instrument_2, w.instrument_1, w.common_channel, w.part_2, w.part_1,
                    w.pointer_2, w.pointer_1)
    return Verdict(v.relation, w, v.notes)


# ---------------------------------------------------------------------------
# fast paths: each returns an answer to its question, or None
# ---------------------------------------------------------------------------


def _yes(path: str, blocks: dict, notes: str = "") -> Answer:
    return Answer("yes", path, blocks, notes or f"fast-path: {path}")


def _no(path: str, notes: str = "") -> Answer:
    return Answer("no", path, notes=notes or f"fast-path: {path}")


def _commuting(p: _Pair):
    """Device 2's effects B_y commute with every target of device 1.

    Each target J_x of device 1 must commute with L_y = B_y^T (x) 1 on its
    side, for every y; an effect's or an operation's outcome "0" is the
    rest of the unit. Block (x, y) is then J_x L_y. The factors commute
    and are PSD, so every block is PSD; the blocks are linear in B_y^T,
    whose sum is 1, so they sum back to every target.
    """
    lifts = {(k, y): b if k == 1 else kron_unchecked(b, np.eye(k))
             for k in {j.shape[0] // p.din for j in p.t1.values()} for y, b in p.t2.items()}
    blocks = {}
    for x, j in p.t1.items():
        for y in p.t2:
            lift = lifts[j.shape[0] // p.din, y]
            blocks[x, y] = product = j @ lift
            if not close(product, lift @ j, p.tol):
                return None
    return _yes("commuting", {xy: hermitian_part(m) for xy, m in blocks.items()})


def _sum_below_identity(p: _Pair):
    """Effects or operations that fit side by side below the identity."""
    gram = sum(d.matrix if k == "effect" else d.heisenberg_unit()
               for d, k in zip((p.d1, p.d2), p.kinds))
    if float(np.linalg.eigvalsh(hermitian_part(gram))[-1]) > 1.0 + p.tol.psd_tol:
        return None
    leftover = hermitian_part(np.eye(p.din) - gram)
    blocks = {("1", "0"): p.t1["1"], ("0", "1"): p.t2["1"], ("0", "0"): leftover.T}
    return _yes("sum-below-identity", blocks)


def _projection(p: _Pair):
    # a projection is compatible only with what commutes with it, checked before
    for d in (p.d1, p.d2):
        if close(d.matrix @ d.matrix, d.matrix, p.tol):
            return _no("projection-commutation")
    return None


def _comparable(p: _Pair):
    """Comparable operations: the smaller one, the difference, a completion."""
    for lo, hi, split in ((p.d1, p.d2, ("0", "1")), (p.d2, p.d1, ("1", "0"))):
        if cp_leq(lo, hi, p.tol):
            leftover = hermitian_part(np.eye(p.din) - hi.heisenberg_unit())
            blocks = {("1", "1"): lo.choi, split: hermitian_part(hi.choi - lo.choi),
                      ("0", "0"): leftover.T}
            return _yes("comparable", blocks)
    return None


def _pure_oracle(p: _Pair):
    # pure operations are compatible exactly when they are comparable or their
    # units sum below the identity, which the paths before this one just excluded
    if not (is_pure(p.d1, p.tol) and is_pure(p.d2, p.tol)):
        return None
    return _no("pure-oracle")


def _cp_order(p: _Pair):
    """Channel vs operation: compatible exactly when the operation sits below."""
    lam, f = p.d1, p.d2
    if not cp_leq(f, lam, p.tol):
        return _no("cp-order")
    blocks = {("1", "1"): f.choi, ("1", "0"): hermitian_part(lam.choi - f.choi)}
    return _yes("cp-order", blocks)


def _totals_agree(p: _Pair) -> bool:
    side = p.din * p.dout
    t1, t2 = (_sum(list(t.values()), side) for t in (p.t1, p.t2))
    return close(t1, t2, p.tol)


# kind pair -> (path name when the totals agree, path name when they differ)
_TOTAL_PATHS = {("channel", "channel"): ("equal-channels", "distinct-channels"),
                ("instrument", "channel"): ("total-channel", "total-channel")}


def _totals(p: _Pair) -> Answer:
    """A device without free outcome against a channel: compatible exactly when the
    totals agree, and then the first device is itself the joint instrument."""
    agree, differ = _TOTAL_PATHS[p.kinds]
    if not _totals_agree(p):
        return _no(differ)
    return _yes(agree, {(x, "1"): t for x, t in p.t1.items()})


def _shared_total(p: _Pair):
    """Devices without free outcome share a total channel exactly when the totals agree."""
    if not _totals_agree(p):
        return _no("distinct-totals")
    return _yes("shared-total", {})


def _rank1_family(p: _Pair):
    """Rank-1 trace deficits: intersect the two one-parameter channel families."""
    try:
        overlap = rank1_upper_channels_equal(p.d1, p.d2, p.tol)
    except RankConditionError:
        return None
    if overlap.equal is None:
        return None
    if overlap.equal:
        # each operation's free outcome "0" is what the common channel leaves over
        lam = overlap.channel.choi
        return _yes("rank1-family", {(i, "0"): lam - r.targets["1"]
                                     for i, r in enumerate((p.r1, p.r2))})
    return _no("rank1-family", f"fast-path: rank1-family ({overlap.reason})")


# Fast paths per canonical kind pair, in the order they run; with fast paths
# off, none runs, and the engine answers every question asked.
_JOINT_PATHS = {
    ("effect", "effect"): (_commuting, _sum_below_identity, _projection),
    ("effect", "observable"): (_commuting,),
    ("observable", "observable"): (_commuting,),
    ("operation", "operation"): (_comparable, _sum_below_identity, _pure_oracle),
    ("operation", "effect"): (_commuting, _sum_below_identity),
    ("operation", "observable"): (_commuting,),
    ("channel", "effect"): (_commuting,),
    ("channel", "observable"): (_commuting,),
    ("channel", "operation"): (_cp_order,),
    ("channel", "channel"): (_totals,),
    ("instrument", "effect"): (_commuting,),
    ("instrument", "observable"): (_commuting,),
    ("instrument", "channel"): (_totals,),
}
_WEAK_PATHS = {
    ("effect", "effect"): (_contraction,),
    ("effect", "observable"): (_contraction,),
    ("observable", "observable"): (_contraction,),
    ("operation", "operation"): (_rank1_family,),
    ("channel", "channel"): (_shared_total,),
    ("instrument", "channel"): (_shared_total,),
    ("instrument", "instrument"): (_shared_total,),
}


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def _oriented(stage, d1, d2, tol: Tolerances, *args) -> Verdict:
    """Run a stage on the pair in canonical order, each device read once; orient the
    verdict as given."""
    r1, r2 = _parts(d1), _parts(d2)
    if _ORDER.index(r1.kind) <= _ORDER.index(r2.kind):
        return stage(_Pair(d1, d2, r1, r2, tol), *args)
    return _swap_verdict(stage(_Pair(d2, d1, r2, r1, tol), *args))


def _fast(p: _Pair, question: str, fast_paths: bool) -> Answer | None:
    """A question's fast paths in order, when they are on: the first answer, else None."""
    if fast_paths:
        for path in (_JOINT_PATHS if question == "joint" else _WEAK_PATHS).get(p.kinds, ()):
            answer = path(p)
            if answer is not None:
                return answer
    return None


def _engine(p: _Pair, question: str, trace) -> Answer:
    """The engine on the problem that the question's builder encodes from the pair's
    records. A feasible outcome's blocks, keyed as a fast path keys them, are
    assembled later, by :func:`_witness`. The builder is looked up by its module
    name, where perfbench/tracer.py wraps it."""
    builder = joint_problem if question == "joint" else weak_problem
    out = fs.solve(builder(p.r1, p.r2), p.tol, trace=trace)
    by = f"engine:{out.exit}"
    if out.verdict == "feasible":
        x = out.witness
        if question == "joint":
            blocks = {xy: x[f"g{n}"] for n, xy in enumerate((a, b) for a in p.t1 for b in p.t2)}
        else:
            blocks = {(i, y): x[n] for i, t in enumerate((p.t1, p.t2)) for y in t
                      if (n := _weak_name(i, y)) in x}
        return Answer("yes", by, blocks, "sdp")
    if out.verdict == "undecided":
        return Answer("undecided", by, notes=f"sdp undecided margin={out.margin:.3e}")
    return Answer("no", by, notes=f"sdp margin={out.margin:.3e}")


def _witness(p: _Pair, question: str, answer: Answer | None) -> Witness | None:
    """The one assembly of a witness, from a yes answer's blocks, when a relation
    reads it; the unasked weak answer of a classical pair is the contraction's.
    An engine's blocks meet the rows to feas_tol, so they are checked at
    ``p.wtol``, and a fast path's at ``p.vtol``."""
    answer = answer or _contraction(p)
    if answer.blocks is None:
        return None
    tol = p.wtol if answer.decided_by.startswith("engine:") else p.vtol
    assemble = _joint_witness if question == "joint" else _weak_witness
    return assemble(p, answer.blocks, tol)


# The steps in order, each a question and whether the engine answers it (else its
# fast paths); a step is skipped once its question has an answer. Only a quantum
# pair without a channel asks the weak question, before the joint engine.
_STEPS = {False: (("joint", False), ("joint", True)),
          True: (("joint", False), ("weak", False), ("weak", True), ("joint", True))}


def _implied(p: _Pair, joint: Answer | None, weak: Answer | None) -> tuple:
    """The (joint, weak) values, an unasked or undecided weak one filled in by the
    paper's three implications: a compatible pair is weakly compatible, so a
    weak "no" is a joint "no"; a classical pair is weakly compatible; and a
    pair with a channel is weakly compatible only when it is compatible."""
    j, w = joint and joint.value, weak and weak.value
    if j == "yes" or (w is None and p.cls == "classical"):
        w = "yes"
    elif w is None and p.cls == "channel":
        w = j
    return j or ("no" if w == "no" else None), w


# (joint, weak) values after :func:`_implied` -> the relation, the question whose
# answer carries its witness, and its notes, from the joint answer's or all asked
_RELATIONS = {
    ("yes", "yes"): ("compatible", "joint", "{joint}"),
    ("no", "yes"): ("weakly_compatible_only", "weak", "{asked}"),
    ("no", "no"): ("strongly_incompatible", None, "{asked}"),
    ("no", "undecided"): ("undecided", None, "not compatible; weak undecided; {joint}"),
    ("undecided", "yes"): ("undecided", None, "{joint}"),
    ("undecided", "undecided"): ("undecided", None, "{joint}"),
}


def _decide(p: _Pair, fast_paths: bool, trace) -> Verdict:
    answers = {"joint": None, "weak": None}
    for question, engine in _STEPS[p.cls == "quantum"]:
        answers[question] = answers[question] or (
            _engine(p, question, trace) if engine else _fast(p, question, fast_paths))
        row = _RELATIONS.get(_implied(p, **answers))
        if row is not None:
            break  # every pair has a row once the joint engine, the last step, answers
    relation, carrier, notes = row
    asked = "; ".join(a.notes for a in answers.values() if a is not None)
    joint = answers["joint"] and answers["joint"].notes
    return Verdict(relation, carrier and _witness(p, carrier, answers[carrier]),
                   notes.format(joint=joint, asked=asked))


def _decide_weak(p: _Pair, fast_paths: bool, trace) -> Verdict:
    # the weak answer alone: the joint question is not asked, and reads as "no"
    a = _fast(p, "weak", fast_paths) or _engine(p, "weak", trace)
    return Verdict(_RELATIONS["no", a.value][0], _witness(p, "weak", a), a.notes)


def classify(d1, d2, tol: Tolerances = DEFAULT_TOL, fast_paths: bool = True,
             trace=None) -> Verdict:
    """Three-way classification of any pair of devices.

    Returns compatible, weakly_compatible_only, strongly_incompatible, or
    undecided. Classical pairs and pairs with a channel ask only the joint
    question; other pairs ask the weak question before the joint engine, and
    a weak "no" decides the pair as strongly incompatible without the joint
    solve. The witness orientation matches the argument order.
    """
    return _oriented(_decide, d1, d2, tol, fast_paths, trace)


def weakly_compatible(d1, d2, tol: Tolerances = DEFAULT_TOL, fast_paths: bool = True,
                      trace=None) -> Verdict:
    """Decide whether two instruments containing the devices share a total channel.

    Positive answers come back as ``weakly_compatible_only`` with both
    instruments; whether the pair is also compatible is not examined.
    """
    return _oriented(_decide_weak, d1, d2, tol, fast_paths, trace)


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

    All branches share one batched eigendecomposition, which keeps the
    Choi eigenvalues above ``tol.psd_tol``; branches and trace condition
    are read at the witness scale.
    """
    wtol = witness_tolerances(tol)
    nonzero = [x for x in ins.outcomes if frob_norm(ins.branches[x].choi) > wtol.eq_tol]
    lists = kraus_lists([ins.branches[x] for x in nonzero], wtol, cut=tol.psd_tol)
    owned = [(k, x) for x, ops in zip(nonzero, lists) for k in ops]
    owners = [x for _, x in owned]
    return [k for k, _ in owned], owners, tuple(i for i, x in enumerate(owners) if x in subset)


def kraus_witness(v: Verdict, tol: Tolerances = DEFAULT_TOL) -> KrausCertificate:
    """Export a verdict witness as Kraus operators with index subsets.

    The certificate is re-validated at ``witness_tolerances(tol)``
    (:func:`_validate_certificate`): each index subset's Choi sum equals the
    summed branches of its witness part, the full sums are normalized, and
    paired lists share their total channel. The parts are bound to the
    devices by :func:`check_witness` when the witness is assembled, not
    here. Only Choi eigenvalues at or below ``tol.psd_tol`` are dropped;
    dropping at the looser scale would miss the parts by as much as the
    validator forbids.
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
    if w.instrument_1 is w.instrument_2:
        ops, owners, j1 = _instrument_kraus(w.instrument_1, w.part_1, tol)
        j2 = tuple(i for i, x in enumerate(owners) if x in w.part_2)
        cert = KrausCertificate("joint", tuple(ops), None, j1, j2)
    else:
        k_ops, _, j1 = _instrument_kraus(w.instrument_1, w.part_1, tol)
        l_ops, _, j2 = _instrument_kraus(w.instrument_2, w.part_2, tol)
        n = max(len(k_ops), len(l_ops), 1)
        shape = (w.instrument_1.dim_out, w.instrument_1.dim_in)
        k_ops = tuple(k_ops + [np.zeros(shape, dtype=complex)] * (n - len(k_ops)))
        l_ops = tuple(l_ops + [np.zeros(shape, dtype=complex)] * (n - len(l_ops)))
        cert = KrausCertificate("paired", k_ops, l_ops, j1, j2)
    _validate_certificate(cert, w, wtol)
    return cert


def _validate_certificate(cert: KrausCertificate, w: Witness, wtol: Tolerances) -> None:
    """Check a certificate against the witness it was exported from.

    Every Kraus list is normalized, paired lists share their total
    channel, and the Choi sum over each index subset equals the summed
    branches of the witness part it stands for, in instrument i for
    subset i. Each list is checked as one (n, dim_out, dim_in) stack.
    """
    lists = [np.array(ops) for ops in (cert.k_ops, cert.l_ops) if ops is not None]
    din, dout = w.instrument_1.dim_in, w.instrument_1.dim_out
    for ops in lists:
        if not close(np.einsum("kai,kaj->ij", ops.conj(), ops), np.eye(din), wtol):
            raise WitnessValidationError("Kraus list is not normalized")
    if len(lists) == 2 and not close(kraus_choi(lists[0]), kraus_choi(lists[1]), wtol):
        raise WitnessValidationError("paired Kraus lists have different total channels")
    for ops, idx, ins, part in ((lists[0], cert.j1, w.instrument_1, w.part_1),
                                (lists[-1], cert.j2, w.instrument_2, w.part_2)):
        want = _sum([ins.branches[x].choi for x in part], din * dout)
        if not close(want, kraus_choi(ops[list(idx)]), wtol):
            raise WitnessValidationError("Kraus subset does not reproduce its witness part")
