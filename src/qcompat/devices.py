"""Quantum device types and their canonical constructions.

Five device kinds live here: effects and observables (classical output),
operations and channels (quantum output, represented by a CPMap in Choi
form), and instruments (both outputs). A map is a channel exactly when
it preserves trace: the Choi validator fixes every map's kind from its
Heisenberg unit at the validating tolerance, and a declared channel is
only asserted. The module also provides
Kraus/Choi conversion, Schroedinger/Heisenberg application, relabeling,
and the standard instrument constructions that embed any single device
into an instrument.

``instrument_parts`` is the one table that reads a device as an
instrument (its kind, its sides and a target for every outcome) and the
only code that tells the five device classes apart for it; anything else
raises the one UnsupportedPairError. ``holds_part`` states the part-of
rule once over the table, for ``is_part_of``'s search and for
``compat.check_witness``, and ``canonical_instrument`` is one rule over it.

Validation runs on stacks. There is one Choi validator and one effect
validator, each taking an (n, d, d) stack: finiteness and Hermiticity
are checked matrix by matrix, positivity with one ``eigvalsh`` per stack,
and the Heisenberg units of Choi matrices come from one ``einsum`` and
their spectra from one more ``eigvalsh``. The single-matrix
constructors call them on a stack of one; the stacked constructors
``CPMap.from_stack`` and ``Instrument.from_stack`` validate many matrices
at once, the second an instrument's branches and its total as one stack.
Every map's unit is checked as an effect, so both instrument constructors
accept the same branches.

Every matrix that validation hands out is exactly Hermitian, entry for
entry: ``Effect.matrix``, ``CPMap.choi``, ``heisenberg_unit()``, the
branches of both instrument constructors and every ``instrument_parts``
target. Their sums and differences are too, so the package takes no
``hermitian_part`` of them; a product, an ``einsum`` or outside input
still needs one.

Choi convention: for a map ``F`` from states on the input space (side
``dim_in``) to states on the output space (side ``dim_out``),

    J(F) = sum_ij |i><j| (x) F(|i><j|)

with the input slot on the slow index. The Schroedinger action is
``F(rho) = Tr_in[J (rho^T (x) I_out)]``.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .matkit import (
    DEFAULT_TOL,
    HermiticityError,
    MatrixShapeError,
    PositivityError,
    Tolerances,
    as_matrix,
    bound_text,
    close,
    frob_norm,
    hermitian_part,
    kron,
    mat_sqrt,
    side_product,
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
# Stack validators: every device check runs here, once per (n, d, d) stack
# ---------------------------------------------------------------------------


def _made(cls, **fields):
    """An instance of a device class from fields that were validated as part of a stack."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def _square_stack(mats, what: str, side: int) -> np.ndarray:
    """The matrices as one C-ordered complex (n, side, side) array."""
    a = np.ascontiguousarray(mats, dtype=complex)
    if a.shape[1:] != (side, side):
        raise MatrixShapeError(f"{what} stack of shape {a.shape} is not (n, {side}, {side})")
    return a


def _hermitian_stack(a: np.ndarray, tol: Tolerances, what: str) -> np.ndarray:
    """Read-only Hermitian parts of a C-ordered stack of finite matrices that pass
    :func:`matkit.is_hermitian`'s test, matrix by matrix; else ValueError or
    HermiticityError naming ``what``."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains NaN or Inf entries")
    at = a.conj().swapaxes(-1, -2)
    gap = a - at
    if gap.any():  # an exactly Hermitian stack passes every test
        for i in range(len(a)):
            g = frob_norm(gap[i])
            # a gap within eq_tol passes whatever the matrix's norm
            if g > tol.eq_tol and not g <= tol.eq_tol * (1.0 + frob_norm(a[i])):
                raise HermiticityError(f"{what} is not Hermitian")
    h = (a + at) / 2.0
    h.flags.writeable = False
    return h


def _effect_stack(m: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The effect check of a stack: Hermitian parts with spectra in [0, 1], from one
    eigvalsh; else EffectBoundsError for the first matrix outside."""
    h = _hermitian_stack(m, tol, "effect matrix")
    evals = np.linalg.eigvalsh(h)
    for lo, hi in zip(evals[:, 0].tolist(), evals[:, -1].tolist()):
        if not (lo >= -tol.psd_tol and hi <= 1.0 + tol.psd_tol):
            raise EffectBoundsError(
                f"effect eigenvalues [{bound_text(lo)}, {bound_text(hi)}] outside [0, 1]")
    return h


def _spectra(h: np.ndarray, din: int, dout: int):
    """Least Choi eigenvalue, read-only Heisenberg unit and unit spectrum of each map in
    a Hermitian stack: one einsum and two eigvalsh for the whole stack."""
    low = np.linalg.eigvalsh(h)[:, 0]
    units = np.ascontiguousarray(np.einsum("njmim->nij", h.reshape(-1, din, dout, din, dout)))
    units.flags.writeable = False
    # the partial trace of a Hermitian matrix is Hermitian, entry for entry
    return low, units, np.linalg.eigvalsh(units)


def _is_unit(evals: list[float], tol: Tolerances) -> bool:
    """Whether a Hermitian matrix with these eigenvalues is the identity at ``tol``:
    :func:`matkit.close`'s test ``||U - 1||_F <= eq_tol (1 + ||U||_F)``, with both
    norms read from the spectrum."""
    gap = norm = 0.0
    for x in evals:
        gap += (x - 1.0) ** 2
        norm += x * x
    return math.sqrt(gap) <= tol.eq_tol * (1.0 + math.sqrt(norm))


def _kinds(low: np.ndarray, unit_evals: np.ndarray, tol: Tolerances) -> list[str]:
    """The kind of each map in a stack, from its least Choi eigenvalue and its unit
    spectrum: "channel" when the unit is the identity at ``tol``, else "operation".
    PositivityError, TraceConditionError or EffectBoundsError for the first map, in
    stack order, that is not completely positive, increases trace or has a unit
    below zero (a Choi matrix within ``psd_tol`` of PSD can)."""
    kinds = []
    for lo, evals in zip(low.tolist(), unit_evals.tolist()):
        if not lo >= -tol.psd_tol:
            raise PositivityError(f"Choi matrix has eigenvalue {lo:.3e} < 0")
        if not evals[-1] <= 1.0 + tol.psd_tol:
            raise TraceConditionError(
                f"map increases trace: ||F_H(1)|| = {bound_text(evals[-1])} > 1")
        if not evals[0] >= -tol.psd_tol:
            raise EffectBoundsError(f"map's unit has eigenvalue {evals[0]:.3e} < 0")
        kinds.append("channel" if _is_unit(evals, tol) else "operation")
    return kinds


def _maps(din: int, dout: int, h: np.ndarray, units: np.ndarray, kinds) -> list[CPMap]:
    """Maps from checked Choi matrices, their units and their kinds."""
    return [_made(CPMap, dim_in=din, dim_out=dout, choi=c, kind=k, _unit=u)
            for c, u, k in zip(h, units, kinds)]


def _choi_stack(j: np.ndarray, din: int, dout: int, tol: Tolerances):
    """The Choi check of a stack: read-only Hermitian parts and Heisenberg units, and
    the kinds, of completely positive, trace-non-increasing maps."""
    h = _hermitian_stack(j, tol, "Choi matrix")
    low, units, unit_evals = _spectra(h, din, dout)
    return h, units, _kinds(low, unit_evals, tol)


# ---------------------------------------------------------------------------
# Device types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Effect:
    """Hermitian operator E with 0 <= E <= 1."""

    matrix: np.ndarray
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, tol: Tolerances | None) -> None:
        m = np.ascontiguousarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.shape[0]:
            raise MatrixShapeError("effect matrix must be square and not empty")
        vars(self)["matrix"] = _effect_stack(m[None], tol or DEFAULT_TOL)[0]

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
        object.__setattr__(self, "outcomes", _outcome_labels(self.outcomes, self.effects, "effect"))
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
        return Effect(_label_sums({x: e.matrix for x, e in self.effects.items()}, [labels])[0],
                      tol)


@dataclass(frozen=True, eq=False)
class CPMap:
    """Completely positive trace-non-increasing map in canonical Choi form.

    Validation computes the Heisenberg unit once, keeps it read-only,
    and fixes ``kind``: "channel" exactly when the unit is the identity
    at the validating tolerance, else "operation". A declared
    ``kind="channel"`` is an assertion, TraceConditionError when the map
    does not preserve trace; :meth:`is_trace_preserving` asks the
    question again at another tolerance.
    """

    dim_in: int
    dim_out: int
    choi: np.ndarray
    kind: str = "operation"
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, tol: Tolerances | None) -> None:
        if self.kind not in ("operation", "channel"):
            raise ValueError(f"unknown map kind {self.kind!r}")
        j = np.ascontiguousarray(self.choi, dtype=complex)
        side = side_product(self.dim_in, self.dim_out)
        if j.shape != (side, side):
            raise MatrixShapeError(f"Choi shape {j.shape} is not side dim_in*dim_out = {side}")
        tol = tol or DEFAULT_TOL
        h, units, (kind,) = _choi_stack(j[None], self.dim_in, self.dim_out, tol)
        if self.kind == "channel" and kind != "channel":
            raise TraceConditionError("channel is not trace-preserving")
        vars(self).update(choi=h[0], _unit=units[0], kind=kind)

    @classmethod
    def from_stack(cls, dim_in: int, dim_out: int, chois,
                   tol: Tolerances | None = None) -> list[CPMap]:
        """The maps of a (n, side, side) stack of Choi matrices, validated as one stack."""
        j = _square_stack(chois, "Choi matrix", side_product(dim_in, dim_out))
        return _maps(dim_in, dim_out, *_choi_stack(j, dim_in, dim_out, tol or DEFAULT_TOL))

    @property
    def _t4(self) -> np.ndarray:
        return self.choi.reshape(self.dim_in, self.dim_out, self.dim_in, self.dim_out)

    def heisenberg_unit(self) -> np.ndarray:
        """The effect F_H(1) that the map assigns to the unit (read-only)."""
        return self._unit

    def is_trace_preserving(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        """Whether the unit is the identity at ``tol``: the test that fixed ``kind`` at
        the validating tolerance."""
        return _is_unit(np.linalg.eigvalsh(self._unit).tolist(), tol)


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
        outcomes = _outcome_labels(self.outcomes, self.branches, "branch")
        dims = {(b.dim_in, b.dim_out) for b in self.branches.values()}
        if len(dims) != 1:
            raise MatrixShapeError("all branches must share input/output dimensions")
        # branch Choi matrices are Hermitian, entry for entry, and so is their sum
        total = sum(self.branches[x].choi for x in outcomes)
        channel = _with_total(total[None], *next(iter(dims)), tol)[1]
        vars(self).update(outcomes=outcomes, _total=(tol, channel))

    @classmethod
    def from_stack(cls, chois: dict, dim_in: int, dim_out: int,
                   tol: Tolerances | None = None) -> Instrument:
        """The instrument whose branch x has the raw Choi matrix ``chois[x]``, validated
        as one stack; its outcomes are the keys of ``chois``, in order.

        The total is, as for an instrument of CPMaps, the sum in outcome
        order of the branches' Hermitian parts. The stack of the branches
        and their total is checked in that order: the branches as maps,
        then the total as a channel.
        """
        tol = tol or DEFAULT_TOL
        outcomes = _outcome_labels(chois, chois, "branch")
        j = _square_stack(list(chois.values()), "Choi matrix", side_product(dim_in, dim_out))
        h = _hermitian_stack(j, tol, "Choi matrix")
        # the total of Hermitian parts is Hermitian, entry for entry
        branches, channel = _with_total(np.concatenate([h, sum(h)[None]]), dim_in, dim_out, tol)
        return _made(cls, outcomes=outcomes, branches=dict(zip(outcomes, branches)),
                     _total=(tol, channel))

    @property
    def dim_in(self) -> int:
        return next(iter(self.branches.values())).dim_in

    @property
    def dim_out(self) -> int:
        return next(iter(self.branches.values())).dim_out

    def branch_sum(self, labels, tol: Tolerances = DEFAULT_TOL) -> CPMap:
        """Summed map over an outcome subset (the empty sum is null)."""
        sums = _label_sums({x: m.choi for x, m in self.branches.items()}, [labels])
        return CPMap.from_stack(self.dim_in, self.dim_out, sums, tol)[0]


def _outcome_labels(outcomes, members: dict, what: str) -> tuple[str, ...]:
    """The outcomes as strings; OutcomeError if empty, repeated or not ``members``' labels."""
    outcomes = tuple(str(x) for x in outcomes)
    if not outcomes:
        raise OutcomeError("a device needs at least one outcome")
    if len(set(outcomes)) != len(outcomes):
        raise OutcomeError("duplicate outcome labels")
    if set(members) != set(outcomes):
        raise OutcomeError(f"{what} labels do not match outcome list")
    return outcomes


def _subset(labels, outcomes) -> list:
    """The labels as a list; OutcomeError for one that ``outcomes`` lacks or that repeats."""
    labels = list(labels)
    for x in labels:
        if x not in outcomes:
            raise OutcomeError(f"unknown outcome {x!r}")
    if len(set(labels)) != len(labels):
        raise OutcomeError(f"repeated outcome in {labels}")
    return labels


def _label_sums(chois: dict, label_sets) -> np.ndarray:
    """The (n, side, side) stack of the sums of ``chois`` over each label set, added
    from zero in label order (the empty sum is null); OutcomeError for a label that
    ``chois`` lacks or that a set repeats."""
    sets = [_subset(labels, chois) for labels in label_sets]
    side = next(iter(chois.values())).shape[0]
    sums = np.zeros((len(sets), side, side), dtype=complex)
    for j, labels in zip(sums, sets):
        for x in labels:
            j += chois[x]
    return sums


def _with_total(stack: np.ndarray, din: int, dout: int, tol: Tolerances):
    """Check a Hermitian Choi stack of branches and, in its last row, their total: the
    branches as maps, then the total as a channel, else NormalizationError. Returns
    the branches and the total."""
    stack.flags.writeable = False
    low, units, unit_evals = _spectra(stack, din, dout)
    kinds = _kinds(low[:-1], unit_evals[:-1], tol)
    try:
        kinds += _kinds(low[-1:], unit_evals[-1:], tol)
    except (TraceConditionError, PositivityError, EffectBoundsError) as exc:
        raise NormalizationError(f"branch sum is not a channel: {exc}") from exc
    if kinds[-1] != "channel":
        raise NormalizationError("branch sum is not a channel: it does not preserve trace")
    *branches, channel = _maps(din, dout, stack, units, kinds)
    return branches, channel


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
        if any(k.shape != shape for k in ops) or 0 in shape:
            raise MatrixShapeError("Kraus operators must share one shape with positive sides")
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
        images = tuple(dict.fromkeys(self.mapping.values()))
        cod = tuple(self.codomain) if self.codomain else images
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
        raise TraceConditionError(f"sum K^*K has eigenvalue {bound_text(top)} > 1")


def kraus_choi(ops) -> np.ndarray:
    """Choi matrix of ``rho -> sum_k K_k rho K_k^*`` for a (n, dim_out, dim_in) stack;
    the outer products of vec(K_k^T) are summed in stack order, as one by one."""
    ops = np.asarray(ops)
    n, dout, din = ops.shape
    v = ops.swapaxes(-1, -2).reshape(n, din * dout)
    return (v[:, :, None] * v.conj()[:, None, :]).sum(axis=0)


def choi_from_kraus(k: KrausSet | list, tol: Tolerances = DEFAULT_TOL) -> CPMap:
    """Canonical Choi matrix of ``rho -> sum_j K_j rho K_j^*``.

    The result is a channel exactly when the Kraus set is normalized.
    """
    if not isinstance(k, KrausSet):
        k = KrausSet(tuple(k), tol=tol)
    return CPMap.from_stack(k.dim_in, k.dim_out, kraus_choi(k.ops)[None], tol)[0]


def kraus_lists(
    maps: list[CPMap], tol: Tolerances = DEFAULT_TOL, *, cut: float | None = None
) -> list:
    """Kraus operators of several same-shape maps, from one batched Choi eigh.

    Eigenvalues at or below ``cut`` (psd_tol when None) are dropped; a map
    left with none yields the single zero operator. KrausSet's trace
    condition is checked at ``tol`` for every list, on one stack of sums K^*K.
    """
    if not maps:
        return []
    din, dout = maps[0].dim_in, maps[0].dim_out
    # CPMap validation left every Choi matrix exactly Hermitian
    evals, evecs = np.linalg.eigh(np.array([m.choi for m in maps]))
    keep = evals > (tol.psd_tol if cut is None else cut)
    vecs = evecs.swapaxes(-1, -2).reshape(*evals.shape, din, dout).swapaxes(-1, -2)
    ops = np.sqrt(np.where(keep, evals, 0.0))[..., None, None] * vecs
    v = ops.reshape(len(maps), -1, din)
    _check_trace_condition(v.conj().swapaxes(-1, -2) @ v, tol)
    kept = ops[keep]
    kept.flags.writeable = False
    flat, ends = list(kept), np.cumsum(keep.sum(axis=1)).tolist()
    return [tuple(flat[a:b]) if b > a else (_freeze(np.zeros((dout, din), dtype=complex)),)
            for a, b in zip([0] + ends, ends)]


def kraus_from_choi(m: CPMap, tol: Tolerances = DEFAULT_TOL) -> KrausSet:
    """Kraus operators from the Choi eigendecomposition: :func:`kraus_lists` of one
    map, which checks their trace condition."""
    return _made(KrausSet, ops=kraus_lists([m], tol)[0])


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
    chois = {x: m.choi for x, m in ins.branches.items()}
    # mapping labels that are not outcomes add nothing
    sums = _label_sums(chois, [[x for x in f.preimage(y) if x in chois] for y in f.codomain])
    return Instrument.from_stack(dict(zip(f.codomain, sums)), ins.dim_in, ins.dim_out, tol)


@dataclass(frozen=True, eq=False)
class Parts:
    """A device read as an instrument (:func:`instrument_parts`).

    ``kind`` is effect, observable, operation, channel or instrument;
    ``din`` is the input side and ``dout`` the quantum output side (None
    for an effect or an observable). ``targets`` maps every outcome to the
    Choi matrix of a map on the device's own output; ``free`` names the
    outcome whose target is only the rest of the unit, or is None.
    """

    kind: str
    din: int
    dout: int | None
    targets: dict[str, np.ndarray]
    free: str | None = None

    @property
    def fixed(self) -> dict[str, np.ndarray]:
        """The targets the device itself fixes: all but the free outcome's."""
        return {x: t for x, t in self.targets.items() if x != self.free}


class UnsupportedPairError(TypeError, ValueError):
    """An input is not one of the five device kinds."""


def instrument_parts(device) -> Parts:
    """The one table that reads a device as an instrument.

    Every target is the Choi matrix of a map on the device's own output:
    an effect E is the map rho -> tr(E rho) into a one-dimensional output,
    whose Choi matrix is E^T. An effect's or an operation's part is
    outcome "1", and its free outcome "0" gets the rest of the unit,
    (1 - E)^T or (1 - F_H(1))^T, of side ``din``; a channel has the one
    outcome "1". A map's kind is the one its validation fixed. A record is
    its own reading. UnsupportedPairError for anything else.
    """
    if isinstance(device, Parts):
        return device
    if isinstance(device, Effect):
        e = device.matrix.T
        return Parts("effect", device.dim, None, {"1": e, "0": np.eye(device.dim) - e}, "0")
    if isinstance(device, Observable):
        return Parts("observable", device.dim, None,
                     {x: device.effects[x].matrix.T for x in device.outcomes})
    if isinstance(device, Instrument):
        return Parts("instrument", device.dim_in, device.dim_out,
                     {x: device.branches[x].choi for x in device.outcomes})
    if isinstance(device, CPMap):
        if device.kind == "channel":
            return Parts("channel", device.dim_in, device.dim_out, {"1": device.choi})
        rest = np.eye(device.dim_in) - device.heisenberg_unit().T
        return Parts("operation", device.dim_in, device.dim_out,
                     {"1": device.choi, "0": rest}, "0")
    raise UnsupportedPairError(f"unsupported device type {type(device).__name__}")


def part_sums(parts: Parts, ins: Instrument, owner: dict) -> dict[str, np.ndarray]:
    """For each fixed target of a device's :func:`instrument_parts` record, the sum in
    outcome order of the branches that ``owner`` (instrument label -> device outcome)
    sends to it: their Choi matrices for a target of the branches' side, else their
    transposed units. Labels that ``owner`` does not send go to the free outcome."""
    sums = {y: np.zeros_like(t) for y, t in parts.fixed.items()}
    for x in ins.outcomes:
        y = owner.get(x)
        if y in sums:
            sums[y] = sums[y] + _term(ins, x, len(sums[y]))
    return sums


def _term(ins: Instrument, x: str, side: int) -> np.ndarray:
    """Branch x as a side-``side`` target reads it: its Choi matrix, or its transposed unit."""
    b = ins.branches[x]
    return b.choi if side == ins.dim_in * ins.dim_out else b.heisenberg_unit().T


def holds_part(parts: Parts, sums: dict, tol: Tolerances) -> bool:
    """Whether the device of ``parts`` is a part of an instrument through an owner
    map whose :func:`part_sums` are ``sums``: every sum equals its target by
    :func:`matkit.close`, target by target. Only norms are taken, no spectrum."""
    return all(close(t, sums[y], tol) for y, t in parts.fixed.items())


def is_part_of(device, ins: Instrument, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Decide whether a device arises from an instrument.

    A depth-first search over owner maps from the instrument's outcomes
    onto the device's :func:`instrument_parts` outcomes, whose leaves
    :func:`holds_part` decides. A map's kind is the one its validation
    fixed: a channel has one target, the instrument's total. A sum that
    exceeds its fixed target in the PSD order by more than the larger
    tolerance, at the largest target's scale, is pruned: every summand
    is PSD, so it stays away from its target. Each node adds its one
    branch to the partial sums it carries, in :func:`part_sums`' order,
    and a leaf hands them to :func:`holds_part` as they are. Searches
    with more than one target are bounded by PART_SEARCH_LIMIT outcomes.
    """
    parts = instrument_parts(device)
    if parts.din != ins.dim_in or parts.dout not in (None, ins.dim_out):
        raise MatrixShapeError("device dimensions do not match the instrument")
    if len(parts.targets) > 1 and len(ins.outcomes) > PART_SEARCH_LIMIT:
        raise OutcomeBoundError(
            f"outcome set of size {len(ins.outcomes)} exceeds the exhaustive "
            f"search limit {PART_SEARCH_LIMIT}"
        )
    src, fixed = ins.outcomes, parts.fixed
    floor = -max(tol.eq_tol, tol.psd_tol) * (1.0 + max(frob_norm(t) for t in fixed.values()))

    def rec(k: int, sums: dict, y: str | None) -> bool:
        if y in fixed:
            gap = fixed[y] - sums[y]
            if float(np.linalg.eigvalsh(gap)[0]) < floor:
                return False
        if k == len(src):
            return holds_part(parts, sums, tol)
        x = src[k]
        return any(rec(k + 1, {**sums, z: sums[z] + _term(ins, x, len(sums[z]))}
                       if z in fixed else sums, z) for z in parts.targets)

    return rec(0, {y: np.zeros_like(t) for y, t in fixed.items()}, None)


# ---------------------------------------------------------------------------
# Canonical constructions
# ---------------------------------------------------------------------------


def _check_state(rho: np.ndarray, tol: Tolerances) -> np.ndarray:
    rho = np.ascontiguousarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise MatrixShapeError("state must be square")
    h = _hermitian_stack(rho[None], tol, "state")[0]
    evals = np.linalg.eigvalsh(h)
    if evals[0] < -tol.psd_tol:
        raise PositivityError(f"state has negative eigenvalue {evals[0]:.3e}")
    if abs(float(np.trace(rho).real) - 1.0) > 1e-8:
        raise ValueError("state trace differs from 1")
    return h


def _check_distribution(p: dict[str, float], name: str) -> None:
    """ValueError naming ``p`` unless its values sum to 1 within 1e-9 and none
    is below -1e-12."""
    if abs(sum(p.values()) - 1.0) > 1e-9 or any(v < -1e-12 for v in p.values()):
        raise ValueError(f"{name} must be a probability distribution")


def canonical_instrument(
    device,
    anchor_state: np.ndarray | None = None,
    probs: dict[str, float] | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Instrument:
    """Embed a single device into an instrument that has it as a part: one rule
    over :func:`instrument_parts`.

    A target of the full side ``din * dout`` is its own branch, and a
    target of side ``din`` (an effect's, an observable's, the rest of a
    unit) is measured and an anchor state rho0 prepared, kron(t, rho0).
    The anchor (default: maximally mixed) lives on the device's quantum
    output, if it has one, and parametrizes an uncountable family of valid
    embeddings. Labels follow the table: an effect's or an operation's
    part is outcome "1" and the rest of its unit "0". A channel given
    ``probs`` becomes the probability-weighted family of its copies, and an
    instrument its own canonical instrument. ValueError for ``probs`` given
    with any other kind, and for ``anchor_state`` given with a channel or an
    instrument, which measure no target.
    """
    parts = instrument_parts(device)
    if probs is not None and parts.kind != "channel":
        raise ValueError(f"probs weight the copies of a channel, not of an {parts.kind}")
    if anchor_state is not None and parts.kind in ("channel", "instrument"):
        raise ValueError(f"a {parts.kind} measures no target, so it takes no anchor_state")
    din, dout, chois = parts.din, parts.dout, parts.targets
    if probs is not None:
        _check_distribution(probs, "probs")
        chois = {x: max(p, 0.0) * device.choi for x, p in probs.items()}
    elif any(t.shape[0] == din for t in chois.values()):
        d = dout or din
        rho0 = _check_state(anchor_state if anchor_state is not None else np.eye(d) / d, tol)
        if dout not in (None, rho0.shape[0]):
            raise MatrixShapeError("anchor state must live on the output space")
        dout = rho0.shape[0]
        chois = {x: kron(t, rho0) if t.shape[0] == din else t for x, t in chois.items()}
    return Instrument.from_stack(chois, din, dout, tol)


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
    _check_distribution(p, "p")
    outcomes = tuple(p)
    effects = {x: Effect(max(v, 0.0) * np.eye(dim), tol=tol) for x, v in p.items()}
    return Observable(outcomes, effects, tol=tol)
