"""Command-line front end.

Parses device files, validates them, classifies pairs, dumps witnesses
and certificates, synthesizes and simulates measurement models, and
reproduces the built-in demonstration table of relation types on a
qubit. One table of subcommands builds the parser; the commands that
name devices load the file once and resolve and type-check the named
devices through one helper. Output on stdout is deterministic for fixed
inputs and flags; timings and solver traces go to stderr.

Device files are JSON documents::

    {"devices": [
      {"name": "...", "type": "effect|observable|operation|channel|instrument|model",
       "dims": {"in": 2, "out": 2},
       "payload": {...}}
    ]}

Every field is read by its JSON type, never coerced. Complex numbers are
two-element arrays ``[re, im]`` of JSON numbers (not booleans or
strings); matrices are row-major nested arrays of those. Operations and
channels take either ``{"kraus": [matrix, ...]}`` or ``{"choi": matrix}``;
observables take ``{"outcomes": [...], "effects": {label: matrix}}`` and
instruments ``{"outcomes": [...], "branches": {label: kraus-or-choi}}``,
where ``outcomes`` is an array of strings; models take the quintuple
fields ``dim_v1, dim_v2, eta, unitary, pointer``.

A witness has one shape for both relations: two instruments with one
total channel, which are one joint instrument for a compatible pair. Its
document lists the instruments (the joint instrument once, or both and
their common channel), then, by one rule, how each device arises from
them: ``part_i``, the outcome subset of an effect, operation or channel
(``null`` otherwise), and ``pointer_i``, the pointer map of an
observable or instrument. A compatible pair of effects or observables
also gets ``joint_observable``: the joint instrument's branch units
I_H(x, 1), the effects of a joint observable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import compat as cp
from . import devices as dv
from . import dilation as dl
from . import memo as mm
from .fixtures import TABLE1_CELLS, builtin_devices
from .matkit import Tolerances

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNDECIDED = 3
EXIT_UNSUPPORTED = 4


class DeviceFileError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _scalar(x) -> complex:
    """A complex number from ``[re, im]``, two JSON numbers (a boolean is not one)."""
    if not (isinstance(x, list) and len(x) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x)):
        raise DeviceFileError(f"complex scalar must be [re, im], got {x!r}")
    try:
        return complex(*x)
    except OverflowError:  # a JSON integer beyond the float range
        raise DeviceFileError("complex scalar has an entry beyond the float range") from None


def _matrix(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) and r for r in rows):
        raise DeviceFileError("matrix must be a non-empty nested array")
    data = [[_scalar(x) for x in row] for row in rows]
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise DeviceFileError("matrix rows have inconsistent lengths")
    return np.array(data, dtype=complex)


def _field(payload, key: str, kind: str, json_type=None):
    """A payload field, or an error that names the missing one, or, when
    ``json_type`` (``list`` or ``dict``) is given, the one of another JSON type."""
    if not isinstance(payload, dict) or key not in payload:
        raise DeviceFileError(f"{kind} payload needs {key!r}")
    value = payload[key]
    if json_type is not None and not isinstance(value, json_type):
        name = "an object" if json_type is dict else "an array"
        raise DeviceFileError(f"{kind} payload {key!r} must be {name}")
    return value


def _outcomes(payload, kind: str) -> tuple[str, ...]:
    outcomes = _field(payload, "outcomes", kind)
    if not isinstance(outcomes, list) or not all(isinstance(x, str) for x in outcomes):
        raise DeviceFileError(f"{kind} payload 'outcomes' must be an array of strings")
    return tuple(outcomes)


def _cpmap_payload(payload, din, dout, kind, tol) -> dv.CPMap:
    """The map of a Kraus or Choi payload; either form gives it the kind that CPMap
    validation fixes, and a declared channel must preserve trace."""
    fields = payload if isinstance(payload, dict) else {}
    if "kraus" in fields:
        ops = tuple(_matrix(k) for k in _field(fields, "kraus", "operation", list))
        for k in ops:
            if k.shape != (dout, din):
                raise DeviceFileError(
                    f"Kraus operator shape {k.shape} does not match dims ({dout}, {din})"
                )
        choi = dv.kraus_choi(dv.KrausSet(ops, tol=tol).ops)
    elif "choi" in fields:
        choi = _matrix(fields["choi"])
    else:
        raise DeviceFileError("operation payload needs 'kraus' or 'choi'")
    return dv.CPMap(din, dout, choi, kind=kind, tol=tol)


def _observable_payload(payload, tol) -> dv.Observable:
    outcomes = _outcomes(payload, "observable")
    effects = {
        x: dv.Effect(_matrix(m), tol=tol)
        for x, m in _field(payload, "effects", "observable", dict).items()
    }
    return dv.Observable(outcomes, effects, tol=tol)


def _dim(dims: dict, key: str, default: int) -> int:
    """A declared side: a JSON integer >= 1 (not a boolean), or ``default`` when absent."""
    if key not in dims:
        return default
    d = dims[key]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise DeviceFileError(f"dims.{key} must be an integer >= 1, got {d!r}")
    return d


def parse_device(entry: dict, tol: Tolerances):
    name = entry.get("name")
    kind = entry.get("type")
    dims = entry.get("dims", {})
    payload = entry.get("payload", {})
    if not name or not isinstance(name, str):
        raise DeviceFileError("device entry without a name")
    if not isinstance(dims, dict):
        raise DeviceFileError(f"dims must be an object, got {dims!r}")
    din = _dim(dims, "in", 0)
    dout = _dim(dims, "out", din)
    if kind in ("operation", "channel", "instrument", "model") and not (din and dout):
        raise DeviceFileError(f"{kind} {name!r} needs dims.in and dims.out")
    if kind in ("effect", "observable"):
        if kind == "effect":
            device = dv.Effect(_matrix(_field(payload, "matrix", kind)), tol=tol)
        else:
            device = _observable_payload(payload, tol)
        if din and device.dim != din:
            raise DeviceFileError(f"{kind} {name!r} does not match its declared dims")
        return device
    if kind in ("operation", "channel"):
        return _cpmap_payload(payload, din, dout, kind, tol)
    if kind == "instrument":
        outcomes = _outcomes(payload, kind)
        branches = {
            x: _cpmap_payload(b, din, dout, "operation", tol)
            for x, b in _field(payload, "branches", kind, dict).items()
        }
        return dv.Instrument(outcomes, branches, tol=tol)
    if kind == "model":
        dim_v1, dim_v2, eta, unitary, pointer = (
            _field(payload, key, kind) for key in ("dim_v1", "dim_v2", "eta", "unitary", "pointer")
        )
        return mm.MeasurementModel(
            din, dout, dim_v1, dim_v2, _matrix(eta), _matrix(unitary),
            _observable_payload(pointer, tol), tol=tol,
        )
    raise DeviceFileError(f"unknown device type {kind!r}")


def load_device_file(path: str, tol: Tolerances) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DeviceFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DeviceFileError(f"invalid JSON in {path}: {exc}") from exc
    entries = doc.get("devices") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise DeviceFileError("device file needs a top-level 'devices' list")
    out = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise DeviceFileError(f"device entry {entry!r} is not an object")
        name = entry.get("name", "<unnamed>")
        try:
            device = parse_device(entry, tol)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise DeviceFileError(f"device {name!r}: {exc}") from exc
        if name in out:  # parse_device has checked that the name is a string
            raise DeviceFileError(f"device {name!r} defined twice")
        out[name] = device
    return out


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def fmt_matrix(m: np.ndarray) -> list:
    return [[[float(f"{x.real:.12g}"), float(f"{x.imag:.12g}")] for x in row] for row in m]


def _flat(v) -> bool:
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _matrix_row(v) -> bool:
    """A row of :func:`fmt_matrix`: a list of [re, im] pairs, printed on one line."""
    return isinstance(v, list) and all(_flat(x) for x in v)


def _emit_text(doc, prefix: str = "") -> None:
    """An object as ``key: value`` lines, a list as ``- value`` lines: a flat list
    inline, and in a list a matrix row too; a nested object or list below,
    indented (in a list of matrices, a matrix); a scalar as it is."""
    in_list = isinstance(doc, list)
    for k, v in enumerate(doc) if in_list else doc.items():
        head = f"{prefix}-" if in_list else f"{prefix}{k}:"
        if _flat(v) or (in_list and _matrix_row(v)):
            print(f"{head} {json.dumps(v)}")
        elif isinstance(v, (dict, list)):
            print(head)
            _emit_text(v, prefix + "  ")
        else:
            print(f"{head} {v}")


def _emit(doc, args, text=_emit_text) -> None:
    """Print ``doc`` as JSON, or in the text format through ``text``."""
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        text(doc)


def _instrument_doc(ins: dv.Instrument) -> dict:
    return {
        "outcomes": list(ins.outcomes),
        "branches": {x: {"choi": fmt_matrix(ins.branches[x].choi)} for x in ins.outcomes},
    }


def _witness_doc(w: cp.Witness | None, pair) -> dict | None:
    """The witness's instruments, one joint instrument when its two are one, then how
    each device of ``pair`` arises from them: its subset ``part_i`` and its pointer
    map ``pointer_i``; when both devices are effects or observables, also the joint
    instrument's branch units, the effects of the joint observable. None when the
    verdict has no witness."""
    if w is None:
        return None
    if w.instrument_1 is w.instrument_2:
        doc = {"kind": "joint-instrument", "instrument": _instrument_doc(w.instrument_1)}
    else:
        doc = {
            "kind": "shared-total-instrument-pair",
            "instrument_1": _instrument_doc(w.instrument_1),
            "instrument_2": _instrument_doc(w.instrument_2),
            "common_channel": {"choi": fmt_matrix(w.common_channel.choi)},
        }
    doc["part_1"] = list(w.part_1) if w.part_1 is not None else None
    doc["part_2"] = list(w.part_2) if w.part_2 is not None else None
    for key, pointer in (("pointer_1", w.pointer_1), ("pointer_2", w.pointer_2)):
        if pointer is not None:
            doc[key] = dict(pointer.mapping)
    kinds = {dv.instrument_parts(d).kind for d in pair}
    if w.instrument_1 is w.instrument_2 and kinds <= {"effect", "observable"}:
        ins = w.instrument_1
        doc["joint_observable"] = {x: fmt_matrix(ins.branches[x].heisenberg_unit())
                                   for x in ins.outcomes}
    return doc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _tolerances(args) -> Tolerances:
    return Tolerances(eq_tol=args.tol_eq, psd_tol=args.tol_psd, feas_tol=args.tol_feas)


def _trace_fn(args):
    if args.trace:
        return lambda line: print(line, file=sys.stderr)
    return None


def _exit_code(relations) -> int:
    return EXIT_UNDECIDED if "undecided" in relations else EXIT_OK


def cmd_validate(args) -> int:
    devices = load_device_file(args.file, _tolerances(args))
    doc = {"devices": [{"name": n, "type": _type_name(d), "status": "ok"} for n, d in devices.items()]}
    _emit(doc, args)
    return EXIT_OK


def _type_name(device) -> str:
    if isinstance(device, mm.MeasurementModel):
        return "model"
    return dv.instrument_parts(device).kind


def _load(args, *names, types=object, wrong_type=""):
    """The tolerances of ``args``, then each named device of ``args.file``, loaded
    once; a device that is not one of ``types`` is invalid input: ``'name' wrong_type``."""
    tol = _tolerances(args)
    devices = load_device_file(args.file, tol)
    for name in names:
        if name not in devices:
            raise DeviceFileError(f"no device named {name!r} in the file")
        if not isinstance(devices[name], types):
            raise DeviceFileError(f"{name!r} {wrong_type}")
    return (tol, *(devices[name] for name in names))


def _classified(args):
    """The tolerances, the named pair, the verdict on it, and the head of its document."""
    tol, d1, d2 = _load(args, args.name1, args.name2)
    start = time.perf_counter()
    verdict = cp.classify(
        d1, d2, tol=tol, fast_paths=not args.no_fast_paths, trace=_trace_fn(args),
    )
    elapsed = time.perf_counter() - start
    print(f"classified in {elapsed:.3f}s", file=sys.stderr)
    doc = {"pair": [args.name1, args.name2], "relation": verdict.relation, "notes": verdict.notes}
    return tol, (d1, d2), verdict, doc


def cmd_classify(args) -> int:
    _, _, verdict, doc = _classified(args)
    _emit(doc, args)
    return _exit_code([verdict.relation])


def cmd_witness(args) -> int:
    tol, pair, verdict, doc = _classified(args)
    w = verdict.witness
    doc["witness"] = _witness_doc(w, pair)
    if w is not None and w.part_1 is not None and w.part_2 is not None:
        cert = cp.kraus_witness(verdict, tol)
        doc["kraus_certificate"] = {
            "kind": cert.kind,
            "k_ops": [fmt_matrix(k) for k in cert.k_ops],
            "l_ops": [fmt_matrix(k) for k in cert.l_ops] if cert.l_ops else None,
            "j1": list(cert.j1),
            "j2": list(cert.j2),
        }
    _emit(doc, args)
    return _exit_code([verdict.relation])


def cmd_dilate(args) -> int:
    tol, device = _load(args, args.name, types=dv.CPMap,
                        wrong_type="is not an operation or channel")
    dil = dl.minimal_stinespring(device, tol)
    doc = {
        "name": args.name,
        "ancilla_dim": dil.ancilla_dim,
        "minimal": dil.minimal,
        "isometry_check": float(
            np.linalg.norm(dil.v.conj().T @ dil.v - np.eye(device.dim_in))
        ),
        "v": fmt_matrix(dil.v),
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_model(args) -> int:
    tol, device = _load(args, args.name, types=dv.Instrument, wrong_type="is not an instrument")
    model = mm.synthesize_model(device, tol)
    doc = {
        "name": args.name,
        "dims": {
            "in": model.dim_in,
            "out": model.dim_out,
            "v1": model.dim_v1,
            "v2": model.dim_v2,
        },
        "eta": fmt_matrix(model.eta),
        "unitary": fmt_matrix(model.u),
        "pointer": {
            "outcomes": list(model.pointer.outcomes),
            "effects": {
                x: fmt_matrix(model.pointer.effects[x].matrix)
                for x in model.pointer.outcomes
            },
        },
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    tol, device = _load(args, args.name, types=(dv.Instrument, mm.MeasurementModel),
                        wrong_type="is neither a model nor an instrument")
    model = mm.synthesize_model(device, tol) if isinstance(device, dv.Instrument) else device
    try:
        rho = _matrix(json.loads(args.state))
    except json.JSONDecodeError as exc:
        raise DeviceFileError(f"state is not valid JSON: {exc}") from exc
    rho = dv._check_state(rho, tol)
    labels = tuple(args.outcomes.split(",")) if args.outcomes else model.outcomes()
    p = mm.model_probability(model, rho, labels, tol)
    post = mm.model_poststate(model, rho, labels, tol)
    doc = {
        "name": args.name,
        "outcomes": list(labels),
        "probability": float(f"{p:.12g}"),
        "post_state": fmt_matrix(post),
    }
    _emit(doc, args)
    return EXIT_OK


COL_ORDER = ("op-op", "op-ef", "ef-ef")
# the table's rows in order, each with the relation it marks
_RELATION_OF_ROW = {
    "compatible": "compatible",
    "incompatible but weakly compatible": "weakly_compatible_only",
    "strongly incompatible": "strongly_incompatible",
}


def _table_text(doc) -> None:
    """The text format of ``table1``: the table, then one line per cell."""
    width = max(map(len, _RELATION_OF_ROW)) + 2
    print("Relations between qubit device pairs")
    print(" " * width + "  ".join(f"{c:^5}" for c in COL_ORDER))
    for row, marks in doc["table"].items():
        print(f"{row:<{width}}" + "  ".join(f"{mark:^5}" for mark in marks.values()))
    print()
    for d in doc["cells"]:
        print(f"{d['cell']}: {d['pair'][0]} vs {d['pair'][1]} -> {d['relation']}")


def cmd_table1(args) -> int:
    tol = _tolerances(args)
    devices = builtin_devices()
    trace = _trace_fn(args)
    doc = {"table": {row: dict.fromkeys(COL_ORDER, "") for row in _RELATION_OF_ROW}, "cells": []}
    for col, row, n1, n2 in TABLE1_CELLS:
        verdict = cp.classify(
            devices[n1], devices[n2], tol=tol, fast_paths=not args.no_fast_paths, trace=trace,
        )
        doc["table"][row][col] = "✓" if verdict.relation == _RELATION_OF_ROW[row] else "?"
        doc["cells"].append(
            {"cell": f"{row} / {col}", "pair": [n1, n2], "relation": verdict.relation,
             "notes": verdict.notes}
        )
    doc["table"]["strongly incompatible"]["ef-ef"] = "×"
    _emit(doc, args, text=_table_text)
    return _exit_code([d["relation"] for d in doc["cells"]])


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcompat",
        description="classify quantum device pairs and work with their witnesses",
    )
    parser.add_argument("--tol-eq", type=float, default=1e-9, help="matrix equality threshold")
    parser.add_argument("--tol-psd", type=float, default=1e-9, help="eigenvalue floor")
    parser.add_argument("--tol-feas", type=float, default=1e-7, help="feasibility residual")
    parser.add_argument("--no-fast-paths", action="store_true",
                        help="disable the analytic fast paths, so the feasibility engine "
                             "decides every question asked; the implications between the two "
                             "relations still fill an unasked one")
    parser.add_argument("--trace", action="store_true", help="solver trace on stderr")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    pair, one = ("file", "name1", "name2"), ("file", "name")
    for name, help_, positionals, fn in (
        ("validate", "parse and validate a device file", ("file",), cmd_validate),
        ("classify", "three-way classification of a device pair", pair, cmd_classify),
        ("witness", "classification plus witness dump", pair, cmd_witness),
        ("dilate", "minimal dilation of an operation or channel", one, cmd_dilate),
        ("model", "synthesize a measurement model for an instrument", one, cmd_model),
        ("simulate", "outcome probability and post-state of a model", one, cmd_simulate),
        ("table1", "built-in demo: the relation table on a qubit", (), cmd_table1),
    ):
        p = sub.add_parser(name, help=help_)
        for arg in positionals:
            p.add_argument(arg)
        p.set_defaults(fn=fn)
    simulate = sub.choices["simulate"]
    simulate.add_argument("--state", required=True, help="input state as a JSON matrix")
    simulate.add_argument("--outcomes", default="", help="comma-separated outcome subset")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except cp.UnsupportedPairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
