"""Command-line front end.

Parses device files, validates them, classifies pairs, dumps witnesses
and certificates, synthesizes and simulates measurement models, and
reproduces the built-in demonstration table of relation types on a
qubit. Output on stdout is deterministic for fixed inputs and flags;
timings and solver traces go to stderr.

Device files are JSON documents::

    {"devices": [
      {"name": "...", "type": "effect|observable|operation|channel|instrument|model",
       "dims": {"in": 2, "out": 2},
       "payload": {...}}
    ]}

Complex numbers are two-element arrays ``[re, im]``; matrices are
row-major nested arrays of those. Operations and channels take either
``{"kraus": [matrix, ...]}`` or ``{"choi": matrix}``; instruments take
``{"outcomes": [...], "branches": {label: kraus-or-choi}}``; models take
the quintuple fields ``dim_v1, dim_v2, eta, unitary, pointer``.
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
    if not (isinstance(x, list) and len(x) == 2):
        raise DeviceFileError(f"complex scalar must be [re, im], got {x!r}")
    return complex(float(x[0]), float(x[1]))


def _matrix(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) and r for r in rows):
        raise DeviceFileError("matrix must be a non-empty nested array")
    data = [[_scalar(x) for x in row] for row in rows]
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise DeviceFileError("matrix rows have inconsistent lengths")
    return np.array(data, dtype=complex)


def _cpmap_payload(payload, din, dout, kind, tol) -> dv.CPMap:
    """The map of a Kraus or Choi payload; either form gives it the kind that CPMap
    validation fixes, and a declared channel must preserve trace."""
    if "kraus" in payload:
        ops = tuple(_matrix(k) for k in payload["kraus"])
        for k in ops:
            if k.shape != (dout, din):
                raise DeviceFileError(
                    f"Kraus operator shape {k.shape} does not match dims ({dout}, {din})"
                )
        choi = dv.kraus_choi(dv.KrausSet(ops, tol=tol).ops)
    elif "choi" in payload:
        choi = _matrix(payload["choi"])
    else:
        raise DeviceFileError("operation payload needs 'kraus' or 'choi'")
    return dv.CPMap(din, dout, choi, kind=kind, tol=tol)


def _observable_payload(payload, tol) -> dv.Observable:
    outcomes = tuple(str(x) for x in payload["outcomes"])
    effects = {
        str(x): dv.Effect(_matrix(m), tol=tol) for x, m in payload["effects"].items()
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
    if kind in ("effect", "observable"):
        if kind == "effect":
            device = dv.Effect(_matrix(payload["matrix"]), tol=tol)
        else:
            device = _observable_payload(payload, tol)
        if din and device.dim != din:
            raise DeviceFileError(f"{kind} {name!r} does not match its declared dims")
        return device
    if kind in ("operation", "channel"):
        if not din or not dout:
            raise DeviceFileError(f"{kind} {name!r} needs dims.in and dims.out")
        return _cpmap_payload(payload, din, dout, kind, tol)
    if kind == "instrument":
        outcomes = tuple(str(x) for x in payload["outcomes"])
        branches = {
            str(x): _cpmap_payload(b, din, dout, "operation", tol)
            for x, b in payload["branches"].items()
        }
        return dv.Instrument(outcomes, branches, tol=tol)
    if kind == "model":
        pointer = _observable_payload(payload["pointer"], tol)
        return mm.MeasurementModel(
            din,
            dout,
            payload["dim_v1"],
            payload["dim_v2"],
            _matrix(payload["eta"]),
            _matrix(payload["unitary"]),
            pointer,
            tol=tol,
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
        except (DeviceFileError, ValueError, KeyError, TypeError, AttributeError) as exc:
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


def _emit(doc, args) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _emit_text(doc, prefix="")


def _flat(v) -> bool:
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _matrix_row(v) -> bool:
    """A row of :func:`fmt_matrix`: a list of [re, im] pairs, printed on one line."""
    return isinstance(v, list) and all(_flat(x) for x in v)


def _emit_text(doc, prefix: str) -> None:
    if isinstance(doc, dict):
        for k in doc:
            v = doc[k]
            if _flat(v):
                print(f"{prefix}{k}: {json.dumps(v)}")
            elif isinstance(v, (dict, list)):
                print(f"{prefix}{k}:")
                _emit_text(v, prefix + "  ")
            else:
                print(f"{prefix}{k}: {v}")
    elif isinstance(doc, list):
        for v in doc:
            if _flat(v) or _matrix_row(v):
                print(f"{prefix}- {json.dumps(v)}")
            elif isinstance(v, list):  # a matrix in a list of matrices
                print(f"{prefix}-")
                _emit_text(v, prefix + "  ")
            elif isinstance(v, dict):
                _emit_text(v, prefix + "  ")
            else:
                print(f"{prefix}- {v}")


def _instrument_doc(ins: dv.Instrument) -> dict:
    return {
        "outcomes": list(ins.outcomes),
        "branches": {x: {"choi": fmt_matrix(ins.branches[x].choi)} for x in ins.outcomes},
    }


def _witness_doc(verdict: cp.Verdict) -> dict:
    w = verdict.witness
    if w is None:
        return {"witness": None}
    if isinstance(w, cp.CompatWitness):
        doc = {
            "kind": "joint-instrument",
            "instrument": _instrument_doc(w.instrument),
            "part_1": list(w.part_1) if w.part_1 is not None else None,
            "part_2": list(w.part_2) if w.part_2 is not None else None,
        }
        if w.pointer_1 is not None:
            doc["pointer_1"] = dict(w.pointer_1.mapping)
        if w.pointer_2 is not None:
            doc["pointer_2"] = dict(w.pointer_2.mapping)
        if w.joint_observable is not None:
            doc["joint_observable"] = {
                x: fmt_matrix(w.joint_observable.effects[x].matrix)
                for x in w.joint_observable.outcomes
            }
        return doc
    doc = {
        "kind": "shared-total-instrument-pair",
        "instrument_1": _instrument_doc(w.instrument_1),
        "instrument_2": _instrument_doc(w.instrument_2),
        "common_channel": {"choi": fmt_matrix(w.common_channel.choi)},
        "part_1": list(w.part_1) if w.part_1 is not None else None,
        "part_2": list(w.part_2) if w.part_2 is not None else None,
    }
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


def cmd_validate(args) -> int:
    tol = _tolerances(args)
    devices = load_device_file(args.file, tol)
    doc = {"devices": [{"name": n, "type": _type_name(d), "status": "ok"} for n, d in devices.items()]}
    _emit(doc, args)
    return EXIT_OK


def _type_name(device) -> str:
    if isinstance(device, mm.MeasurementModel):
        return "model"
    return cp._kind(device)


def _resolve(devices: dict, name: str):
    if name not in devices:
        raise DeviceFileError(f"no device named {name!r} in the file")
    return devices[name]


def _classify_pair(args, devices):
    d1 = _resolve(devices, args.name1)
    d2 = _resolve(devices, args.name2)
    tol = _tolerances(args)
    start = time.perf_counter()
    verdict = cp.classify(
        d1, d2, tol=tol, fast_paths=not args.no_fast_paths, trace=_trace_fn(args),
    )
    elapsed = time.perf_counter() - start
    print(f"classified in {elapsed:.3f}s", file=sys.stderr)
    return verdict


def cmd_classify(args) -> int:
    devices = load_device_file(args.file, _tolerances(args))
    verdict = _classify_pair(args, devices)
    doc = {
        "pair": [args.name1, args.name2],
        "relation": verdict.relation,
        "notes": verdict.notes,
    }
    _emit(doc, args)
    return EXIT_UNDECIDED if verdict.relation == "undecided" else EXIT_OK


def cmd_witness(args) -> int:
    devices = load_device_file(args.file, _tolerances(args))
    verdict = _classify_pair(args, devices)
    doc = {
        "pair": [args.name1, args.name2],
        "relation": verdict.relation,
        "notes": verdict.notes,
        "witness": _witness_doc(verdict),
    }
    if verdict.witness is not None and verdict.witness.part_1 is not None \
            and verdict.witness.part_2 is not None:
        cert = cp.kraus_witness(verdict, _tolerances(args))
        doc["kraus_certificate"] = {
            "kind": cert.kind,
            "k_ops": [fmt_matrix(k) for k in cert.k_ops],
            "l_ops": [fmt_matrix(k) for k in cert.l_ops] if cert.l_ops else None,
            "j1": list(cert.j1),
            "j2": list(cert.j2),
        }
    _emit(doc, args)
    return EXIT_UNDECIDED if verdict.relation == "undecided" else EXIT_OK


def cmd_dilate(args) -> int:
    tol = _tolerances(args)
    devices = load_device_file(args.file, tol)
    device = _resolve(devices, args.name)
    if not isinstance(device, dv.CPMap):
        raise DeviceFileError(f"{args.name!r} is not an operation or channel")
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
    tol = _tolerances(args)
    devices = load_device_file(args.file, tol)
    device = _resolve(devices, args.name)
    if not isinstance(device, dv.Instrument):
        raise DeviceFileError(f"{args.name!r} is not an instrument")
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
    tol = _tolerances(args)
    devices = load_device_file(args.file, tol)
    device = _resolve(devices, args.name)
    if isinstance(device, dv.Instrument):
        model = mm.synthesize_model(device, tol)
    elif isinstance(device, mm.MeasurementModel):
        model = device
    else:
        raise DeviceFileError(f"{args.name!r} is neither a model nor an instrument")
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


ROW_ORDER = (
    "compatible",
    "incompatible but weakly compatible",
    "strongly incompatible",
)
COL_ORDER = ("op-op", "op-ef", "ef-ef")
_RELATION_OF_ROW = {
    "compatible": "compatible",
    "incompatible but weakly compatible": "weakly_compatible_only",
    "strongly incompatible": "strongly_incompatible",
}


def cmd_table1(args) -> int:
    tol = _tolerances(args)
    devices = builtin_devices()
    results = {}
    details = []
    for col, row, n1, n2 in TABLE1_CELLS:
        verdict = cp.classify(
            devices[n1], devices[n2], tol=tol, fast_paths=not args.no_fast_paths,
        )
        ok = verdict.relation == _RELATION_OF_ROW[row]
        results[(row, col)] = "✓" if ok else "?"
        details.append(
            {"cell": f"{row} / {col}", "pair": [n1, n2], "relation": verdict.relation,
             "notes": verdict.notes}
        )
    results[("strongly incompatible", "ef-ef")] = "×"

    if args.format == "json":
        doc = {
            "table": {
                row: {col: results.get((row, col), "") for col in COL_ORDER}
                for row in ROW_ORDER
            },
            "cells": details,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        width = max(len(r) for r in ROW_ORDER) + 2
        header = " " * width + "  ".join(f"{c:^5}" for c in COL_ORDER)
        print("Relations between qubit device pairs")
        print(header)
        for row in ROW_ORDER:
            cells = "  ".join(f"{results.get((row, col), ''):^5}" for col in COL_ORDER)
            print(f"{row:<{width}}" + cells)
        print()
        for d in details:
            print(f"{d['cell']}: {d['pair'][0]} vs {d['pair'][1]} -> {d['relation']}")
    bad = [d for d in details if d["relation"] == "undecided"]
    return EXIT_UNDECIDED if bad else EXIT_OK


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
                        help="disable the optional analytic fast paths, so the feasibility "
                             "engine decides; the structural paths of channel and instrument "
                             "pairs, and the weak answer of classical pairs, still run")
    parser.add_argument("--trace", action="store_true", help="solver trace on stderr")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a device file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classify", help="three-way classification of a device pair")
    p.add_argument("file")
    p.add_argument("name1")
    p.add_argument("name2")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("witness", help="classification plus witness dump")
    p.add_argument("file")
    p.add_argument("name1")
    p.add_argument("name2")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("dilate", help="minimal dilation of an operation or channel")
    p.add_argument("file")
    p.add_argument("name")
    p.set_defaults(fn=cmd_dilate)

    p = sub.add_parser("model", help="synthesize a measurement model for an instrument")
    p.add_argument("file")
    p.add_argument("name")
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser("simulate", help="outcome probability and post-state of a model")
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("--state", required=True, help="input state as a JSON matrix")
    p.add_argument("--outcomes", default="", help="comma-separated outcome subset")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("table1", help="built-in demo: the relation table on a qubit")
    p.set_defaults(fn=cmd_table1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DeviceFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except cp.UnsupportedPairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
