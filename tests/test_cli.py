import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcompat
from qcompat import cli
from qcompat import devices as dv
from qcompat.fixtures import I2, PMX, PMZ, PX, PZ


def jmat(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


@pytest.fixture(scope="module")
def device_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "devices.json"
    doc = {
        "devices": [
            {"name": "px", "type": "effect", "dims": {"in": 2}, "payload": {"matrix": jmat(PX)}},
            {"name": "pz", "type": "effect", "dims": {"in": 2}, "payload": {"matrix": jmat(PZ)}},
            {
                "name": "luders_pz",
                "type": "operation",
                "dims": {"in": 2, "out": 2},
                "payload": {"kraus": [jmat(PZ)]},
            },
            {
                "name": "x_dephasing",
                "type": "channel",
                "dims": {"in": 2, "out": 2},
                "payload": {"kraus": [jmat(PX), jmat(PMX)]},
            },
            {
                "name": "luders_x_instrument",
                "type": "instrument",
                "dims": {"in": 2, "out": 2},
                "payload": {
                    "outcomes": ["+", "-"],
                    "branches": {"+": {"kraus": [jmat(PX)]}, "-": {"kraus": [jmat(PMX)]}},
                },
            },
            {
                "name": "sharp_z",
                "type": "observable",
                "dims": {"in": 2},
                "payload": {"outcomes": ["+", "-"], "effects": {"+": jmat(PZ), "-": jmat(PMZ)}},
            },
            {
                "name": "swap_readout",
                "type": "model",
                "dims": {"in": 2, "out": 2},
                "payload": {
                    "dim_v1": 2,
                    "dim_v2": 2,
                    "eta": jmat(I2 / 2),
                    "unitary": jmat(
                        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
                    ),
                    "pointer": {
                        "outcomes": ["+", "-"],
                        "effects": {"+": jmat(PZ), "-": jmat(PMZ)},
                    },
                },
            },
        ]
    }
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(args):
    """``python -m qcompat.cli`` in a fresh process that imports this qcompat."""
    src = str(Path(qcompat.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "qcompat.cli", *args],
        capture_output=True, text=True, check=False, env=dict(os.environ, PYTHONPATH=path),
    )


def test_validate_ok(device_file, capsys):
    code, out, _ = run_cli(["validate", device_file], capsys)
    assert code == 0
    assert "status: ok" in out


def test_validate_rejects_bad_effect(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "devices": [{
            "name": "bad", "type": "effect", "dims": {"in": 2},
            "payload": {"matrix": jmat(1.5 * np.eye(2))},
        }]
    }))
    code, _, err = run_cli(["validate", str(bad)], capsys)
    assert code == 2
    assert "outside [0, 1]" in err


def _write(tmp_path, devices) -> str:
    path = tmp_path / "devices.json"
    path.write_text(json.dumps({"devices": devices}))
    return str(path)


def test_validate_gives_a_map_one_kind_in_both_payload_forms(tmp_path, capsys):
    # the identity map preserves trace: a channel, however it is declared and given
    devices = [{"name": f"{kind}-{form}", "type": kind, "dims": {"in": 2, "out": 2},
                "payload": {"kraus": [jmat(I2)]} if form == "kraus"
                else {"choi": jmat(dv.kraus_choi([I2]))}}
               for kind in ("operation", "channel") for form in ("kraus", "choi")]
    devices.append({"name": "half", "type": "operation", "dims": {"in": 2, "out": 2},
                    "payload": {"choi": jmat(dv.kraus_choi([PX]))}})
    code, out, _ = run_cli(["--format", "json", "validate", _write(tmp_path, devices)], capsys)
    assert code == 0
    types = {d["name"]: d["type"] for d in json.loads(out)["devices"]}
    assert types == {**{d["name"]: "channel" for d in devices[:4]}, "half": "operation"}


def _entry(kind, payload, dims=None):
    return {"name": "d", "type": kind, "dims": dims or {"in": 2, "out": 2}, "payload": payload}


@pytest.mark.parametrize("devices, message", [
    ([_entry("observable", {"outcomes": ["+", "-"], "effects": {"+": jmat(PZ), "-": jmat(PMZ)}},
             {"in": 3})], "observable 'd' does not match its declared dims"),
    ([_entry("effect", {"matrix": jmat(PX)}, {"in": 3})],
     "effect 'd' does not match its declared dims"),
    ([_entry("operation", {"kraus": [jmat(np.eye(3))]})],
     "Kraus operator shape (3, 3) does not match dims (2, 2)"),
    ([_entry("channel", {"kraus": [jmat(PX)]})], "channel is not trace-preserving"),
    ([_entry("channel", {"choi": jmat(dv.kraus_choi([PX]))})], "channel is not trace-preserving"),
    ([_entry("operation", {"matrix": jmat(PX)})], "operation payload needs 'kraus' or 'choi'"),
    ([_entry("povm", {"matrix": jmat(PX)})], "unknown device type 'povm'"),
    ([_entry("effect", {"matrix": jmat(PX)})] * 2, "device 'd' defined twice"),
    # sides are JSON integers >= 1, never coerced
    ([_entry("effect", {"matrix": jmat(PX)}, {"in": 2.7})],
     "dims.in must be an integer >= 1, got 2.7"),
    ([_entry("operation", {"kraus": [jmat([[1], [0]])]}, {"in": True, "out": "2"})],
     "dims.in must be an integer >= 1, got True"),
    ([_entry("operation", {"kraus": [jmat(PX)]}, {"in": 2, "out": "2"})],
     "dims.out must be an integer >= 1, got '2'"),
    ([_entry("channel", {"kraus": [jmat(I2)]}, {"in": 2, "out": 2.0})],
     "dims.out must be an integer >= 1, got 2.0"),
    ([_entry("effect", {"matrix": jmat(PX)}, {"in": 0})],
     "dims.in must be an integer >= 1, got 0"),
    ([_entry("effect", {"matrix": jmat(PX)}, {"in": None})],
     "dims.in must be an integer >= 1, got None"),
    ([_entry("effect", {"matrix": jmat(PX)}, [2])], "dims must be an object, got [2]"),
    ([_entry("model", {"dim_v1": 2.0, "dim_v2": 2, "eta": jmat(I2 / 2),
                       "unitary": jmat(np.eye(4)), "pointer": {
                           "outcomes": ["+", "-"], "effects": {"+": jmat(PZ), "-": jmat(PMZ)}}})],
     "map sides 2, 2.0 are not positive integers"),
], ids=["observable-dims", "effect-dims", "kraus-shape", "kraus-channel-not-tp",
        "choi-channel-not-tp", "no-payload-form", "unknown-type", "name-twice",
        "float-in", "bool-in-string-out", "string-out", "float-out", "zero-in", "null-in",
        "list-dims", "float-probe-side"])
def test_validate_rejects_a_bad_device(devices, message, tmp_path, capsys):
    code, out, err = run_cli(["validate", _write(tmp_path, devices)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: device 'd'") and message in err


@pytest.mark.parametrize("devices, argv, message", [
    ([_entry("effect", {"matrix": [[[1, 0, 0], [0, 0]], [[0, 0], [0, 0]]]}, {"in": 2})],
     ["validate"], "complex scalar must be [re, im], got [1, 0, 0]"),
    ([_entry("effect", {"matrix": [[[1, 0], [0, 0]], [[0, 0]]]}, {"in": 2})],
     ["validate"], "matrix rows have inconsistent lengths"),
    ([{"name": "d", "type": "operation", "payload": {"kraus": [jmat(PX)]}}],
     ["validate"], "operation 'd' needs dims.in and dims.out"),
    (None, ["dilate", "px"], "'px' is not an operation or channel"),
    (None, ["model", "px"], "'px' is not an instrument"),
    (None, ["simulate", "px", "--state", "[[[1,0]]]"], "'px' is neither a model nor an instrument"),
    (None, ["simulate", "luders_x_instrument", "--state", "[[1,0"], "state is not valid JSON"),
    (None, ["simulate", "luders_x_instrument", "--state", "[[[2,0],[0,0]],[[0,0],[0,0]]]",
            "--outcomes", "+"], "state trace differs from 1"),
    (None, ["simulate", "luders_x_instrument", "--state", "[[[0,0],[1,0]],[[0,0],[0,0]]]",
            "--outcomes", "+"], "state is not Hermitian"),
], ids=["complex-scalar", "ragged-rows", "operation-without-dims", "dilate-effect",
        "model-effect", "simulate-effect", "state-not-json", "state-trace-2",
        "state-not-hermitian"])
def test_cli_reports_invalid_input(devices, argv, message, device_file, tmp_path, capsys):
    path = device_file if devices is None else _write(tmp_path, devices)
    code, out, err = run_cli([argv[0], path, *argv[1:]], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_validate_rejects_an_unreadable_or_invalid_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(["validate", str(missing)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot read {missing}")
    broken = tmp_path / "broken.json"
    broken.write_text('{"devices": [')
    code, _, err = run_cli(["validate", str(broken)], capsys)
    assert code == 2
    assert err.startswith(f"error: invalid JSON in {broken}")


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"devices": [1]},
    {"devices": [{"name": "e", "type": "effect", "dims": 3,
                  "payload": {"matrix": jmat(PX)}}]},
    {"devices": [{"name": "o", "type": "observable",
                  "payload": {"outcomes": ["0", "1"], "effects": [jmat(PZ), jmat(PMZ)]}}]},
    {"devices": [{"name": ["e"], "type": "effect", "payload": {"matrix": jmat(PX)}}]},
], ids=["top-level-array", "non-object-entry", "non-object-dims", "effects-list", "list-name"])
def test_validate_rejects_malformed_structure(doc, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(["validate", str(bad)], capsys)
    assert code == 2
    assert err.startswith("error: ")


def test_classify_weak_pair(device_file, capsys):
    code, out, _ = run_cli(["classify", device_file, "px", "luders_pz"], capsys)
    assert code == 0
    assert "weakly_compatible_only" in out


def test_classify_json_format(device_file, capsys):
    code, out, _ = run_cli(["--format", "json", "classify", device_file, "px", "pz"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["relation"] == "weakly_compatible_only"


def test_classify_unknown_name(device_file, capsys):
    code, _, err = run_cli(["classify", device_file, "px", "nope"], capsys)
    assert code == 2
    assert "nope" in err


def test_classify_unsupported_pair(device_file, capsys):
    code, _, err = run_cli(["classify", device_file, "px", "swap_readout"], capsys)
    assert code == 4
    assert "MeasurementModel" in err


def test_witness_compatible_pair(device_file, capsys):
    code, out, _ = run_cli(
        ["--format", "json", "witness", device_file, "luders_pz", "pz"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["relation"] == "compatible"
    assert doc["witness"]["kind"] == "joint-instrument"
    assert "kraus_certificate" in doc


def test_witness_weak_pair_structure(device_file, capsys):
    code, out, _ = run_cli(
        ["--format", "json", "witness", device_file, "px", "luders_pz"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    w = doc["witness"]
    assert w["kind"] == "shared-total-instrument-pair"
    assert "common_channel" in w


def test_witness_reports_a_kraus_certificate_that_fails_its_checks(
    device_file, capsys, monkeypatch
):
    def failing(verdict, tol):
        raise dv.TraceConditionError("map increases trace")

    monkeypatch.setattr(cli.cp, "kraus_witness", failing)
    code, out, err = run_cli(
        ["--format", "json", "witness", device_file, "luders_pz", "pz"], capsys
    )
    assert code == 2
    assert out == ""
    assert "map increases trace" in err


def test_witness_carries_the_pointer_and_the_joint_observable(device_file, capsys):
    code, out, _ = run_cli(["--format", "json", "witness", device_file, "sharp_z", "pz"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["relation"] == "compatible"
    w = doc["witness"]
    assert w["kind"] == "joint-instrument"
    assert set(w["pointer_1"].values()) == {"+", "-"}
    assert set(w["pointer_1"]) == set(w["instrument"]["outcomes"])
    assert set(w["joint_observable"]) == set(w["instrument"]["outcomes"])
    assert w["part_1"] is None and w["part_2"] is not None
    assert "pointer_2" not in w


def test_trace_goes_to_stderr(device_file, capsys):
    args = ["--no-fast-paths", "classify", device_file, "px", "pz"]
    code, out, err = run_cli(["--trace", *args], capsys)
    assert code == 0
    assert "iter=0 " in err and "iter=" not in out
    code, quiet, err = run_cli(args, capsys)
    assert quiet == out and "iter=" not in err


def test_dilate(device_file, capsys):
    code, out, _ = run_cli(["--format", "json", "dilate", device_file, "x_dephasing"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ancilla_dim"] == 2
    assert doc["minimal"] is True
    assert doc["isometry_check"] < 1e-10


def test_model_synthesis(device_file, capsys):
    code, out, _ = run_cli(
        ["--format", "json", "model", device_file, "luders_x_instrument"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == {"in": 2, "out": 2, "v1": 4, "v2": 4}


def test_simulate_swap_model(device_file, capsys):
    state = json.dumps(jmat(PZ))
    code, out, _ = run_cli(
        ["--format", "json", "simulate", device_file, "swap_readout",
         "--state", state, "--outcomes", "+"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["probability"] == pytest.approx(1.0, abs=1e-9)


def test_simulate_instrument(device_file, capsys):
    state = json.dumps(jmat(PZ))
    code, out, _ = run_cli(
        ["--format", "json", "simulate", device_file, "luders_x_instrument",
         "--state", state, "--outcomes", "+"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["probability"] == pytest.approx(0.5, abs=1e-8)


def test_simulate_text_keeps_matrix_rows(device_file, capsys):
    # the text format prints one line per matrix row, the rows of the JSON format
    args = ["simulate", device_file, "swap_readout",
            "--state", "[[[0.7,0],[0.1,0.2]],[[0.1,-0.2],[0.3,0]]]", "--outcomes", "+"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    lines = out.splitlines()
    rows = lines[lines.index("post_state:") + 1 :]
    assert all(line.startswith("  - ") for line in rows)
    _, doc, _ = run_cli(["--format", "json", *args], capsys)
    assert [json.loads(line[4:]) for line in rows] == json.loads(doc)["post_state"]


@pytest.mark.parametrize("name", ["swap_readout", "luders_x_instrument"])
def test_simulate_rejects_a_repeated_outcome(device_file, name, capsys):
    # "+,+" once read as twice the "+" effect, outside [0, 1] on a sharp pointer
    state = json.dumps(jmat(PZ))
    code, _, err = run_cli(
        ["simulate", device_file, name, "--state", state, "--outcomes", "+,+"], capsys,
    )
    assert code == 2
    assert err.startswith("error: ") and "repeated outcome" in err


@pytest.mark.parametrize("state", ["[1]", "[null]", "[true]", "[[[1,0]], 2]"])
def test_simulate_rejects_a_state_row_that_is_not_a_list(device_file, state, capsys):
    code, _, err = run_cli(
        ["simulate", device_file, "luders_x_instrument", "--state", state, "--outcomes", "+"],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: ")


def test_table1_pattern(capsys):
    code, out, _ = run_cli(["table1"], capsys)
    assert code == 0
    lines = out.splitlines()
    table_lines = [
        ln for ln in lines
        if ln.startswith(("compatible", "incompatible", "strongly"))
        and ("✓" in ln or "×" in ln)
    ]
    assert len(table_lines) == 3
    assert table_lines[0].count("✓") == 3
    assert table_lines[1].count("✓") == 3
    assert table_lines[2].count("✓") == 2
    assert table_lines[2].count("×") == 1
    assert "?" not in out


def test_table1_json(capsys):
    code, out, _ = run_cli(["--format", "json", "table1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["table"]["strongly incompatible"]["ef-ef"] == "×"
    assert doc["table"]["compatible"]["op-op"] == "✓"
    relations = {tuple(c["pair"]): c["relation"] for c in doc["cells"]}
    assert relations[("luders_px", "half_sigma_x")] == "weakly_compatible_only"
    assert relations[("luders_px", "luders_pz")] == "strongly_incompatible"



@pytest.mark.parametrize("flag, value", [
    ("--tol-feas", "nan"), ("--tol-psd", "inf"), ("--tol-eq", "-inf"), ("--tol-eq", "nan"),
])
def test_non_finite_tolerance_is_invalid_input(flag, value, capsys):
    code, out, err = run_cli([f"{flag}={value}", "table1"], capsys)
    assert code == 2
    assert err.startswith("error: ") and "finite" in err
    assert out == ""

def test_stdout_deterministic(device_file):
    outs = set()
    for _ in range(2):
        res = run_module(["classify", device_file, "px", "pz"])
        assert res.returncode == 0
        outs.add(res.stdout)
    assert len(outs) == 1


def test_console_entry_point(device_file):
    res = run_module(["--format", "json", "validate", device_file])
    assert res.returncode == 0
    json.loads(res.stdout)
