"""Smoke tests: the scripts in ``scripts/`` run from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

import qcompat
from qcompat.fixtures import TABLE1_CELLS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    """Run a script in a fresh process that imports this qcompat."""
    src = str(Path(qcompat.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, check=False, env=dict(os.environ, PYTHONPATH=path),
    )


def test_run_table1_prints_the_table():
    proc = run_script("run_table1.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "Relations between qubit device pairs"
    assert lines[1].split() == ["op-op", "op-ef", "ef-ef"]
    assert lines[4].startswith("strongly incompatible")


def test_classify_demo_prints_every_cell():
    proc = run_script("classify_demo.py")
    assert proc.returncode == 0, proc.stderr
    relations = [ln for ln in proc.stdout.splitlines() if ln.strip().startswith("relation:")]
    assert len(relations) == len(TABLE1_CELLS)


def test_make_example_devices_reproduces_the_shipped_file(tmp_path):
    out = tmp_path / "devices.json"
    proc = run_script("make_example_devices.py", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (SCRIPTS / "example_devices.json").read_bytes()
