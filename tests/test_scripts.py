"""Smoke tests: the scripts in ``scripts/`` and the README's code run from a checkout,
and ``src/`` holds only code that runs outside the unit tests."""

import ast
import contextlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import qcompat
from qcompat import feasibility as fs
from qcompat.fixtures import TABLE1_CELLS

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    """Run a script in a fresh process that imports this qcompat, with every
    RuntimeWarning an error, as the digest steps run theirs."""
    src = str(Path(qcompat.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(SCRIPTS / name), *args],
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


def test_solve_digest_prints_one_line_per_solve_and_a_digest():
    proc = run_script("solve_digest.py")
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    solves, steps, exits, digest = last.split()
    assert solves == f"solves={len(lines)}" and steps.startswith("steps=")
    assert exits.startswith("exits=") and digest.startswith("digest=")
    pair, route, exit_, n, margin, residual, sha = lines[0].split()
    assert route in ("fast", "engine") and exit_ in fs.EXITS and int(n) >= 0
    assert sum(int(ln.split()[3]) for ln in lines) == int(steps.removeprefix("steps="))
    # the exit census counts every solve, once per exit it names, in the order of fs.EXITS
    census = [item.split(":") for item in exits.removeprefix("exits=").split(",")]
    assert [name for name, _ in census] == [x for x in fs.EXITS if x in dict(census)]
    assert {name: int(k) for name, k in census} == {
        x: k for x in fs.EXITS if (k := sum(ln.split()[2] == x for ln in lines))}
    assert sum(int(k) for _, k in census) == len(lines)
    # every Table-1 cell is among the pairs, and makes a solve without fast paths
    assert {f"{n1}/{n2} engine" for _, _, n1, n2 in TABLE1_CELLS} <= {
        " ".join(ln.split()[:2]) for ln in lines}


def test_cli_digest_describes_one_invocation_per_command():
    digest = _load_script("cli_digest")
    argvs = list(digest.invocations())
    # validate, table1 on two routes, three commands per device, two per ordered pair and route
    assert len({tuple(a) for a in argvs}) == len(argvs) == (1 + 2 + 3 * 10 + 2 * 100 * 2) * 2
    first = {}
    for argv in argvs:
        first.setdefault(next(a for a in argv[2:] if not a.startswith("--")), argv)
    exits = {}
    for command, argv in first.items():
        line = digest.line(argv)
        assert line.startswith(shlex.join(argv) + " exit=")
        exit_, out, err = line[len(shlex.join(argv)) + 1 :].split()
        assert re.fullmatch(r"out=[0-9a-f]{16}", out) and re.fullmatch(r"err=[0-9a-f]{16}", err)
        exits[command] = int(exit_.removeprefix("exit="))
    # the first device, the effect px, has no dilation, model or simulation
    assert exits == {"validate": 0, "table1": 0, "dilate": 2, "model": 2, "simulate": 2,
                     "classify": 0, "witness": 0}
    # the timing on stderr is masked, so a line repeats
    assert digest.line(first["witness"]) == digest.line(first["witness"])


def test_src_size_totals_its_module_rows():
    proc = run_script("src_size.py")
    assert proc.returncode == 0, proc.stderr
    header, *rows, total = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["module", "lines", "statements", "isinstance", "branches"]
    modules = sorted(p.stem for p in (ROOT / "src" / "qcompat").glob("*.py"))
    assert [row[0] for row in rows] == modules and total[0] == "total"
    assert [int(n) for n in total[1:]] == [sum(int(row[k]) for row in rows) for k in (1, 2, 3, 4)]


def test_src_size_counts_one_branch_per_decision_path():
    sz = _load_script("src_size")
    source = (
        "def f(xs, a, b, c):\n"
        "    if a:\n"               # 1
        "        pass\n"
        "    elif b and c or a:\n"  # 1, plus 1 for the or and 1 for the and
        "        pass\n"
        "    for x in xs:\n"        # 1
        "        while x:\n"        # 1
        "            x = x - 1 if x > 0 else 0\n"  # 1
        "    try:\n"
        "        pass\n"
        "    except ValueError:\n"  # 1
        "        pass\n"
        "    except TypeError:\n"   # 1
        "        pass\n"
        "    return [y for x in xs if x if a for y in x]\n"  # 2 fors and 2 ifs
    )
    assert sz.module_size(source)[3] == 13
    assert sz.module_size("x = [1, 2]\ny = x and x\n")[3] == 1


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summarizes_canned_runs():
    # the summary alone, on canned result lines: no benchmark runs here
    bp = _load_script("bench_pairs")

    def result(pairs_per_s, tail_ms, p50_ms, rss_mb):
        return "pairs_per_s  1 1/s\n" + json.dumps({
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {"pairs_per_s": {"value": pairs_per_s, "unit": "1/s"},
                        "pair_tail_ms": {"value": tail_ms, "unit": "ms"},
                        "pair_p50_ms": {"value": p50_ms, "unit": "ms"},
                        "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}})

    parent = [bp.result_metrics(result(*r)) for r in (
        (900, 1.5, 0.5, 40), (910, 1.52, 0.5, 40), (920, 1.55, 0.5, 40), (930, 1.53, 0.5, 40))]
    change = [bp.result_metrics(result(*r)) for r in (
        (940, 1.45, 0.65, 41), (950, 1.53, 0.65, 41), (945, 1.50, 0.65, 41),
        (935, 1.49, 0.65, 41))]
    metrics = [("pairs_per_s", "1/s", "higher", 0.25), ("pair_tail_ms", "ms", "lower", 0.25),
               ("pair_p50_ms", "ms", "lower", 0.2), ("peak_rss_mb", "MB", "lower", 0.05)]
    assert bp.summary(metrics, parent, change) == [
        # 4 of 4 won, and the medians 27.5 apart, beyond the quartile spread of 15
        "pairs_per_s    915 [907.5, 922.5] -> 942.5 1/s (+3.0 %) won 4/4 resolved",
        # 3 of 4 won: not resolved
        "pair_tail_ms   1.525 [1.515, 1.535] -> 1.495 ms (-2.0 %) won 3/4",
        # bounds are fractions of the parent's median: 0.15 ms is 30 %, beyond 20 %
        "pair_p50_ms    0.5 [0.5, 0.5] -> 0.65 ms (+30.0 %) won 0/4 worse",
        # and 1 MB is 2.5 %, within 5 %
        "peak_rss_mb    40 [40, 40] -> 41 MB (+2.5 %) won 0/4",
    ]
    # a parent checkout without the benchmark is refused before anything runs
    proc = run_script("bench_pairs.py", str(ROOT / "tests"), "--workload", "pure-opop")
    assert proc.returncode == 2 and "holds no perfbench/run.py" in proc.stderr


def test_bench_pairs_runs_both_trees_without_byte_code_of_their_own(tmp_path, monkeypatch):
    # both trees start as a plain perfbench run does: they write no byte code,
    # and no PYTHONPYCACHEPREFIX hides the installed byte code of numpy and the
    # standard library; the runs are canned, so no benchmark runs here
    bp = _load_script("bench_pairs")
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = []

    def canned(argv, cwd, env, **kwargs):
        runs.append((Path(cwd), env.get("PYTHONDONTWRITEBYTECODE"), "PYTHONPYCACHEPREFIX" in env))
        metrics = {name: {"value": float(len(runs)), "unit": ""} for name in names}
        return subprocess.CompletedProcess(argv, 0, json.dumps({"metrics": metrics}), "")

    monkeypatch.setattr(bp.subprocess, "run", canned)
    monkeypatch.setattr(bp, "stale_byte_code", lambda tree: [])
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    assert bp.main([str(parent), "--workload", "pure-opop", "--pairs", "2"]) == 0
    # the parent runs first in even pairs, this tree in odd ones
    assert [tree for tree, _, _ in runs] == [parent, bp.ROOT, bp.ROOT, parent]
    assert {(flag, prefixed) for _, flag, prefixed in runs} == {("1", False)}


@pytest.mark.parametrize("top", ["src", "perfbench"])
def test_bench_pairs_refuses_a_tree_with_byte_code_by_name(tmp_path, top, capsys):
    # a tree's own __pycache__ would make its runs start faster for no code
    # reason, so it is named and nothing runs
    bp = _load_script("bench_pairs")
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    stale = parent / top / "pkg" / "__pycache__"
    stale.mkdir(parents=True)
    assert bp.stale_byte_code(parent) == [stale]
    with pytest.raises(SystemExit) as exc:
        bp.main([str(parent), "--workload", "pure-opop", "--pairs", "2"])
    assert exc.value.code == 2 and f"{stale} holds byte code" in capsys.readouterr().err


def test_readme_quick_tour_prints_its_relation():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Quick tour \(library\)\n\n```python\n(.*?)```", readme, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue() == "weakly_compatible_only\n"


def _named(tree) -> set[str]:
    """Every name a syntax tree uses: identifiers, attributes, imported names,
    and string constants, such as ``__all__`` entries and names wrapped by string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_top_level_definition_in_src_is_named_outside_the_unit_tests():
    # a function or class of the package must be named, outside its own
    # definition, by the package, the scripts, the release criteria, or the
    # benchmark tracer, which wraps package functions by name
    users = [*SCRIPTS.glob("*.py"), ROOT / "tests" / "test_acceptance.py",
             ROOT / "perfbench" / "tracer.py"]
    outside = set().union(*(_named(ast.parse(path.read_text())) for path in users))
    modules = {path.stem: ast.parse(path.read_text()).body
               for path in sorted((ROOT / "src" / "qcompat").glob("*.py"))}
    where = defaultdict(set)  # name -> the top-level statements that name it
    for module, body in modules.items():
        for i, node in enumerate(body):
            for name in _named(node):
                where[name].add((module, i))
    unused = [f"{module}.{node.name}" for module, body in modules.items()
              for i, node in enumerate(body)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in outside and not where[node.name] - {(module, i)}]
    assert not unused, "named by nothing outside the unit tests: " + ", ".join(unused)
