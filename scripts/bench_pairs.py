#!/usr/bin/env python3
"""Compare this checkout with a parent checkout on one benchmark workload.

    python3 scripts/bench_pairs.py PARENT --workload pure-opop --seed 90210 \\
        --seconds 5 --pairs 10

Runs ``perfbench/run.py --workload W --seed S --seconds T`` in the parent
checkout and in this one, ``--pairs`` times each, alternating which tree
runs first (the parent in even pairs, this tree in odd ones). For every
end-to-end metric of ``BENCHMARK.json`` it prints the parent's median and
quartiles, this tree's median and its change, and in how many pairs this
tree did better. A metric reads ``resolved`` when this tree did better in
at least nine pairs in ten and its median beats the parent's by more than
the parent's quartile spread, and ``worse`` when this tree's median is worse
than the parent's by more than the metric's ``bound``, read as a fraction of
the parent's median: the no-regression rule the benchmark is held to.

Make the parent checkout with ``git archive``, outside this tree. The
benchmark runs one workload at a time; nothing here changes how it runs.
Both trees compile alike: every run has ``PYTHONDONTWRITEBYTECODE=1`` and no
``PYTHONPYCACHEPREFIX``, so it compiles the tree's own sources and reads the
installed byte code of numpy and the standard library, as a plain run of
``perfbench/run.py`` does. A tree that holds a ``__pycache__`` under ``src/``
or ``perfbench/`` is refused, by name: its runs would read that byte code and
start faster for no code reason. Delete it first.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def result_metrics(stdout: str) -> dict[str, float]:
    """The metric values of a ``perfbench/run.py`` run, from its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    result = json.loads(lines[-1])
    return {name: float(m["value"]) for name, m in result["metrics"].items()}


def summary(metrics, parent: list[dict], change: list[dict]) -> list[str]:
    """One line per (name, unit, better, bound) metric over paired runs: the
    parent's median [quartiles], this tree's median and relative change, the
    pairs this tree won, ``resolved`` when it won at least 9 in 10 and its median
    beats the parent's by more than the parent's quartile spread, and ``worse``
    when its median is worse than the parent's by more than ``bound`` times the
    parent's median."""
    lines = []
    for name, unit, better, bound in metrics:
        old = [run[name] for run in parent]
        new = [run[name] for run in change]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        q1, mid, q3 = statistics.quantiles(old, n=4, method="inclusive")
        med = statistics.median(new)
        rel = (med - mid) / abs(mid) * 100 if mid else math.nan
        resolved = wins >= 0.9 * len(old) and sign * (med - mid) > q3 - q1
        worse = sign * (mid - med) > bound * abs(mid)
        lines.append(f"{name:14s} {mid:.6g} [{q1:.6g}, {q3:.6g}] -> {med:.6g} {unit} "
                     f"({rel:+.1f} %) won {wins}/{len(old)}" + (" resolved" if resolved else "")
                     + (" worse" if worse else ""))
    return lines


def stale_byte_code(tree: Path) -> list[Path]:
    """The ``__pycache__`` directories under a tree's ``src/`` and ``perfbench/``."""
    return sorted(p for top in ("src", "perfbench") for p in (tree / top).rglob("__pycache__"))


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One benchmark run in a tree, writing no byte code; its metric values."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=False,
        env=dict(env, PYTHONDONTWRITEBYTECODE="1"),
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: the run in {tree} failed:\n{proc.stderr}")
    return result_metrics(proc.stdout)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent checkout")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("quartiles need at least 2 pairs")
    if not (args.parent / "perfbench" / "run.py").is_file():
        ap.error(f"{args.parent} holds no perfbench/run.py")
    for tree in (args.parent, ROOT):
        stale = stale_byte_code(tree)
        if stale:
            ap.error(f"{stale[0]} holds byte code that only its own tree's runs would "
                     "read; delete it")
    parent, change = [], []
    for i in range(args.pairs):
        order = ((args.parent, parent), (ROOT, change))
        for tree, runs in order if i % 2 == 0 else order[::-1]:
            runs.append(run(tree, args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs}: parent {json.dumps(parent[-1])} "
              f"this tree {json.dumps(change[-1])}", file=sys.stderr)
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s, "
          "parent median [quartiles] -> this tree's median")
    for line in summary(metrics, parent, change):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
