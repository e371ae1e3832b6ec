"""Seeded classify benchmark for qcompat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Each workload runs in fresh single-threaded
worker processes (perfbench/worker.py). ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced process. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fastpath-mix", "pure-opop", "engine-tail")
BLAS_THREADS = "1"  # the workloads are 2x2..9x9 matrices; threads only add noise
SETUP_SAMPLES = 7  # setup_s is the median of this many fresh processes
DEADLINE_S = 175.0  # every run must end within 180 s
# pairs in one traced run: whole rounds, so the counts repeat exactly per seed
TRACE_ROUNDS = {"fastpath-mix": 10, "pure-opop": 1, "engine-tail": 1}

END_TO_END = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "pair_p50_ms": "ms",
    "pair_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "feasibility.solve_calls": "count",
    "feasibility.solve_self_s": "s",
    "feasibility.iterations": "count",
    "feasibility.us_per_iter": "us",
    "feasibility.bisect_steps": "count",
    "feasibility.polish_hits": "count",
    "feasibility.probe_iter_frac": "ratio",
    "feasibility.outcomes.feasible": "count",
    "feasibility.outcomes.infeasible": "count",
    "feasibility.outcomes.undecided": "count",
    "matkit.pack_calls": "count",
    "matkit.pack_s": "s",
    "numpy.linalg.eigh_calls": "count",
    "numpy.linalg.eigh_s": "s",
    "numpy.linalg.eigh_mats_per_call": "mats/call",
    "numpy.linalg.pinv_calls": "count",
    "numpy.linalg.pinv_s": "s",
    "numpy.linalg.lstsq_calls": "count",
    "numpy.linalg.lstsq_s": "s",
    "compat.encode_calls": "count",
    "compat.encode_s": "s",
    "compat.engine_calls_per_pair": "calls/pair",
    "compat.fastpath_frac": "ratio",
    "compat.kraus_witness_calls": "count",
    "compat.kraus_witness_s": "s",
    "compat.self_s": "s",
    "order.calls": "count",
    "order.s": "s",
    "devices.construct_calls": "count",
    "devices.construct_s": "s",
    "devices.kraus_calls": "count",
    "devices.kraus_s": "s",
    "trace.overhead_frac": "ratio",
}

# per-layer metrics that are counts of work; they must repeat exactly
COUNT_METRICS = tuple(k for k, u in PER_LAYER.items() if u == "count")


class RunError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(deadline: float, *args: str) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                              cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise RunError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker_args(workload: str, seed: int, limit: int) -> list[str]:
    args = ["--workload", workload, "--seed", str(seed)]
    return args + ["--limit", str(limit)] if limit else args


def end_to_end(workload: str, seed: int, seconds: float, deadline: float,
               limit: int = 0) -> tuple[dict, dict]:
    common = worker_args(workload, seed, limit)
    probes = [run_worker(deadline, "--mode", "setup", *common)
              for _ in range(SETUP_SAMPLES - 1)]
    res = run_worker(deadline, "--mode", "timed", "--seconds", str(seconds), *common)
    setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
    raw_setups = [p["setup_raw_s"] for p in probes] + [res["setup_raw_s"]]
    attempted, failed = res["attempted"], res["failed"]
    values = {
        "setup_s": statistics.median(setups),
        "pairs_per_s": res["pairs_per_s"],
        "pair_p50_ms": res["pair_p50_ms"],
        "pair_tail_ms": res["pair_tail_ms"],
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    details = {k: res[k] for k in ("elapsed_s", "rounds", "round_pairs", "pairs_per_s_raw",
                                   "tail_percentile", "tail_samples", "failures",
                                   "verdict_digest", "env")}
    details["failed_frac"] = failed / attempted
    details["setup_samples_s"] = setups
    details["setup_raw_samples_s"] = raw_setups
    return {"attempted": attempted, "failed": failed, "values": values}, details


def layer_metrics(res: dict, untraced_s: float) -> dict[str, float]:
    layers, counts, pairs = res["layers"], res["counts"], res["pairs"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    iterations = counts.get("iterations", 0)
    solve_total = layers.get("feasibility.solve", {}).get("total_s", 0.0)
    eigh_calls = calls("numpy.linalg.eigh")
    return {
        "feasibility.solve_calls": calls("feasibility.solve"),
        "feasibility.solve_self_s": self_s("feasibility.solve"),
        "feasibility.iterations": iterations,
        "feasibility.us_per_iter": 1e6 * solve_total / iterations if iterations else 0.0,
        "feasibility.bisect_steps": counts.get("bisect_steps", 0),
        "feasibility.polish_hits": counts.get("polish_hits", 0),
        "feasibility.probe_iter_frac":
            counts.get("probe_iterations", 0) / iterations if iterations else 0.0,
        "feasibility.outcomes.feasible": counts.get("outcome.feasible", 0),
        "feasibility.outcomes.infeasible": counts.get("outcome.infeasible", 0),
        "feasibility.outcomes.undecided": counts.get("outcome.undecided", 0),
        "matkit.pack_calls": calls("matkit.pack"),
        "matkit.pack_s": self_s("matkit.pack"),
        "numpy.linalg.eigh_calls": eigh_calls,
        "numpy.linalg.eigh_s": self_s("numpy.linalg.eigh"),
        "numpy.linalg.eigh_mats_per_call":
            counts.get("eigh_mats", 0) / eigh_calls if eigh_calls else 0.0,
        "numpy.linalg.pinv_calls": calls("numpy.linalg.pinv"),
        "numpy.linalg.pinv_s": self_s("numpy.linalg.pinv"),
        "numpy.linalg.lstsq_calls": calls("numpy.linalg.lstsq"),
        "numpy.linalg.lstsq_s": self_s("numpy.linalg.lstsq"),
        "compat.encode_calls": calls("compat.encode"),
        "compat.encode_s": self_s("compat.encode"),
        "compat.engine_calls_per_pair": calls("feasibility.solve") / pairs,
        "compat.fastpath_frac": 1.0 - res["pairs_with_solve"] / pairs,
        "compat.kraus_witness_calls": calls("compat.kraus_witness"),
        "compat.kraus_witness_s": self_s("compat.kraus_witness"),
        "compat.self_s": self_s("compat.classify"),
        "order.calls": calls("order"),
        "order.s": self_s("order"),
        "devices.construct_calls": calls("devices.construct"),
        "devices.construct_s": self_s("devices.construct"),
        "devices.kraus_calls": calls("devices.kraus"),
        "devices.kraus_s": self_s("devices.kraus"),
        "trace.overhead_frac": res["elapsed_s"] / untraced_s - 1.0,
    }


def traced(workload: str, seed: int, deadline: float, limit: int = 0) -> tuple[dict, dict]:
    common = worker_args(workload, seed, limit)
    rounds = str(TRACE_ROUNDS[workload])
    plain = run_worker(deadline, "--mode", "fixed", "--rounds", rounds, *common)
    spans = ROOT / ".perfbench" / f"spans-{workload}-{seed}.jsonl"
    spans.parent.mkdir(exist_ok=True)
    res = run_worker(deadline, "--mode", "traced", "--rounds", rounds,
                     "--spans", str(spans), *common)
    values = layer_metrics(res, plain["elapsed_s"])
    self_sum = sum(layer["self_s"] for layer in res["layers"].values())
    details = {
        "traced_pairs": res["pairs"],
        "traced_wall_s": res["elapsed_s"],
        "untraced_wall_s": plain["elapsed_s"],
        "self_time_sum_s": self_sum,
        "callback_iterations": res["counts"].get("callback_iterations", 0),
        "layers": res["layers"],
        "spans_file": spans.relative_to(ROOT).as_posix(),
        "failures": res["failures"],
        "verdict_digest": res["verdict_digest"],
        "env": res["env"],
    }
    return {"attempted": res["attempted"], "failed": res["failed"], "values": values}, details


def report(measured: dict, details: dict, units: dict[str, str]) -> None:
    """Print every metric with its unit, the details, then the result line."""
    for name, unit in units.items():
        print(f"{name:36s} {measured['values'][name]:.6g} {unit}")
    print("details: " + json.dumps(details, sort_keys=True))
    result = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": measured["values"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))


def self_test() -> int:
    """Quick checks of the benchmark itself, on truncated rounds."""
    deadline = time.monotonic() + 600.0
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
           "BENCHMARK.json end_to_end names and units match run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
           "BENCHMARK.json per_layer names and units match run.py")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match run.py")
    # truncated rounds: all of fastpath-mix, the first pairs of the others
    quick = {"fastpath-mix": 0, "pure-opop": 6, "engine-tail": 10}
    for workload, limit in quick.items():
        measured, _ = end_to_end(workload, 11, 0.2, deadline, limit)
        values = measured["values"]
        expect(set(values) == set(END_TO_END) and all(v > 0 for v in values.values()),
               f"{workload}: every end-to-end metric present and nonzero")
        expect(measured["failed"] == 0, f"{workload}: no failed verdicts")
        runs = [traced(workload, 11, deadline, limit) for _ in range(2)]
        (first, det), (second, _) = runs
        expect(set(first["values"]) == set(PER_LAYER),
               f"{workload}: every per-layer metric present")
        expect(det["self_time_sum_s"] <= det["traced_wall_s"],
               f"{workload}: layer self times sum to at most the traced wall time")
        expect(all(first["values"][k] == second["values"][k] for k in COUNT_METRICS),
               f"{workload}: counts repeat exactly for a fixed seed")
        expect(det["callback_iterations"] == first["values"]["feasibility.iterations"],
               f"{workload}: trace-callback iterations equal FeasibilityOutcome.iterations")
        if workload == "fastpath-mix":
            expect(first["values"]["feasibility.solve_calls"] == 0,
                   "fastpath-mix: feasibility.solve_calls == 0")
            expect(first["values"]["compat.fastpath_frac"] == 1.0,
                   "fastpath-mix: compat.fastpath_frac == 1")
    print(f"self-test: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Seeded classify benchmark for qcompat.")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="quick checks of the benchmark")
    ns = ap.parse_args(argv)
    if not (ROOT / "src" / "qcompat" / "__init__.py").is_file():
        print("perfbench: no src/qcompat next to perfbench/; run from a qcompat checkout",
              file=sys.stderr)
        return 2
    if ns.self_test:
        return self_test()
    if ns.workload is None:
        ap.error("--workload is required")
    deadline = time.monotonic() + DEADLINE_S
    try:
        if ns.trace:
            measured, details = traced(ns.workload, ns.seed, deadline)
            report(measured, details, PER_LAYER)
        else:
            measured, details = end_to_end(ns.workload, ns.seed, ns.seconds, deadline)
            report(measured, details, END_TO_END)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
