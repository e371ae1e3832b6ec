"""Run one workload in this (fresh) process and print one JSON result line.

Modes:
  setup   import, generate and validate the devices, warm up; report setup_s
  timed   then classify whole rounds, at least 3, until --seconds have passed
  fixed   then classify exactly --rounds rounds (untraced), for the trace overhead
  traced  the same rounds under the tracer; per-layer numbers

run.py starts this file once per mode; see run.py for the metrics.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import qcompat  # noqa: E402
from qcompat import compat as cp  # noqa: E402
from qcompat.fixtures import builtin_devices  # noqa: E402

import workloads as wl  # noqa: E402


MIN_ROUNDS = 3

# A fixed block of numpy and interpreter work that does not touch qcompat.
# On a shared machine the speed of identical work drifted by 20-30 % between
# runs and by up to 60 % within one run; the reference block drifts with it.
# Times are reported at the speed where the block takes REFERENCE_NS, so the
# metrics are milliseconds on a machine of fixed speed. Raw figures are kept
# alongside.
REFERENCE_NS = 700_000
_REF_RNG = np.random.default_rng(0)
_REF_STACK = _REF_RNG.standard_normal((4, 4, 4)) + 1j * _REF_RNG.standard_normal((4, 4, 4))
_REF_STACK = _REF_STACK + _REF_STACK.conj().swapaxes(-1, -2)
_REF_MATRIX = _REF_RNG.standard_normal((16, 16))


def reference_ns() -> int:
    """Time one reference block."""
    t0 = perf_counter_ns()
    for _ in range(20):
        w, v = np.linalg.eigh(_REF_STACK)
        (v * w[:, None, :]) @ v.conj().swapaxes(-1, -2)
        _REF_MATRIX @ _REF_MATRIX
        sum(float(i) for i in range(50))
    return perf_counter_ns() - t0


def classify_pair(pair: wl.Pair) -> str:
    """One closed-loop request: classify, then export the Kraus witness."""
    v = cp.classify(pair.d1, pair.d2, fast_paths=pair.fast_paths)
    w = v.witness
    if w is not None and w.part_1 is not None and w.part_2 is not None:
        cp.kraus_witness(v)
    return v.relation


def traced_pair(tracer, pair: wl.Pair) -> str:
    v = tracer.call("compat.classify", cp.classify, pair.d1, pair.d2,
                    fast_paths=pair.fast_paths, trace=tracer.solver_event)
    w = v.witness
    if w is not None and w.part_1 is not None and w.part_2 is not None:
        tracer.call("compat.kraus_witness", cp.kraus_witness, v)
    return v.relation


def attempt(fn, *args) -> str:
    try:
        return fn(*args)
    except Exception as exc:  # a failed pair is counted, not fatal
        return f"error: {type(exc).__name__}: {exc}"


def warm_up() -> None:
    """Fixed first calls: lazy imports, index caches, one engine solve."""
    dev = builtin_devices()
    for fast in (True, False):
        v = cp.classify(dev["half_identity"], dev["pz"], fast_paths=fast)
        cp.kraus_witness(v)


def check(pairs: list[wl.Pair], seen: dict) -> tuple[int, int, list[dict]]:
    """Verdict checks, outside the timed region.

    A pair fails on an exception, an undecided verdict, a structural rule,
    a relation outside its expected set, or a relation that differs from
    the one the same pair (in any frame) got earlier in the run.
    """
    attempted = failed = 0
    failures = []
    for pair in pairs:
        relations = seen.get(pair.pid, [])
        if not relations:
            continue
        first = relations[0][0]
        for rel, expected in relations:
            attempted += 1
            if rel.startswith("error:"):
                reason = rel
            else:
                reason = wl.structural_failure(pair, rel)
                if reason is None and expected is not None and rel not in expected:
                    reason = f"expected {sorted(expected)}"
                if reason is None and rel != first:
                    reason = f"relation changed from {first} on a repeat"
            if reason is not None:
                failed += 1
                if len(failures) < 20:
                    failures.append({"pid": pair.pid, "category": pair.category,
                                     "relation": rel, "reason": reason})
    return attempted, failed, failures


def digest(pairs: list[wl.Pair], seen: dict) -> str:
    h = hashlib.sha256()
    for pair in pairs:
        if pair.pid in seen:
            h.update(f"{pair.pid}:{seen[pair.pid][0][0]}\n".encode())
    return h.hexdigest()


def tail(samples_ns: list[int]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (ms, pct, n)."""
    xs = sorted(samples_ns)
    n = len(xs)
    k = max(n - 11, 0)
    return xs[k] / 1e6, 100.0 * (k + 1) / n, n


def blas_threads() -> int | None:
    """The thread count OpenBLAS reports, when its library can be found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcompat").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
                 "threads_reported": blas_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "timed", "fixed", "traced"), required=True)
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=1, help="rounds to run (fixed, traced)")
    ap.add_argument("--limit", type=int, default=0, help="truncate the round (self-test)")
    ap.add_argument("--spans", default="", help="file for the traced spans")
    args = ap.parse_args(argv)

    if Path(qcompat.__file__).resolve().parents[1] != (ROOT / "src").resolve():
        print(f"qcompat imported from {qcompat.__file__}, not from src/", file=sys.stderr)
        return 2

    pairs = wl.WORKLOADS[args.workload](args.seed)
    if args.limit:
        pairs = pairs[: args.limit]
    warm_up()
    setup_raw_s = perf_counter() - T_START
    speed = REFERENCE_NS / float(np.median([reference_ns() for _ in range(5)]))
    result: dict = {"setup_s": setup_raw_s * speed, "setup_raw_s": setup_raw_s,
                    "round_pairs": len(pairs)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    seen: dict[int, list[tuple[str, frozenset | None]]] = {}
    if args.mode == "timed":
        # Whole rounds keep the stated pair mix exact. Each pair's time is
        # scaled to the reference speed by the reference blocks timed just
        # before and after it, and a pair's cost is its median over rounds
        # (over frames too, for the reframed workloads).
        scaled: list[list[float]] = []
        raw_ns = 0
        ref_before = reference_ns()
        start = perf_counter()
        while len(scaled) < MIN_ROUNDS or perf_counter() - start < args.seconds:
            this_round = pairs
            if scaled and args.workload in wl.REFRAMED:
                this_round = wl.WORKLOADS[args.workload](args.seed, len(scaled))[: len(pairs)]
            times = []
            for pair in this_round:
                t0 = perf_counter_ns()
                rel = attempt(classify_pair, pair)
                dt = perf_counter_ns() - t0
                ref_after = reference_ns()
                times.append(dt * 2 * REFERENCE_NS / (ref_before + ref_after))
                ref_before = ref_after
                raw_ns += dt
                seen.setdefault(pair.pid, []).append((rel, pair.expected))
            scaled.append(times)
        cost_ns = np.median(np.array(scaled), axis=0)
        tail_ms, tail_pct, n = tail(list(cost_ns))
        result.update({
            "elapsed_s": perf_counter() - start,
            "rounds": len(scaled),
            "pairs_per_s": len(pairs) / (float(cost_ns.sum()) / 1e9),
            "pairs_per_s_raw": len(pairs) * len(scaled) / (raw_ns / 1e9),
            "pair_p50_ms": float(np.median(cost_ns)) / 1e6,
            "pair_tail_ms": tail_ms,
            "tail_percentile": tail_pct,
            "tail_samples": n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    else:
        todo = pairs * args.rounds
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = perf_counter()
        for i, pair in enumerate(todo):
            if tracer is None:
                rel = attempt(classify_pair, pair)
            else:
                tracer.pair = i
                rel = attempt(tracer.call, "pair", traced_pair, tracer, pair)
            seen.setdefault(pair.pid, []).append((rel, pair.expected))
        elapsed = perf_counter() - start
        result.update({"elapsed_s": elapsed, "pairs": len(todo)})
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_times()
            result["counts"] = dict(tracer.counts)
            result["pairs_with_solve"] = len(tracer.pairs_with("feasibility.solve"))
            if args.spans:
                tracer.dump(args.spans)

    if args.mode == "fixed":  # only its wall time is used
        print(json.dumps(result))
        return 0
    attempted, failed, failures = check(pairs, seen)
    result.update({
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "verdict_digest": digest(pairs, seen),
        "env": environment(args.seed),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
