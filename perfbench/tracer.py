"""Spans and counts around qcompat's layer boundaries, for the traced run.

The tracer replaces a name where its caller looks it up (a module
attribute or a class's ``__post_init__``) with a wrapper that records a
span: name, start, end, parent span and pair id. Spans stay in memory and
are written out once, by ``dump``. Nothing here is imported by an
untraced run.
"""

from __future__ import annotations

import functools
import json
import re
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

from qcompat import compat, devices, feasibility, order

# Solver trace lines, as qcompat.feasibility formats them.
_ITER_LINE = re.compile(r"iter=(\d+) shift=(\S+)")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start_ns, end_ns, parent_id, pair_id]
        self.counts: Counter = Counter()
        self.pair: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_iter = 0

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        rec = [len(self.spans), name, 0, 0, self._stack[-1] if self._stack else None, self.pair]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[2] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace owner.attr by a span-recording wrapper."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            result = self.call(name, orig, *args, **kwargs)
            if note is not None:
                note(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def install(self) -> None:
        # compat: the problem builders and the order predicates, by the
        # names compat's own functions look up at call time
        for attr, value in sorted(vars(compat).items()):
            if not callable(value) or isinstance(value, type):
                continue
            if attr.endswith("_problem") and value.__module__ == compat.__name__:
                self.wrap(compat, attr, "compat.encode")
            elif value.__module__ == order.__name__:
                self.wrap(compat, attr, "order")
        # compat imports is_contraction_channel from order inside a function
        self.wrap(order, "is_contraction_channel", "order")
        self.wrap(feasibility, "solve", "feasibility.solve", self._note_solve)
        for attr in ("herm_stack_coords", "herm_stack_from_coords"):
            self.wrap(feasibility, attr, "matkit.pack")
        self.wrap(np.linalg, "eigh", "numpy.linalg.eigh", self._note_eigh)
        self.wrap(np.linalg, "pinv", "numpy.linalg.pinv")
        self.wrap(np.linalg, "lstsq", "numpy.linalg.lstsq")
        for cls in (devices.Effect, devices.Observable, devices.CPMap, devices.Instrument):
            self.wrap(cls, "__post_init__", "devices.construct")
        self.wrap(devices, "choi_from_kraus", "devices.kraus")
        self.wrap(devices, "kraus_from_choi", "devices.kraus")
        self.wrap(compat, "kraus_from_choi", "devices.kraus")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- counts ------------------------------------------------------------

    def _note_solve(self, args, outcome) -> None:
        self.counts["iterations"] += outcome.iterations
        self.counts[f"outcome.{outcome.verdict}"] += 1

    def _note_eigh(self, args, result) -> None:
        shape = np.shape(args[0])
        self.counts["eigh_mats"] += int(np.prod(shape[:-2])) if len(shape) > 2 else 1

    def solver_event(self, line: str) -> None:
        """The ``trace=`` callback passed to classify.

        Iteration lines come every 25 iterations and at every return of a
        Dykstra run, so differences between consecutive lines count the
        iterations of each run exactly; a run restarts when the counter
        does not grow.
        """
        if "face-polish" in line:
            self.counts["polish_hits"] += 1
            return
        if line.startswith("bisect step="):
            self.counts["bisect_steps"] += 1
            return
        m = _ITER_LINE.match(line)
        if m is None:
            return
        it, shift = int(m[1]), float(m[2])
        done = it if it <= self._last_iter else it - self._last_iter
        self._last_iter = it
        self.counts["callback_iterations"] += done
        if shift != 0.0:
            self.counts["probe_iterations"] += done

    # -- results -----------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, name, start, end, _, _ in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += (end - start) / 1e9
            agg["self_s"] += (end - start - child_ns[sid]) / 1e9
        return dict(out)

    def pairs_with(self, name: str) -> set[int]:
        return {pair for _, n, _, _, _, pair in self.spans if n == name}

    def dump(self, path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "pair")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
