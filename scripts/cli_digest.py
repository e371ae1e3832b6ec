#!/usr/bin/env python3
"""Print one line per ``qcompat`` invocation over the example devices, then one digest line.

    python3 scripts/cli_digest.py

Runs, in process through ``qcompat.cli.main``: ``validate`` of
``scripts/example_devices.json``; ``table1 --trace`` with fast paths on and
off; ``dilate``, ``model`` and ``simulate`` (one mixed state, outcome
``+``) of every example device; and ``classify`` and ``witness`` of every
ordered pair of example devices, with fast paths on and off. Every
invocation runs in both output formats. Each line gives the argv, the
exit code and the first 16 hex digits of a sha256 of stdout and of
stderr, in which ``classified in …s`` timings are masked. The last line
counts the invocations and gives the sha256 of every line before it.

Two trees that print the same lines print the same bytes for these
invocations. Bits depend on the numpy/BLAS build and thread count, so
compare outputs made by one build, for example at ``OPENBLAS_NUM_THREADS``
1 and 2.
"""

import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import re
import shlex
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qcompat import cli  # noqa: E402

FILE = "scripts/example_devices.json"
STATE = "[[[0.7,0],[0.1,0.2]],[[0.1,-0.2],[0.3,0]]]"


def invocations():
    """Every argv of the sweep, each in both formats."""
    names = [d["name"] for d in json.loads((ROOT / FILE).read_text())["devices"]]
    routes = ([], ["--no-fast-paths"])
    commands = [["validate", FILE]]
    commands += [["--trace", *route, "table1"] for route in routes]
    for name in names:
        commands += [["dilate", FILE, name], ["model", FILE, name],
                     ["simulate", FILE, name, "--state", STATE, "--outcomes", "+"]]
    for command, (n1, n2), route in itertools.product(
            ("classify", "witness"), itertools.product(names, repeat=2), routes):
        commands.append([*route, command, FILE, n1, n2])
    for argv in commands:
        for fmt in ("text", "json"):
            yield ["--format", fmt, *argv]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def line(argv) -> str:
    """Run one invocation in process and describe it: argv, exit code and output digests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(ROOT / a) if a == FILE else a for a in argv])
    masked = re.sub(r"classified in [0-9.]+s", "classified in …s", err.getvalue())
    return f"{shlex.join(argv)} exit={code} out={sha(out.getvalue())} err={sha(masked)}"


def main() -> int:
    lines = []
    for argv in invocations():
        lines.append(line(argv))
        print(lines[-1])
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"invocations={len(lines)} digest={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
