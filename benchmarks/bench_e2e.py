"""CLI cost against digits, one request per fresh interpreter.

    python benchmarks/bench_e2e.py --tree parent=/path/to/old/src \
        --tree change=src --pairs 5 --out BENCH_e2e.json

Each ``--tree LABEL=DIR`` names a source directory holding the
``cmperiods`` package; the default is ``current=src``.  Every sample is
one request in a fresh interpreter with that directory first on
``sys.path``: the package is imported untimed, and ``cmperiods.cli.main``
is timed on the request's argument vector with ``--json``, its output
kept in memory.  The first row is start-up alone: ``import
cmperiods.cli`` and ``cli.build_parser()``, timed in a fresh interpreter
that has imported only ``json``, ``sys`` and ``time``; it includes
compiling the package whenever no ``__pycache__`` is written
(``PYTHONDONTWRITEBYTECODE``).  A sample of it takes about 50 ms, so each
pair takes ``STARTUP_SAMPLES`` of them per tree, the trees taking turns.
The requests are

- the cost table of ``ROADMAP.md``: ``verify-cs --d 163``,
  ``faltings --p 163``, ``periods --p 199``, ``kronecker --d 7``,
  ``fermat --p 19 --rst 1,2,16`` and ``suite --max-d 60``, each at 60,
  120, 300, 600 and 1000 digits;
- ``kronecker`` over every class of d = 23 (3 classes) and d = 71 (7),
  at 300 and 600 digits;
- ``suite --max-d 200`` at 60 and 300 digits, with one worker: the
  Chowla-Selberg check at each of the 62 fundamental d <= 200 and the
  period and Faltings checks, in one process.

Within a pair the trees take turns on each request, and the order of
the trees flips from pair to pair, so a machine that speeds up or slows
down meets them alike.  The JSON written to ``--out`` holds, per request
and tree, the median of the samples, their quartiles and their spread
(q3 - q1) / median, and every exit code seen; under ``ratios`` it holds,
for every tree after the first, the same summary of its sample over the
first tree's sample of the same pair.  The script is not under
``tests/`` and tier-1 does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

TABLE = (("verify-cs", "--d", "163"), ("faltings", "--p", "163"), ("periods", "--p", "199"),
         ("kronecker", "--d", "7"), ("fermat", "--p", "19", "--rst", "1,2,16"),
         ("suite", "--max-d", "60"))
TABLE_DIGITS = (60, 120, 300, 600, 1000)
ALL_CLASS = (("kronecker", "--d", "23"), ("kronecker", "--d", "71"))
ALL_CLASS_DIGITS = (300, 600)
SUITE = (("suite", "--max-d", "200"),)
SUITE_DIGITS = (60, 300)
STARTUP = ("import", "cmperiods.cli", "+", "build_parser()")
STARTUP_SAMPLES = 5
REQUESTS = ([STARTUP] + [(*r, "--prec", str(t)) for r in TABLE for t in TABLE_DIGITS]
            + [(*r, "--prec", str(t)) for r in ALL_CLASS for t in ALL_CLASS_DIGITS]
            + [(*r, "--prec", str(t)) for r in SUITE for t in SUITE_DIGITS])

WORKER = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from cmperiods import cli
out = io.StringIO()
t = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[2:])
print(json.dumps({"s": time.perf_counter() - t, "exit": code}))
"""

STARTUP_WORKER = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
from cmperiods import cli
cli.build_parser()
print(json.dumps({"s": time.perf_counter() - t, "exit": 0}))
"""


def sample(src: str, request: tuple) -> dict:
    argv = [STARTUP_WORKER, src] if request == STARTUP else [WORKER, src, *request, "--json"]
    out = subprocess.run([sys.executable, "-c", *argv],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "spread": round((q3 - q1) / median, 3), "samples": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", default=[],
                    help="LABEL=DIR, a source directory holding cmperiods (repeatable)")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree) or {"current": "src"}
    first = next(iter(trees))
    seconds = {r: {label: [] for label in trees} for r in REQUESTS}
    exits = {r: {label: set() for label in trees} for r in REQUESTS}
    for rnd in range(args.pairs):
        order = list(trees) if rnd % 2 == 0 else list(reversed(trees))
        for request in REQUESTS:
            for label in order * (STARTUP_SAMPLES if request == STARTUP else 1):
                got = sample(os.path.abspath(trees[label]), request)
                seconds[request][label].append(got["s"])
                exits[request][label].add(got["exit"])
        print(f"pair {rnd + 1}/{args.pairs} done", file=sys.stderr)
    result = {
        "bench": "cli.main per request with --json, fresh interpreter, import untimed, s; "
                 "the first row times the import and build_parser() alone",
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count(),
                    "mpmath": subprocess.run([sys.executable, "-c",
                                              "import mpmath; print(mpmath.__version__)"],
                                             capture_output=True, text=True).stdout.strip()},
        "requests": {" ".join(r): {
            "trees": {label: summary(v) for label, v in seconds[r].items()},
            "exit": {label: sorted(codes) for label, codes in exits[r].items()},
            "ratios": {label: summary([x / y for x, y in zip(v, seconds[r][first])])
                       for label, v in seconds[r].items() if label != first}}
            for r in REQUESTS},
    }
    for name, body in result["requests"].items():
        line = "  ".join(f"{label} {row['median']:8.3f} s (spread {row['spread']:.2f})"
                         for label, row in body["trees"].items())
        ratios = "  ".join(f"{label}/{first} {row['median']:.3f} "
                           f"(q1 {row['q1']:.3f}, q3 {row['q3']:.3f})"
                           for label, row in body["ratios"].items())
        print(f"{name:>40}  {line}  {ratios}")
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
