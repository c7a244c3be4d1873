"""Per-call cost of ``numkernel.log_gamma`` over a/199, cold and warm.

    python benchmarks/bench_log_gamma.py --tree parent=/path/to/old/src \
        --tree change=src --rounds 5 --out BENCH_layers.json

Each ``--tree LABEL=DIR`` names a source directory holding the
``cmperiods`` package; the default is ``current=src``.  Every sample runs
in a fresh interpreter with that directory first on ``sys.path``, and the
trees take turns round by round, so a machine that speeds up or slows down
meets them alike.  At 60, 120 and 300 target digits a sample records

- ``cold_ms``: the first call at that precision, log Gamma(1/199), which
  also pays for mpmath's constants and whatever tables the kernel builds;
- ``warm_ms``: the mean per call over all a/199, 0 < a < 199, after one
  untimed pass, with the memo cleared before the pass and again before
  the timed pass, so that every call computes.

The JSON written to ``--out`` holds, per tree and precision, the median
of the samples and their quartiles, plus the machine.  Only the public
names ``log_gamma``, ``log_gamma.cache_clear`` and ``PrecisionContext``
are used, so any two versions of the kernel compare.  The script is not
under ``tests/`` and tier-1 does not collect it.
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

TARGETS = (60, 120, 300)
DEN = 199

WORKER = """
import json, sys, time
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from cmperiods.numkernel import PrecisionContext, log_gamma
ctx = PrecisionContext(int(sys.argv[2]))
den = int(sys.argv[3])
t = time.perf_counter()
log_gamma(Fraction(1, den), ctx)
cold = time.perf_counter() - t
args = [Fraction(a, den) for a in range(1, den)]
log_gamma.cache_clear()
for x in args:
    log_gamma(x, ctx)
log_gamma.cache_clear()
t = time.perf_counter()
for x in args:
    log_gamma(x, ctx)
warm = (time.perf_counter() - t) / len(args)
print(json.dumps({"cold_ms": cold * 1e3, "warm_ms": warm * 1e3}))
"""


def sample(src: str, target: int) -> dict:
    out = subprocess.run([sys.executable, "-c", WORKER, src, str(target), str(DEN)],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "samples": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", default=[],
                    help="LABEL=DIR, a source directory holding cmperiods (repeatable)")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree) or {"current": "src"}
    raw = {label: {t: {"cold_ms": [], "warm_ms": []} for t in TARGETS} for label in trees}
    for rnd in range(args.rounds):
        order = list(trees) if rnd % 2 == 0 else list(reversed(trees))
        for label in order:
            for target in TARGETS:
                for key, val in sample(os.path.abspath(trees[label]), target).items():
                    raw[label][target][key].append(val)
        print(f"round {rnd + 1}/{args.rounds} done", file=sys.stderr)
    result = {
        "bench": f"numkernel.log_gamma per call over a/{DEN}, ms",
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count(),
                    "mpmath": subprocess.run([sys.executable, "-c",
                                              "import mpmath; print(mpmath.__version__)"],
                                             capture_output=True, text=True).stdout.strip()},
        "trees": {label: {str(t): {k: summary(v) for k, v in per.items()}
                          for t, per in raw[label].items()} for label in trees},
    }
    for label, per in result["trees"].items():
        for t, row in per.items():
            print(f"{label:>8} {t:>4} digits  cold {row['cold_ms']['median']:8.3f} ms"
                  f"  warm {row['warm_ms']['median']:7.3f} ms")
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
