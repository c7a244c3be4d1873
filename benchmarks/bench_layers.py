"""Per-call cost of the numeric kernels, cold and warm.

    python benchmarks/bench_layers.py --tree parent=/path/to/old/src \
        --tree change=src --rounds 11 --out BENCH_layers.json

Each ``--tree LABEL=DIR`` names a source directory holding the
``cmperiods`` package; the default is ``current=src``.  Every sample runs
in a fresh interpreter with that directory first on ``sys.path``.  Within
a round the trees take turns on each (kernel, precision), and the order
of the trees flips from round to round, so a machine that speeds up or
slows down meets them alike.  At 60, 120 and 300 target digits a sample
records, for each kernel,

- ``cold_ms``: the first call at that precision, which also pays for
  mpmath's constants and whatever tables the kernel builds;
- ``warm_ms``: the mean per call over all its arguments, after one
  untimed pass, in the fastest of the timed passes, as many as fit in
  PASS_SECONDS and at least MIN_PASSES: a pass that the machine slowed
  down does not set the sample, and a kernel that is quick at a
  precision gets more passes to find its fastest.

The kernels and their arguments:

- ``numkernel.delta_norm``, Delta(a) Delta(a^-1) from one pentagonal
  series, rounded to working precision and its log taken, as
  ``csperiods.log_delta_pair`` takes each class's term, per class over
  every reduced form a of discriminant -d, d in 23, 71, 163 and 199
  (20 classes, sqrt(d) taken before timing, as ``cs_verify`` takes it
  once per discriminant); the cold call is the first of them;
- ``lseries.character_gamma_sum`` per sum, sum eps(a) log Gamma(a/d)
  over 0 < a < d, at d in 123, 139, 163 and 199, the log-Gamma memos
  (each of ``numkernel._log_gamma_parts`` and ``log_gamma`` that has a
  ``cache_clear`` in the tree) cleared before the untimed pass and again
  before each timed pass, so that a sum that reads them computes its
  terms; the cold call is the sum at d = 123, and it includes the tables
  that every later sum at that precision reads: the Taylor table of
  log Gamma at the shift point (``numkernel._log_gamma_taylor``) and,
  built from it, the table of the odd part of log Gamma about J
  (``numkernel._log_gamma_odd``);
- ``epstein.epstein_jet`` per jet, on the principal form of d = 7, 23
  and 71, whose theta sums run to 86-1060 terms at these precisions:
  the count array, the sum over n and the jet's last few mpf steps; the
  cold call is the jet at d = 7, and it includes mpmath's constants at
  that precision;
- ``epstein.theta_counts`` per call, on every reduced form of d = 7, 23
  and 71 (11 forms), to the limit the jet takes at target + 10 digits
  past working precision, (dps + 12) ln 10/t0 + 4 with t0 = 2 pi/sqrt(d);
- ``csperiods.make_report`` per call, on lhs = 1/7 and rhs = lhs (1 +
  10^-j) at j = 1, 4, 7, ... up to ten past working digits, so that
  every count of digits agreed is met and the last few rows agree to
  all of them; the cold call, at j = 1, also pays for whatever the
  digits count builds at that precision;
- ``fermat.tate_twist_certificate`` per call over twelve evenly spaced
  mixed triples at p = 19, the log-Gamma memos cleared before each
  pass, so that a pass computes Gamma at each argument once, as a fresh
  process does for its requests at one p; the cold call is the first
  triple, and it includes the Taylor table of log Gamma at the shift
  point;
- ``heckechar.psi_M`` over every reduced form of p = 1019 (13 classes),
  at 60 digits only, since it computes in exact integers: h - 1
  ``ideal_product`` steps and one form reduction per call; the cold
  call, on the principal form, also sums the class number.

The JSON written to ``--out`` holds, per kernel, tree and precision, the
median of the samples, their quartiles and their spread (q3 - q1) /
median, plus the machine; the spread is printed with each median.  Under
``ratios`` it holds, for every tree after the first, the same summary of
its sample over the first tree's sample of the same round: the two ran
seconds apart, so the ratio is steadier than either median when the
machine's speed drifts from round to round.  On a 2-core x86-64 machine,
eleven rounds put the warm median ratio of every unchanged kernel
within 0.98-1.03 and its quartiles within 0.96-1.05
(``BENCH_layers.json``), but earlier records had quartiles reaching
0.74-1.27 at 120 and 300 digits: a change of about 10% per call is the
least this bench is sure to resolve.  At 300 digits a pass of the
slower kernels takes longer than PASS_SECONDS, so they get MIN_PASSES.
Only public names are used (``delta_norm``, ``PrecisionContext``,
``character_gamma_sum`` from ``lseries``, ``make_report`` from
``csperiods``, ``tate_twist_certificate``, ``psi_M``, ``reduced_forms``
and ``principal_form`` from ``quadforms``, ``epstein_jet`` and
``theta_counts`` from ``epstein``), and the log-Gamma memos named above
where a tree has them, so any two versions of the kernels compare.  The script is not under ``tests/`` and tier-1
does not collect it.
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
DISCS = (23, 71, 163, 199)
SUM_DISCS = (123, 139, 163, 199)
PSI_P = 1019
TATE_P = 19


def _mixed_triples(p, n):
    """n evenly spaced mixed triples at p: r + s + t = 0 mod p, eps(r) + eps(s) + eps(t) = +-1."""
    squares = {a * a % p for a in range(1, p)}
    triples = [(r, s, (-r - s) % p) for r in range(1, p) for s in range(1, p)
               if (r + s) % p and abs(sum(1 if x in squares else -1
                                          for x in (r, s, (-r - s) % p))) == 1]
    return triples[::len(triples) // n][:n]


# timed warm passes per sample, the fastest kept: as many as fit in
# PASS_SECONDS, and at least MIN_PASSES
PASS_SECONDS = 0.2
MIN_PASSES = 5

PRELUDE = """
import json, sys, time
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from cmperiods import numkernel
from cmperiods.numkernel import PrecisionContext
from cmperiods.quadforms import reduced_forms
ctx = PrecisionContext(int(sys.argv[2]))
memos = [memo for memo in (getattr(numkernel, name, None)
                           for name in ("log_gamma", "_log_gamma_parts"))
         if hasattr(memo, "cache_clear")]
clear_memos = lambda: [memo.cache_clear() for memo in memos]
"""

# each worker binds kernel, args and fresh (what makes the next pass compute)
TIMING = """
t = time.perf_counter()
kernel(args[0], ctx)
cold = time.perf_counter() - t
fresh()
for x in args:
    kernel(x, ctx)
warm = []
start = time.perf_counter()
while len(warm) < %d or time.perf_counter() - start < %r:
    fresh()
    t = time.perf_counter()
    for x in args:
        kernel(x, ctx)
    warm.append((time.perf_counter() - t) / len(args))
print(json.dumps({"cold_ms": cold * 1e3, "warm_ms": min(warm) * 1e3}))
""" % (MIN_PASSES, PASS_SECONDS)

WORKERS = {
    "delta_norm": ("numkernel.delta_norm, rounded and its log, per class, d in %s, ms"
                   % ", ".join(map(str, DISCS)), """
from mpmath import mp
from cmperiods.numkernel import delta_norm
def kernel(x, ctx):
    with ctx.workprec():
        return mp.log(+delta_norm(*x, ctx))
fresh = lambda: None
with ctx.workprec():
    args = [(f, mp.sqrt(d)) for d in %r for f in reduced_forms(d)]
""" % (DISCS,)),
    "character_gamma_sum": ("lseries.character_gamma_sum per sum, d in %s, ms"
                            % ", ".join(map(str, SUM_DISCS)), """
from cmperiods.lseries import character_gamma_sum
kernel, fresh = character_gamma_sum, clear_memos
args = %r
""" % (SUM_DISCS,)),
}

JET_DISCS = (7, 23, 71)
WORKERS["epstein_jet"] = ("epstein.epstein_jet per jet, principal form of d in %s, ms"
                          % ", ".join(map(str, JET_DISCS)), """
from cmperiods.epstein import epstein_jet
from cmperiods.quadforms import principal_form
kernel, fresh = epstein_jet, lambda: None
args = [principal_form(d) for d in %r]
""" % (JET_DISCS,))
WORKERS["theta_counts"] = ("epstein.theta_counts per form, every class of d in %s, "
                           "to the jet's limit, ms" % ", ".join(map(str, JET_DISCS)), """
from math import log, pi, sqrt
from cmperiods.epstein import theta_counts
def kernel(f, ctx):
    dps = ctx.working_digits + 10
    return theta_counts(f, int((dps + 12) * log(10) / (2 * pi / sqrt(-f.disc))) + 4)
fresh = lambda: None
args = [f for d in %r for f in reduced_forms(d)]
""" % (JET_DISCS,))

WORKERS["make_report"] = ("csperiods.make_report per call, rel_err 10^-j, "
                          "j = 1, 4, ... to working digits + 10, ms", """
from mpmath import mp
from cmperiods.csperiods import make_report
kernel, fresh = (lambda x, ctx: make_report("x", {}, *x, ctx)), lambda: None
with ctx.workprec():
    args = [(mp.mpf(1) / 7, mp.mpf(1) / 7 * (1 + mp.mpf(10) ** -j))
            for j in range(1, ctx.working_digits + 11, 3)]
""")

WORKERS["tate_twist_certificate"] = ("fermat.tate_twist_certificate per call over 12 mixed "
                                     "triples at p = %d, ms" % TATE_P, """
from cmperiods.fermat import tate_twist_certificate
kernel, fresh = (lambda rst, ctx: tate_twist_certificate(%d, *rst, ctx)), clear_memos
args = %r
""" % (TATE_P, _mixed_triples(TATE_P, 12)))

WORKERS["psi_M"] = ("heckechar.psi_M per call over the reduced forms of p = %d, ms" % PSI_P, """
from cmperiods.heckechar import psi_M
kernel, fresh = (lambda f, ctx: psi_M(f, %d)), lambda: None
args = list(reduced_forms(%d))
""" % (PSI_P, PSI_P))
KERNEL_TARGETS = {"psi_M": (60,)}  # psi_M is exact: the precision does not enter


def sample(src: str, kernel: str, target: int) -> dict:
    code = PRELUDE + WORKERS[kernel][1] + TIMING
    out = subprocess.run([sys.executable, "-c", code, src, str(target)],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "spread": round((q3 - q1) / median, 3), "samples": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", default=[],
                    help="LABEL=DIR, a source directory holding cmperiods (repeatable)")
    ap.add_argument("--rounds", type=int, default=11)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree) or {"current": "src"}
    first = next(iter(trees))
    raw = {k: {label: {t: {"cold_ms": [], "warm_ms": []}
                       for t in KERNEL_TARGETS.get(k, TARGETS)} for label in trees}
           for k in WORKERS}
    for rnd in range(args.rounds):
        order = list(trees) if rnd % 2 == 0 else list(reversed(trees))
        for kernel in WORKERS:
            for target in KERNEL_TARGETS.get(kernel, TARGETS):
                for label in order:
                    got = sample(os.path.abspath(trees[label]), kernel, target)
                    for key, val in got.items():
                        raw[kernel][label][target][key].append(val)
        print(f"round {rnd + 1}/{args.rounds} done", file=sys.stderr)
    result = {
        "bench": "numeric kernels per call, ms",
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count(),
                    "mpmath": subprocess.run([sys.executable, "-c",
                                              "import mpmath; print(mpmath.__version__)"],
                                             capture_output=True, text=True).stdout.strip()},
        "kernels": {kernel: {"bench": WORKERS[kernel][0],
                             "trees": {label: {str(t): {k: summary(v) for k, v in per.items()}
                                               for t, per in raw[kernel][label].items()}
                                       for label in trees},
                             "ratios": {label: {str(t): {k: summary(
                                 [x / y for x, y in zip(v, raw[kernel][first][t][k])])
                                 for k, v in per.items()}
                                 for t, per in raw[kernel][label].items()}
                                 for label in trees if label != first}}
                    for kernel in WORKERS},
    }
    for kernel, body in result["kernels"].items():
        for label, per in body["trees"].items():
            for t, row in per.items():
                cold, warm = row["cold_ms"], row["warm_ms"]
                print(f"{kernel:>22} {label:>8} {t:>4} digits"
                      f"  cold {cold['median']:8.3f} ms (spread {cold['spread']:.2f})"
                      f"  warm {warm['median']:7.3f} ms (spread {warm['spread']:.2f})")
        for label, per in body["ratios"].items():
            for t, row in per.items():
                warm = row["warm_ms"]
                print(f"{kernel:>22} {label:>8} {t:>4} digits  warm / {first}"
                      f" {warm['median']:.3f} (q1 {warm['q1']:.3f}, q3 {warm['q3']:.3f})")
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
