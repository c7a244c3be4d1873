"""Per-call cost of the numeric kernels, cold and warm.

    python benchmarks/bench_layers.py --tree parent=/path/to/old/src \
        --tree change=src --rounds 11 --out BENCH_layers.json

Each ``--tree LABEL=DIR`` names a source directory holding the
``cmperiods`` package; the default is ``current=src``.  Every sample runs
in a fresh interpreter with that directory first on ``sys.path``.  Within
a round the trees take turns on each (kernel, precision), and the order
of the trees flips from round to round, so a machine that speeds up or
slows down meets them alike.  At 300 digits each round takes
SAMPLES_PER_ROUND[300] samples per tree, the order flipping from one to
the next, since a kernel's time there spreads the most.  At 60, 120 and
300 target digits a sample records, for each kernel,

- ``cold_ms``: the first call at that precision, which also pays for
  mpmath's constants and whatever tables the kernel builds, timed with
  the garbage collector off and just after a collection, so that no
  collection that the allocations before it happen to trigger lands in
  it;
- ``warm_ms``: the mean per call over all its arguments, after one
  untimed pass, in the fastest of the timed passes, as many as fit in
  PASS_SECONDS and at least MIN_PASSES: a pass that the machine slowed
  down does not set the sample, and a kernel that is quick at a
  precision gets more passes to find its fastest.

The kernels and their arguments:

- ``numkernel.delta_norm``, Delta(a) Delta(a^-1) from one pentagonal
  series, rounded to working precision and its log taken, by
  ``csperiods.log_delta_pair``, per class over every reduced form a of
  discriminant -d, d in 23, 71, 163 and 199 (20 classes in 12 inverse
  pairs; sqrt(d) is taken before timing and passed where the tree's
  ``log_delta_pair`` takes it), with the memo of pairs
  (``numkernel._delta_norm``, where a tree has it) cleared before the
  untimed pass and each timed pass, so that a pass sums one series per
  pair where the tree keeps the pair, and one per class where it does
  not; the cold call is the first of them;
- ``lseries.character_gamma_sum`` per sum, sum eps(a) log Gamma(a/d)
  over 0 < a < d, at d in 123, 139, 163 and 199, the memos (each of
  ``numkernel._log_gamma_parts``, ``_log_gamma_horner`` and
  ``log_gamma`` that has a ``cache_clear`` in the tree, the memo of
  residues, ``quadforms._residues``, and that of the sums,
  ``lseries._character_gamma_sum``, where a tree has them) cleared before
  the untimed pass and again before each timed pass, so that a sum that reads them computes its
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
  mixed triples at p = 19, the memos cleared before each pass, so that
  a pass computes Gamma at each argument, and the residues, once, as a
  fresh process does for its requests at one p; the memos are those of
  log Gamma and of residues, and the Gauss products of fermat
  (``fermat._residue_gamma_product``, where a tree has it); the cold
  call is the first triple, and it includes the Taylor table of log
  Gamma at the shift point;
- ``tate_warm``, the same calls with the parts of log Gamma and the
  residues kept, as a request at a p and precision already seen finds
  them, and only the Gauss products cleared before each pass, where a
  tree keeps them: a pass builds G_+ and G_- once, where the tree keeps
  them, and a tree that does not builds its products in every call;
- ``numkernel.gamma_product`` per product, as fermat forms them:
  ``fermat.beta_period`` at two evenly spaced mixed triples and
  ``fermat._residue_gamma_product`` at eps = +1 and -1, at p = 7, 11 and
  19 (12 products), with the memos cleared before each pass, the Gauss
  products included, as a fresh process computes them for its requests
  at one p; the cold call is the beta product at p = 7, and it includes
  the Taylor table of log Gamma at the shift point;
- ``gauss_product``, one Gauss product G_sigma =
  ``fermat._residue_gamma_product`` at eps = +1 and -1, at p = 7, 11 and
  19 (6 products), the parts of log Gamma kept and the Gauss memo
  cleared before each pass, where a tree has it: what a request that
  finds G_sigma in the memo no longer computes;
- ``heckechar.psi_M`` over every reduced form of p = 1019 (13 classes),
  at 60 digits only, since it computes in exact integers: h - 1
  ``ideal_product`` steps and one form reduction per call; the cold
  call, on the principal form, also sums the class number;
- the tables of log Gamma that a process builds once, at 300, 600 and
  1000 digits only, at the binary precision of working + 10 digits,
  where ``log_gamma`` and the character sum read them, one call per
  pass:

  - ``numkernel._tangent_numbers``, as many tangent numbers as the
    Taylor table at that precision reads, the per-process lists reset
    to T_1 before each pass; with nothing else to fill, cold and warm
    time the same work;
  - ``numkernel._log_gamma_taylor``, the Taylor table at the shift
    point, both table memos (``_log_gamma_taylor`` and
    ``_log_gamma_odd``) cleared before each pass and the tangent
    numbers kept; the cold call also builds the tangent numbers and
    mpmath's pi at that precision;
  - ``numkernel._log_gamma_odd``, the odd table about J, both table
    memos cleared and the Taylor table rebuilt, untimed, before each
    pass, so that a pass times the odd table alone; the cold call
    builds all three.

The JSON written to ``--out`` holds, per kernel, tree and precision, the
median of the samples, their quartiles and their spread (q3 - q1) /
median, plus the machine; the spread is printed with each median.  Under
``ratios`` it holds, for every tree after the first, the same summary of
its sample over the first tree's sample of the same round: the two ran
seconds apart, so the ratio is steadier than either median when the
machine's speed drifts from round to round.  On a 2-core x86-64 machine,
eleven rounds put the warm median ratio of every unchanged kernel
within 0.98-1.03 and its quartiles within 0.96-1.05, but earlier
records had quartiles reaching 0.74-1.27 at 120 and 300 digits.  With
three samples per round at 300 digits, two recordings on a busy machine
put the quartiles of every unchanged kernel there within 0.93-1.07
(``BENCH_layers.json``), while at 120 digits, one sample per round, a
burst of load put three of them at 0.81-0.85: a change of about 10%
per call is the least this bench is sure to resolve.  At 300 digits a
pass of the slower kernels takes longer than PASS_SECONDS, so they get
MIN_PASSES.
Only public names are used (``log_delta_pair``, ``PrecisionContext``,
``character_gamma_sum`` from ``lseries``, ``make_report`` from
``csperiods``, ``tate_twist_certificate``, ``psi_M``, ``reduced_forms``
and ``principal_form`` from ``quadforms``, ``epstein_jet`` and
``theta_counts`` from ``epstein``, ``beta_period`` from ``fermat``),
fermat's ``_residue_gamma_product``, whose signature has not changed,
the three table builders and the tangent lists of ``numkernel``, and
the memos named above where a tree has them, so any two versions of
the kernels compare.  The script is not under ``tests/`` and tier-1
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
GAMMA_PS = (7, 11, 19)
# samples per tree in each round, by target digits; 1 where not named
SAMPLES_PER_ROUND = {300: 3}


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
import gc, json, sys, time
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from cmperiods import fermat, numkernel, quadforms
from cmperiods.numkernel import PrecisionContext
from cmperiods.quadforms import reduced_forms
ctx = PrecisionContext(int(sys.argv[2]))
# a function clearing the memos of module by these names, those the tree has
def clearer(module, *names):
    memos = [memo for memo in (getattr(module, name, None) for name in names)
             if hasattr(memo, "cache_clear")]
    return lambda: [memo.cache_clear() for memo in memos]
clear_gamma = clearer(numkernel, "log_gamma", "_log_gamma_parts", "_log_gamma_horner")
clear_residues = clearer(quadforms, "_residues")
clear_gauss = clearer(fermat, "_residue_gamma_product")
clear_memos = lambda: (clear_gamma(), clear_residues(), clear_gauss())
clear_tables = clearer(numkernel, "_log_gamma_taylor", "_log_gamma_odd")
"""

# each worker binds kernel, args and fresh (what makes the next pass compute)
TIMING = """
gc.collect()
gc.disable()
t = time.perf_counter()
kernel(args[0], ctx)
cold = time.perf_counter() - t
gc.enable()
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
    "delta_norm": ("numkernel.delta_norm, rounded and its log, by csperiods.log_delta_pair, "
                   "per class, d in %s, ms" % ", ".join(map(str, DISCS)), """
from inspect import signature
from mpmath import mp
from cmperiods.csperiods import log_delta_pair
# (f, sqrt(d)) where the tree passes sqrt(d), else f alone
given = len(signature(log_delta_pair).parameters) - 1
kernel = lambda x, ctx: log_delta_pair(*x[:given], ctx)
fresh = clearer(numkernel, "_delta_norm")
with ctx.workprec():
    args = [(f, mp.sqrt(d)) for d in %r for f in reduced_forms(d)]
""" % (DISCS,)),
    "character_gamma_sum": ("lseries.character_gamma_sum per sum, d in %s, ms"
                            % ", ".join(map(str, SUM_DISCS)), """
from cmperiods import lseries
from cmperiods.lseries import character_gamma_sum
clear_sums = clearer(lseries, "_character_gamma_sum")
kernel, fresh = character_gamma_sum, lambda: (clear_memos(), clear_sums())
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
WORKERS["tate_warm"] = ("fermat.tate_twist_certificate per call over 12 mixed triples at "
                        "p = %d, parts of log Gamma kept, Gauss products cleared per pass, ms"
                        % TATE_P, """
from cmperiods.fermat import tate_twist_certificate
kernel, fresh = (lambda rst, ctx: tate_twist_certificate(%d, *rst, ctx)), clear_gauss
args = %r
""" % (TATE_P, _mixed_triples(TATE_P, 12)))

WORKERS["gamma_product"] = ("numkernel.gamma_product per product, fermat's beta products at "
                            "two mixed triples and residue products at eps = +-1, p in %s, ms"
                            % ", ".join(map(str, GAMMA_PS)), """
from cmperiods.fermat import _residue_gamma_product, beta_period
def kernel(x, ctx):
    if len(x) == 4:
        return beta_period(*x, ctx)
    return _residue_gamma_product(quadforms.Discriminant.prime(x[0]), x[1], ctx)
fresh = clear_memos
args = %r
""" % ([(p, *rst) for p in GAMMA_PS for rst in _mixed_triples(p, 2)]
       + [(p, sigma) for p in GAMMA_PS for sigma in (1, -1)],))
WORKERS["gauss_product"] = ("fermat._residue_gamma_product per product, eps = +-1, p in %s, "
                            "parts of log Gamma kept, ms" % ", ".join(map(str, GAMMA_PS)), """
def kernel(x, ctx):
    return fermat._residue_gamma_product(quadforms.Discriminant.prime(x[0]), x[1], ctx)
fresh = clear_gauss
args = %r
""" % ([(p, sigma) for p in GAMMA_PS for sigma in (1, -1)],))

WORKERS["psi_M"] = ("heckechar.psi_M per call over the reduced forms of p = %d, ms" % PSI_P, """
from cmperiods.heckechar import psi_M
kernel, fresh = (lambda f, ctx: psi_M(f, %d)), lambda: None
args = list(reduced_forms(%d))
""" % (PSI_P, PSI_P))
KERNEL_TARGETS = {"psi_M": (60,)}  # psi_M is exact: the precision does not enter

# the tables of log Gamma, per process or per precision, at the binary
# precision of working + 10 digits, where log_gamma and the character
# sum read them
TABLE_TARGETS = (300, 600, 1000)
TABLE_PRELUDE = """
from mpmath import mp
with ctx.workprec(10):
    prec = mp.prec
args = [prec]
"""
WORKERS["tangent_numbers"] = ("numkernel._tangent_numbers, the tangent numbers "
                              "the Taylor table of log Gamma reads, built from none, ms",
                              TABLE_PRELUDE + """
numkernel._log_gamma_taylor(prec)  # finds how many the table reads
count = len(numkernel._TANGENTS)
def fresh():
    numkernel._TANGENTS[:] = numkernel._TANGENT_COLUMN[:] = [1]
fresh()
clear_tables()
kernel = lambda prec, ctx: numkernel._tangent_numbers(count)
""")
WORKERS["log_gamma_taylor"] = ("numkernel._log_gamma_taylor, the Taylor table of log Gamma "
                               "at the shift point, tangent numbers kept, ms",
                               TABLE_PRELUDE + """
kernel, fresh = (lambda prec, ctx: numkernel._log_gamma_taylor(prec)), clear_tables
""")
WORKERS["log_gamma_odd"] = ("numkernel._log_gamma_odd, the odd Taylor table of log Gamma "
                            "about J, from the table at the shift point, ms",
                            TABLE_PRELUDE + """
kernel = lambda prec, ctx: numkernel._log_gamma_odd(prec)
def fresh():
    clear_tables()
    numkernel._log_gamma_taylor(prec)
""")
KERNEL_TARGETS.update(dict.fromkeys(("tangent_numbers", "log_gamma_taylor", "log_gamma_odd"),
                                    TABLE_TARGETS))


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
                for rep in range(SAMPLES_PER_ROUND.get(target, 1)):
                    for label in (order if rep % 2 == 0 else order[::-1]):
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
