"""Byte-identity check of the CLI output between source trees.

    python benchmarks/check_bytes.py --tree parent=/path/to/old/src --tree change=src

Each ``--tree LABEL=DIR`` names a source directory holding the
``cmperiods`` package; the default is ``current=src``.  Every tree runs
the same requests, in one fresh interpreter with that directory first on
``sys.path``, through ``cmperiods.cli.main(argv)``:

- ``fermat --json`` on every mixed triple at p = 7, 11 and 19 (294
  triples), at 30, 60 and 120 digits: 882 runs;
- ``fermat --json`` on every mixed triple at p = 19 at 300 digits (216),
  and on twelve evenly spaced mixed triples each at p = 43 and 163 at 60
  digits: the log-Gamma shift products of ``fermat`` are longest there;
- ``fermat --json`` on twelve evenly spaced mixed triples at p = 19 at
  600 and 1000 digits, where the Taylor table of log Gamma and the
  Horner sum over it are longest;
- ``periods --json`` and ``faltings --json`` at every prime p = 3 mod 4
  from 7 to 199, at 30, 60 and 120 digits, and ``periods`` without
  ``--json`` at the same primes at 60 and 120 digits: the text report
  prints each class's period to 30 digits and the digits agreed by the
  sum of their logs, so these bytes may not move at all;
- ``kronecker --json`` over every class of d = 3, 4, 7, 8, 23, 47, 71
  and 163 at 30, 60 and 120 digits, of d = 7 and 23 at 300, and of
  d = 3, 4 and 7 at 600;
- ``verify-cs --json`` for every fundamental d <= 200 (62 values) at 30
  and 120 digits, for d = 23, 163 and 199 at 300, for d = 23 and 163
  at 600, for d = 199 at 1000, and for d = 1999 at 300 and 600 and
  d = 9995 at 60 and 300, where the character moments of the folded
  log-Gamma sum are longest (h(-9995) = 40 classes, all 40 by
  ``delta_norm``);
- ``faltings --json`` at p = 163 at 600 digits, and ``periods --json`` at
  p = 199 at 1000 digits: the pentagonal series of ``delta_norm`` is
  longest there;
- ``hecke --prec 60 --json`` on every reduced form (a, b, c) of every
  prime p = 3 mod 4 from 7 to 1019 (87 primes, 851 forms) and on its
  translate (a, b + 2a, a + b + c), which is the same class but not
  reduced;
- ``suite --max-d 200 --prec 60 --json``, and ``suite --max-d 30 --json``
  with ``--threads 1`` and with ``--threads 2`` at 60, 120 and 300
  digits: the period and Faltings checks run before the worker pool
  forks, and ``--threads`` must not change a byte;
- every golden request of ``tests/test_cli.py`` (``GOLDEN_RUNS``);

3,221 requests in all, 29 of them from the ``kronecker`` list, 134
from the ``verify-cs`` list, 46 from the text ``periods`` list and
1,702 from the ``hecke`` list.

For each request the exit code, stdout and stderr are hashed.  The script
prints one sha256 per tree over all requests, and the first request whose
bytes or exit code differ from the first tree's.

Each request whose bytes differ is then held to the re-record rule, its
``--json`` rows compared field by field with the first tree's.  A
difference is within the rule when

- the exit code, stderr, the row count and every row's ``check``,
  ``inputs`` and ``pass`` are equal;
- ``lhs_log`` and ``rhs_log`` are equal, or both decimal numbers that
  differ by at most one unit in the last printed digit (of the finer
  of the two);
- ``digits_agreed`` differs by at most 2;

and a request without ``--json`` is within it only when byte-identical.
For every tree the script prints a histogram of the ``digits_agreed``
change per check family (the check name up to its first space) over the
rows that differ, and the first request that breaks the rule.

Exit status: 0 when every tree matches the first byte for byte, 2 when
every difference is within the rule, 1 when some difference breaks it.
The script is not under ``tests/`` and tier-1 does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter, defaultdict
from decimal import Decimal, InvalidOperation
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRECS = (30, 60, 120)
PERIODS_TEXT_PRECS = (60, 120)  # periods without --json
KRONECKER_DS = (3, 4, 7, 8, 23, 47, 71, 163)
KRONECKER_HIGH = ((7, 300), (23, 300), (3, 600), (4, 600), (7, 600))  # (d, digits)
VERIFY_CS_PRECS = (30, 120)
VERIFY_CS_300 = (23, 163, 199)
VERIFY_CS_600 = (23, 163)
VERIFY_CS_1000 = (199,)
VERIFY_CS_LONG = ((1999, 300), (1999, 600), (9995, 60), (9995, 300))  # (d, digits)
SUITE_PRECS = (60, 120, 300)  # suite --max-d 30, with --threads 1 and 2
FERMAT_SPREAD = (43, 163)  # twelve mixed triples each, at 60 digits
FERMAT_HIGH = (600, 1000)  # twelve mixed triples at p = 19, at these digits
HECKE_MAX_P = 1019
MAX_DIGITS_DELTA = 2  # the re-record rule's bound on |change in digits_agreed|

WORKER = """
import contextlib, hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from cmperiods import cli
for argv in json.loads(sys.stdin.read()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    digest = hashlib.sha256(f"{code}\\0{out.getvalue()}\\0{err.getvalue()}".encode())
    print(json.dumps([digest.hexdigest(), code, out.getvalue(), err.getvalue()]), flush=True)
"""


def _primes_3mod4(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi + 1)
            if p % 4 == 3 and all(p % q for q in range(2, int(p ** 0.5) + 1))]


def _fundamental(hi: int) -> list[int]:
    """d <= hi with -d a fundamental discriminant, by this checkout's ``quadforms``."""
    sys.path.insert(0, str(ROOT / "src"))
    from cmperiods.quadforms import is_fundamental
    return [d for d in range(3, hi + 1) if is_fundamental(d)]


def _mixed_triples(p: int) -> list[tuple[int, int, int]]:
    """r + s + t = 0 mod p, all nonzero, with (r|p) + (s|p) + (t|p) = +-1."""
    def leg(a):
        return 1 if pow(a, (p - 1) // 2, p) == 1 else -1
    return [(r, s, (-r - s) % p) for r in range(1, p) for s in range(1, p)
            if (-r - s) % p and abs(leg(r) + leg(s) + leg((-r - s) % p)) == 1]


def _spaced(triples: list) -> list:
    """Twelve evenly spaced entries of triples."""
    return triples[::len(triples) // 12][:12]


def _reduced_forms(p: int) -> list[tuple[int, int, int]]:
    """Reduced forms (a, b, c) of discriminant -p: |b| <= a <= c, b >= 0 if |b| = a or a = c.

    p is prime, so every form of discriminant -p is primitive.
    """
    out = []
    for a in range(1, int((p / 3) ** 0.5) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b + p) % (4 * a) == 0:
                c = (b * b + p) // (4 * a)
                if a <= c and not (b < 0 and a == c):
                    out.append((a, b, c))
    return out


def _golden_requests() -> list[list[str]]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_cli import GOLDEN_RUNS
    return [argv.split() for _id, argv, _file, _code in GOLDEN_RUNS]


def requests() -> list[list[str]]:
    out = [["fermat", "--p", str(p), "--rst", f"{r},{s},{t}", "--prec", str(prec), "--json"]
           for prec in PRECS for p in (7, 11, 19) for r, s, t in _mixed_triples(p)]
    out += [["fermat", "--p", "19", "--rst", f"{r},{s},{t}", "--prec", "300", "--json"]
            for r, s, t in _mixed_triples(19)]
    spread = [(p, "60", _spaced(_mixed_triples(p))) for p in FERMAT_SPREAD]
    spread += [(19, str(prec), _spaced(_mixed_triples(19))) for prec in FERMAT_HIGH]
    out += [["fermat", "--p", str(p), "--rst", f"{r},{s},{t}", "--prec", prec, "--json"]
            for p, prec, triples in spread for r, s, t in triples]
    out += [[cmd, "--p", str(p), "--prec", str(prec), "--json"]
            for prec in PRECS for cmd in ("periods", "faltings")
            for p in _primes_3mod4(7, 199)]
    out += [["periods", "--p", str(p), "--prec", str(prec)]
            for prec in PERIODS_TEXT_PRECS for p in _primes_3mod4(7, 199)]
    out += [["kronecker", "--d", str(d), "--prec", str(prec), "--json"]
            for prec in PRECS for d in KRONECKER_DS]
    out += [["kronecker", "--d", str(d), "--prec", str(prec), "--json"]
            for d, prec in KRONECKER_HIGH]
    out += [["verify-cs", "--d", str(d), "--prec", str(prec), "--json"]
            for prec in VERIFY_CS_PRECS for d in _fundamental(200)]
    out += [["verify-cs", "--d", str(d), "--prec", "300", "--json"] for d in VERIFY_CS_300]
    out += [["verify-cs", "--d", str(d), "--prec", "600", "--json"] for d in VERIFY_CS_600]
    out += [["verify-cs", "--d", str(d), "--prec", "1000", "--json"] for d in VERIFY_CS_1000]
    out += [["verify-cs", "--d", str(d), "--prec", str(prec), "--json"]
            for d, prec in VERIFY_CS_LONG]
    out.append(["faltings", "--p", "163", "--prec", "600", "--json"])
    out.append(["periods", "--p", "199", "--prec", "1000", "--json"])
    out += [["hecke", "--p", str(p), "--form", f"{a},{b},{c}", "--prec", "60", "--json"]
            for p in _primes_3mod4(7, HECKE_MAX_P) for f in _reduced_forms(p)
            for a, b, c in (f, (f[0], f[1] + 2 * f[0], f[0] + f[1] + f[2]))]
    out.append(["suite", "--max-d", "200", "--prec", "60", "--json"])
    out += [["suite", "--max-d", "30", "--prec", str(prec), "--threads", str(threads), "--json"]
            for prec in SUITE_PRECS for threads in (1, 2)]
    return out + _golden_requests()


def run_tree(src: str, reqs: list[list[str]]) -> list[list]:
    """[digest, exit code, stdout, stderr] of every request, in order."""
    out = subprocess.run([sys.executable, "-c", WORKER, os.path.abspath(src)],
                         input=json.dumps(reqs), capture_output=True, text=True, check=True)
    results = [json.loads(line) for line in out.stdout.splitlines()]
    if len(results) != len(reqs):
        raise RuntimeError(f"{src}: {len(results)} outputs for {len(reqs)} requests")
    return results


def _within_last_digit(a: str, b: str) -> bool:
    """Equal, or decimal numbers at most one unit apart in the finer last printed digit."""
    if a == b:
        return True
    try:
        x, y = Decimal(a), Decimal(b)
    except InvalidOperation:
        return False
    if not (x.is_finite() and y.is_finite()):
        return False
    unit = Decimal(1).scaleb(min(x.as_tuple().exponent, y.as_tuple().exponent))
    return abs(x - y) <= unit


def rule_break(argv, old, new):
    """Hold one request's two results to the re-record rule.

    Returns (reason, deltas): reason is None when the difference is within
    the rule, else the first field that breaks it; deltas lists
    (family, change in digits_agreed) for every row that differs.
    """
    (_, old_code, old_out, old_err), (_, new_code, new_out, new_err) = old, new
    if "--json" not in argv:
        return "output of a request without --json differs", []
    if old_code != new_code:
        return f"exit code {old_code} -> {new_code}", []
    if old_err != new_err:
        return "stderr differs", []
    old_rows, new_rows = json.loads(old_out), json.loads(new_out)
    if len(old_rows) != len(new_rows):
        return f"{len(old_rows)} -> {len(new_rows)} rows", []
    deltas = []
    for i, (a, b) in enumerate(zip(old_rows, new_rows)):
        if a == b:
            continue
        if set(a) != set(b):
            return f"row {i}: keys differ", deltas
        for key in ("check", "inputs", "pass"):
            if a[key] != b[key]:
                return f"row {i}: {key} differs", deltas
        for key in ("lhs_log", "rhs_log"):
            if not _within_last_digit(a[key], b[key]):
                return f"row {i}: {key} {a[key]} -> {b[key]}", deltas
        change = b["digits_agreed"] - a["digits_agreed"]
        if abs(change) > MAX_DIGITS_DELTA:
            return f"row {i}: digits_agreed {change:+d}", deltas
        deltas.append((a["check"].split(" ")[0], change))
    return None, deltas


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", default=[],
                    help="LABEL=DIR, a source directory holding cmperiods (repeatable)")
    args = ap.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree) or {"current": "src"}
    reqs = requests()
    print(f"{len(reqs)} requests per tree", file=sys.stderr)
    results = {label: run_tree(src, reqs) for label, src in trees.items()}
    first, *others = trees
    for label, per in results.items():
        total = hashlib.sha256("".join(r[0] for r in per).encode()).hexdigest()
        print(f"{label:>8} {total}")
    status = 0
    for label in others:
        differ = [i for i, (a, b) in enumerate(zip(results[first], results[label]))
                  if a[0] != b[0]]
        if not differ:
            continue
        print(f"{label} differs from {first} in {len(differ)} requests, "
              f"first at: {' '.join(reqs[differ[0]])}")
        hist = defaultdict(Counter)
        broken = None
        for i in differ:
            reason, deltas = rule_break(reqs[i], results[first][i], results[label][i])
            for family, change in deltas:
                hist[family][change] += 1
            if reason is not None and broken is None:
                broken = (i, reason)
        for family in sorted(hist):
            counts = "  ".join(f"{change:+d}: {n}" for change, n in sorted(hist[family].items()))
            print(f"  {family:<20} {sum(hist[family].values()):>4} rows   {counts}")
        if broken is None:
            print(f"{label}: every difference is within the re-record rule")
            status = status or 2
        else:
            i, reason = broken
            print(f"{label} breaks the re-record rule at: {' '.join(reqs[i])} ({reason})")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
