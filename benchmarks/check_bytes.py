"""Byte-identity check of the CLI output between source trees.

    python benchmarks/check_bytes.py --tree parent=/path/to/old/src --tree change=src

Each ``--tree LABEL=DIR`` names a source directory holding the
``cmperiods`` package; the default is ``current=src``.  Every tree runs
the same requests, in one fresh interpreter with that directory first on
``sys.path``, through ``cmperiods.cli.main(argv)``:

- ``fermat --json`` on every mixed triple at p = 7, 11 and 19 (294
  triples), at 30, 60 and 120 digits: 882 runs;
- ``periods --json`` and ``faltings --json`` at every prime p = 3 mod 4
  from 7 to 199, at 30, 60 and 120 digits;
- ``kronecker --json`` over every class of d = 3, 4, 7, 8, 23, 47, 71
  and 163 at 30, 60 and 120 digits, and of d = 7 and 23 at 300;
- ``suite --max-d 200 --prec 60 --json``;
- every golden request of ``tests/test_cli.py`` (``GOLDEN_RUNS``);

1,064 requests in all, 26 of them from the ``kronecker`` list.

For each request the exit code, stdout and stderr are hashed.  The script
prints one sha256 per tree over all requests, and the first request whose
bytes or exit code differ from the first tree's.  It exits 0 when every
tree matches the first, 1 otherwise.  The script is not under ``tests/``
and tier-1 does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRECS = (30, 60, 120)
KRONECKER_DS = (3, 4, 7, 8, 23, 47, 71, 163)

WORKER = """
import contextlib, hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from cmperiods import cli
for argv in json.loads(sys.stdin.read()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    digest = hashlib.sha256(f"{code}\\0{out.getvalue()}\\0{err.getvalue()}".encode())
    print(digest.hexdigest(), flush=True)
"""


def _primes_3mod4(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi + 1)
            if p % 4 == 3 and all(p % q for q in range(2, int(p ** 0.5) + 1))]


def _mixed_triples(p: int) -> list[tuple[int, int, int]]:
    """r + s + t = 0 mod p, all nonzero, with (r|p) + (s|p) + (t|p) = +-1."""
    def leg(a):
        return 1 if pow(a, (p - 1) // 2, p) == 1 else -1
    return [(r, s, (-r - s) % p) for r in range(1, p) for s in range(1, p)
            if (-r - s) % p and abs(leg(r) + leg(s) + leg((-r - s) % p)) == 1]


def _golden_requests() -> list[list[str]]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_cli import GOLDEN_RUNS
    return [argv.split() for _id, argv, _file, _code in GOLDEN_RUNS]


def requests() -> list[list[str]]:
    out = [["fermat", "--p", str(p), "--rst", f"{r},{s},{t}", "--prec", str(prec), "--json"]
           for prec in PRECS for p in (7, 11, 19) for r, s, t in _mixed_triples(p)]
    out += [[cmd, "--p", str(p), "--prec", str(prec), "--json"]
            for prec in PRECS for cmd in ("periods", "faltings")
            for p in _primes_3mod4(7, 199)]
    out += [["kronecker", "--d", str(d), "--prec", str(prec), "--json"]
            for prec in PRECS for d in KRONECKER_DS]
    out += [["kronecker", "--d", str(d), "--prec", "300", "--json"] for d in (7, 23)]
    out.append(["suite", "--max-d", "200", "--prec", "60", "--json"])
    return out + _golden_requests()


def run_tree(src: str, reqs: list[list[str]]) -> list[str]:
    out = subprocess.run([sys.executable, "-c", WORKER, os.path.abspath(src)],
                         input=json.dumps(reqs), capture_output=True, text=True, check=True)
    digests = out.stdout.split()
    if len(digests) != len(reqs):
        raise RuntimeError(f"{src}: {len(digests)} outputs for {len(reqs)} requests")
    return digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", default=[],
                    help="LABEL=DIR, a source directory holding cmperiods (repeatable)")
    args = ap.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree) or {"current": "src"}
    reqs = requests()
    print(f"{len(reqs)} requests per tree", file=sys.stderr)
    digests = {label: run_tree(src, reqs) for label, src in trees.items()}
    first, *others = trees
    same = True
    for label, per in digests.items():
        total = hashlib.sha256("".join(per).encode()).hexdigest()
        print(f"{label:>8} {total}")
    for label in others:
        diff = next((i for i, (a, b) in enumerate(zip(digests[first], digests[label]))
                     if a != b), None)
        if diff is not None:
            same = False
            print(f"{label} differs from {first} first at: {' '.join(reqs[diff])}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
