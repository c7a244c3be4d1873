"""The benchmark's own check of each response, independent of the program's verdict.

A response passes when the exit code is 0, the report has the expected
rows, each row has exactly the six keys and ``pass: true``, and agreement
recomputed from the ``lhs_log``/``rhs_log`` decimal strings (with Python's
``decimal``, not mpmath) meets the check's threshold.  Exact rows are
compared with values the benchmark computes itself: class numbers by
counting reduced forms, character values by Euler's criterion.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal, InvalidOperation, localcontext
from fractions import Fraction

from workloads import flags as _flags
from workloads import is_fundamental, is_prime_3mod4, legendre, reduced_forms

KEYS = {"check", "inputs", "lhs_log", "rhs_log", "digits_agreed", "pass"}
# families whose two sides are decimals; the rest are exact
NUMERIC = ("chowla-selberg", "period-product", "faltings-height",
           "kronecker-limit", "tate-twist")
_CERT = re.compile(r"^(-?\d+)(?:/(\d+))?(?:\*sqrt\((\d+)\))?$")
_BETA = re.compile(r"beta=\((-?\d+),(-?\d+)\)$")
_SUITE_EXTRA = re.compile(r"(?:period-product|faltings-height) p=(\d+)")


def _h(d):
    return len(reduced_forms(d))


def _rel_digits(lhs: Decimal, rhs: Decimal, floor: Decimal) -> Decimal:
    """-log10 of |lhs - rhs| / max(|lhs|, |rhs|, floor); large when they are equal."""
    err = abs(lhs - rhs)
    if err == 0:
        return Decimal(10) ** 6
    return -(err / max(abs(lhs), abs(rhs), floor)).log10()


def _numeric_row(row, tier, expect):
    """Recompute the agreement of a numeric row; return an error string or None."""
    with localcontext() as ctx:
        ctx.prec = tier + 40
        try:
            lhs = Decimal(row["lhs_log"])
            floor = Decimal(0)
            threshold = tier - 20
            if row["check"].startswith("tate-twist"):
                m = _CERT.match(row["rhs_log"])
                if not m:
                    return f"unrecognized certificate {row['rhs_log']!r}"
                num, den, root = m.groups()
                kind = "sqrtp" if root else "rational"
                if kind != expect:
                    return f"certificate kind {kind}, expected {expect}"
                rhs = Decimal(num) / Decimal(den or 1)
                if root:
                    rhs *= Decimal(int(root)).sqrt()
            else:
                rhs = Decimal(row["rhs_log"])
                if row["check"].startswith("kronecker-limit"):
                    floor, threshold = Decimal(1), tier // 2
        except InvalidOperation:
            return f"not a decimal: {row['lhs_log']!r} / {row['rhs_log']!r}"
        digits = _rel_digits(lhs, rhs, floor)
    if digits < threshold:
        return f"sides agree to {float(digits):.1f} digits, need {threshold}"
    if row["digits_agreed"] < threshold:
        return f"reported digits_agreed {row['digits_agreed']} below {threshold}"
    return None


def _exact(row, value):
    want = str(value)
    if row["lhs_log"] != want or row["rhs_log"] != want:
        return f"expected {want} on both sides, got {row['lhs_log']} / {row['rhs_log']}"
    return None


def _expected(argv):
    """(check name, expected exact value or certificate kind) for each row."""
    cmd, f = argv[0], _flags(argv)
    if cmd == "class":
        d = int(f["--d"])
        return [(f"class-number d={d}", _h(d))]
    if cmd == "verify-cs":
        return [(f"chowla-selberg d={f['--d']}", None)]
    if cmd == "faltings":
        return [(f"faltings-height p={f['--p']}", None)]
    if cmd == "periods":
        return [(f"period-product p={f['--p']}", None)]
    if cmd == "kronecker":
        return [(f"kronecker-limit d={f['--d']} class={f['--class']}", None)]
    if cmd == "hecke":
        p = int(f["--p"])
        a = int(f["--form"].split(",")[0])
        return [(f"hecke-psi p={p} form={f['--form']} ", a ** _h(p))]
    if cmd == "fermat":
        p = int(f["--p"])
        r, s, t = (int(x) for x in f["--rst"].split(","))
        eps = legendre(r, p) + legendre(s, p) + legendre(t, p)
        tag = f"p={p} rst={f['--rst']}"
        return [(f"cm-type-size {tag}", (p - 1) // 2),
                (f"cm-type-balance {tag}", _h(p) * eps),
                (f"tate-twist {tag}", "rational" if eps == 1 else "sqrtp")]
    if cmd == "suite":
        m = int(f["--max-d"])
        ds = [d for d in range(3, m + 1) if is_fundamental(d)]
        ps = [d for d in ds if is_prime_3mod4(d)]
        rows = [(f"class-number-sweep 3<=d<={m}", len(ds)),
                (f"m-invariant-sweep p<={m}", len(ps))]
        return rows + [(f"chowla-selberg d={d}", None) for d in ds]
    raise ValueError(f"no expectation for {cmd}")


def check_response(argv, rc, out) -> tuple[str | None, list[dict]]:
    """(error or None, the report rows) for one response."""
    if rc != 0:
        return f"exit code {rc}", []
    try:
        rows = json.loads(out)
    except ValueError:
        return "output is not JSON", []
    if not isinstance(rows, list):
        return "output is not a JSON array", []
    tier = int(_flags(argv)["--prec"])
    expected = _expected(argv)
    if argv[0] == "suite":
        # the battery appends period-product and Faltings rows at primes
        # p = 3 mod 4 of its own choosing; each is checked numerically
        for row in rows[len(expected):]:
            m = _SUITE_EXTRA.fullmatch(str(row.get("check")) if isinstance(row, dict) else "")
            if not m or not is_prime_3mod4(int(m.group(1))):
                return f"unexpected suite row {row!r:.80}", []
            expected.append((m.group(0), None))
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}", []
    for row, (prefix, want) in zip(rows, expected):
        if not isinstance(row, dict) or set(row) != KEYS:
            return f"row keys {sorted(row) if isinstance(row, dict) else row!r}", []
        if row["pass"] is not True:
            return f"{row['check']}: pass is {row['pass']!r}", []
        # a name ending in a space is a prefix (hecke appends beta), else exact
        name_ok = (row["check"].startswith(prefix) if prefix.endswith(" ")
                   else row["check"] == prefix)
        if not name_ok:
            return f"check {row['check']!r}, expected {prefix!r}", []
        if row["check"].startswith(NUMERIC):
            err = _numeric_row(row, tier, want)
        elif row["check"].startswith("hecke-psi"):
            err = _exact(row, want) or _hecke_beta(row, want)
        else:
            err = _exact(row, want)
        if err:
            return f"{row['check']}: {err}", []
    return None, rows


def _hecke_beta(row, norm):
    """beta = (x + y sqrt(-p))/2 must have norm (x^2 + p y^2)/4 = a^h."""
    m = _BETA.search(row["check"])
    p = int(row["inputs"]["p"])
    if not m:
        return "no beta in the check name"
    x, y = int(m.group(1)), int(m.group(2))
    if Fraction(x * x + p * y * y, 4) != norm:
        return f"N(beta) = {Fraction(x * x + p * y * y, 4)}, expected {norm}"
    return None
