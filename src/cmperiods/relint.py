"""Recognition of numerical constants as exact quantities.

Rational recognition is sound and complete inside its window: a best
rational approximation with denominator <= max_den lying within
1/(2*max_den^2) of x is the only such candidate, so a hit is a proof
sketch and a miss is a certificate of absence at that height.  Both
need x known to within that window, so a larger |x| raises
PrecisionError.  Integer relations use the PSLQ algorithm with the
standard norm bound for negative certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from mpmath import mp

from .arith import is_prime
from .errors import DomainError, PrecisionError
from .numkernel import PrecisionContext, error_digits, to_mpf


@dataclass(frozen=True)
class Relation:
    """Integer coefficients with sum(c_i * x_i) = residual ~ 0."""

    coeffs: tuple
    residual: Any


def _mpf_to_fraction(x) -> Fraction:
    if not mp.isfinite(x):
        raise DomainError("cannot recognize a non-finite value")
    sign, man, exp, _ = x._mpf_
    m = -man if sign else man
    if exp >= 0:
        return Fraction(m << exp)
    return Fraction(m, 1 << -exp)


def recognize_rational(x, max_den: int, ctx: PrecisionContext):
    """The unique fraction with denominator <= max_den within 1/(2 max_den^2), or None."""
    max_den = int(max_den)
    if max_den < 1:
        raise DomainError("max_den must be a positive integer")
    needed = 2 * len(str(max_den)) + 10
    if ctx.working_digits < needed:
        raise PrecisionError(
            f"rational recognition at max_den={max_den} needs >= {needed} digits",
            achieved_digits=ctx.working_digits)
    with ctx.workprec():
        xv = to_mpf(x)
        q = _mpf_to_fraction(xv).limit_denominator(max_den)
        window = mp.mpf(1) / (2 * max_den * max_den)
        # x carries working digits relative to its size; a hit is a proof
        # only when its absolute error is below the window
        ulp = mp.mpf(10) ** -ctx.working_digits
        if abs(xv) * ulp >= window:
            raise PrecisionError(
                f"rational recognition at max_den={max_den} needs |x| below "
                f"{mp.nstr(window / ulp, 3)}", achieved_digits=error_digits(abs(xv) * ulp))
        if abs(xv - mp.mpf(q.numerator) / q.denominator) < window:
            return q
        return None


def recognize_sqrtp(x, p: int, max_den: int, ctx: PrecisionContext):
    """Fraction q with x = q * sqrt(p) for prime p, or None."""
    if p <= 0 or not is_prime(p):
        raise DomainError("p must be prime")
    with ctx.workprec():
        return recognize_rational(to_mpf(x) / mp.sqrt(p), max_den, ctx)


def pslq(xs, max_coeff: int, ctx: PrecisionContext):
    """Search for integers c with sum(c_i xs_i) = 0 and max |c_i| <= max_coeff.

    Returns a Relation, or None once the PSLQ norm bound 1/max|H_jj|
    exceeds max_coeff (no relation that small exists).  PrecisionError if
    the iteration budget runs out first.
    """
    n = len(xs)
    if n < 2:
        raise DomainError("pslq needs at least two values")
    max_coeff = int(max_coeff)
    if max_coeff < 1:
        raise DomainError("max_coeff must be a positive integer")
    wd = ctx.working_digits
    with ctx.workprec():
        x = [to_mpf(v) for v in xs]
        for i, v in enumerate(x):
            if v == 0:
                coeffs = [0] * n
                coeffs[i] = 1
                return Relation(tuple(coeffs), mp.mpf(0))
        mx = max(abs(v) for v in x)
        gamma = mp.sqrt(mp.mpf(4) / 3) * (1 + mp.mpf(1) / 100)
        eps = mp.mpf(10) ** (-(wd - 12))

        s = [mp.mpf(0)] * n
        acc = mp.mpf(0)
        for k in range(n - 1, -1, -1):
            acc += x[k] * x[k]
            s[k] = mp.sqrt(acc)
        norm = s[0]
        y = [v / norm for v in x]
        s = [v / norm for v in s]
        H = [[mp.mpf(0)] * (n - 1) for _ in range(n)]
        for j in range(n - 1):
            H[j][j] = s[j + 1] / s[j]
            for i in range(j + 1, n):
                H[i][j] = -y[i] * y[j] / (s[j] * s[j + 1])
        B = [[int(i == j) for j in range(n)] for i in range(n)]

        def reduce_rows(start):
            for i in range(start, n):
                for j in range(min(i - 1, n - 2), -1, -1):
                    if H[j][j] == 0:
                        continue
                    q = int(mp.nint(H[i][j] / H[j][j]))
                    if q == 0:
                        continue
                    y[j] += q * y[i]
                    for k in range(j + 1):
                        H[i][k] -= q * H[j][k]
                    for k in range(n):
                        B[k][j] += q * B[k][i]

        def found(idx):
            coeffs = tuple(B[k][idx] for k in range(n))
            if not any(coeffs):
                return None
            if max(abs(c) for c in coeffs) > max_coeff:
                return None
            residual = mp.fsum(c * v for c, v in zip(coeffs, x))
            return Relation(coeffs, residual)

        reduce_rows(1)
        cap = 300 * n * n + 40 * n * wd
        for _ in range(cap):
            ymin, imin = min((abs(v), i) for i, v in enumerate(y))
            if ymin < eps:
                return found(imin)
            hmax = max(abs(H[j][j]) for j in range(n - 1))
            if hmax > 0 and 1 / hmax > max_coeff:
                return None
            m = max(range(n - 1), key=lambda j: gamma ** j * abs(H[j][j]))
            y[m], y[m + 1] = y[m + 1], y[m]
            H[m], H[m + 1] = H[m + 1], H[m]
            for k in range(n):
                B[k][m], B[k][m + 1] = B[k][m + 1], B[k][m]
            if m < n - 2:
                h0, h1 = H[m][m], H[m][m + 1]
                hyp = mp.sqrt(h0 * h0 + h1 * h1)
                if hyp != 0:
                    c, r = h0 / hyp, h1 / hyp
                    for i in range(m, n):
                        a0, a1 = H[i][m], H[i][m + 1]
                        H[i][m] = c * a0 + r * a1
                        H[i][m + 1] = c * a1 - r * a0
            reduce_rows(m + 1)
    raise PrecisionError("pslq exhausted its iteration budget",
                         achieved_digits=wd)
