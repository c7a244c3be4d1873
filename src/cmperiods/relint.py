"""Recognition of numerical constants as exact quantities.

Rational recognition is complete inside its window: a best rational
approximation with denominator <= max_den lying within 1/(2*max_den^2)
of x is the only such candidate, so a miss is a certificate of absence
at that height.  A hit is a proof only when the true value is known to
have height at most max_den: a value of greater height can lie inside
the window of a smaller fraction.  The Fermat Tate ratio of p = 163,
rst 41,86,36, 89 digits over 63, agrees to 50 digits with a fraction
of 39 digits over 12, which max_den = 10^12 accepts at 60 digits.  Hit
and miss alike need x known to within that window, so a larger |x|
raises PrecisionError.  A value of the form q*sqrt(p) is divided by
sqrt(p) and recognized the same way.  No integer-relation search (PSLQ)
is shipped: every check knows the exact shape of the value it expects,
and only the ``recognize`` command reads a value back; the Fermat
certificates compare with their closed form.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from .arith import is_prime
from .errors import DomainError, PrecisionError
from .numkernel import PrecisionContext, error_digits, to_mpf


def _mpf_to_fraction(x) -> Fraction:
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
        if not mp.isfinite(xv):
            raise DomainError("cannot recognize a non-finite value")
        window = mp.mpf(1) / (2 * max_den * max_den)
        # x carries working digits relative to its size; a hit is a proof
        # only when its absolute error is below the window
        ulp = mp.mpf(10) ** -ctx.working_digits
        if abs(xv) * ulp >= window:
            raise PrecisionError(
                f"rational recognition at max_den={max_den} needs |x| below "
                f"{mp.nstr(window / ulp, 3)}", achieved_digits=error_digits(abs(xv) * ulp))
        # below 1/(2 max_den) no fraction but 0 is as near as 0 is: decided
        # from the mpf, since the exact Fraction of a tiny x has a
        # denominator of 2^|exponent|
        if abs(xv) * (2 * max_den) < 1:
            return Fraction(0) if abs(xv) < window else None
        q = _mpf_to_fraction(xv).limit_denominator(max_den)
        if abs(xv - mp.mpf(q.numerator) / q.denominator) < window:
            return q
        return None


def recognize_sqrtp(x, p: int, max_den: int, ctx: PrecisionContext):
    """Fraction q with x = q * sqrt(p) for prime p, or None."""
    if p <= 0 or not is_prime(p):
        raise DomainError("p must be prime")
    with ctx.workprec():
        return recognize_rational(to_mpf(x) / mp.sqrt(p), max_den, ctx)
