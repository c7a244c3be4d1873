"""Epstein zeta functions of positive definite binary quadratic forms.

Z_Q(s) = sum over nonzero (x, y) in Z^2 of Q(x, y)^(-s).

Only the jet at s = 0 is computed, the value and derivative that
Kronecker's limit formula ties to the discriminant.  It comes from
splitting the Mellin integral of the theta series at the
Poisson-symmetric point t0 = 2*pi/sqrt(d):

    Gamma(s) Z_Q(s) = sum_{n>=1} r(n) [ n^(-s) G(s, n*t0)
                      + t0^(2s-1) n^(s-1) G(1-s, n*t0) ]
                      + t0^s (1/(s-1) - 1/s),

where r(n) = #{(x, y) != 0 : Q(x, y) = n} and G is the upper incomplete
gamma function.  The dual form (c, -b, a) produced by the modular flip
represents the same integers as Q via (x, y) -> (y, -x), so one count
array serves both sums.  At s = 0 the split gives Z_Q(0) = -1, and
Z_Q'(0) is one series in E1(n*t0) = G(0, n*t0) plus elementary terms,
decaying like e^(-n*t0).

Nearly all the time goes into E1, which ``_e1`` evaluates by the power
series below x = 40 and the Legendre continued fraction above; no other
incomplete gamma is computed.  The fraction's depth is known before it
runs, from the Gauss-Laguerre bound on its truncation error, so it is
evaluated once, backward.  Both loops run in fixed point, on Python
integers scaled by 2^(prec + 20) as in ``numkernel``, with no mpf
normalization per step; the result becomes an mpf once, where the loop
ends.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, log, log1p

from mpmath import mp

from .errors import PrecisionError
from .lseries import SZeroJet
from .numkernel import _GUARD_BITS, _LN10, PrecisionContext, error_digits
from .quadforms import QuadForm

_LOG10E = 0.4342944819032518
_CF_MIN_X = 40.0
_SERIES_CAP = 300000
_CF_CAP = 300000


def theta_counts(f: QuadForm, limit: int) -> list[int]:
    """Representation counts r(n) = #{(x, y) != (0, 0) : Q(x, y) = n} for n <= limit."""
    a, b, c = f.a, f.b, f.c
    d = -f.disc
    counts = [0] * (limit + 1)
    x = 1
    while a * x * x <= limit:
        counts[a * x * x] += 2
        x += 1
    y = 1
    while d * y * y <= 4 * a * limit:
        r = isqrt(4 * a * limit - d * y * y)
        lo = -((b * y + r) // (2 * a))
        hi = (r - b * y) // (2 * a)
        for x in range(lo, hi + 1):
            q = (a * x + b * y) * x + c * y * y
            if q <= limit:
                counts[q] += 2
        y += 1
    return counts


def _e1_cf(x, expmx):
    """E1(x) by the Legendre continued fraction, large x, in one backward pass.

    e^x E1(x) = 1/(b_0 + a_1/(b_1 + a_2/(b_2 + ...))) with a_j = -j^2 and
    b_j = x + 2j + 1.  The convergent with n denominators is the n-point
    Gauss-Laguerre rule for the integral of e^-t/(x + t) over t > 0, so its
    relative error is at most (x + 1)/(x L_n(-x)^2) (Gauss remainder, DLMF
    3.5(v); Laguerre recurrence, DLMF 18.9).  The least n that brings it
    below 10^-(dps+6), six digits past those due and four inside the
    dps + 10 the loop carries, is found first, in floats, growing
    log L_n(-x) by the ratio rho = L_n/L_(n-1); the fraction then runs
    once, from b_(n-1) back to b_0, on integers scaled by 2^wp,
    wp = prec + _GUARD_BITS.
    """
    dps = mp.dps
    xv = float(x)
    need = (dps + 6) * _LN10 + log1p(1 / xv)
    n, rho, log_l = 1, 1 + xv, log1p(xv)
    while 2 * log_l < need and n < _CF_CAP:
        rho = (2 * n + 1 + xv - n / rho) / (n + 1)
        n += 1
        log_l += log(rho)
    if 2 * log_l < need:
        # the digits the bound proves at the cap
        achieved = int((2 * log_l - log1p(1 / xv)) / _LN10)
        raise PrecisionError("incomplete gamma continued fraction stalled",
                             achieved_digits=achieved)
    with mp.workdps(dps + 10):
        wp = mp.prec + _GUARD_BITS
        one = 1 << wp
        xf = int(mp.ldexp(x, wp))
        tail = 0
        for j in range(n - 1, 0, -1):
            tail = (-j * j << 2 * wp) // (xf + (2 * j + 1) * one + tail)
        return +expmx / mp.mpf((xf + one + tail, -wp))


def _e1_series(x):
    """E1(x) = -gamma - log(x) - sum_{k>=1} (-x)^k/(k! k).

    The partial sums swing up to e^x while the result is ~e^(-x), so the
    sum runs with about 2*x*log10(e) + 12 extra digits.  The term and the
    sum are integers scaled by 2^wp, wp = prec + _GUARD_BITS.
    """
    dps = mp.dps
    cancel = int(2 * float(x) * _LOG10E) + 12
    with mp.workdps(dps + cancel):
        head = -mp.euler - mp.log(x)
        wp = mp.prec + _GUARD_BITS
        floor = int(mp.ldexp(mp.mpf(10) ** (-(dps + cancel)), wp))
        xf = int(mp.ldexp(x, wp))
        term = 1 << wp
        total = 0
        xlim = float(x)
        for k in range(1, _SERIES_CAP):
            term = -(term * xf >> wp) // k
            total += term // k
            if k > xlim and abs(term) * k < floor:
                return head - mp.mpf((total, -wp))
        # floor sits cancel digits below the dps the result is due
        achieved = max(0, error_digits(mp.mpf((abs(term) * k, -wp))) - cancel)
    raise PrecisionError("incomplete gamma series did not converge",
                         achieved_digits=achieved)


def _e1(x, expmx):
    """E1(x) = Gamma(0, x) for x > 0 at ambient precision, given expmx = e^-x."""
    return _e1_cf(x, expmx) if x >= _CF_MIN_X else _e1_series(x)


def _theta_sum(f: QuadForm, t0):
    """sum_{n>=1} r(n) [E1(n*t0) + e^(-n*t0)/(n*t0)] at ambient precision.

    Each term runs at a precision reduced by its e^(-n*t0) weight.  The
    sum stops once that weight is below 10^-(dps+12).
    """
    wp = mp.dps
    t0f = float(t0)
    limit = int((wp + 12) * 2.302586 / t0f) + 4
    counts = theta_counts(f, limit)
    e1 = mp.exp(-t0)
    expmx = mp.mpf(1)
    total = mp.mpf(0)
    for n in range(1, limit + 1):
        expmx *= e1
        if counts[n]:
            with mp.workdps(max(25, wp + 12 - int(n * t0f * _LOG10E))):
                x = n * t0
                t = counts[n] * (_e1(x, expmx) + expmx / x)
            total += t
    return total


def epstein_jet(f: QuadForm, ctx: PrecisionContext) -> SZeroJet:
    """Jet (Z_Q(0), Z_Q'(0)) in closed form.

    At s = 0 the continuation reads Gamma(s) Z_Q(s) = -1/s + C + O(s), and
    1/Gamma(s) = s + gamma*s^2 + O(s^3), so Z_Q(0) = -1 exactly and

        Z_Q'(0) = C - gamma = sum_{n>=1} r(n) [E1(n*t0) + e^(-n*t0)/(n*t0)]
                  - 1 - log(t0) - gamma,

    with E1 = Gamma(0, .) and t0 = 2*pi/sqrt(d).  The sum runs at
    working + 10 digits.
    """
    with mp.workdps(ctx.working_digits + 10):
        t0 = 2 * mp.pi / mp.sqrt(-f.disc)
        total = _theta_sum(f, t0)
        deriv = total - 1 - mp.log(t0) - mp.euler
    with ctx.workprec():
        return SZeroJet(value=mp.mpf(-1), deriv=+deriv, value_exact=Fraction(-1))
