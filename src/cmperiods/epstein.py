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

Nearly all the time goes into E1, by the power series below x = 40 and
the Legendre continued fraction (modified Lentz) above.  ``_upper_gamma``
evaluates G(s, x) for any real s, with a downward recurrence for
s <= -1/2; the jet takes it at s = 0 only.  Both loops run
in fixed point, on Python integers scaled by 2^(prec + 20) as in
``numkernel``, with no mpf normalization per step; the result becomes an
mpf once, where the loop ends.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, isqrt, log10

from mpmath import mp
from mpmath.libmp import to_rational

from .errors import PrecisionError
from .lseries import SZeroJet
from .numkernel import _GUARD_BITS, PrecisionContext, error_digits, log_gamma
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


def _gamma_at(s):
    """Gamma(s) at ambient precision, real s not a nonpositive integer.

    The mpf s is a dyadic rational; log_gamma takes it as that exact
    Fraction, shifted above 1/2 first.
    """
    ctx = PrecisionContext(target_digits=mp.dps, guard_digits=10)
    x = Fraction(*to_rational(s._mpf_))
    if x > Fraction(1, 2):
        return mp.exp(log_gamma(x, ctx))
    k = ceil(Fraction(3, 2) - x)
    den = mp.mpf(1)
    for j in range(k):
        den *= s + j
    return mp.exp(log_gamma(x + k, ctx)) / den


def _upper_gamma_cf(s, x, expmx):
    """Lentz evaluation of the Legendre continued fraction, large x.

    The loop runs on integers scaled by 2^wp, wp = prec + _GUARD_BITS:
    the partial numerators a_j = -j (j - s) and denominators
    b_j = x + 2j + 1 - s, the Lentz pair (c, d) and the product f.
    """
    dps = mp.dps
    with mp.workdps(dps + 10):
        wp = mp.prec + _GUARD_BITS
        one = 1 << wp
        sf, xf = int(mp.ldexp(s, wp)), int(mp.ldexp(x, wp))
        tol = int(mp.ldexp(mp.mpf(10) ** (-(dps + 6)), wp))
        # a zero divisor becomes the smallest nonzero value, one unit
        f = xf + one - sf or 1
        c = f
        d = 0
        for j in range(1, _CF_CAP):
            aj = -j * (j * one - sf)
            bj = xf + (2 * j + 1) * one - sf
            d = (one * one) // (bj + (aj * d >> wp) or 1)
            c = bj + (aj << wp) // c or 1
            delta = c * d >> wp
            f = f * delta >> wp
            if abs(delta - one) < tol:
                return mp.exp(s * mp.log(x)) * expmx / mp.mpf((f, -wp))
        achieved = error_digits(mp.mpf((abs(delta - one), -wp)))
    raise PrecisionError("incomplete gamma continued fraction stalled",
                         achieved_digits=achieved)


def _upper_gamma_series(s, x):
    """Gamma(s, x) = [Gamma(s) - x^s/s] - x^s sum_{k>=1} (-x)^k/(k! (s+k)).

    The partial sums swing up to e^x while the result is ~e^(-x), so the
    sum runs with about 2*x*log10(e) extra digits; a further guard covers
    the head cancellation when s is close to 0.  The term and the sum are
    integers scaled by 2^wp, wp = prec + _GUARD_BITS.
    """
    dps = mp.dps
    cancel = int(2 * float(x) * _LOG10E) + 12
    small_s = s != 0 and abs(s) < mp.mpf(3) / 4
    if small_s:
        cancel += max(0, int(-mp.log10(abs(s)))) + 5
    with mp.workdps(dps + cancel):
        if s == 0:
            head = -mp.euler - mp.log(x)
        elif small_s:
            head = (_gamma_at(s + 1) - mp.exp(s * mp.log(x))) / s
        else:
            head = _gamma_at(s) - mp.exp(s * mp.log(x)) / s
        wp = mp.prec + _GUARD_BITS
        floor = int(mp.ldexp(mp.mpf(10) ** (-(dps + cancel)), wp))
        sf, xf = int(mp.ldexp(s, wp)), int(mp.ldexp(x, wp))
        term = 1 << wp
        total = 0
        xlim = float(x)
        for k in range(1, _SERIES_CAP):
            term = -(term * xf >> wp) // k
            total += term // k if s == 0 else (term << wp) // (sf + (k << wp))
            if k > xlim and abs(term) * k < floor:
                return head - mp.exp(s * mp.log(x)) * mp.mpf((total, -wp))
        # floor sits cancel digits below the dps the result is due
        achieved = max(0, error_digits(mp.mpf((abs(term) * k, -wp))) - cancel)
    raise PrecisionError("incomplete gamma series did not converge",
                         achieved_digits=achieved)


def _upper_gamma(s, x, expmx):
    """Upper incomplete Gamma(s, x) for real s and x > 0 at ambient precision."""
    if x >= _CF_MIN_X and x >= 2 * abs(s):
        return _upper_gamma_cf(s, x, expmx)
    if s <= mp.mpf(-1) / 2:
        if mp.isint(s):
            k, top = int(-s), mp.mpf(0)
        else:
            k = int(mp.ceil(mp.mpf(1) / 2 - s))
            top = s + k
        # each step cancels ~log10(x / |t - 1|) digits when x dominates t
        lost = sum(max(0.0, log10(float(x) / abs(float(top) - 1 - j)))
                   for j in range(k))
        with mp.workdps(mp.dps + 12 + int(lost)):
            em = mp.exp(-x)
            g = _upper_gamma(top, x, em)
            lx = mp.log(x)
            for j in range(k):
                t = top - j
                g = (g - mp.exp((t - 1) * lx) * em) / (t - 1)
        return +g
    return _upper_gamma_series(s, x)


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
                t = counts[n] * (_upper_gamma(0, x, expmx) + expmx / x)
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
