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

The sum is formed in one pass (``_theta_sums``), on integers scaled by
2^W, where 2^-W is 10^-(dps+12) less _GUARD_BITS, with no mpf per
term.  Below a switch N, E1(x) + e^-x/x is its power series (DLMF
6.6.2 with that of e^-x):

    -gamma - 1 - log x + 1/x + sum_{k>=1} (-1)^(k+1) (2k+1)/(k (k+1)!) x^k,

so the terms n <= N make four pieces per count array: R (-gamma - 1 -
log t0) with R = sum r(n); -log prod n^r(n), one log of an exact
integer; (1/t0) sum r(n)/n, an exact rational; and one integer Horner
sum of C_k M_k / N^k over the denominator N^K, with C_k = a_k (N t0)^k
scaled by 2^S and the exact moments M_k = sum r(n) n^k, as
``lseries.character_gamma_sum`` sums its odd moments.  Above N each term
is the Legendre continued fraction for e^x E1(x), at the precision its
e^-x weight leaves it, to a depth the Gauss-Laguerre bound proves before
it runs, once, backward; e^-x is carried from n to n + 1 by one integer
multiplication.  N, K and both scales depend on d and the precision
alone, so ``epstein_jets`` sums every class of d in one pass, each
fraction run once and weighted by each class's count.  N is where a
fraction's denominators come to cost more than the moment steps the
series takes for one more n, both counted before either loop runs.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from heapq import merge
from itertools import accumulate, repeat
from math import ceil, exp, isqrt, lgamma, log, log1p, log2, pi, prod, sqrt
from operator import add, mul

from mpmath import mp
from mpmath.libmp import from_man_exp

from .errors import PrecisionError
from .lseries import SZeroJet
from .numkernel import _GUARD_BITS, _LN10, _LOG10_2, PrecisionContext, ln
from .quadforms import QuadForm

_LOG2E = 1.4426950408889634
_LN2 = 0.6931471805599453
_CF_CAP = 300000
# the cost of one continued-fraction denominator on the scale 2^b against
# (1 + b/64)^2 moment steps on one 64-bit word: fitted to the fastest
# switch measured for d = 7, 23 and 71 at 60 to 1000 digits, where any
# value from 1.0 to 2.0 keeps N inside its flat optimum
_CF_STEP_COST = 1.3


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


def _represented(counts):
    """The n with counts[n] > 0, by increasing n, and those counts: one row of ``_theta_sums``."""
    ns = [n for n, r in enumerate(counts) if r]
    return ns, [counts[n] for n in ns]


def _cf_depth(x, bits):
    """Denominators of the Legendre fraction that give e^x E1(x) to 2^-bits, relative.

    e^x E1(x) = 1/(b_0 + a_1/(b_1 + a_2/(b_2 + ...))) with a_j = -j^2 and
    b_j = x + 2j + 1.  The convergent with n denominators is the n-point
    Gauss-Laguerre rule for the integral of e^-t/(x + t) over t > 0, so its
    relative error is at most (x + 1)/(x L_n(-x)^2) (Gauss remainder, DLMF
    3.5(v); Laguerre recurrence, DLMF 18.9).  The least n that brings it
    below 2^-bits is found in floats, growing L_n(-x) by the ratio
    rho = L_n/L_(n-1) as a product, which is folded into its log each
    time it passes e^200.
    """
    half = (bits * _LN2 + log1p(1 / x)) / 2  # log L_n(-x) must reach it
    n, rho, log_l, grown = 1, 1 + x, 0.0, 1 + x
    while log_l + log(grown) < half and n < _CF_CAP:
        log_l += log(grown)
        goal, grown = exp(min(half - log_l, 200.0)), 1.0
        while grown < goal and n < _CF_CAP:
            rho = (2 * n + 1 + x - n / rho) / (n + 1)
            n += 1
            grown *= rho
    if log_l + log(grown) < half:
        # the digits the bound proves at the cap
        achieved = int((2 * (log_l + log(grown)) - log1p(1 / x)) / _LN10)
        raise PrecisionError("incomplete gamma continued fraction stalled",
                             achieved_digits=achieved)
    return n


def _e1_cf(xf, bits, depth):
    """e^x E1(x) + 1/x on the scale 2^-bits, from x = xf 2^-bits, x > 0.

    The fraction of ``_cf_depth`` with depth denominators runs once,
    from b_(depth-1) back to b_0, one integer division a step.
    """
    one = 1 << bits
    tail = 0
    for j in range(depth - 1, 0, -1):
        tail = (-j * j << 2 * bits) // (xf + (2 * j + 1) * one + tail)
    return (one << bits) // (xf + one + tail) + (one << bits) // xf


def _series_terms(x, bits):
    """Terms K of sum a_k x^k, |a_k| = (2k+1)/(k (k+1)!), that leave a tail below 2^-bits.

    |a_k| x^k <= 3 x^k/(k+1)!, whose ratio from k to k + 1 is below 1/2
    for k >= 2x: K is the least such k whose next bound is below
    2^-(bits+1), found by bisection on lgamma.
    """
    def small(k):
        return (k + 1) * log(x) - lgamma(k + 3) + log(6) < -(bits + 1) * _LN2

    lo, hi = ceil(2 * x), ceil(2 * x) + 1
    while not small(hi):
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if small(mid) else (mid + 1, hi)
    return lo


def _switch(t0, w, limit):
    """The last n <= limit whose term the series takes, t0 a float.

    Costs are counted in moment steps on one 64-bit word.  A term n > N
    costs its fraction's depth denominators on the scale 2^b of
    ``_term_bits``, (1 + b/64)^2 steps times _CF_STEP_COST each; the
    series over n <= N costs N K(N t0) moment steps on integers of
    K log2(N)/2 bits on average.  The first dwindles with n and what one
    more n adds to the second grows, so N is the last n where the fraction
    costs more, found by bisection.
    """
    def series_cost(n):
        if not n:
            return 0
        k = _series_terms(n * t0, w)
        return n * k * (1 + k * log2(n) / 128)

    def fraction_dearer(n):
        x = n * t0
        bits = _term_bits(x, w)
        steps = _cf_depth(x, bits - _GUARD_BITS)
        return _CF_STEP_COST * steps * (1 + bits / 64) ** 2 > series_cost(n) - series_cost(n - 1)

    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if fraction_dearer(mid) else (lo, mid - 1)
    return lo


def _scale_bits(dps):
    """W, the bits of the scale 2^-W of the sums at dps digits: 10^-(dps+12) less _GUARD_BITS."""
    return int((dps + 12) / _LOG10_2) + 1 + _GUARD_BITS


def _term_bits(x, w):
    """Bits of the scale a fraction term at x runs on: its e^-x weight leaves 2^-w."""
    return max(_GUARD_BITS, w - int(x * _LOG2E)) + _GUARD_BITS


def _theta_sums(rows, d, limit):
    """sum_n r(n) [E1(n t0) + e^(-n t0)/(n t0)] for each row of rows.

    t0 = 2 pi/sqrt(d), d > 0 real; a row is a pair of lists, the n with
    r(n) > 0 by increasing n, 0 < n <= limit, and their r(n).
    Each sum is an mpf exact on the scale 2^-W of ``_scale_bits`` at the
    ambient dps, within a few units of it per unit of count.  The terms
    n <= N are the series' four pieces on the scale 2^-S, S = W + the bits
    of 8 K N, with K terms that leave each n a tail below 2^-(W+64): the
    table's K roundings of half a unit reach M_k/N^k <= R each, and
    R < 16 N for a reduced form, which has fewer than
    (2 sqrt(4N/3) + 1)^2 points with Q <= N.  C_k = a_k X^k, X = N t0, is
    carried as X^k/(k+1)! on the scale 2^-P, P = S + X log2(e) and the
    bits of K N: its floors and those of t0 grow by at most e^X.  The
    terms n > N are fractions on the scale 2^-(b + _GUARD_BITS) of
    ``_term_bits``, to the depth that proves 2^-b, times e^(-n t0) on the
    scale 2^-E, E = W + the bits of the limit, carried by one product
    per n from e^(-N t0).
    """
    w = _scale_bits(mp.dps)
    t0f = 2 * pi / sqrt(d)
    top = _switch(t0f, w, limit)
    x_top = top * t0f
    k_terms = _series_terms(x_top, w + 64) if top else 0
    s = w + (8 * k_terms * top).bit_length()
    e = w + limit.bit_length()
    p = max(s + int(x_top * _LOG2E) + (k_terms * top).bit_length() + 8,
            w + 2 * _GUARD_BITS + limit.bit_length())
    with mp.workprec(p + 10):
        t0 = 2 * mp.pi / mp.sqrt(d)
        t0i = int(mp.ldexp(t0, p))
        head = int(mp.ldexp(-mp.euler - 1 - ln(t0), s))
        inv_t0 = int(mp.ldexp(1 / t0, s))
        carry = int(mp.ldexp(mp.exp(-top * t0), e))
        step = int(mp.ldexp(mp.exp(-t0), e))
    # C_k = (-1)^(k+1) (2k+1)/k X^k/(k+1)! on the scale 2^-s
    table, u, xi = [], 1 << p, top * t0i
    for k in range(1, k_terms + 1):
        u = (u * xi >> p) // (k + 1)
        c = (2 * k + 1) * u // k >> (p - s)
        table.append(c if k % 2 else -c)
    sums, tails = [], []
    for i, (ns, rs) in enumerate(rows):
        cut = bisect_right(ns, top)
        tails.append(zip(ns[cut:], repeat(i), rs[cut:]))
        ns, rs = ns[:cut], rs[:cut]
        moments = [0] * k_terms  # M_k = sum r(n) n^k, k = 1..K
        for n, r in zip(ns, rs):
            moments = list(map(add, moments, accumulate(repeat(n, k_terms - 1), mul,
                                                         initial=r * n)))
        series = 0
        for c, m in zip(table, moments):
            series = series * top + c * m
        inverse = sum(map(Fraction, rs, ns), Fraction())
        with mp.workprec(s + 10):
            logs = int(mp.ldexp(ln(prod(map(pow, ns, rs))), s))
        acc = (sum(rs) * head - logs + inverse.numerator * inv_t0 // inverse.denominator
               + series // top ** k_terms)
        sums.append(acc >> (s - w))
    at = top  # the n that carry and term are at
    for n, i, r in merge(*tails):  # the terms n > N of every row, by increasing n
        if n > at:
            for _ in range(n - at):
                carry = carry * step >> e
            at, x = n, n * t0f
            bits = _term_bits(x, w)
            value = _e1_cf(n * t0i >> (p - bits), bits, _cf_depth(x, bits - _GUARD_BITS))
            term = carry * value >> (e + bits - w)
        sums[i] += r * term
    return [mp.make_mpf(from_man_exp(acc, -w)) for acc in sums]


def epstein_jets(forms, ctx: PrecisionContext) -> list[SZeroJet]:
    """Jets (Z_Q(0), Z_Q'(0)) in closed form, one per form, all of one discriminant.

    At s = 0 the continuation reads Gamma(s) Z_Q(s) = -1/s + C + O(s), and
    1/Gamma(s) = s + gamma*s^2 + O(s^3), so Z_Q(0) = -1 exactly and

        Z_Q'(0) = C - gamma = sum_{n>=1} r(n) [E1(n*t0) + e^(-n*t0)/(n*t0)]
                  - 1 - log(t0) - gamma,

    with E1 = Gamma(0, .) and t0 = 2*pi/sqrt(d).  The sums run at
    working + 10 digits, in one pass over n for all the forms.
    """
    d = -forms[0].disc
    with mp.workdps(ctx.working_digits + 10):
        t0 = 2 * mp.pi / mp.sqrt(d)
        limit = int((mp.dps + 12) * _LN10 / float(t0)) + 4
        totals = _theta_sums([_represented(theta_counts(f, limit)) for f in forms], d, limit)
        derivs = [total - 1 - ln(t0) - mp.euler for total in totals]
    with ctx.workprec():
        return [SZeroJet(value=mp.mpf(-1), deriv=+deriv, value_exact=Fraction(-1))
                for deriv in derivs]


def epstein_jet(f: QuadForm, ctx: PrecisionContext) -> SZeroJet:
    """The jet of ``epstein_jets`` for the one form f."""
    return epstein_jets([f], ctx)[0]
