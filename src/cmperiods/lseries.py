"""The jet at s = 0 of L(epsilon, s), and the sum of eps(a) log Gamma(a/d) it rests on.

Values come from Lerch's constant term H(x, 0) = 1/2 - x, exactly in
rational arithmetic; derivatives from H_s'(x, 0) = log(Gamma(x)/sqrt(2*pi)).
``character_gamma_sum``, sum eps(a) log Gamma(a/d), is the Gamma side
of every Chowla-Selberg-type identity in the package.  eps is odd, so
Euler's reflection formula pairs a with d - a: the full sum takes
phi(d)/2 log-Gamma values at a/d < 1/2, plus the sines sin(pi a/d) read
off the powers of one root of unity.  Those values come from one pass
with one Stirling shift N for every a: log Gamma(N + a/d) as one Taylor
series about N, kept per precision and summed against the exact moments
sum eps(a) a^m, the exact shift products and the sines in one mpf per
sign, and three mpf logs per sum, at working + 10 digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import Any

from mpmath import mp

from .errors import DomainError
from .numkernel import (_GUARD_BITS, _TAYLOR_GUARD_BITS, PrecisionContext,
                        _log_gamma_taylor, _shift_product, log_gamma, to_mpf)
from .quadforms import Discriminant, class_number_dirichlet


@dataclass(frozen=True)
class SZeroJet:
    """Value and first s-derivative of a Dirichlet series at s = 0."""

    value: Any
    deriv: Any
    value_exact: Fraction | None = None

    @property
    def dlog(self):
        if self.value == 0:
            raise DomainError("dlog at 0 needs a nonzero value")
        return self.deriv / self.value


def character_gamma_sum(d, ctx: PrecisionContext, residues_only: bool = False):
    """sum over 0 < a < d of eps(a) log Gamma(a/d), at working precision.

    eps is odd, so Euler's reflection Gamma(x) Gamma(1 - x) = pi / sin(pi x)
    folds the term at d - a into the one at a:

        sum_{a<d/2} eps(a) [2 log Gamma(a/d) + log sin(pi a/d)] - c log pi,

    with c = sum_{a<d/2} eps(a) an exact integer.  sin(pi a/d) is
    Im zeta^a, zeta = e^(i pi/d) stepped by one multiplication per a.

    The log-Gamma values come from one pass with one shift N = ceil(1.2 dps)
    for every a, as in ``log_gamma`` but without its per-call mpf work.
    With t = a/d and P_a = prod_{j<N} (a + j d), an exact integer,
    log Gamma(t) = log Gamma(N + t) - log P_a + N log d, and

        log Gamma(N + t) = (N - 1/2 + t) log N - N + log(2 pi)/2
                           + sum_m g_m t^m,

    the Taylor series about N less its log N terms (``numkernel.
    _log_gamma_taylor``: one table per precision, from one Stirling loop
    at N).  So, with M_m = sum eps(a) a^m exact integers, c = M_0 and
    W = M_1,

        sum eps log Gamma(a/d) = (c (N - 1/2) + W/d) log N - c N + c log(2 pi)/2
                                 + sum_m N^m g_m M_m / (N d)^m
                                 - log prod_eps P_a^eps + c N log d.

    log N and log d are each taken once, and the constants, doubled by
    the reflection, leave c log(2 pi) - c log pi = c log 2.  The series
    is one exact integer sum over the common denominator (N d)^m of the
    last m, scaled by 2^(prec + 52).  Each sine goes into the mpf product
    of its sign, each P_a^2 into that of the other, so the sines and
    shift products enter through one log.  That is three mpf logs per
    sum, whatever phi(d), and no ``log_gamma`` call; each a costs its
    sine, its shift product and one small-integer multiplication per
    moment.

    The fold is summed at working + 10 digits.  The heads (N - 1/2) log N
    and log P_a, of size about N log(N d) times c, cancel down to the sum
    and cost about log10 N of those guard digits and more as c grows; the
    power chain of zeta costs about log10 d.  The table's roundings, at
    2^-(prec + 52), stay below 2^-(prec + 40) per term once carried by
    t^m < 2^-m and take no guard digit below phi(d) ~ 10^12; its cut
    costs less than one unit of 2^-(prec + 20) for phi(d) up to 2^40.
    The unrounded sum was within 10^-(working + 6) of mpmath's loggamma
    at every d the tests reach: d = 9995 at 30 digits, d = 1999 at 300
    and d <= 199 at 1000 included.

    With residues_only, the sum of log Gamma(a/d) over eps(a) = 1 alone,
    added term by term in order of a at working precision.
    """
    disc = Discriminant.of(d)
    d = disc.d
    with ctx.workprec():
        if residues_only:
            total = mp.mpf(0)
            for a in range(1, d):
                e = disc.epsilon(a)
                if e == 1:
                    # e * rounds each working + 10 digit value before the
                    # sum; the Tate certificates' recorded digits keep it
                    total += e * log_gamma(Fraction(a, d), ctx)
            return total
        with mp.extradps(10):
            shift = -(-6 * mp.dps // 5)  # N = ceil(1.2 dps), log_gamma's shift point
            nd = shift * d
            table = _log_gamma_taylor(mp.prec, shift)
            wp = mp.prec + _GUARD_BITS + _TAYLOR_GUARD_BITS
            zeta = mp.expjpi(mp.mpf(1) / d)
            power = mp.mpc(1)
            parts = {1: mp.mpf(1), -1: mp.mpf(1)}
            moments = [0] * len(table)  # M_m = sum eps a^m
            for a in range(1, (d + 1) // 2):
                power *= zeta
                e = disc.epsilon(a)
                if e:
                    parts[e] *= power.imag
                    parts[-e] *= _shift_product(a, d, 0, shift) ** 2
                    powers = accumulate(repeat(a, len(table) - 1), mul, initial=1)
                    moments = list(map(add if e == 1 else sub, moments, powers))
            c, weight = moments[0], moments[1]
            # sum_m N^m g_m M_m / (N d)^m over one denominator, by Horner
            series = 0
            for g, moment in zip(table, moments):
                series = series * nd + g * moment
            series //= nd ** (len(table) - 1)
            # twice the sum above, less c log pi, plus the sines' logs:
            # 2 c log(2 pi)/2 - c log pi = c log 2
            acc = (to_mpf(Fraction(2 * weight, d) + c * (2 * shift - 1)) * mp.log(shift)
                   - 2 * c * shift + mp.mpf((2 * series, -wp)) + c * mp.ln2
                   + 2 * c * shift * mp.log(d) + mp.log(parts[1] / parts[-1]))
        return +acc


def dirichlet_jet(d, ctx: PrecisionContext) -> SZeroJet:
    """Jet of L(epsilon, s) = d^(-s) * sum_a epsilon(a) H(a/d, s) at s = 0."""
    disc = Discriminant.of(d)
    d = disc.d
    # L(eps, 0) = -sum eps(a) a / d = 2h/w
    value = Fraction(2 * class_number_dirichlet(disc), disc.w)
    with ctx.workprec():
        # the log sqrt(2*pi) of each H_s'(a/d, 0) cancels: sum eps(a) = 0
        deriv = -mp.log(d) * to_mpf(value) + character_gamma_sum(disc, ctx)
        return SZeroJet(value=to_mpf(value), deriv=deriv, value_exact=value)
