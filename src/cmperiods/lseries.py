"""The jet at s = 0 of L(epsilon, s), and the sum of eps(a) log Gamma(a/d) it rests on.

Values come from Lerch's constant term H(x, 0) = 1/2 - x, exactly in
rational arithmetic; derivatives from H_s'(x, 0) = log(Gamma(x)/sqrt(2*pi)).
``character_gamma_sum``, sum eps(a) log Gamma(a/d), is the Gamma side
of the Chowla-Selberg, period-product and Faltings identities.  eps is
odd, so the term at d - a pairs with the one at a, and only the odd part
of log Gamma about a small integer point J enters: its odd Taylor
coefficients psi(J) and -zeta(m, J)/m (DLMF 5.7), kept per precision by
``numkernel._log_gamma_odd`` from the one Taylor table of log Gamma that
``log_gamma`` also reads, summed against the exact odd moments
sum eps(a) a^m, and the exact shift products of J factors per a, rounded
to working precision as they are multiplied.  J comes from a cost model
of the work per a, and the shift point of the table from ``numkernel``.
A sum takes two mpf logs, no sine and no ``log_gamma`` call, at
working + 10 digits.  The Fermat certificates take the product of
Gamma(a/p) over the residues alone, one ``numkernel.gamma_product`` with
no log (``fermat``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import prod
from operator import add, mul, sub
from typing import Any

from mpmath import mp

from .errors import DomainError
from .numkernel import (_GUARD_BITS, _TAYLOR_GUARD_BITS, PrecisionContext,
                        _log_gamma_odd, to_mpf)
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


def _rounded_product(xs, bits):
    """prod(xs) as an mpf, each partial product cut to its leading bits bits.

    The n cuts leave a relative error below n 2^(1 - bits).
    """
    man, exp = 1, 0
    for x in xs:
        man *= x
        excess = man.bit_length() - bits
        if excess > 0:
            man >>= excess
            exp += excess
    return mp.mpf((man, exp))


def character_gamma_sum(d, ctx: PrecisionContext):
    """sum over 0 < a < d of eps(a) log Gamma(a/d), at working precision.

    eps is odd, so with t = a/d the term at d - a is -eps(a) log Gamma(1 - t):

        sum_{a<d/2} eps(a) [log Gamma(t) - log Gamma(1 - t)].

    Shift both arguments up to about J, an integer: with the exact
    integers P_a = prod_{j<J} (a + j d) and Q_a = prod_{1<=j<J} (j d - a),
    log Gamma(t) = log Gamma(J + t) - log P_a + J log d and
    log Gamma(1 - t) = log Gamma(J - t) - log Q_a + (J - 1) log d.  What
    is left of log Gamma is its odd part about J, whose Taylor series
    (DLMF 5.7.3) has the coefficients k_1 = psi(J) and
    k_m = -zeta(m, J)/m at odd m >= 3 (``numkernel._log_gamma_odd``: one
    table per precision, with its J).  So, with M_m = sum_{a<d/2} eps(a) a^m
    exact integers and c = M_0,

        sum eps log Gamma(a/d) = 2 sum_{m odd} k_m M_m / d^m
                                 - log prod_a (P_a / Q_a)^eps(a) + c log d.

    The series is one exact integer Horner sum in d^2 over the common
    denominator d^L of the last odd m = L, scaled by 2^(prec + 52); the
    products go into one mpf per sign, each cut to 2^(prec + 52) as it
    grows, and enter through one log.  That is two mpf logs per sum,
    log d and that of the ratio, whatever phi(d), no sine and no
    ``log_gamma`` call; each a costs its 2J - 1 factors and one
    multiplication and one addition per odd moment.  J is the cost
    model's choice (``numkernel._odd_point``): more factors per a against
    fewer odd coefficients, about (prec + 60)/(2 log2 2J); 14, 19, 30 and
    64 at 60, 120, 300 and 1000 digits.

    The fold is summed at working + 10 digits.  The heads log prod (P_a/Q_a)^eps
    and c log d, where P_a/Q_a is about a J^(2t), each of size at most
    about |c| log(J d) plus the fluctuation of the signs, cost log10 of
    that of those guard digits; the mpf products' cuts cost none below
    phi(d) ~ 2^31.  The table's roundings, a few units of 2^-(prec + 52)
    each, carried by |M_m / d^m| < phi(d) 2^-m, take no guard digit below
    phi(d) ~ 10^9, and its cut costs less than one unit of
    2^-(prec + 20) for phi(d) up to 2^40.  The unrounded sum was within
    10^-(working + 8) of mpmath's loggamma at every d the tests reach:
    d = 9995 at 30 digits, d = 1999 at 300 and d <= 199 at 1000 included.
    """
    disc = Discriminant.of(d)
    d = disc.d
    with ctx.workprec():
        with mp.extradps(10):
            base, table = _log_gamma_odd(mp.prec)
            wp = mp.prec + _GUARD_BITS + _TAYLOR_GUARD_BITS
            top = base * d
            parts = {1: [], -1: []}  # P_a / Q_a to the power eps(a)
            c = 0
            moments = [0] * len(table)  # M_m = sum eps a^m at odd m
            for a in range(1, (d + 1) // 2):
                e = disc.epsilon(a)
                if e:
                    c += e
                    parts[e].append(prod(range(a, top, d)))
                    parts[-e].append(prod(range(d - a, top - a, d)))
                    powers = accumulate(repeat(a * a, len(table) - 1), mul, initial=a)
                    moments = list(map(add if e == 1 else sub, moments, powers))
            # sum_m k_m M_m / d^m over one denominator, by Horner in d^2
            series = 0
            for k, moment in zip(table, moments):
                series = series * d * d + k * moment
            series //= d ** (2 * len(table) - 1)
            ratio = _rounded_product(parts[1], wp) / _rounded_product(parts[-1], wp)
            acc = mp.mpf((2 * series, -wp)) - mp.log(ratio) + c * mp.log(d)
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
