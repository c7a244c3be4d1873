"""Jets at s = 0 of zeta(s), L(epsilon, s) and their product zeta_k(s).

Values come from Lerch's constant term H(x, 0) = 1/2 - x, exactly in
rational arithmetic; derivatives from H_s'(x, 0) = log(Gamma(x)/sqrt(2*pi)).
``character_gamma_sum``, sum eps(a) log Gamma(a/d), is the Gamma side
of every Chowla-Selberg-type identity in the package.  eps is odd, so
Euler's reflection formula pairs a with d - a: the full sum takes
phi(d)/2 log-Gamma values at a/d < 1/2, plus the sines sin(pi a/d) read
off the powers of one root of unity, summed with 10 guard digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from mpmath import mp

from .errors import DomainError
from .numkernel import PrecisionContext, hurwitz_zeta, log_gamma, to_mpf
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

    with c = sum_{a<d/2} eps(a) an exact integer: phi(d)/2 log-Gamma calls,
    all at arguments below 1/2.  sin(pi a/d) is Im zeta^a, zeta = e^(i pi/d)
    stepped by one multiplication per a, and the sines enter through one
    log of (product over eps = 1) / (product over eps = -1).

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
        # 10 guard digits: the chain of d/2 powers of zeta loses about
        # log10(d) of them, and doubling the log-Gamma terms doubles
        # their rounding; summed at working precision, periods --p 23
        # lost a printed digit
        with mp.extradps(10):
            zeta = mp.expjpi(mp.mpf(1) / d)
            power = mp.mpc(1)
            acc = mp.mpf(0)
            sines = {1: mp.mpf(1), -1: mp.mpf(1)}
            c = 0
            for a in range(1, (d + 1) // 2):
                power *= zeta
                e = disc.epsilon(a)
                if e:
                    acc += e * log_gamma(Fraction(a, d), ctx)
                    sines[e] *= power.imag
                    c += e
            acc = 2 * acc + mp.log(sines[1] / sines[-1]) - c * mp.log(mp.pi)
        return +acc


def riemann_jet(ctx: PrecisionContext) -> SZeroJet:
    """zeta(0) = -1/2, zeta'(0) = -(1/2) log(2 pi)."""
    with ctx.workprec():
        return SZeroJet(value=mp.mpf(-1) / 2, deriv=-mp.log(2 * mp.pi) / 2,
                        value_exact=Fraction(-1, 2))


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


def dirichlet_L(d, s, ctx: PrecisionContext):
    """L(epsilon, s) for real s != 1, by the finite Hurwitz expansion."""
    disc = Discriminant.of(d)
    d = disc.d
    with ctx.workprec():
        sv = to_mpf(s)
        total = mp.mpf(0)
        for a in range(1, d):
            e = disc.epsilon(a)
            if e:
                total += e * hurwitz_zeta(Fraction(a, d), sv, ctx)
        return mp.power(d, -sv) * total


def zetak_dlog0(d, ctx: PrecisionContext):
    """dlog zeta_k(s) at s = 0: log(2 pi) - log d + (w/2h) sum eps(a) log Gamma(a/d)."""
    disc = Discriminant.of(d)
    d = disc.d
    h = class_number_dirichlet(disc)
    with ctx.workprec():
        gsum = character_gamma_sum(disc, ctx)
        return mp.log(2 * mp.pi) - mp.log(d) + mp.mpf(disc.w) / (2 * h) * gsum
