from fractions import Fraction

import pytest
from mpmath import mp

from cmperiods import numkernel
from cmperiods.errors import DomainError
from cmperiods.fermat import _residue_gamma_product
from cmperiods.lseries import SZeroJet, character_gamma_sum, dirichlet_jet
from cmperiods.numkernel import PrecisionContext, log_gamma, to_mpf
from cmperiods.quadforms import (Discriminant, class_number, is_fundamental,
                                 reduced_forms)


def test_szero_jet_dlog(ctx):
    jet = SZeroJet(value=mp.mpf(2), deriv=mp.mpf(3))
    assert jet.dlog == mp.mpf(3) / 2
    with pytest.raises(DomainError):
        SZeroJet(value=mp.mpf(0), deriv=mp.mpf(1)).dlog


def test_riemann_deriv_finite_difference(ctx):
    # zeta'(0) = -(1/2) log(2 pi), the dlog zeta(0) = log(2 pi) that
    # zetak_dlog0 adds, by a central difference of mpmath's zeta
    hi = PrecisionContext(260)
    with hi.workprec():
        h = mp.mpf(10) ** -65
        diff = (mp.zeta(h) - mp.zeta(-h)) / (2 * h)
        assert abs(diff + mp.log(2 * mp.pi) / 2) < mp.mpf(10) ** -(ctx.target_digits // 2)


def test_dirichlet_jet_exact_values(ctx):
    assert dirichlet_jet(Discriminant(7), ctx).value_exact == 1
    assert dirichlet_jet(Discriminant(23), ctx).value_exact == 3
    assert dirichlet_jet(Discriminant(3), ctx).value_exact == Fraction(1, 3)
    assert dirichlet_jet(Discriminant(4), ctx).value_exact == Fraction(1, 2)


def test_dirichlet_value_is_class_number(ctx):
    # L(eps,0) = 2h/w with h counted by form enumeration.
    for d in range(5, 2000):
        if not is_fundamental(d):
            continue
        disc = Discriminant(d)
        jet_value = -sum(disc.epsilon(a) * Fraction(a, d) for a in range(1, d))
        assert jet_value == Fraction(2 * class_number(disc), disc.w)


def test_dirichlet_jet_dlog_form(ctx):
    # deriv/value = (w/2h) sum eps(a) log Gamma(a/d) - log d
    for d in (7, 23):
        disc = Discriminant(d)
        jet = dirichlet_jet(disc, ctx)
        h = reduced_forms(disc).h
        with ctx.workprec():
            gsum = mp.fsum(disc.epsilon(a) * log_gamma(Fraction(a, d), ctx)
                           for a in range(1, d))
            expect = mp.mpf(disc.w) / (2 * h) * gsum - mp.log(d)
            assert abs(jet.dlog - expect) < ctx.eps(10)


def zetak_dlog0(d, ctx):
    """dlog zeta_k(0) = dlog zeta(0) + dlog L(eps, 0) = log(2 pi) + dirichlet_jet(d).dlog."""
    with ctx.workprec():
        return mp.log(2 * mp.pi) + dirichlet_jet(Discriminant(d), ctx).dlog


def test_zetak_dlog_additivity(ctx, mp_zeta_l_jet):
    # zeta_k = zeta L(eps, .): the dlog of the product from mpmath's
    # Hurwitz zeta against the sum of the factors' dlogs
    for d in (7, 15, 23):
        with mp.workdps(ctx.working_digits + 20):
            value, deriv = mp_zeta_l_jet(d)
            total = deriv / value
        with ctx.workprec():
            assert abs(total - zetak_dlog0(d, ctx)) < ctx.eps(5)


def test_zetak_dlog_two_precision():
    lo, hi = PrecisionContext(120), PrecisionContext(240)
    for d in (7, 15):
        a = zetak_dlog0(d, lo)
        b = zetak_dlog0(d, hi)
        assert abs(a - b) < mp.mpf(10) ** -110


def test_zetak_dlog_matches_delta_side(ctx, mp_zeta_l_jet):
    # (1/12h) sum log(Delta(a) Delta(a^-1)) is dlog zeta_k(0): the
    # Chowla-Selberg identity in dlog form, against mpmath's zeta'(0, a/d)
    from cmperiods.csperiods import cs_verify
    for d in (7, 23):
        disc = Discriminant(d)
        h = reduced_forms(disc).h
        rep = cs_verify(disc, ctx)
        with mp.workdps(ctx.working_digits + 20):
            value, deriv = mp_zeta_l_jet(d)
            expect = deriv / value
        with ctx.workprec():
            delta_side = rep.lhs / (12 * h)
            assert abs(delta_side - expect) < ctx.eps(15)


RESIDUE_PRIMES = (7, 11, 19, 23, 163)


@pytest.mark.parametrize("prec", [30, 300])
def test_character_gamma_sum_against_mpmath(prec):
    # the folded sum, and the log of the residue product of the Fermat
    # certificates; oracle: mpmath's loggamma, summed by fsum at
    # working + 20 digits
    ctx = PrecisionContext(prec)
    cases = [(d, False) for d in (3, 4, 7, 8, 15, 20, 23, 163)]
    cases += [(p, True) for p in RESIDUE_PRIMES]
    for d, residues_only in cases:
        disc = Discriminant(d)
        if residues_only:
            with mp.workdps(ctx.working_digits + 20):
                got = mp.log(_residue_gamma_product(disc, 1, ctx))
        else:
            got = character_gamma_sum(disc, ctx)
        weights = [(a, disc.epsilon(a)) for a in range(1, d)]
        with mp.workdps(ctx.working_digits + 20):
            ref = mp.fsum(e * mp.loggamma(mp.mpf(a) / d) for a, e in weights
                          if e == 1 or (e and not residues_only))
            assert abs(got - ref) < mp.mpf(10) ** -(prec + 10), (d, residues_only)


@pytest.mark.parametrize("prec", [30, 300])
def test_character_gamma_sum_halves_obey_gauss_multiplication(prec):
    # with R the log of the residue product and chi the character sum,
    # R + (R - chi) is sum over all a < p of log Gamma(a/p)
    # = ((p-1)/2) log(2 pi) - (1/2) log p
    ctx = PrecisionContext(prec)
    for p in RESIDUE_PRIMES:
        product = _residue_gamma_product(Discriminant(p), 1, ctx)
        chi = character_gamma_sum(p, ctx)
        with ctx.workprec():
            r = mp.log(product)
            gauss = mp.mpf(p - 1) / 2 * mp.log(2 * mp.pi) - mp.log(p) / 2
            assert abs(2 * r - chi - gauss) < mp.mpf(10) ** -(prec + 10), p


FUNDAMENTAL_200 = tuple(d for d in range(3, 201) if is_fundamental(d))


@pytest.mark.parametrize("prec, ds", [(1000, (3, 4, 23, 56)), (30, (9995,)), (300, (1999,)),
                                      (60, FUNDAMENTAL_200), (120, FUNDAMENTAL_200)],
                         ids=["1000", "30-d9995", "300-d1999", "60-every-d", "120-every-d"])
def test_reflected_character_gamma_sum_against_mpmath(prec, ds):
    # the reflected sum against every term of the unreflected one, by
    # mpmath's loggamma at working + 20 digits; d = 9995 has the most
    # shift products and the largest heads that the tests reach
    # (phi(d)/2 = 3,996 terms), d = 1999 the most odd moments at a long
    # table (999 terms against 98 coefficients at 300 digits), and every
    # fundamental d <= 200 is what cs-sweep, the suite and the goldens draw
    ctx = PrecisionContext(prec)
    for d in ds:
        disc = Discriminant(d)
        got = character_gamma_sum(disc, ctx)
        weights = [(a, disc.epsilon(a)) for a in range(1, d)]
        with mp.workdps(ctx.working_digits + 20):
            ref = mp.fsum(e * mp.loggamma(mp.mpf(a) / d) for a, e in weights if e)
            assert abs(got - ref) < mp.mpf(10) ** -(prec + 10), d


def _mp_log_calls(monkeypatch, d, ctx):
    calls = []
    real_log = mp.log

    def counting(*args, **kwargs):
        calls.append(args)
        return real_log(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(mp, "log", counting)
        character_gamma_sum(Discriminant(d), ctx)
    return len(calls)


@pytest.mark.parametrize("d", [7, 56, 163])
def test_reflected_character_gamma_sum_halves_log_gamma_calls(monkeypatch, d):
    # the reflection halves the phi(d) log-Gamma terms, and the fold takes
    # the odd part of log Gamma about one point J: a table kept per
    # precision, summed against the exact odd moments sum eps(a) a^m, and
    # shift products of J factors.  Once the tables are built a sum runs
    # no log_gamma call, no Stirling loop and no mp.expjpi (no sine), and
    # two mp.log calls, log d and that of the products' ratio, at d as at
    # d = 9995, where phi(d)/2 = 3,996
    def refuse(*args):
        raise AssertionError(f"called with {args}")

    ctx = PrecisionContext(30)
    character_gamma_sum(Discriminant(3), ctx)  # builds the tables
    loops = []
    stirling_terms = numkernel._stirling_terms

    def counting(*args):
        loops.append(args)
        return stirling_terms(*args)

    monkeypatch.setattr(numkernel, "_stirling_terms", counting)
    monkeypatch.setattr(mp, "expjpi", refuse)
    numkernel._log_gamma_parts.cache_clear()
    count = _mp_log_calls(monkeypatch, d, ctx)
    assert numkernel._log_gamma_parts.cache_info()[:2] == (0, 0) and loops == []
    assert count == _mp_log_calls(monkeypatch, 9995, ctx) == 2, count
