from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from cmperiods.errors import DomainError
from cmperiods.fermat import (CMTypeRecord, beta_period, cm_type, epsilon_rst, frac,
                              tate_twist_certificate)
from cmperiods.numkernel import PrecisionContext
from cmperiods.quadforms import Discriminant, class_number_dirichlet
from cmperiods.relint import recognize_sqrtp


def all_triples(p):
    return [(r, s, (-r - s) % p) for r in range(1, p) for s in range(1, p)
            if (r + s) % p != 0]


def test_frac_examples():
    assert frac(Fraction(10, 7)) == Fraction(3, 7)
    assert frac(1) == 0
    assert frac(Fraction(-1, 7)) == Fraction(6, 7)


@given(st.fractions(max_denominator=10 ** 6))
def test_frac_properties(q):
    f = frac(q)
    assert 0 <= f < 1
    assert (q - f).denominator == 1


def test_cm_type_example():
    rec = cm_type(7, 1, 1, 5)
    assert rec.phi == (1, 2, 3)
    assert rec.u == 2 and rec.v == 1


def test_epsilon_rst_values():
    assert epsilon_rst(7, 1, 1, 5) == 1
    assert epsilon_rst(7, 2, 2, 3) == 1
    assert epsilon_rst(7, 1, 2, 4) == 3
    assert epsilon_rst(7, 3, 5, 6) == -3
    for p in (7, 23, 31, 47, 71):
        assert p % 8 == 7
        assert epsilon_rst(p, 1, 1, p - 2) == 1


@pytest.mark.parametrize("p", [7, 11])
def test_cm_type_counts_all_triples(p):
    h = class_number_dirichlet(Discriminant(p))
    for r, s, t in all_triples(p):
        rec = cm_type(p, r, s, t)
        assert rec.u + rec.v == (p - 1) // 2
        assert rec.u - rec.v == h * epsilon_rst(p, r, s, t)


def test_phi_complement():
    p = 11
    for r, s, t in ((1, 1, 9), (2, 3, 6), (1, 4, 6)):
        phi = set(cm_type(p, r, s, t).phi)
        for a in range(1, p):
            assert (a in phi) != ((p - a) in phi)


def test_beta_period_direct(ctx):
    logb = beta_period(7, 1, 1, 5, ctx)
    with mp.workdps(200):
        seventh = mp.mpf(1) / 7
        direct = (mp.beta(seventh, seventh) * mp.beta(2 * seventh, 2 * seventh)
                  * mp.beta(4 * seventh, 4 * seventh))
        assert abs(mp.exp(logb) - direct) < mp.mpf(10) ** -100 * direct


def mp_gamma_period(p, rst, dps):
    """log of (2 pi)^(-(p-1)/2) prod over QRs a of prod_m Gamma(<am/p>), by mpmath."""
    disc = Discriminant(p)
    with mp.workdps(dps):
        return (-mp.mpf(p - 1) / 2 * mp.log(2 * mp.pi)
                + mp.fsum(mp.loggamma(mp.mpf(a * m % p) / p) for a in range(1, p)
                          if disc.epsilon(a) == 1 for m in rst))


def test_beta_gamma_ratio_recognized(ctx):
    # the beta period over the Gamma period of the same CM type is a
    # rational multiple of sqrt(7); the Gamma period is mpmath's
    hi = ctx.working_digits + 20
    with ctx.workprec():
        r157 = mp.exp(beta_period(7, 1, 1, 5, ctx) - mp_gamma_period(7, (1, 1, 5), hi))
        assert recognize_sqrtp(r157, 7, 10 ** 8, ctx) == Fraction(7)
        r133 = mp.exp(beta_period(7, 1, 3, 3, ctx) - mp_gamma_period(7, (1, 3, 3), hi))
        assert recognize_sqrtp(r133, 7, 10 ** 8, ctx) == Fraction(49, 2)


def test_tate_certificates_frozen(ctx):
    cert = tate_twist_certificate(7, 1, 1, 5, ctx)
    assert cert.passed and cert.kind == "rational"
    assert cert.recognized == Fraction(7)
    assert cert.m == 1

    cert = tate_twist_certificate(7, 2, 2, 3, ctx)
    assert cert.passed and cert.kind == "rational"
    assert cert.recognized == Fraction(7)

    cert = tate_twist_certificate(23, 1, 1, 21, ctx)
    assert cert.passed and cert.kind == "rational"
    assert cert.recognized == Fraction(279841, 351)
    assert cert.m == 4

    cert = tate_twist_certificate(7, 1, 3, 3, ctx)
    assert cert.passed and cert.kind == "sqrtp"
    assert cert.recognized == Fraction(7, 2)


def test_tate_certificates_permutation_invariant():
    # pass/fail and the recognized kind only depend on the unordered triple
    ctx = PrecisionContext(60)
    for base in ((1, 3, 7), (1, 2, 8)):
        assert abs(epsilon_rst(11, *base)) == 1
        kinds = set()
        for r, s, t in set(permutations(base)):
            cert = tate_twist_certificate(11, r, s, t, ctx)
            assert cert.passed and cert.height < 10 ** 8
            kinds.add(cert.kind)
        assert len(kinds) == 1


def test_domain_errors(ctx):
    with pytest.raises(DomainError):
        cm_type(7, 1, 2, 3)
    with pytest.raises(DomainError):
        cm_type(7, 0, 3, 4)
    with pytest.raises(DomainError):
        cm_type(5, 1, 1, 3)
    with pytest.raises(DomainError):
        cm_type(3, 1, 1, 1)
    with pytest.raises(DomainError):
        beta_period(13, 1, 1, 11, ctx)
    with pytest.raises(DomainError):
        tate_twist_certificate(7, 1, 2, 4, ctx)
