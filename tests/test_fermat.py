import json
from fractions import Fraction
from itertools import permutations

import pytest
from mpmath import mp

from cmperiods import cli, fermat, numkernel
from cmperiods.errors import DomainError
from cmperiods.fermat import (CMTypeRecord, beta_period, cm_type, epsilon_rst,
                              tate_twist_certificate)
from cmperiods.numkernel import PrecisionContext
from cmperiods.quadforms import Discriminant, class_number_dirichlet
from cmperiods.relint import recognize_rational, recognize_sqrtp


def all_triples(p):
    return [(r, s, (-r - s) % p) for r in range(1, p) for s in range(1, p)
            if (r + s) % p != 0]


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
    b = beta_period(7, 1, 1, 5, ctx)
    with mp.workdps(200):
        seventh = mp.mpf(1) / 7
        direct = (mp.beta(seventh, seventh) * mp.beta(2 * seventh, 2 * seventh)
                  * mp.beta(4 * seventh, 4 * seventh))
        assert abs(b - direct) < mp.mpf(10) ** -100 * direct


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
        r157 = beta_period(7, 1, 1, 5, ctx) / mp.exp(mp_gamma_period(7, (1, 1, 5), hi))
        assert recognize_sqrtp(r157, 7, 10 ** 8, ctx) == Fraction(7)
        r133 = beta_period(7, 1, 3, 3, ctx) / mp.exp(mp_gamma_period(7, (1, 3, 3), hi))
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


def test_fermat_request_takes_no_log(monkeypatch, capsys):
    # once the Taylor table of a precision is built, a fermat request
    # forms the beta period and the residue product from the parts of
    # log Gamma, misses included: no log_gamma call, no mp.log, and one
    # mp.exp per product
    argv = ["--prec", "120", "fermat", "--p", "19", "--rst", "1,2,16"]
    assert cli.main(argv) == 0  # builds the table
    numkernel._log_gamma_parts.cache_clear()
    calls = {}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return wrapper

    for owner, name in ((numkernel, "log_gamma"), (mp, "log"), (mp, "exp")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert not hasattr(fermat, "log_gamma")
    assert calls == {"exp": 2}


def test_every_tate_row_carries_gamma_content(monkeypatch):
    # both signs compare B G_-e / (2 pi)^((p-1)/2) with the closed form,
    # and B G_-e holds the product of all Gamma(a/p), which no shift
    # product cancels: 2^-40 added to log Gamma(N), entry 0 of the
    # Taylor table, fails every mixed triple at p = 7, 11 and 19
    ctx = PrecisionContext(60)
    table = numkernel._log_gamma_taylor

    def mutated(prec):
        shift, coeffs = table(prec)
        wp = prec + numkernel._GUARD_BITS + numkernel._TAYLOR_GUARD_BITS
        return shift, (coeffs[0] + (1 << (wp - 40)),) + coeffs[1:]

    parts = numkernel._log_gamma_parts
    parts.cache_clear()
    monkeypatch.setattr(numkernel, "_log_gamma_taylor", mutated)
    passed = {1: set(), -1: set()}
    try:
        for p in (7, 11, 19):
            for r, s, t in all_triples(p):
                e = epsilon_rst(p, r, s, t)
                if abs(e) == 1:
                    passed[e].add(tate_twist_certificate(p, r, s, t, ctx).passed)
    finally:
        parts.cache_clear()
    assert passed == {1: {False}, -1: {False}}


def shift_rational(p, r, s):
    """Q = prod over residues a of p/(p - (at mod p)) where <ar> + <as> + <at> = 2p."""
    t = (-r - s) % p
    q = Fraction(1)
    for a in range(1, p):
        if pow(a, (p - 1) // 2, p) == 1 and a * r % p + a * s % p + a * t % p == 2 * p:
            q *= Fraction(p, p - a * t % p)
    return q


def mixed_triples(p):
    def eps(x):
        return 1 if pow(x, (p - 1) // 2, p) == 1 else -1
    return [rst for rst in all_triples(p) if abs(sum(map(eps, rst))) == 1]


@pytest.mark.parametrize("rst, prec", [((1, 2, 160), 120), ((41, 86, 36), 60),
                                       ((1, 9, 153), 70)])
def test_tate_ratio_of_89_digit_height_passes(capsys, rst, prec):
    # Q of these triples has an 89-digit numerator; a recognizer capped
    # at height 10^12 found no rational for the first, and for the other
    # two a wrong one that agreed to 50 and 49 digits, which passed the
    # second at 60 digits and failed the third at 70
    argv = ["--json", "--prec", str(prec), "fermat", "--p", "163",
            "--rst", ",".join(map(str, rst))]
    assert cli.main(argv) == 0
    row = json.loads(capsys.readouterr().out)[2]
    e = epsilon_rst(163, *rst)
    q = shift_rational(163, *rst[:2])
    assert row["rhs_log"] == (str(q) if e == 1 else f"{q / 163}*sqrt(163)")
    assert row["pass"] and row["digits_agreed"] == PrecisionContext(prec).working_digits


def test_closed_form_is_what_the_recognizer_reads():
    # the recognizer is sound at these heights (all below 10^8): on every
    # mixed triple at p = 7, 11 and 19 it reads the closed form back from
    # the numeric ratio
    ctx60 = PrecisionContext(60)
    for p in (7, 11, 19):
        for r, s, t in mixed_triples(p):
            cert = tate_twist_certificate(p, r, s, t, ctx60)
            assert cert.recognized == shift_rational(p, r, s) / (1 if cert.kind == "rational" else p)
            if cert.kind == "rational":
                rec = recognize_rational(cert.report.lhs, 10 ** 12, ctx60)
            else:
                rec = recognize_sqrtp(cert.report.lhs, p, 10 ** 12, ctx60)
            assert rec == cert.recognized, (p, r, s, t)


@pytest.mark.parametrize("p, stride", [(7, 1), (19, 3), (47, 19), (163, 389)])
def test_closed_form_against_mpmath_loggamma(p, stride):
    # log Q = log B - log G_e, with B and G_e summed from mpmath's
    # loggamma at working + 20 digits
    ctx = PrecisionContext(60)
    disc = Discriminant(p)
    residues = [a for a in range(1, p) if disc.epsilon(a) == 1]
    with mp.workdps(ctx.working_digits + 20):
        for r, s, t in mixed_triples(p)[::stride]:
            e = epsilon_rst(p, r, s, t)
            log_b = mp.fsum(mp.loggamma(mp.mpf(a * r % p) / p) + mp.loggamma(mp.mpf(a * s % p) / p)
                            - mp.loggamma(mp.mpf(a * r % p + a * s % p) / p) for a in residues)
            log_g = mp.fsum(mp.loggamma(mp.mpf(a) / p) for a in range(1, p)
                            if disc.epsilon(a) == e)
            q = tate_twist_certificate(p, r, s, t, ctx).recognized
            log_q = mp.log(q.numerator) - mp.log(q.denominator) + (0 if e == 1 else mp.log(p))
            assert abs(log_b - log_g - log_q) < mp.mpf(10) ** -ctx.working_digits, (p, r, s, t)
