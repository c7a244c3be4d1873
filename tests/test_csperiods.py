from argparse import Namespace
from fractions import Fraction

import pytest
from mpmath import mp

from cmperiods import cli
from cmperiods.arith import is_prime
from cmperiods.csperiods import (class_periods, cs_verify, exact_report, faltings_height_L,
                                 faltings_height_periods, m_invariant, make_report,
                                 period_integral, unrecognized_report)
from cmperiods.errors import DomainError
from cmperiods.numkernel import PrecisionContext, delta_lattice, log_gamma
from cmperiods.quadforms import (Discriminant, QuadForm, class_number, class_number_dirichlet,
                                  is_fundamental, reduced_forms)
from oracles import form_to_lattice, inverse_ideal_lattice


def test_make_report_thresholds(ctx):
    with ctx.workprec():
        good = make_report("x", {}, mp.mpf(1), 1 + mp.mpf(10) ** -110, ctx)
        assert good.passed and good.digits_agreed >= 105
        bad = make_report("x", {}, mp.mpf(1), 1 + mp.mpf(10) ** -90, ctx)
        assert not bad.passed


@pytest.mark.parametrize("target", [60, 120, 300])
def test_make_report_passes_by_its_digits(target):
    # one rule decides both fields: rel_err at the mpf nearest
    # 10^-(target - 20) and one unit of working precision either side
    # (rhs = 1 - rel_err, exact, so that rel_err is the error itself)
    ctx = PrecisionContext(target)
    with ctx.workprec():
        x = mp.mpf(10) ** (20 - target)
        ulp = mp.ldexp(1, mp.mag(x) - mp.prec)
        errs = [x, mp.fsub(x, ulp, exact=True), mp.fadd(x, ulp, exact=True)]
        reps = [make_report("x", {}, mp.mpf(1), mp.fsub(1, e, exact=True), ctx) for e in errs]
    assert {rep.passed for rep in reps} == {True, False}
    for rep in reps:
        assert rep.passed == (rep.digits_agreed >= target - 20)


def test_report_row(ctx):
    rep = cs_verify(Discriminant(7), ctx)
    row = rep.row(ctx)
    assert set(row) == {"check", "inputs", "lhs_log", "rhs_log", "digits_agreed", "pass"}
    assert row["check"] == "chowla-selberg d=7" and row["inputs"] == {"d": 7}
    assert row["pass"] is True and row["digits_agreed"] == rep.digits_agreed
    assert row["lhs_log"] == mp.nstr(rep.lhs, ctx.target_digits)
    exact = exact_report("x", {}, 3, 3, ctx).row(ctx)
    assert (exact["lhs_log"], exact["digits_agreed"], exact["pass"]) == ("3", 120, True)
    assert exact_report("x", {}, 3, 4, ctx).row(ctx)["digits_agreed"] == 0
    miss = unrecognized_report("x", {}, mp.mpf(2)).row(ctx)
    assert (miss["rhs_log"], miss["digits_agreed"], miss["pass"]) == ("unrecognized", 0, False)


@pytest.mark.parametrize("d", [4, 7, 23])
def test_cs_verify_examples(ctx, d):
    rep = cs_verify(Discriminant(d), ctx)
    assert rep.passed
    assert rep.digits_agreed >= 100
    assert abs(rep.lhs - rep.rhs) < mp.mpf(10) ** -100


def test_cs_verify_two_precisions():
    # same identity at two targets; the logs must agree with each other
    a = cs_verify(Discriminant(7), PrecisionContext(60))
    b = cs_verify(Discriminant(7), PrecisionContext(120))
    assert a.passed and b.passed
    assert abs(a.lhs - b.lhs) < mp.mpf(10) ** -55


def test_period_integral_single_class_formula(ctx):
    with ctx.workprec():
        val = period_integral(QuadForm(1, 1, 2), Discriminant(7), ctx)
        disc = Discriminant(7)
        glog = mp.fsum(disc.epsilon(a) * log_gamma(Fraction(a, 7), ctx)
                       for a in range(1, 7))
        expect = 2 * mp.pi / 7 * mp.exp(glog)
        assert abs(val - expect) < ctx.eps(15) * expect


_PRIMES_3MOD4 = [p for p in range(7, 200, 4) if is_prime(p)]


# each precision's list ends in a class whose period the closed form would
# round differently if it skipped one of the direct path's roundings:
# (1, 1, 150) at p = 599 if it rounded a real Delta's square, (7, 5, 12)
# at p = 311 if it took the square root unrounded, (6, 1, 15) at p = 359
# if it rounded the square to nearest rather than down
@pytest.mark.parametrize("prec, primes", [(30, _PRIMES_3MOD4), (60, _PRIMES_3MOD4 + [599]),
                                          (120, _PRIMES_3MOD4 + [311]),
                                          (300, _PRIMES_3MOD4[:8] + [359])],
                         ids=["30", "60", "120", "300"])
def test_class_periods_are_the_direct_periods_to_the_last_bit(prec, primes):
    # each period from the closed form equals the expression on the complex
    # delta_lattice value, (|Delta(a)| / p^3)^(1/6) a sqrt(p), exactly: the
    # text report of periods prints the digits agreed by the sum of their
    # logs, which moves with the last bit of any one of them
    ctx = PrecisionContext(prec)
    for p in primes:
        group, periods = class_periods(p, ctx)
        assert list(group) == list(reduced_forms(p))
        with ctx.workprec():
            for f, val in zip(group, periods):
                delta = delta_lattice(form_to_lattice(f, ctx), ctx)
                direct = mp.power(abs(delta) / p ** 3, mp.mpf(1) / 6) * f.a * mp.sqrt(p)
                assert val == direct == period_integral(f, p, ctx), (p, f.tuple())


def direct_log_pair(f, ctx):
    """log(Delta(a) Delta(a^-1)) from the two delta_lattice values, rounded to working precision."""
    with ctx.workprec():
        z = (delta_lattice(form_to_lattice(f, ctx), ctx)
             * delta_lattice(inverse_ideal_lattice(f, ctx), ctx))
        return mp.log(mp.re(z))


@pytest.mark.parametrize("prec", [30, 120])
def test_cs_verify_lhs_is_the_sum_of_direct_pairs_to_the_last_bit(prec):
    # each class's pair is one delta_norm series, rounded where the product
    # of the two delta_lattice values is: the sum of logs and each
    # Kronecker row's -log(pair)/12 are the direct ones to the last bit
    ctx = PrecisionContext(prec)
    for d in range(3, 201):
        if not is_fundamental(d):
            continue
        with ctx.workprec():
            direct = mp.mpf(0)
            for f in reduced_forms(d):
                direct += direct_log_pair(f, ctx)
        assert cs_verify(d, ctx).lhs == direct, d
    for d in (3, 4, 7, 8, 23, 47, 71, 163):
        reports, _ = cli._cmd_kronecker(Namespace(d=d, class_index=None), ctx)
        for f, rep in zip(reduced_forms(d), reports, strict=True):
            with ctx.workprec():
                assert rep.rhs == -direct_log_pair(f, ctx) / 12, (d, f.tuple())


def test_period_integral_domain():
    ctx = PrecisionContext(60)
    with pytest.raises(DomainError):
        period_integral(QuadForm(1, 0, 1), Discriminant(4), ctx)
    with pytest.raises(DomainError):
        period_integral(QuadForm(1, 1, 4), Discriminant(15), ctx)
    with pytest.raises(DomainError):
        period_integral(QuadForm(1, 1, 2), Discriminant(23), ctx)


def test_period_product_identity(ctx):
    for p in (7, 11, 23, 31, 47):
        disc = Discriminant(p)
        group = reduced_forms(disc)
        with ctx.workprec():
            lhs = mp.fsum(mp.log(period_integral(f, disc, ctx)) for f in group)
            gsum = mp.fsum(disc.epsilon(a) * log_gamma(Fraction(a, p), ctx)
                           for a in range(1, p))
            rhs = group.h * mp.log(2 * mp.pi / p) + gsum
            assert abs(lhs - rhs) < ctx.eps(15)


def test_m_invariant_examples():
    assert m_invariant(Discriminant(7)) == 1
    assert m_invariant(Discriminant(23)) == 4
    assert m_invariant(Discriminant(11)) == 2


def test_m_invariant_closed_form():
    from cmperiods.arith import is_prime
    from cmperiods.quadforms import class_number_dirichlet
    for p in range(7, 1000):
        if p % 4 != 3 or not is_prime(p):
            continue
        disc = Discriminant(p)
        m = m_invariant(disc)
        h = class_number_dirichlet(disc)
        assert m == Fraction(p - 1, 4) - Fraction(h, 2)


def test_faltings_two_ways(ctx):
    for p in (7, 43):
        with ctx.workprec():
            hp = faltings_height_periods(Discriminant(p), ctx)
            hl = faltings_height_L(Discriminant(p), ctx)
            assert abs(hp - hl) < ctx.eps(20)


def test_faltings_zetak_form(ctx, mp_zeta_l_jet):
    # -(1/2) dlog zeta_k(0) - (1/4) log p is the same height, with
    # dlog zeta_k(0) from mpmath's zeta'(0) and zeta'(0, a/p)
    p = 7
    with mp.workdps(ctx.working_digits + 20):
        value, deriv = mp_zeta_l_jet(p)
        dlog = deriv / value
    with ctx.workprec():
        alt = -dlog / 2 - mp.log(p) / 4
        hl = faltings_height_L(Discriminant(p), ctx)
        assert abs(alt - hl) < ctx.eps(10)


def test_cs_verify_scale_envelope():
    # -9995 = -5 * 1999 is fundamental with h = 40; its Gamma side sums
    # 7,992 distinct arguments a/9995, each a log-Gamma evaluation
    assert class_number(9995) == class_number_dirichlet(9995) == 40
    rep = cs_verify(9995, PrecisionContext(30))
    assert rep.passed and rep.digits_agreed >= 30
