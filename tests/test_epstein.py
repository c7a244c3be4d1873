from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from cmperiods import epstein
from cmperiods.epstein import _e1, _e1_cf, _e1_series, epstein_jet, theta_counts
from cmperiods.errors import PrecisionError
from cmperiods.numkernel import PrecisionContext, delta_lattice, log_gamma
from cmperiods.quadforms import (Discriminant, QuadForm, form_to_lattice,
                                 inverse_ideal_lattice, principal_form, reduced_forms)


def brute_counts(f, limit):
    counts = [0] * (limit + 1)
    box = 1 + int((4 * limit / (4 * f.a * f.c - f.b * f.b)) ** 0.5 * (f.a + f.c))
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if x == 0 and y == 0:
                continue
            q = f.value(x, y)
            if q <= limit:
                counts[q] += 1
    return counts


@pytest.mark.parametrize("form", [QuadForm(1, 1, 2), QuadForm(2, 1, 3), QuadForm(1, 0, 1)])
def test_theta_counts_brute_force(form):
    assert theta_counts(form, 60) == brute_counts(form, 60)


def test_theta_counts_dual_symmetry():
    # (x,y) -> (y,-x) matches the form (c,-b,a) on the same values
    f, g = QuadForm(2, 1, 3), QuadForm(3, -1, 2)
    assert theta_counts(f, 200) == theta_counts(g, 200)


def test_cf_stall_reports_digits(monkeypatch):
    # at the cap of five denominators the bound at x = 50,
    # 51/(50 L_5(-50)^2) = 10^-13.2, proves 13 digits
    monkeypatch.setattr(epstein, "_CF_CAP", 5)
    with mp.workdps(30):
        with pytest.raises(PrecisionError) as err:
            _e1_cf(mp.mpf(50), mp.exp(-50))
    assert err.value.achieved_digits == 13


@pytest.mark.parametrize("x", ["1", "5", "40.5", "100"])
def test_cf_truncation_bound_is_sharp(x):
    # the convergent with n denominators is the n-point Gauss-Laguerre
    # rule for e^x E1(x); its relative error is below (x + 1)/(x L_n(-x)^2),
    # the bound _e1_cf takes its depth from, and within two digits of it
    with mp.workdps(400):
        xv = mp.mpf(x)
        exact = mp.e1(xv) * mp.exp(xv)
        for n in (5, 20, 60, 150):
            tail = 0
            for j in range(n - 1, 0, -1):
                tail = -j * j / (xv + 2 * j + 1 + tail)
            err = abs(1 / (xv + 1 + tail) - exact) / exact
            bound = (xv + 1) / (xv * mp.laguerre(n, 0, -xv) ** 2)
            assert err < bound < 100 * err, (x, n)


def test_series_cap_reports_digits(monkeypatch):
    # the last of 79 terms at x = 10 gives |term|*k ~ 1e-36, against a floor
    # 20 cancellation-guard digits (2*10*log10(e) + 12) below the 10^-30
    # the result is due
    monkeypatch.setattr(epstein, "_SERIES_CAP", 80)
    with mp.workdps(30):
        with pytest.raises(PrecisionError) as err:
            _e1_series(mp.mpf(10))
    assert err.value.achieved_digits == 16


E1_POINTS = ("0.5", "10", "39.5", "40.5", "90")


def _assert_e1_matches(dps, xv):
    # the result is due to a few units in the last place of dps digits
    with mp.workdps(dps):
        val = _e1(xv, mp.exp(-xv))
    with mp.workdps(dps + 40):
        ref = mp.e1(xv)
        assert abs(val - ref) < mp.mpf(10) ** -(dps - 3) * ref, (dps, xv)


# E1 = Gamma(0, x): the ids name (s, dps) and (x, s) with s = 0
@pytest.mark.parametrize("dps", [60, 300], ids=["0-60", "0-300"])
def test_upper_gamma_against_mpmath(dps):
    # x runs across the switch to the continued fraction at _CF_MIN_X = 40
    assert epstein._CF_MIN_X == 40
    for x in E1_POINTS:
        with mp.workdps(dps):
            xv = mp.mpf(x)
        _assert_e1_matches(dps, xv)


@pytest.mark.parametrize("x", E1_POINTS, ids=[f"{x}-0" for x in E1_POINTS])
def test_upper_gamma_1000_digits(x):
    # both fixed-point loops at 1000 digits: the series below _CF_MIN_X and
    # the continued fraction above it
    with mp.workdps(1000):
        xv = mp.mpf(x)
    _assert_e1_matches(1000, xv)


@pytest.mark.parametrize("x, guard", [("0.5", 11), ("10", 11), ("40.5", 4), ("90", 4)])
def test_upper_gamma_loops_keep_guard_digits(x, guard):
    # each E1 loop, handed an exact e^-x, returns more digits than it is
    # due: the series carries at least 12 digits past its cancellation, the
    # continued fraction runs at dps + 10 to a depth whose truncation bound
    # is below 10^-(dps+6); rounding in the loop must not eat into that margin
    dps = 1000
    with mp.workdps(dps + 40):
        xv = mp.mpf(x)
        expmx, ref = mp.exp(-xv), mp.e1(xv)
    with mp.workdps(dps):
        if xv < epstein._CF_MIN_X:
            val = _e1_series(xv)
        else:
            val = _e1_cf(xv, expmx)
    with mp.workdps(dps + 40):
        assert abs(val - ref) < mp.mpf(10) ** -(dps + guard) * ref


@settings(max_examples=40, deadline=None)
@given(st.integers(25, 300), st.floats(0.1, 800, exclude_min=True, exclude_max=True))
def test_upper_gamma_against_mpmath_random(dps, x):
    # E1 = Gamma(0, x) at random precision and x, both loops, over the
    # range _theta_sum calls it on: down to its 25-digit floor, and up to
    # x ~ (dps + 12) ln 10 ~ 740 at 300 digits, where the continued
    # fraction is shortest (8 denominators at x = 400 and 25 digits)
    _assert_e1_matches(dps, mp.mpf(x))


def mp_epstein(f, s):
    """Z_Q(s) for real s off 0 and 1, by mpmath at ambient precision.

    With tau = x + iy = (-b + i sqrt(d))/(2a), Q(m, n) = a |m - n tau|^2,
    so Z_Q(s) = (sqrt(d)/2)^(-s) E(tau, s) for the Eisenstein series
    E(tau, s) = sum' y^s |m + n tau|^(-2s), continued by its Fourier
    expansion: 2 zeta(2s) y^s + 2 sqrt(pi) Gamma(s-1/2) zeta(2s-1)
    y^(1-s)/Gamma(s) + 8 pi^s sqrt(y)/Gamma(s) sum_{n>=1} n^(s-1/2)
    sigma_(1-2s)(n) K_(s-1/2)(2 pi n y) cos(2 pi n x).  No code is shared
    with the theta sums; the Bessel terms decay like e^(-2 pi n y).
    """
    d = -f.disc
    x, y = mp.mpf(-f.b) / (2 * f.a), mp.sqrt(d) / (2 * f.a)
    head = (2 * mp.zeta(2 * s) * y ** s + 2 * mp.sqrt(mp.pi) * mp.gamma(s - mp.mpf(1) / 2)
            * mp.zeta(2 * s - 1) * y ** (1 - s) / mp.gamma(s))
    nmax = int((mp.dps + 10) * mp.log(10) / (2 * mp.pi * y)) + 2
    tail = mp.fsum(n ** (s - mp.mpf(1) / 2)
                   * mp.fsum(mp.mpf(k) ** (1 - 2 * s) for k in range(1, n + 1) if n % k == 0)
                   * mp.besselk(s - mp.mpf(1) / 2, 2 * mp.pi * n * y) * mp.cos(2 * mp.pi * n * x)
                   for n in range(1, nmax + 1))
    return (mp.sqrt(d) / 2) ** -s * (head + 8 * mp.pi ** s * mp.sqrt(y) / mp.gamma(s) * tail)


@pytest.mark.parametrize("form", [QuadForm(1, 1, 2), QuadForm(2, 1, 3)])
def test_jet_matches_continuation_difference(form):
    # Z(0) = -1 holds by construction in the closed form; the continuation
    # at s = +-eps checks it, and Z'(0), independently.  (2, 1, 3) is a
    # class of d = 23, h = 3, which the zeta product test cannot reach
    lo = PrecisionContext(40)
    jet = epstein_jet(form, lo)
    assert jet.value == -1 and jet.value_exact == Fraction(-1)
    with lo.workprec():
        eps = mp.mpf(10) ** -12
        zp, zm = mp_epstein(form, eps), mp_epstein(form, -eps)
        assert abs((zp - zm) / (2 * eps) - jet.deriv) < mp.mpf(10) ** -20
        assert abs((zp + zm) / 2 + 1) < mp.mpf(10) ** -20


CLASS_NUMBER_ONE = (3, 4, 7, 8, 11, 19, 43, 67, 163)


@pytest.mark.parametrize("prec, ds", [(60, CLASS_NUMBER_ONE), (300, CLASS_NUMBER_ONE[:7])],
                         ids=["60", "300"])
def test_jet_matches_mpmath_zeta_product(prec, ds, mp_zeta_l_jet):
    # for h = 1 the principal form alone makes up zeta_k, so
    # Z_Q(s) = w zeta(s) L(eps, s); mpmath's Hurwitz zeta and its
    # s-derivative give the right side with no code shared with the
    # theta sums.  At 300 digits d = 67 and 163 are left out: mpmath
    # takes about 80 ms per zeta'(0, a/d) there, 13 s at d = 163
    ctx = PrecisionContext(prec)
    for d in ds:
        disc = Discriminant(d)
        assert reduced_forms(disc).h == 1
        jet = epstein_jet(principal_form(d), ctx)
        assert jet.value == -1 and jet.value_exact == Fraction(-1)
        with mp.workdps(ctx.working_digits + 20):
            value, deriv = mp_zeta_l_jet(d)
            assert abs(jet.value - disc.w * value) < ctx.eps(), d
            assert abs(jet.deriv - disc.w * deriv) < ctx.eps(), d


def test_jet_lemniscatic_exact(ctx):
    # d = 4: Delta(Zi + Z) = Gamma(1/4)^24 / (2^12 pi^6) gives
    # Z'(0) = -(1/12) log Delta^2 = -4 log Gamma(1/4) + 2 log 2 + log pi.
    jet = epstein_jet(QuadForm(1, 0, 1), ctx)
    with ctx.workprec():
        exact = -4 * log_gamma(Fraction(1, 4), ctx) + 2 * mp.log(2) + mp.log(mp.pi)
        assert abs(jet.value + 1) < ctx.eps(10)
        assert abs(jet.deriv - exact) < ctx.eps(10)


def test_jet_kronecker_limit(ctx):
    for d in (7, 23):
        disc = Discriminant(d)
        for f in reduced_forms(disc):
            jet = epstein_jet(f, ctx)
            with ctx.workprec():
                z = (delta_lattice(form_to_lattice(f, ctx), ctx)
                     * delta_lattice(inverse_ideal_lattice(f, ctx), ctx))
                rhs = -mp.log(mp.re(z)) / 12
                assert jet.value == -1
                assert abs(jet.deriv - rhs) < ctx.eps()


def test_jet_inverse_class_symmetry(ctx):
    a = epstein_jet(QuadForm(2, 1, 3), ctx)
    b = epstein_jet(QuadForm(2, -1, 3), ctx)
    assert abs(a.value - b.value) < ctx.eps(10)
    assert abs(a.deriv - b.deriv) < ctx.eps(10)


def test_jet_class_sum_matches_product_jet(ctx, mp_zeta_l_jet):
    # sum over classes of (1/w) Z_Q(s) is zeta(s) L(eps,s); at s = 0 the
    # value is -h/w and the derivative is (zeta L)'(0), here by mpmath
    d = 23
    disc = Discriminant(d)
    group = reduced_forms(disc)
    jets = [epstein_jet(f, ctx) for f in group]
    with mp.workdps(ctx.working_digits + 20):
        expect_value, expect = mp_zeta_l_jet(d)
    with ctx.workprec():
        value = mp.fsum(j.value for j in jets) / disc.w
        deriv = mp.fsum(j.deriv for j in jets) / disc.w
        assert abs(value + mp.mpf(group.h) / disc.w) < ctx.eps(10)
        assert abs(value - expect_value) < ctx.eps(10)
        assert abs(deriv - expect) < ctx.eps(10)
