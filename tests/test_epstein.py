from fractions import Fraction
from math import pi, sqrt

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from cmperiods import epstein
from cmperiods.epstein import (_cf_depth, _e1_cf, _scale_bits, _switch, _theta_sums,
                               epstein_jet, epstein_jets, theta_counts)
from cmperiods.errors import PrecisionError
from cmperiods.lseries import dirichlet_jet
from cmperiods.numkernel import _GUARD_BITS, _LN10, _LOG10_2, PrecisionContext, delta_lattice, log_gamma
from cmperiods.quadforms import Discriminant, QuadForm, principal_form, reduced_forms
from oracles import form_to_lattice, inverse_ideal_lattice


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


@pytest.mark.parametrize("d", [3, 4, 23, 71])
def test_theta_counts_sum_over_classes(d):
    # summed over the classes, r_f(n) counts the ideals of norm n, w at a
    # time: w sum_{m | n} eps(m)
    disc = Discriminant(d)
    rows = [theta_counts(f, 300) for f in reduced_forms(disc)]
    for n in range(1, 301):
        ideals = sum(disc.epsilon(m) for m in range(1, n + 1) if n % m == 0)
        assert sum(row[n] for row in rows) == disc.w * ideals, (d, n)


def test_cf_stall_reports_digits(monkeypatch):
    # at the cap of five denominators the bound at x = 50,
    # 51/(50 L_5(-50)^2) = 10^-13.2, proves 13 digits of the 30 asked
    monkeypatch.setattr(epstein, "_CF_CAP", 5)
    with pytest.raises(PrecisionError) as err:
        _cf_depth(50.0, int(30 / _LOG10_2))
    assert err.value.achieved_digits == 13


@pytest.mark.parametrize("x", ["1", "5", "40.5", "100"])
def test_cf_truncation_bound_is_sharp(x):
    # the convergent with n denominators is the n-point Gauss-Laguerre
    # rule for e^x E1(x); its relative error is below (x + 1)/(x L_n(-x)^2),
    # the bound _cf_depth takes the depth from, and within two digits of it
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


def _limit(dps, d):
    # the last n of the theta sum of d at dps digits, as epstein_jets takes it
    return int((dps + 12) * _LN10 / (2 * pi / sqrt(d))) + 4


def _terms(dps, d, ns, limit):
    """E1(x) + e^-x/x at x = n t0, t0 = 2 pi/sqrt(d), for each n: one theta sum
    of count 1 at n alone, on rows that run to limit."""
    with mp.workdps(dps):
        return _theta_sums([([n], [1]) for n in ns], d, limit)


def _assert_terms_match(dps, d, ns, limit):
    # a theta sum is due to a few units of 2^-W ~ 10^-(dps+18) per count
    vals = _terms(dps, d, ns, limit)
    with mp.workdps(dps + 40):
        t0 = 2 * mp.pi / mp.sqrt(d)
        for n, val in zip(ns, vals):
            ref = mp.e1(n * t0) + mp.exp(-n * t0) / (n * t0)
            assert abs(val - ref) < mp.mpf(10) ** -(dps + 16), (dps, n)


# E1 = Gamma(0, x): the ids name (s, dps) and (x, s) with s = 0
@pytest.mark.parametrize("dps", [25, 60, 300, 1000], ids=["0-25", "0-60", "0-300", "0-1000"])
def test_upper_gamma_against_mpmath(dps):
    # the terms of the theta sum of d = 7 on both sides of the switch N
    # that _theta_sums derives at dps: the series up to N, the continued
    # fraction past it, to the last n of the sum
    d = 7
    limit = _limit(dps, d)
    top = _switch(2 * pi / sqrt(d), _scale_bits(dps), limit)
    assert 1 < top < limit
    _assert_terms_match(dps, d, [1, top - 1, top, top + 1, top + 2, limit], limit)


E1_POINTS = ("0.5", "10", "39.5", "40.5", "90")


def _disc_at(x):
    # d = (2 pi/x)^2 puts the term n = 1 of its theta sum at x
    with mp.workdps(1100):
        return (2 * mp.pi / mp.mpf(x)) ** 2


@pytest.mark.parametrize("x", E1_POINTS, ids=[f"{x}-0" for x in E1_POINTS])
def test_upper_gamma_1000_digits(x):
    # one term at 1000 digits, its rows running to the limit of its d
    d = _disc_at(x)
    _assert_terms_match(1000, d, [1], _limit(1000, d))


@pytest.mark.parametrize("x, guard, loop",
                         [("0.5", 11, "series"), ("10", 11, "series"),
                          ("40.5", 4, "fraction"), ("90", 4, "fraction")],
                         ids=["0.5-11", "10-11", "40.5-4", "90-4"])
def test_upper_gamma_loops_keep_guard_digits(x, guard, loop):
    # each loop returns more digits than it is due, at 1000 digits.  The
    # series holds E1(x) + e^-x/x to about 2^-W ~ 10^-(dps+18) absolute,
    # at least 11 digits past 10^-dps relative for x <= 10.  The fraction
    # runs on 2^-(b+20) to the depth whose truncation bound is below 2^-b,
    # b the bits of 10^-(dps+6), and holds e^x E1(x) + 1/x relative;
    # rounding in either loop must not eat into that margin
    dps = 1000
    with mp.workdps(dps + 40):
        xv = mp.mpf(x)
        ref = mp.e1(xv) + mp.exp(-xv) / xv
    if loop == "series":
        d = _disc_at(x)
        limit = _limit(dps, d)
        assert _switch(float(xv), _scale_bits(dps), limit) >= 1
        val, = _terms(dps, d, [1], limit)
    else:
        bits = int((dps + 6) / _LOG10_2) + 1
        with mp.workdps(dps + 40):
            xf = int(mp.ldexp(xv, bits + _GUARD_BITS))
        scaled = _e1_cf(xf, bits + _GUARD_BITS, _cf_depth(float(xv), bits))
        with mp.workdps(dps + 40):
            val = mp.ldexp(scaled, -(bits + _GUARD_BITS)) * mp.exp(-xv)
    with mp.workdps(dps + 40):
        assert abs(val - ref) < mp.mpf(10) ** -(dps + guard) * ref


@settings(max_examples=40, deadline=None)
@given(st.integers(25, 300), st.floats(0.1, 800, exclude_min=True, exclude_max=True))
def test_upper_gamma_against_mpmath_random(dps, x):
    # one term of a theta sum at random precision and x, on either side of
    # the switch: down to the 25 digits of the tests' floor, and up to
    # x ~ (dps + 12) ln 10 ~ 720 at 300 digits, the last term of a sum
    d = _disc_at(x)
    _assert_terms_match(dps, d, [1], _limit(dps, d))


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


def test_jets_class_sum_matches_dirichlet_jet():
    # sum_f Z_f(s) = w zeta(s) L(eps, s) with zeta(0) = -1/2,
    # zeta'(0) = -log(2 pi)/2 and L(eps, 0) = 2h/w, so
    # sum_f Z_f'(0) = -h log(2 pi) - (w/2) L'(eps, 0): the jets of one
    # shared pass over the seven classes of d = 71 against the Gamma side
    # of dirichlet_jet, with no Delta in it
    ctx = PrecisionContext(60)
    disc = Discriminant(71)
    group = reduced_forms(disc)
    jets = epstein_jets(list(group), ctx)
    lder = dirichlet_jet(disc, ctx).deriv
    with ctx.workprec():
        lhs = mp.fsum(j.deriv for j in jets)
        rhs = -group.h * mp.log(2 * mp.pi) - disc.w * lder / 2
        assert group.h == 7 and all(j.value == -1 for j in jets)
        assert abs(lhs - rhs) < ctx.eps(-15)


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
