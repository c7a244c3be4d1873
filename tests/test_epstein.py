from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from cmperiods import epstein
from cmperiods.epstein import (_upper_gamma, _upper_gamma_cf, _upper_gamma_series,
                               direct_tail_bound, epstein_continued, epstein_direct,
                               epstein_jet, theta_counts)
from cmperiods.errors import DomainError, PrecisionError
from cmperiods.numkernel import Lattice, PrecisionContext, delta_lattice, log_gamma
from cmperiods.quadforms import (Discriminant, QuadForm, form_to_lattice,
                                 inverse_ideal_lattice, reduced_forms)


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


def test_continued_domain_errors(ctx):
    f = QuadForm(1, 1, 2)
    for s in (0, 1):
        with pytest.raises(DomainError):
            epstein_continued(f, mp.mpf(s), ctx)


def test_trivial_zeros(ctx):
    f = QuadForm(1, 1, 2)
    for s in (-1, -2, -5):
        assert epstein_continued(f, mp.mpf(s), ctx) == 0


def test_cf_stall_reports_digits(monkeypatch):
    # five Lentz steps at x = 50 settle about eleven digits
    monkeypatch.setattr(epstein, "_CF_CAP", 5)
    with mp.workdps(30):
        with pytest.raises(PrecisionError) as err:
            _upper_gamma_cf(mp.mpf(0), mp.mpf(50), mp.exp(-50))
    assert err.value.achieved_digits == 11


def test_series_cap_reports_digits(monkeypatch):
    # the last of 79 terms at x = 10 gives |term|*k ~ 1e-36, against a floor
    # 25 cancellation-guard digits below the 10^-30 the result is due
    monkeypatch.setattr(epstein, "_SERIES_CAP", 80)
    with mp.workdps(30):
        with pytest.raises(PrecisionError) as err:
            _upper_gamma_series(mp.mpf("0.5"), mp.mpf(10))
    assert err.value.achieved_digits == 11


@pytest.mark.parametrize("dps", [60, 300])
@pytest.mark.parametrize("s", ["0", "1e-8", "-1e-8", "-1", "-2", "-3", "-0.5", "-1.5", "-2.5"])
def test_upper_gamma_against_mpmath(dps, s):
    # x runs across the switch to the continued fraction at _CF_MIN_X = 40,
    # s through 0 from both sides, the negative integers and half-integers
    # that take the downward recurrence; the result is due to a few units
    # in the last place of the ambient precision
    assert epstein._CF_MIN_X == 40
    for x in ("0.5", "10", "39.5", "40.5", "90"):
        with mp.workdps(dps):
            sv, xv = mp.mpf(s), mp.mpf(x)
            val = _upper_gamma(sv, xv, mp.exp(-xv))
        with mp.workdps(dps + 40):
            ref = mp.e1(xv) if sv == 0 else mp.gammainc(sv, xv)
            assert abs(val - ref) < mp.mpf(10) ** -(dps - 3) * abs(ref), (s, x)


def _assert_upper_gamma_matches(dps, sv, xv):
    # the result is due to a few units in the last place of dps digits
    with mp.workdps(dps):
        val = _upper_gamma(sv, xv, mp.exp(-xv))
    with mp.workdps(dps + 40):
        ref = mp.e1(xv) if sv == 0 else mp.gammainc(sv, xv)
        assert abs(val - ref) < mp.mpf(10) ** -(dps - 3) * abs(ref), (dps, sv, xv)


@pytest.mark.parametrize("s", ["0", "-0.5", "0.5", "1.7"])
@pytest.mark.parametrize("x", ["10", "39.5", "40.5", "90"])
def test_upper_gamma_1000_digits(s, x):
    # both fixed-point loops at 1000 digits: the series below _CF_MIN_X and
    # the continued fraction above it; s = 0.5 and 1.7 are the positive
    # arguments epstein_continued passes, s = -0.5 takes the downward
    # recurrence below 40
    with mp.workdps(1000):
        sv, xv = mp.mpf(s), mp.mpf(x)
    _assert_upper_gamma_matches(1000, sv, xv)


@pytest.mark.parametrize("x, guard", [("0.5", 11), ("10", 11), ("40.5", 4), ("90", 4)])
def test_upper_gamma_loops_keep_guard_digits(x, guard):
    # each loop, handed an exact e^-x, returns more digits than it is due:
    # the series carries at least 12 digits past its cancellation, the
    # continued fraction runs at dps + 10 and stops at |delta - 1| below
    # 10^-(dps+6); rounding in the loop must not eat into that margin
    dps = 1000
    with mp.workdps(dps + 40):
        xv = mp.mpf(x)
        expmx, ref = mp.exp(-xv), mp.e1(xv)
    with mp.workdps(dps):
        if xv < epstein._CF_MIN_X:
            val = _upper_gamma_series(mp.mpf(0), xv)
        else:
            val = _upper_gamma_cf(mp.mpf(0), xv, expmx)
    with mp.workdps(dps + 40):
        assert abs(val - ref) < mp.mpf(10) ** -(dps + guard) * ref


@settings(max_examples=40, deadline=None)
@given(st.integers(30, 300), st.floats(-3, 2, exclude_min=True, exclude_max=True),
       st.floats(0.1, 200, exclude_min=True, exclude_max=True))
def test_upper_gamma_against_mpmath_random(dps, s, x):
    # away from the poles of Gamma(s) at 0, -1, -2, where both sides cancel
    assume(min(abs(s + n) for n in range(3)) > 1e-3)
    _assert_upper_gamma_matches(dps, mp.mpf(s), mp.mpf(x))


@pytest.mark.parametrize("form", [QuadForm(1, 1, 2), QuadForm(2, 1, 3)])
def test_jet_matches_continuation_difference(form):
    # Z(0) = -1 holds by construction in the closed form; the continuation
    # at s = +-eps checks it, and Z'(0), independently
    lo = PrecisionContext(40)
    jet = epstein_jet(form, lo)
    assert jet.value == -1 and jet.value_exact == Fraction(-1)
    with lo.workprec():
        eps = mp.mpf(10) ** -12
        zp = epstein_continued(form, eps, lo)
        zm = epstein_continued(form, -eps, lo)
        assert abs((zp - zm) / (2 * eps) - jet.deriv) < mp.mpf(10) ** -20
        assert abs((zp + zm) / 2 + 1) < mp.mpf(10) ** -20


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


def test_jet_class_sum_matches_product_jet(ctx):
    # sum over classes of (1/w) Z_Q(s) is zeta(s) L(eps,s); at s = 0 the
    # value is -h/w and the derivative follows from the factor jets.
    from cmperiods.lseries import dirichlet_jet, riemann_jet
    d = 23
    disc = Discriminant(d)
    group = reduced_forms(disc)
    jets = [epstein_jet(f, ctx) for f in group]
    rj, dj = riemann_jet(ctx), dirichlet_jet(disc, ctx)
    with ctx.workprec():
        value = mp.fsum(j.value for j in jets) / disc.w
        deriv = mp.fsum(j.deriv for j in jets) / disc.w
        assert abs(value + mp.mpf(group.h) / disc.w) < ctx.eps(10)
        expect = rj.value * dj.deriv + rj.deriv * dj.value
        assert abs(deriv - expect) < ctx.eps(10)


def test_functional_equation(ctx):
    # (2pi/sqrt d)^(-s) Gamma(s) Z(s) is invariant under s -> 1-s for
    # these forms (the dual form represents the same integers).
    f = QuadForm(1, 1, 2)
    with ctx.workprec():
        t0 = 2 * mp.pi / mp.sqrt(7)
        def lam(s):
            return t0 ** -s * mp.gamma(s) * epstein_continued(f, s, ctx)
        for s in (mp.mpf("0.3"), mp.mpf("2.5")):
            a, b = lam(s), lam(1 - s)
            assert abs(a - b) < ctx.eps(15) * max(1, abs(a))


def test_direct_domain_error(ctx):
    with pytest.raises(DomainError):
        epstein_direct(QuadForm(1, 1, 2), mp.mpf("1.05"), ctx)


def test_direct_precision_error(ctx):
    # s = 2 at 120 digits needs an astronomically large ellipse.
    with pytest.raises(PrecisionError) as err:
        epstein_direct(QuadForm(1, 1, 2), mp.mpf(2), ctx)
    assert err.value.achieved_digits is not None
    assert err.value.achieved_digits < 10


def test_direct_matches_continued_at_honest_tolerance(ctx):
    f = QuadForm(1, 1, 2)
    with ctx.workprec():
        for s in (mp.mpf(2), mp.mpf(3)):
            radius = 200000
            direct = epstein_direct(f, s, ctx, radius=radius)
            bound = direct_tail_bound(f, s, radius)
            cont = epstein_continued(f, s, ctx)
            assert abs(direct - cont) < bound


def test_direct_tail_bound_is_sharp(ctx):
    # the known-good continued value sits below the bound but within a
    # modest factor of it, so the bound is honest and not wildly loose
    f = QuadForm(1, 1, 2)
    with ctx.workprec():
        s = mp.mpf("2.5")
        radius = 200000
        direct = epstein_direct(f, s, ctx, radius=radius)
        cont = epstein_continued(f, s, ctx)
        bound = direct_tail_bound(f, s, radius)
        gap = abs(direct - cont)
        assert gap < bound
        assert gap > bound / 500


def test_direct_full_precision_at_large_s():
    ctx = PrecisionContext(90)
    f = QuadForm(1, 1, 2)
    with ctx.workprec():
        s = mp.mpf(30)
        direct = epstein_direct(f, s, ctx)
        cont = epstein_continued(f, s, ctx)
        assert abs(direct - cont) < mp.mpf(10) ** -(ctx.target_digits - 10)


def test_direct_symmetry_of_mirrored_forms(ctx):
    lo = PrecisionContext(30, 10)
    with lo.workprec():
        a = epstein_direct(QuadForm(2, 1, 3), mp.mpf(4), lo, radius=50000)
        b = epstein_direct(QuadForm(2, -1, 3), mp.mpf(4), lo, radius=50000)
        assert a == b
