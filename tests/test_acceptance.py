"""End-to-end acceptance battery.

One test per shipped guarantee, at the tolerances the package promises.
Everything runs at 120 target digits unless a check says otherwise.
"""

import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

from cmperiods.csperiods import (cs_verify, faltings_height_L,
                                 faltings_height_periods, m_invariant,
                                 period_integral)
from cmperiods.epstein import epstein_jet
from cmperiods.fermat import cm_type, epsilon_rst, tate_twist_certificate
from cmperiods.heckechar import psi_M, psi_multiplicativity_check
from cmperiods.lseries import dirichlet_jet
from cmperiods.numkernel import (PrecisionContext, delta_lattice, delta_q_terms,
                                 log_gamma, to_mpf)
from cmperiods.quadforms import (Discriminant, class_number, class_number_dirichlet,
                                 is_fundamental, reduced_forms)
from oracles import form_to_lattice, inverse_ideal_lattice


def fundamental_range(lo, hi):
    return [d for d in range(lo, hi) if is_fundamental(d)]


def mixed_triples(p):
    disc = Discriminant(p)
    out = []
    for r in range(1, p):
        for s in range(1, p):
            t = (-r - s) % p
            if t == 0:
                continue
            if abs(disc.epsilon(r) + disc.epsilon(s) + disc.epsilon(t)) == 1:
                out.append((r, s, t))
    return out


def test_criterion_01_chowla_selberg(ctx):
    start = time.monotonic()
    tol = mp.mpf(10) ** -100
    checked = 0
    for d in fundamental_range(3, 201):
        rep = cs_verify(d, ctx)
        assert rep.passed, f"d={d}"
        assert abs(rep.lhs - rep.rhs) < tol, f"d={d}"
        checked += 1
    assert checked == 62
    assert time.monotonic() - start < 600


def test_criterion_02_kronecker_limit(ctx):
    # the row rule of every identity check: target - 20 digits
    tol = ctx.eps(20)
    for d in (7, 23, 47, 163):
        disc = Discriminant(d)
        for f in reduced_forms(disc):
            jet = epstein_jet(f, ctx)
            with ctx.workprec():
                prod = (delta_lattice(form_to_lattice(f, ctx), ctx)
                        * delta_lattice(inverse_ideal_lattice(f, ctx), ctx))
                rhs = -mp.log(mp.fabs(prod)) / 12
                assert jet.value == -1, f"d={d} {f.tuple()}"
                assert abs(jet.deriv - rhs) < tol * abs(rhs), f"d={d} {f.tuple()}"


def test_criterion_03_class_numbers():
    for d in fundamental_range(5, 2000):
        assert class_number(d) == class_number_dirichlet(d), f"d={d}"
    spots = {7: 1, 23: 3, 47: 5, 163: 1}
    for d, h in spots.items():
        assert class_number(d) == h


def test_criterion_04_period_product(ctx):
    tol = mp.mpf(10) ** -100
    for p in (7, 11, 23, 31, 47):
        disc = Discriminant(p)
        group = reduced_forms(disc)
        with ctx.workprec():
            lhs = mp.fsum(mp.log(period_integral(f, disc, ctx)) for f in group)
            rhs = group.h * mp.log(2 * mp.pi / p) + mp.fsum(
                disc.epsilon(a) * log_gamma(Fraction(a, p), ctx)
                for a in range(1, p))
            assert abs(lhs - rhs) < tol, f"p={p}"


def test_criterion_05_faltings_height(ctx):
    tol = mp.mpf(10) ** -100
    for p in (7, 11, 23, 43, 67, 163):
        with ctx.workprec():
            gap = faltings_height_periods(p, ctx) - faltings_height_L(p, ctx)
            assert abs(gap) < tol, f"p={p}"


def test_criterion_06_m_invariant():
    from cmperiods.arith import is_prime
    checked = 0
    for p in range(7, 1000):
        if p % 4 != 3 or not is_prime(p):
            continue
        h = class_number_dirichlet(Discriminant(p))
        assert m_invariant(p) == Fraction(p - 1, 4) - Fraction(h, 2), f"p={p}"
        checked += 1
    assert checked == 86


def test_criterion_07_cm_types():
    for p in (7, 11, 19, 23):
        h = class_number_dirichlet(Discriminant(p))
        for r in range(1, p):
            for s in range(1, p):
                t = (-r - s) % p
                if t == 0:
                    continue
                rec = cm_type(p, r, s, t)
                assert rec.u + rec.v == (p - 1) // 2
                assert rec.u - rec.v == h * epsilon_rst(p, r, s, t)


def certify_mixed_triples(ctx):
    for p in (7, 11, 19):
        for r, s, t in mixed_triples(p):
            cert = tate_twist_certificate(p, r, s, t, ctx)
            assert cert.recognized is not None, f"p={p} rst={(r, s, t)}"
            assert cert.passed, f"p={p} rst={(r, s, t)}"
            assert cert.height < 10 ** 8, f"p={p} rst={(r, s, t)}"
            # the ratio is formed 10 digits past working precision and
            # rounded once, so it agrees with its exact value to all of them
            assert cert.report.digits_agreed == ctx.working_digits, f"p={p} rst={(r, s, t)}"


def test_criterion_08_tate_certificates(ctx):
    certify_mixed_triples(ctx)


@pytest.mark.parametrize("prec", [30, 300])
def test_tate_certificates_precision_sweep(prec):
    certify_mixed_triples(PrecisionContext(prec))


def test_criterion_09_hecke_character():
    for p in (7, 23, 31, 47):
        group = reduced_forms(p)
        for f in group:
            beta = psi_M(f, p)
            assert beta.norm == f.a ** group.h
            u = beta.x * (p + 1) // 2 % p
            assert u and pow(u, (p - 1) // 2, p) == 1
            assert pow(p - u, (p - 1) // 2, p) == p - 1
    rng = random.Random(1729)
    forms = list(reduced_forms(23))
    for _ in range(100):
        assert psi_multiplicativity_check(23, rng.choice(forms), rng.choice(forms))


def test_criterion_10_numeric_kernel(ctx):
    rng = random.Random(1729)
    n = ctx.target_digits
    with ctx.workprec():
        pi = +mp.pi

        tol = mp.mpf(10) ** (5 - n)
        for _ in range(200):
            x = Fraction(rng.randint(1, 9999), 10 ** 4)
            val = mp.exp(log_gamma(x, ctx) + log_gamma(1 - x, ctx)) * mp.sinpi(to_mpf(x))
            assert abs(val - pi) < tol

        for _ in range(50):
            x = Fraction(rng.randint(1, 4999), 10 ** 4)
            lhs = mp.exp(log_gamma(2 * x, ctx)) * mp.sqrt(pi)
            rhs = (mp.mpf(2) ** to_mpf(2 * x - 1)
                   * mp.exp(log_gamma(x, ctx) + log_gamma(x + Fraction(1, 2), ctx)))
            assert abs(lhs - rhs) < tol

        tol = mp.mpf(10) ** (10 - n)
        for p in (7, 11, 19, 23):
            prod = mp.exp(mp.fsum(log_gamma(Fraction(a, p), ctx)
                                  for a in range(1, p)))
            assert abs(prod - (2 * pi) ** ((p - 1) // 2) / mp.sqrt(p)) < tol

        # Lerch: zeta'(0, x) = log Gamma(x) - log(2 pi)/2, against mpmath's
        # independent Hurwitz zeta derivative
        tol = mp.mpf(10) ** -(n // 2)
        for _ in range(20):
            x = Fraction(rng.randint(1, 9999), 10 ** 4)
            deriv = mp.zeta(0, to_mpf(x), 1)
            lerch = log_gamma(x, ctx) - mp.log(2 * pi) / 2
            assert abs(deriv - lerch) < tol

        tol = mp.mpf(10) ** -n
        for d, f in ((7, (1, 1, 2)), (23, (1, 1, 6)), (23, (2, 1, 3)),
                     (163, (1, 1, 41))):
            group = reduced_forms(d)
            form = next(g for g in group if g.tuple() == f)
            lat = form_to_lattice(form, ctx)
            terms = delta_q_terms(mp.im(lat.tau), ctx.working_digits)
            base = delta_lattice(lat, ctx)
            doubled = delta_lattice(lat, ctx, terms=2 * terms)
            assert abs(base - doubled) < tol
