import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from cmperiods.errors import ConsistencyError, DomainError
from cmperiods.numkernel import PrecisionContext
from cmperiods.quadforms import (ClassGroup, Discriminant, QuadForm, QuadInteger,
                                 class_number, class_number_dirichlet, compose,
                                 elements_of_norm, ideal_product, is_fundamental,
                                 kronecker, principal_form,
                                 reduce_form, reduce_with_column, reduced_forms)
from oracles import form_to_lattice, inverse_ideal_lattice


def fundamental_ds(limit):
    return [d for d in range(3, limit) if is_fundamental(d)]


def test_is_fundamental():
    assert [d for d in range(1, 30) if is_fundamental(d)] == \
        [3, 4, 7, 8, 11, 15, 19, 20, 23, 24]
    assert not is_fundamental(9)
    assert not is_fundamental(12)
    assert not is_fundamental(28)


def test_discriminant_fields():
    assert Discriminant(3).w == 6
    assert Discriminant(4).w == 4
    assert Discriminant(7).w == 2
    assert Discriminant(7).is_prime_3mod4
    assert not Discriminant(15).is_prime_3mod4
    assert not Discriminant(4).is_prime_3mod4
    with pytest.raises(DomainError):
        Discriminant(9)
    d7 = Discriminant(7)
    assert Discriminant.of(d7) is d7 and Discriminant.of(7) == d7
    assert Discriminant.prime(d7) is d7 and Discriminant.prime(23) == Discriminant(23)
    for p in (3, 4, 5, 9, 15, 21, -7, 0):
        with pytest.raises(DomainError, match="prime = 3 mod 4 with p > 3"):
            Discriminant.prime(p)


@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(min_value=-10 ** 4, max_value=10 ** 4))
@settings(max_examples=300)
def test_kronecker_matches_sympy(a, n):
    if n == 0:
        return
    assert kronecker(a, n) == int(sympy.kronecker_symbol(a, n))


@given(st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 6))
@settings(max_examples=500)
def test_epsilon_multiplicative(a, b):
    disc = Discriminant(23)
    assert disc.epsilon(a * b) == disc.epsilon(a) * disc.epsilon(b)


def test_epsilon_examples():
    d7 = Discriminant(7)
    assert d7.epsilon(2) == 1
    assert d7.epsilon(3) == -1
    assert sum(Discriminant(15).epsilon(a) for a in range(1, 15)) == 0


def test_quadform_validation():
    with pytest.raises(DomainError):
        QuadForm(-1, 1, -2)
    with pytest.raises(DomainError):
        QuadForm(1, 0, -1)  # positive discriminant
    f = QuadForm(2, 1, 3)
    assert f.disc == -23


def test_reduce_form():
    assert reduce_form(QuadForm(2, -1, 1)).tuple() == (1, 1, 2)
    assert reduce_form(QuadForm(1, 5, 8)).tuple() == (1, 1, 2)
    f = QuadForm(15, 23, 9)
    red = reduce_form(f)
    assert red.disc == f.disc
    assert red.is_reduced


def _act(f, m):
    """The form f(p X + q Y, r X + s Y) for m = (p, q, r, s)."""
    p, q, r, s = m
    return QuadForm(f.value(p, r), 2 * f.a * p * q + f.b * (p * s + q * r) + 2 * f.c * r * s,
                    f.value(q, s))


@given(st.integers(1, 10 ** 4), st.integers(-10 ** 4, 10 ** 4), st.integers(1, 10 ** 4),
       st.lists(st.integers(-50, 50), min_size=1, max_size=8))
@settings(max_examples=300)
def test_reduce_with_column(a, b, extra, ks):
    # a form and its image under a random word in T^k S reduce to the same
    # reduced form, and each carried column (x, y) is primitive and
    # represents the reduced lead coefficient
    f = QuadForm(a, b, b * b // (4 * a) + extra)
    m = (1, 0, 0, 1)
    for k in ks:
        p, q, r, s = m
        q, s = q + k * p, s + k * r  # m T^k
        m = (q, -p, s, -r)  # m S
    g = _act(f, m)
    assert g.disc == f.disc
    red = reduce_form(f)
    assert red.is_reduced and red.disc == f.disc
    for form in (f, g):
        got, x, y = reduce_with_column(form)
        assert got == red
        assert form.value(x, y) == red.a
        assert math.gcd(x, y) == 1


def test_reduced_forms_examples():
    assert [f.tuple() for f in reduced_forms(Discriminant(7))] == [(1, 1, 2)]
    assert [f.tuple() for f in reduced_forms(Discriminant(23))] == \
        [(1, 1, 6), (2, 1, 3), (2, -1, 3)]
    assert reduced_forms(Discriminant(163)).h == 1
    assert reduced_forms(Discriminant(47)).h == 5


def test_class_group_structure():
    for d in fundamental_ds(200):
        group = reduced_forms(Discriminant(d))
        forms = list(group)
        assert forms[0] == principal_form(d)
        assert len(set(forms)) == group.h
        tuples = {f.tuple() for f in forms}
        for f in forms:
            assert f.is_reduced
            assert reduce_form(QuadForm(f.a, -f.b, f.c)).tuple() in tuples


def test_class_number_agreement():
    for d in fundamental_ds(2000):
        if d > 4:
            assert class_number(Discriminant(d)) == class_number_dirichlet(Discriminant(d))


def test_class_number_spot_values():
    for d, h in ((7, 1), (23, 3), (47, 5), (163, 1), (15, 2)):
        assert class_number_dirichlet(Discriminant(d)) == h


def test_class_number_dirichlet_memo(monkeypatch):
    from cmperiods import quadforms
    quadforms._class_number_dirichlet.cache_clear()
    assert class_number_dirichlet(23) == class_number_dirichlet(Discriminant(23)) == 3
    assert quadforms._class_number_dirichlet.cache_info().currsize == 1
    # a character sum that gives no class number raises on every call
    monkeypatch.setattr(Discriminant, "epsilon", lambda self, a: 1)
    for _ in range(2):
        with pytest.raises(ConsistencyError):
            class_number_dirichlet(47)
    for _ in range(2):
        with pytest.raises(DomainError):
            class_number_dirichlet(25)


def test_compose_group_laws(rng):
    for d in (23, 47, 71):
        group = reduced_forms(Discriminant(d))
        forms = list(group)
        e = principal_form(d)
        for f in forms:
            assert compose(e, f) == f
            assert compose(f, reduce_form(QuadForm(f.a, -f.b, f.c))) == e
        for _ in range(40):
            f, g, k = (rng.choice(forms) for _ in range(3))
            assert compose(f, g) == compose(g, f)
            assert compose(compose(f, g), k) == compose(f, compose(g, k))


def test_compose_example_d23():
    f = QuadForm(2, 1, 3)
    assert compose(f, f).tuple() == (2, -1, 3)


def test_compose_domain():
    with pytest.raises(DomainError):
        compose(QuadForm(1, 1, 2), QuadForm(1, 1, 6))


@pytest.mark.parametrize("d", [23, 47, 71, 199])
def test_ideal_product(d):
    forms = list(reduced_forms(Discriminant(d)))
    for f in forms:
        for g in forms:
            fg = ideal_product(f, g)
            assert fg.disc == -d
            assert reduce_form(fg) == compose(f, g)
            if math.gcd(f.a, g.a, (f.b + g.b) // 2) == 1:
                assert fg.a == f.a * g.a
                assert (fg.b - f.b) % (2 * f.a) == 0
                assert (fg.b - g.b) % (2 * g.a) == 0


@pytest.mark.parametrize("d", [7, 23, 47, 71, 199])
def test_ideal_power_is_principal(d):
    # the h-th power of every class, as h - 1 ideal products of the form itself
    group = reduced_forms(Discriminant(d))
    for f in group:
        power = f
        for _ in range(group.h - 1):
            power = ideal_product(power, f)
        assert power.a == f.a ** group.h
        assert reduce_form(power) == principal_form(d)


def test_cornacchia_examples():
    # x^2 + d*y^2 = 4n, the equation Cornacchia's algorithm solves
    sol = elements_of_norm(7, 2)[0]
    assert (sol.x, abs(sol.y)) == (1, 1)
    sol = elements_of_norm(7, 8)[0]
    assert (sol.x, abs(sol.y)) == (5, 1)
    assert elements_of_norm(23, 5) == []


def test_cornacchia_exhaustive():
    for d in (7, 23):
        for n in range(1, 400):
            sols = elements_of_norm(d, n)
            brute = sorted(
                (x, y)
                for x in range(int(math.isqrt(4 * n)) + 1)
                for y in range(int(math.isqrt(4 * n // d)) + 1)
                if x * x + d * y * y == 4 * n and (x - y * d) % 2 == 0)
            assert sorted((q.x, q.y) for q in sols) == brute
            for q in sols:
                assert q.norm == n


def test_quad_integer_arithmetic():
    a = QuadInteger(1, 1, 7)
    assert a.norm == 2
    assert (a * a.conj()).x == 4  # norm as an element: 2 = (4 + 0)/2
    b = a ** 3
    assert b.norm == 8
    with pytest.raises(DomainError):
        QuadInteger(1, 0, 7)  # wrong parity


def test_form_to_lattice(ctx):
    with ctx.workprec():
        lat = form_to_lattice(QuadForm(1, 1, 2), ctx)
        assert abs(lat.tau - (-1 + mp.sqrt(-7)) / 2) < ctx.eps()
        assert lat.scale == 1
        lat2 = form_to_lattice(QuadForm(2, 1, 3), ctx)
        assert abs(lat2.tau - (-1 + mp.sqrt(-23)) / 4) < ctx.eps()
        assert lat2.scale == 2
        inv = inverse_ideal_lattice(QuadForm(2, 1, 3), ctx)
        assert abs(inv.tau - (1 + mp.sqrt(-23)) / 4) < ctx.eps()
        assert inv.scale == 1
