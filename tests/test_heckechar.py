import json
import random
from pathlib import Path

import pytest

from cmperiods import heckechar
from cmperiods.arith import is_prime
from cmperiods.errors import DomainError
from cmperiods.heckechar import psi_M, psi_multiplicativity_check
from cmperiods.quadforms import (QuadForm, QuadInteger, compose, ideal_product,
                                 reduced_forms)

GOLDEN = Path(__file__).parent / "golden"


def test_psi_frozen_values():
    assert psi_M(QuadForm(2, -1, 1), 7) == QuadInteger(1, 1, 7)
    assert psi_M(QuadForm(2, 1, 1), 7) == QuadInteger(1, -1, 7)
    assert psi_M(QuadForm(1, 1, 2), 7) == QuadInteger(2, 0, 7)
    assert psi_M(QuadForm(2, 1, 3), 23) == QuadInteger(3, 1, 23)


@pytest.mark.parametrize("p", [7, 23, 31, 47, 151, 163])
def test_psi_norm_law(p):
    group = reduced_forms(p)
    for f in group:
        beta = psi_M(f, p)
        assert beta.norm == f.a ** group.h


@pytest.mark.parametrize("p", [7, 23, 31])
def test_psi_sign_normalization(p):
    # the returned generator has x/2 a square mod p; its negative never does
    for f in reduced_forms(p):
        beta = psi_M(f, p)
        u = beta.x * (p + 1) // 2 % p
        assert u != 0
        assert pow(u, (p - 1) // 2, p) == 1
        assert pow(p - u, (p - 1) // 2, p) == p - 1


@pytest.mark.parametrize("p", [23, 31])
def test_psi_class_invariance(p):
    for f in reduced_forms(p):
        # (a, b + 2ka, ak^2 + bk + c); a huge k enters the membership congruence
        for k in (1, -3, 7, 10 ** 6):
            shifted = QuadForm(f.a, f.b + 2 * k * f.a, f.a * k * k + f.b * k + f.c)
            assert psi_M(shifted, p) == psi_M(f, p)


def test_psi_golden_table():
    # every reduced form of every prime p = 3 mod 4, 7 <= p < 500
    table = json.loads((GOLDEN / "psi_M_p_lt_500.json").read_text())
    assert table["columns"] == ["p", "a", "b", "c", "x", "y"]
    assert len(table["rows"]) == 351 and len({row[0] for row in table["rows"]}) == 49
    for p, a, b, c, x, y in table["rows"]:
        assert psi_M(QuadForm(a, b, c), p) == QuadInteger(x, y, p)


def test_psi_generates_the_ideal_power():
    # beta has norm a^h, lies in a^h = [A, (-B + sqrt(-p))/2] and has
    # beta.x/2 a square mod p; a generator of a^h is unique up to sign, so
    # these fix beta.  Every reduced form of every prime p = 3 mod 4,
    # 500 < p < 2000, the range the golden table does not reach
    count = 0
    for p in range(503, 2000, 4):
        if not is_prime(p):
            continue
        group = reduced_forms(p)
        for f in group:
            power = f
            for _ in range(group.h - 1):
                power = ideal_product(power, f)
            beta = psi_M(f, p)
            assert beta.norm == f.a ** group.h == power.a
            assert (beta.x + beta.y * power.b) % (2 * power.a) == 0
            assert pow(beta.x * (p + 1) // 2 % p, (p - 1) // 2, p) == 1
            count += 1
    assert count == 1837


def test_psi_principal_is_one():
    for p in (7, 23, 31, 47):
        group = reduced_forms(p)
        one = psi_M(group.forms[0], p)
        assert one == QuadInteger(2, 0, p)


def test_multiplicativity_examples():
    group = reduced_forms(23)
    forms = list(group)
    assert psi_multiplicativity_check(23, QuadForm(2, 1, 3), QuadForm(2, -1, 3))
    assert psi_multiplicativity_check(23, forms[0], forms[0])


def test_multiplicativity_random_pairs():
    rng = random.Random(1729)
    forms = list(reduced_forms(23))
    for _ in range(100):
        f = rng.choice(forms)
        g = rng.choice(forms)
        assert psi_multiplicativity_check(23, f, g)


def test_multiplicativity_check_can_fail(monkeypatch):
    # psi of the class (2, 1, 3) replaced by its conjugate is no character:
    # the check must refuse the pairs whose product it breaks
    true_psi = heckechar.psi_M

    def conjugated(f, p):
        beta = true_psi(f, p)
        return beta.conj() if f == QuadForm(2, 1, 3) else beta

    forms = list(reduced_forms(23))
    assert all(psi_multiplicativity_check(23, f, g) for f in forms for g in forms)
    monkeypatch.setattr(heckechar, "psi_M", conjugated)
    results = [psi_multiplicativity_check(23, f, g) for f in forms for g in forms]
    assert results.count(False) == 4


def test_multiplicativity_consistent_with_compose():
    # norms of psi(f)psi(g) and psi(compose(f,g)) track the form leads
    p = 31
    forms = list(reduced_forms(p))
    hnum = len(forms)
    for f in forms:
        for g in forms:
            fg = compose(f, g)
            assert (psi_M(f, p) * psi_M(g, p)).norm == (f.a * g.a) ** hnum
            assert psi_M(fg, p).norm == fg.a ** hnum
            assert psi_multiplicativity_check(p, f, g)


def test_domain_errors():
    with pytest.raises(DomainError):
        psi_M(QuadForm(1, 0, 1), 4)
    with pytest.raises(DomainError):
        psi_M(QuadForm(1, 1, 2), 5)
    with pytest.raises(DomainError):
        psi_M(QuadForm(1, 1, 1), 3)
    with pytest.raises(DomainError):
        psi_M(QuadForm(1, 1, 2), 11)
    with pytest.raises(DomainError):
        psi_M(QuadForm(7, 7, 2), 7)
