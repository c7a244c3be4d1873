"""The unramified Hecke character psi_M on ideals of Q(sqrt(-p)).

Ideals are Z-modules in coordinates (1, omega), omega = (1 + sqrt(-p))/2,
kept in Hermite normal form [[n, 0], [m, g]].  For a form (a, b, c) of
discriminant -p the ideal is [a, (-b + sqrt(-p))/2]; its h-th power is
principal, and psi_M picks the generator beta whose residue modulo
sqrt(-p) is a square.  That normalization makes the character value
independent of the chosen form in the class.
"""

from __future__ import annotations

from math import gcd

from .errors import ConsistencyError, DomainError
from .quadforms import (Discriminant, QuadForm, QuadInteger, class_number_dirichlet,
                        compose, cornacchia_all, form_pow, principal_form)


def _extgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _hnf2(rows):
    """HNF basis [[n, 0], [m, g]] of the module spanned by (x, y) rows."""
    g = 0
    gx = 0
    for x, y in rows:
        if y == 0:
            continue
        if g == 0:
            g, gx = y, x
        else:
            dd, u, v = _extgcd(g, y)
            gx = u * gx + v * x
            g = dd
    if g < 0:
        g, gx = -g, -gx
    n = 0
    for x, y in rows:
        n = gcd(n, x - (y // g) * gx if g else x)
    if n == 0 or g == 0:
        raise ConsistencyError("module rows do not span a rank-2 lattice")
    return n, gx % n, g


def _elem_mul(e1, e2, p):
    # (x1 + y1 w)(x2 + y2 w) with w^2 = w - (p + 1)/4
    x1, y1 = e1
    x2, y2 = e2
    yy = y1 * y2
    return (x1 * x2 - yy * (p + 1) // 4, x1 * y2 + y1 * x2 + yy)


def _ideal_mul(i1, i2, p):
    n1, m1, g1 = i1
    n2, m2, g2 = i2
    rows = [_elem_mul(e, f, p)
            for e in ((n1, 0), (m1, g1))
            for f in ((n2, 0), (m2, g2))]
    return _hnf2(rows)


def _ideal_pow(ideal, k, p):
    out = (1, 0, 1)
    base = ideal
    while k:
        if k & 1:
            out = _ideal_mul(out, base, p)
        base = _ideal_mul(base, base, p)
        k >>= 1
    return out


def _member(x, y, ideal):
    n, m, g = ideal
    if y % g:
        return False
    return (x - (y // g) * m) % n == 0


def _form_ideal(f: QuadForm) -> tuple:
    # [a, (-b + sqrt(-p))/2] = [a, (-b - 1)/2 + omega]
    return _hnf2([(f.a, 0), ((-f.b - 1) // 2, 1)])


def psi_M(f: QuadForm, p) -> QuadInteger:
    """Character value on the class of f: the square-normalized generator of a^h."""
    disc = Discriminant.prime(p)
    p = disc.d
    if f.disc != -p:
        raise DomainError("form discriminant does not match p")
    if f.a % p == 0:
        raise DomainError("the form must be prime to p")
    h = class_number_dirichlet(disc)
    if form_pow(f, h) != principal_form(p):
        raise ConsistencyError(f"class of {f.tuple()} does not have order dividing h={h}")
    power = _ideal_pow(_form_ideal(f), h, p)
    norm = f.a ** h
    if power[0] * power[2] != norm:
        raise ConsistencyError("ideal power has the wrong norm")
    inv2 = (p + 1) // 2
    for cand in cornacchia_all(p, norm):
        for x, y in ((cand.x, cand.y), (cand.x, -cand.y),
                     (-cand.x, cand.y), (-cand.x, -cand.y)):
            if not _member((x - y) // 2, y, power):
                continue
            if pow(x * inv2 % p, (p - 1) // 2, p) == 1:
                return QuadInteger(x, y, p)
    raise ConsistencyError(f"no normalized generator found for {f.tuple()}^{h}")


def psi_multiplicativity_check(p, f: QuadForm, g: QuadForm) -> bool:
    """Does psi_M(f) psi_M(g) conj(psi_M(f*g)) equal +-nu^h for an integral nu?

    Exact arithmetic throughout: nu ranges over the elements of norm
    a_f a_g a_c given by descent, with all four sign variants.
    """
    disc = Discriminant.prime(p)
    p = disc.d
    h = class_number_dirichlet(disc)
    c = compose(f, g)
    rho = psi_M(f, p) * psi_M(g, p) * psi_M(c, p).conj()
    for cand in cornacchia_all(p, f.a * g.a * c.a):
        for sx in (1, -1):
            for sy in (1, -1):
                nu = QuadInteger(sx * cand.x, sy * cand.y, p) ** h
                if nu == rho or -nu == rho:
                    return True
    return False
