"""The unramified Hecke character psi_M on ideals of Q(sqrt(-p)).

Ideals are binary forms: (a, b, c) of discriminant -p stands for the
ideal [a, (-b + sqrt(-p))/2].  For p prime and p not dividing a, gcd(a, b)
= 1 (a common prime of a and b would divide p), so each composition in
the power a^h is united and the unreduced product (a^h, B, C) is the
ideal a^h itself, not only its class.  That power is principal, and
psi_M picks the generator beta whose residue modulo sqrt(-p) is a
square.  That normalization makes the character value independent of
the chosen form in the class.
"""

from __future__ import annotations

from .errors import ConsistencyError, DomainError
from .quadforms import (Discriminant, QuadForm, QuadInteger, class_number_dirichlet,
                        compose, cornacchia_all, ideal_product, principal_form,
                        reduce_form)


def psi_M(f: QuadForm, p) -> QuadInteger:
    """Character value on the class of f: the square-normalized generator of a^h."""
    disc = Discriminant.prime(p)
    p = disc.d
    if f.disc != -p:
        raise DomainError("form discriminant does not match p")
    if f.a % p == 0:
        raise DomainError("the form must be prime to p")
    h = class_number_dirichlet(disc)
    power = f
    for _ in range(h - 1):
        power = ideal_product(power, f)
    if reduce_form(power) != principal_form(p):
        raise ConsistencyError(f"class of {f.tuple()} does not have order dividing h={h}")
    norm = f.a ** h
    if power.a != norm:
        raise ConsistencyError("ideal power has the wrong norm")
    inv2 = (p + 1) // 2
    for cand in cornacchia_all(p, norm):
        for x, y in ((cand.x, cand.y), (cand.x, -cand.y),
                     (-cand.x, cand.y), (-cand.x, -cand.y)):
            # (x + y*sqrt(-p))/2 lies in [norm, (-B + sqrt(-p))/2]
            if (x + y * power.b) % (2 * norm):
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
    rho = psi_M(f, disc) * psi_M(g, disc) * psi_M(c, disc).conj()
    for cand in cornacchia_all(p, f.a * g.a * c.a):
        for sx in (1, -1):
            for sy in (1, -1):
                nu = QuadInteger(sx * cand.x, sy * cand.y, p) ** h
                if nu == rho or -nu == rho:
                    return True
    return False
