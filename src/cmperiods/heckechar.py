"""The unramified Hecke character psi_M on ideals of Q(sqrt(-p)).

Ideals are binary forms: (a, b, c) of discriminant -p stands for the
ideal [a, (-b + sqrt(-p))/2].  For p prime and p not dividing a, gcd(a, b)
= 1 (a common prime of a and b would divide p), so each composition in
the power a^h is united and the unreduced product (A, B, C) is the
ideal a^h itself, not only its class.  Its element x*A + y*(-B + sqrt(-p))/2
has norm A * (A, -B, C)(x, y), so the reduction of (A, -B, C) to the
principal form, which proves a^h principal, also hands back a generator:
the column (x, y) with (A, -B, C)(x, y) = 1.  psi_M picks the sign of
that generator whose residue modulo sqrt(-p) is a square, which makes
the character value independent of the chosen form in the class.
"""

from __future__ import annotations

from .errors import ConsistencyError, DomainError
from .quadforms import (Discriminant, QuadForm, QuadInteger, class_number_dirichlet,
                        compose, elements_of_norm, ideal_product, principal_form,
                        reduce_with_column)


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
    g, x, y = reduce_with_column(QuadForm(power.a, -power.b, power.c))
    if g != principal_form(p):
        raise ConsistencyError(f"class of {f.tuple()} does not have order dividing h={h}")
    beta = QuadInteger(2 * x * power.a - y * power.b, y, p)
    # p = 3 mod 4, so exactly one of beta.x/2 and -beta.x/2 is a square mod p
    if pow(beta.x * ((p + 1) // 2) % p, (p - 1) // 2, p) != 1:
        beta = -beta
    return beta


def psi_multiplicativity_check(p, f: QuadForm, g: QuadForm) -> bool:
    """Does psi_M(f) psi_M(g) conj(psi_M(f*g)) equal +-nu^h for an integral nu?

    Exact arithmetic throughout: nu ranges over the elements
    (x + y*sqrt(-p))/2 of norm N = a_f a_g a_c, that is x^2 + p*y^2 = 4N
    with 0 <= y <= sqrt(4N/p), with all four sign variants.
    """
    disc = Discriminant.prime(p)
    p = disc.d
    h = class_number_dirichlet(disc)
    c = compose(f, g)
    rho = psi_M(f, disc) * psi_M(g, disc) * psi_M(c, disc).conj()
    for e in elements_of_norm(p, f.a * g.a * c.a):
        for sx in (1, -1):
            for sy in (1, -1):
                nu = QuadInteger(sx * e.x, sy * e.y, p) ** h
                if nu == rho or -nu == rho:
                    return True
    return False
