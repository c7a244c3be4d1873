"""Exact integer number theory: primality, factoring, divisors, linear congruences.

Factoring takes n <= MAX_N = 10^12 only, by trial division up to 10^6;
primality is Miller-Rabin with deterministic bases.  Everything here is
deterministic.
"""

from __future__ import annotations

from math import gcd

from .errors import DomainError

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the largest n factorize takes: trial division to 10^6 factors it
MAX_N = 10 ** 12


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {p: exponent} for 1 <= n <= MAX_N.

    Trial division while f^2 <= n: a cofactor left above 1 has no
    divisor up to its square root, so it is prime.
    """
    if not 1 <= n <= MAX_N:
        raise DomainError(f"factorize requires 1 <= n <= {MAX_N}")
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return sorted(ds)


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())


def solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    """Solve a*x = b (mod m); return (x0, m') with solution set x0 + m'*Z."""
    if m <= 0:
        raise DomainError("modulus must be positive")
    g = gcd(a, m)
    if b % g:
        raise DomainError(f"{a}*x = {b} (mod {m}) has no solution")
    mr = m // g
    x0 = (b // g) * pow(a // g, -1, mr) % mr if mr > 1 else 0
    return x0, mr
