"""Exact integer number theory: primality, factoring, divisors, linear congruences.

Desk-scale inputs only (factors found by trial division up to 10^6, then
Pollard rho with Brent cycling).  Everything here is deterministic.
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


def _pollard_brent(n: int) -> int:
    # Brent's cycle variant; n must be composite and odd.
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        f = lambda x: (x * x + c) % n
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = f(y)
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = f(y)
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = f(ys)
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {p: exponent}; n must be positive."""
    if n <= 0:
        raise DomainError("factorize requires n > 0")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    while f * f <= n and f < 10 ** 6:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.extend((d, m // d))
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
