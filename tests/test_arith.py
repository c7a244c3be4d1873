import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cmperiods.arith import MAX_N, divisors, factorize, is_prime, is_squarefree, solve_linmod
from cmperiods.errors import DomainError


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_strong_pseudoprimes():
    for n in (561, 1105, 1729, 2465, 25326001, 3215031751):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 67 - 1)


@given(st.integers(min_value=2, max_value=10 ** 12))
@settings(max_examples=200)
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


@given(st.integers(min_value=2, max_value=10 ** 10))
@settings(max_examples=100)
def test_factorize_roundtrip(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_prime(p)
        prod *= p ** e
    assert prod == n


def test_factorize_up_to_the_bound():
    # trial division to 10^6 factors every n <= MAX_N = 10^12: here the
    # last trial divisor, 999983, sits just under 10^6 and leaves the prime
    # 1000003.  Outside 1..MAX_N factorize raises
    assert MAX_N == 10 ** 12
    assert factorize(999983 * 1000003) == {999983: 1, 1000003: 1}
    for n in (0, MAX_N + 1):
        with pytest.raises(DomainError):
            factorize(n)


def test_divisors():
    assert divisors(720) == sorted(n for n in range(1, 721) if 720 % n == 0)
    assert divisors(1) == [1]


def test_is_square_and_squarefree():
    # squarefree means no square k^2 > 1 divides n
    for n in range(1, 500):
        assert is_squarefree(n) == all(n % (k * k) for k in range(2, 23))
    assert is_squarefree(2 * 3 * 5 * 7)
    assert not is_squarefree(12)
    assert not is_squarefree(49)


def test_solve_linmod():
    x, m = solve_linmod(6, 9, 15)
    assert (6 * x - 9) % 15 == 0 and m == 5
    assert all((6 * (x + k * m) - 9) % 15 == 0 for k in range(3))
