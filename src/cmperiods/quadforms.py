"""Binary quadratic forms of negative discriminant and the class group.

A form (a, b, c) with a > 0 and b^2 - 4ac = -d < 0 corresponds to the
ideal [a, (-b + sqrt(-d))/2] of the imaginary quadratic order, i.e. to
the complex lattice a * (Z + Z*tau) with tau = (-b + i*sqrt(d)) / (2a).

Reduction carries its SL2(Z) matrix and hands back the first column
(x, y), so it also names where the form takes the reduced lead
coefficient: f(x, y) = a of the reduced form.

Everything here is exact integer arithmetic.  The complex lattice of a
form is built only by the tests, as the oracle of the closed-form
Delta kernel (``tests/oracles.py``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .arith import MAX_N, divisors, is_prime, is_squarefree, solve_linmod
from .errors import ConsistencyError, DomainError

# 3,043 fundamental discriminants -d have d <= 10^4, the scale the class
# number checks are meant to reach; each memoized h is one small int
_CLASS_NUMBER_MEMO = 4096


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D | n)."""
    if n == 0:
        return 1 if D in (1, -1) else 0
    if D % 2 == 0 and n % 2 == 0:
        return 0
    sign = 1
    if n < 0:
        n = -n
        if D < 0:
            sign = -sign
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t % 2 == 1 and D % 8 in (3, 5):
        sign = -sign
    # Jacobi symbol (D | n) for odd n > 0, by quadratic reciprocity
    D %= n
    while D:
        t = 0
        while D % 2 == 0:
            D //= 2
            t += 1
        if t % 2 == 1 and n % 8 in (3, 5):
            sign = -sign
        if D % 4 == 3 and n % 4 == 3:
            sign = -sign
        D, n = n % D, D
    return sign if n == 1 else 0


def is_fundamental(d: int) -> bool:
    """True if -d is a fundamental imaginary quadratic discriminant."""
    if d <= 0:
        return False
    if d % 4 == 3:
        return is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (1, 2) and is_squarefree(m)
    return False


class _Slotted:
    """A record on __slots__: equality and hash of its field tuple, repr and
    pickling by its fields, as a frozen dataclass has them, and no setter."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Discriminant(NamedTuple("Discriminant", [("d", int)])):
    """The field Q(sqrt(-d)); 0 < d <= MAX_N = 10^12 with -d fundamental.

    The bound is the domain of every check: ``factorize`` reaches it by
    trial division to 10^6, and the checks sum over every a < d.  An
    instance keeps a __dict__, where ``is_prime_3mod4`` is kept once known.
    """

    def __new__(cls, d: int):
        if d > MAX_N:
            raise DomainError(f"{d} is above the domain bound {MAX_N} of d and p")
        if not is_fundamental(d):
            raise DomainError(f"-d is not a fundamental discriminant for d = {d}")
        return tuple.__new__(cls, (d,))

    __setattr__ = _Slotted.__setattr__

    @classmethod
    def of(cls, d) -> "Discriminant":
        """d itself when it is a Discriminant, else Discriminant(d)."""
        return d if isinstance(d, cls) else cls(d)

    @classmethod
    def prime(cls, p) -> "Discriminant":
        """Q(sqrt(-p)) for a prime p = 3 mod 4, p > 3: the domain of the period formulas.

        The primality test runs once per value: a Discriminant this
        returned passes again without one.
        """
        if isinstance(p, cls):
            disc = p
        elif is_prime(p) and p % 4 == 3:
            disc = cls(p)
            disc.__dict__["is_prime_3mod4"] = True  # the test just made
        else:
            disc = None
        if disc is None or not (disc.is_prime_3mod4 and disc.d > 3):
            raise DomainError("p must be a prime = 3 mod 4 with p > 3")
        return disc

    @property
    def w(self) -> int:
        """Number of roots of unity in the field."""
        if self.d == 3:
            return 6
        if self.d == 4:
            return 4
        return 2

    @cached_property
    def is_prime_3mod4(self) -> bool:
        return self.d % 4 == 3 and is_prime(self.d)

    def epsilon(self, a: int) -> int:
        """The quadratic character (-d | a)."""
        return kronecker(-self.d, a)


class QuadForm(NamedTuple("QuadForm", [("a", int), ("b", int), ("c", int)])):
    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        if a <= 0:
            raise DomainError(f"form {(a, b, c)} must have a > 0")
        if b * b - 4 * a * c >= 0:
            raise DomainError(f"form {(a, b, c)} must have negative discriminant")
        return tuple.__new__(cls, (a, b, c))

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    @property
    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        return b >= 0 if (abs(b) == a or a == c) else True


def principal_form(d: int) -> QuadForm:
    b = d % 2
    return QuadForm(1, b, (d + b * b) // 4)


def reduce_with_column(f: QuadForm) -> tuple[QuadForm, int, int]:
    """The reduced form g in the class of f, and the first column (x, y) of
    the M in SL2(Z) with g(X, Y) = f(M (X, Y)), so that f(x, y) = g.a.

    Each flip (a, b, c) -> (c, -b, a) is M -> M S, S = [[0, -1], [1, 0]];
    each translation of b by 2ak is M -> M T^k, T = [[1, 1], [0, 1]].
    The loop carries both columns of M, (x, y) and (u, v).
    """
    a, b, c = f.a, f.b, f.c
    x, y, u, v = 1, 0, 0, 1
    while True:
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
            x, y, u, v = u, v, -x, -y
            continue
        if b > a or b <= -a:
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            k = (r - b) // (2 * a)
            c += (r * r - b * b) // (4 * a)
            b = r
            u, v = u + k * x, v + k * y
            continue
        return QuadForm(a, b, c), x, y


def reduce_form(f: QuadForm) -> QuadForm:
    return reduce_with_column(f)[0]


def ideal_product(f: QuadForm, g: QuadForm) -> QuadForm:
    """The composite of f and g, before reduction.

    The result is the ideal product itself, not only its class, when
    gcd(a1, a2, (b1 + b2)/2) = 1: then it is (a1*a2, B, C) with
    B = b1 mod 2*a1 and B = b2 mod 2*a2.
    """
    if f.disc != g.disc:
        raise DomainError("cannot compose forms of different discriminants")
    a1, b1, c1 = f.tuple()
    a2, b2, _ = g.tuple()
    gg = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = gcd(gcd(a1, a2), gg)
    s, t, u = a1 // w, a2 // w, gg // w
    k0, step = solve_linmod(t * u, h * u + s * c1, s * t)
    n, _ = solve_linmod(t * step, h - t * k0, s)
    k = k0 + step * n
    l = (t * k - h) // s
    m = (t * u * k - h * u - s * c1) // (s * t)
    return QuadForm(s * t, w * u - (k * t + l * s), k * l - w * m)


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Gauss composition of classes; the result is reduced."""
    return reduce_form(ideal_product(f, g))


class ClassGroup(_Slotted):
    """The reduced forms of Discriminant d, principal first."""

    __slots__ = ("d", "forms")

    def __init__(self, d: Discriminant, forms: tuple[QuadForm, ...]):
        super().__init__(d, forms)

    @property
    def h(self) -> int:
        return len(self.forms)

    def __iter__(self):
        return iter(self.forms)

    def __len__(self) -> int:
        return len(self.forms)

    def __getitem__(self, i: int) -> QuadForm:
        return self.forms[i]


def reduced_forms(d) -> ClassGroup:
    """The class group of discriminant -d as reduced forms, principal first."""
    disc = Discriminant.of(d)
    d = disc.d
    out = []
    b = d % 2
    while b * b <= d // 3:
        m4 = b * b + d
        if m4 % 4 == 0:
            m = m4 // 4
            for a in divisors(m):
                if a * a > m:
                    break
                c = m // a
                if b <= a and gcd(gcd(a, b), c) == 1:
                    out.append(QuadForm(a, b, c))
                    if 0 < b < a < c:
                        out.append(QuadForm(a, -b, c))
        b += 2
    out.sort(key=lambda f: (f.a, abs(f.b), -f.b))
    if out[0] != principal_form(d):
        raise ConsistencyError(f"principal form missing for d={d}")
    return ClassGroup(disc, tuple(out))


def class_number(d: int) -> int:
    return reduced_forms(d).h


def class_number_dirichlet(d) -> int:
    """h(-d) = -(w / 2d) sum eps(a) a, the finite character sum in exact arithmetic.

    Memoized per validated discriminant; a failed sum raises on every call.
    """
    return _class_number_dirichlet(Discriminant.of(d))


@lru_cache(maxsize=_CLASS_NUMBER_MEMO)
def _class_number_dirichlet(disc: Discriminant) -> int:
    d = disc.d
    h = Fraction(-disc.w * sum(disc.epsilon(a) * a for a in range(1, d)), 2 * d)
    if h.denominator != 1 or h <= 0:
        raise ConsistencyError(f"character sum gave h(-{d}) = {h}")
    return int(h)


class QuadInteger(_Slotted):
    """(x + y*sqrt(-d))/2, integral in the maximal order of Q(sqrt(-d))."""

    __slots__ = ("x", "y", "d")

    def __init__(self, x: int, y: int, d: int):
        if d <= 0:
            raise DomainError("QuadInteger requires d > 0")
        if (x - y * d) % 2 or (x * x + d * y * y) % 4:
            raise DomainError(f"({x} + {y}*sqrt(-{d}))/2 is not integral")
        super().__init__(x, y, d)

    @property
    def norm(self) -> int:
        return (self.x * self.x + self.d * self.y * self.y) // 4

    def conj(self) -> "QuadInteger":
        return QuadInteger(self.x, -self.y, self.d)

    def __neg__(self) -> "QuadInteger":
        return QuadInteger(-self.x, -self.y, self.d)

    def __mul__(self, other: "QuadInteger") -> "QuadInteger":
        if self.d != other.d:
            raise DomainError("mixed fields")
        x = (self.x * other.x - self.d * self.y * other.y) // 2
        y = (self.x * other.y + self.y * other.x) // 2
        return QuadInteger(x, y, self.d)

    def __pow__(self, n: int) -> "QuadInteger":
        if n < 0:
            raise DomainError("negative powers leave the order")
        acc = QuadInteger(2, 0, self.d)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc


def elements_of_norm(d: int, n: int) -> list[QuadInteger]:
    """Every (x + y*sqrt(-d))/2 of norm n with x, y >= 0, by increasing y:
    the solutions of x^2 + d*y^2 = 4n with 0 <= y <= sqrt(4n/d)."""
    n4 = 4 * n
    out = []
    for y in range(isqrt(n4 // d) + 1):
        x = isqrt(n4 - d * y * y)
        if x * x == n4 - d * y * y:
            out.append(QuadInteger(x, y, d))
    return out
