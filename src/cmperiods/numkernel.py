"""Arbitrary-precision numeric kernel.

Everything downstream funnels through the handful of special functions
defined here: log-gamma at rationals and the discriminant cusp form on
complex lattices.  All of them take an explicit :class:`PrecisionContext`
and guarantee an absolute error below ``10**-target_digits``.

Arithmetic is backed by mpmath (mpf/mpc); the special functions themselves
are implemented here: one Taylor table of log Gamma per precision for
log-gamma, and Euler's pentagonal series for the modular discriminant.
Every function is pure, so callers may fan work out across processes
freely.  ``log_gamma`` and ``gamma_product`` take an int or a Fraction x
with 0 < x <= 60, as every caller passes (all below 2).  Both read the
parts of log Gamma(x), an exact Horner integer and a shift product
(``_log_gamma_parts``), which are memoized for the life of the process
per (argument value, binary precision): the Fermat certificates take
Gamma at the same rationals a/p again and again.  It is the one memo of
log Gamma.  ``gamma_product`` turns the parts of a product of Gamma
powers into one exp and no log, which is all the certificates run;
``log_gamma``, which the tests and the acceptance battery call, takes the
log of the shift product on every call.  The folded character sum of
``lseries`` reads neither, so neither ``verify-cs``, ``periods``,
``faltings`` nor ``suite`` fills the memo.  Every mixed ``fermat``
triple at p = 7, 11 and 19 at one precision leaves 62 distinct
arguments, and a tate-sweep campaign of perfbench, at three precisions,
168; the arguments of one request are fractions k/p, so the 8,192 parts
the memo holds leave room for many primes and precisions.

log Gamma is evaluated in one place: ``_log_gamma_taylor`` keeps, per
working precision, the Taylor coefficients of log Gamma(N + t) about the
shift point N = ceil(1.2 dps) (Brent and Zimmermann, *Modern Computer
Arithmetic*, ch. 4), from one run of Stirling's series at z = N in fixed
point, on Python integers scaled by 2^(prec + 20): each term
c_k / z^(2k-1), c_k = B_2k / (2k (2k-1)), is one exact floor, from the
tangent numbers T_k of one integer triangle per process (ibid., section
4.7.2), which does not depend on the precision.
``_log_gamma_parts`` sums the table at |t| <= 1/2 by Horner's rule and
forms the exact shift product that ``log_gamma`` takes the log of and
``gamma_product`` divides by; the folded character sum of
``lseries`` reads the odd coefficients about a small point J
(``_log_gamma_odd``), the table's values at N plus exact finite sums
over J <= j < N.  ``error_digits``, the digits an error leaves, is
counted in integers too.  Nothing in the package asks mpmath for a
Bernoulli number or a decimal log, each of which costs a fresh process
a cache per precision.

The discriminant sums prod (1 - q^n) as Euler's pentagonal series
sum_k (-1)^k q^(k(3k-1)/2) (1 + q^k) (Hardy and Wright, section 19.9),
about sqrt(2N/3) terms in place of N factors, each carried from the last
in four Gaussian-integer multiplications; it raises the sum to its 24th
power in the same fixed point, in five more, and becomes an mpc once,
to be multiplied by q and (2 pi)^12, the latter kept per working
precision.  q itself is e^(i pi 2tau) (``mp.expjpi``), whose argument
is reduced mod 2 exactly, with no multiple of pi to cancel.
``delta_norm`` sums the same series (``_euler_series``) for
Delta(a) Delta(a^-1) = a^-12 |Delta(tau)|^2, in real numbers: the norm
of the sum and of q, and no complex 24th power.  Every check runs
``delta_norm``; ``delta_lattice`` is the tests' oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count
from math import ceil, floor, log2, log10, pi, prod
from operator import floordiv
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import from_man_exp, prec_to_dps

from .errors import DomainError, PrecisionError

__all__ = [
    "PrecisionContext",
    "Lattice",
    "log_gamma",
    "gamma_product",
    "delta_lattice",
    "delta_norm",
]

_LN10 = 2.302585092994046
_LOG10_2 = 0.30102999566398120
# the tangent numbers T_1, T_2, ... of Stirling's series and the last
# column of the triangle that gives them (``_tangent_numbers``), from T_1 = 1
_TANGENTS = [1]
_TANGENT_COLUMN = [1]
# log-Gamma parts kept by the memo, at a few hundred bytes each; only the
# fermat requests fill it (see the module docstring)
_LOG_GAMMA_MEMO = 8192
# the largest argument of log_gamma: below the smallest shift point N, 72
_LOG_GAMMA_MAX = 60
# tables kept, one per binary working precision: the Taylor tables of
# log Gamma and (2 pi)^12
_STIRLING_TABLES = 16
# bits carried below the working precision by the fixed-point loops of
# Stirling's series and the pentagonal series of Delta, for the rounding
# of each step; epstein's theta sums carry them below 10^-(dps+12), and
# each continued fraction below the bits its depth proves
_GUARD_BITS = 20
# bits the Taylor tables of log Gamma (about the shift point N, and the
# odd one about J) carry over the 2^(prec + _GUARD_BITS) of Stirling's
# series, for the rounding of their coefficients, and the log2 of the
# most terms they are cut for
_TAYLOR_GUARD_BITS = 32
_TAYLOR_PHI_BITS = 40
# the cost of one factor of the folded character sum's shift products
# against one odd moment step: 0.31-0.43, fitted to the measured cost
# per a at J = 4 to 64, at 60, 300 and 1000 digits
_ODD_FACTOR_COST = 0.4
# factors per leaf of the binary-split shift product
_SHIFT_LEAF = 64


class PrecisionContext(NamedTuple("PrecisionContext", [("target_digits", int)])):
    """Requested accuracy: results carry absolute error < 10**-target_digits.

    ``guard_digits``, a constant 20, extra digits are used internally to
    absorb rounding; the kernels' error budgets are written for it.
    """

    __slots__ = ()
    guard_digits = 20

    def __new__(cls, target_digits: int = 120):
        if target_digits < 30:
            raise DomainError("target_digits must be at least 30")
        return tuple.__new__(cls, (target_digits,))

    @property
    def working_digits(self) -> int:
        return self.target_digits + self.guard_digits

    def workprec(self, extra: int = 0):
        """Context manager setting mpmath's decimal precision."""
        return mp.workdps(self.working_digits + extra)

    def eps(self, shift: int = 0):
        """10**-(target_digits - shift) as an mpf."""
        return mp.mpf(10) ** (-(self.target_digits - shift))


class Lattice(NamedTuple("Lattice", [("tau", object), ("scale", object)])):
    """Complex lattice scale*(Z + Z*tau) with tau in the upper half plane."""

    __slots__ = ()

    def __new__(cls, tau, scale):
        if not (mp.im(tau) > 0):
            raise DomainError("lattice tau must have positive imaginary part")
        if mp.mpc(scale) == 0:
            raise DomainError("lattice scale must be nonzero")
        return tuple.__new__(cls, (tau, scale))


def to_mpf(x):
    """Convert int/Fraction/str/mpf to mpf at the current precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def error_digits(err) -> int:
    """Decimal digits an error err > 0, an mpf, leaves: floor(-log10 err), at least 0.

    Exact, in integers: with err = man 2^exp, a float estimate of k is
    moved until 10^k man <= 2^-exp < 10^(k+1) man.  Zero, a negative err,
    inf and nan raise DomainError.
    """
    sign, man, exp, _ = err._mpf_
    if sign or not man:  # zero, inf and nan have no mantissa
        raise DomainError("error_digits requires a finite err > 0")
    if exp >= 0:
        return 0
    one = 1 << -exp  # err <= 10^-k when 10^k man <= one
    k = max(0, floor(-exp * _LOG10_2 - log10(man)))
    while k and 10 ** k * man > one:
        k -= 1
    while 10 ** (k + 1) * man <= one:
        k += 1
    return k


@lru_cache(maxsize=_STIRLING_TABLES)
def _two_pi_pow12(prec):
    """(2 pi)^12, the constant of the discriminant's q-series, at binary precision prec."""
    return (2 * mp.pi) ** 12


def _tangent_numbers(n):
    """The list of the tangent numbers T_1, T_2, ..., at least n of them.

    tan x = sum_k T_k x^(2k-1) / (2k-1)!, and |B_2k| = 2k T_k / (4^k (4^k - 1)).
    They come from Brent and Zimmermann's integer triangle (*Modern
    Computer Arithmetic*, section 4.7.2), one column per T_k: column j
    starts at (j - 1)!; pass i, 2 <= i <= j, takes its entry to
    (j - i) x (entry of column j - 1 at pass i) + (j - i + 2) x (its own
    entry at pass i - 1); and T_j is its entry at pass j.  The last
    column is kept, so the list grows by its new columns only, O(j)
    small-integer multiplications each, and never shrinks: one list per
    process, for every precision.
    """
    column = _TANGENT_COLUMN
    while len(_TANGENTS) < n:
        j = len(column)  # the new column is j + 1
        new = [j * column[0]]
        for i in range(1, j):
            new.append((j - i) * column[i] + (j - i + 2) * new[-1])
        new.append(2 * new[-1])
        column[:] = new
        _TANGENTS.append(new[-1])
    return _TANGENTS


def _stirling_terms(z, limit):
    """The terms c_k / z^(2k-1), k >= 1, of Stirling's tail at an integer z > 0.

    c_k = B_2k / (2k (2k-1)).  Each is an integer scaled by 2^wp,
    wp = prec + _GUARD_BITS, the exact floor of

        (-1)^(k+1) T_k 2^wp / (4^k (4^k - 1) (2k - 1) z^(2k-1))

    from the tangent numbers (``_tangent_numbers``); the last one yielded
    is the first below limit on that scale, and for z > 0 the remainder
    after a term is bounded by the next one.
    """
    wp = mp.prec + _GUARD_BITS
    smallest = None
    zpow, four = z, 4  # z^(2k-1) and 4^k
    for k in count(1):
        num = _tangent_numbers(k)[k - 1] << wp
        term = (num if k % 2 else -num) // (four * (four - 1) * (2 * k - 1) * zpow)
        if smallest is not None and abs(term) >= smallest:
            break  # the series has turned: no later term is smaller
        yield term
        smallest = abs(term)
        if smallest < limit:
            return
        zpow *= z * z
        four <<= 2
    # the smallest term bounds the best this series can do at z
    raise PrecisionError("Stirling series did not reach the error budget",
                         achieved_digits=error_digits(mp.mpf((smallest, -wp))))


@lru_cache(maxsize=_STIRLING_TABLES)
def _log_gamma_taylor(prec):
    """(N, Taylor coefficients of log Gamma(N + t) about N), for |t| <= 1/2.

    N = ceil(1.2 dps) at binary precision prec, the one shift point of
    log Gamma.  Entry m is N^m g_m, an integer scaled by 2^wp,
    wp = prec + _GUARD_BITS + _TAYLOR_GUARD_BITS, where

        log Gamma(N + t) = sum_m g_m t^m:

    g_0 = log Gamma(N), g_1 = psi(N) and g_m = (-1)^m zeta(m, N)/m for
    m >= 2 (DLMF 5.7.3).  Stirling's series at z = N + t gives them.  Its
    head, (z - 1/2) log z - z + log(2 pi)/2, gives its value at N to g_0,
    N log N - 1/2 to N g_1, both at wp + 16 bits, and the exact
    (-1)^m (2N + m - 1) / (2m (m - 1)) to N^m g_m for m >= 2.  Its tail
    sum_k s_k (1 + t/N)^(1-2k), s_k = c_k N^(1-2k) the terms at z = N,
    gives (-1)^m sum_k C(2k - 2 + m, m) s_k to N^m g_m.  With the s_k
    put at j = 2k - 2 and zeros between, that is sum_j C(j + m, m) s_j,
    the first entry of the (m + 1)-fold suffix sums (the hockey-stick
    identity): one Stirling loop at N, each s_k one exact floor
    (``_stirling_terms``), then additions only.

    The table stops at the first m >= 2 where 2^_TAYLOR_PHI_BITS terms
    g_m t^m, |t| <= 1/2, stay below 2^-(prec + _GUARD_BITS): the later
    ones fall by about 1/(2N) each.
    """
    shift = -(-6 * prec_to_dps(prec) // 5)
    wp = prec + _GUARD_BITS + _TAYLOR_GUARD_BITS
    with mp.workprec(prec + _TAYLOR_GUARD_BITS):
        # to the first term below two units: a floored negative term
        # stops at -1
        terms = list(_stirling_terms(shift, 2))
    with mp.workprec(wp + 16):  # the head's value and N times its slope at N
        log_n = mp.log(shift)
        heads = [int(mp.ldexp(h, wp)) for h in
                 ((shift - mp.mpf(1) / 2) * log_n - shift + mp.log(2 * mp.pi) / 2,
                  shift * log_n - mp.mpf(1) / 2)]
    # the s_j last first, so the prefix sums are the suffix sums reversed
    sums = [0] * (2 * len(terms) - 1)
    sums[::2] = terms
    sums.reverse()
    table = []
    for m in count():
        sums = list(accumulate(sums))
        g = sums[-1] if m % 2 == 0 else -sums[-1]
        if m < 2:
            g += heads[m]
        else:
            head = ((2 * shift + m - 1) << wp) // (2 * m * (m - 1))
            g += head if m % 2 == 0 else -head
            # |g_m| 2^-m 2^PHI_BITS < 2^-(prec + _GUARD_BITS), on the scale 2^-wp
            if abs(g) << (_TAYLOR_PHI_BITS - _TAYLOR_GUARD_BITS) < (2 * shift) ** m:
                return shift, tuple(table)
        table.append(g)


def _odd_point(prec, shift):
    """The point J of ``_log_gamma_odd`` at binary precision prec, 1 <= J <= N/2.

    Per a, the folded character sum takes one step for each odd
    coefficient, about (prec + _GUARD_BITS + _TAYLOR_PHI_BITS) /
    (2 log2 2J) of them, and 2J - 1 factors for its shift products, at
    _ODD_FACTOR_COST steps each; J minimizes the sum.  The finite sums of
    the table cost about the same at every J (every j < N prime to 6 runs
    its chain), so the cold cost does not move J, and it does not depend
    on d.
    """
    bits = prec + _GUARD_BITS + _TAYLOR_PHI_BITS
    return min(range(1, shift // 2 + 1),
               key=lambda j: bits / (2 * log2(2 * j)) + _ODD_FACTOR_COST * (2 * j - 1))


@lru_cache(maxsize=_STIRLING_TABLES)
def _log_gamma_odd(prec):
    """(J, odd Taylor coefficients of log Gamma about J), from the table at N.

    N is the shift point of ``_log_gamma_taylor(prec)`` and J is
    ``_odd_point(prec, N)``.  Entry i is k_m, m = 2i + 1, an
    integer scaled by 2^wp as in ``_log_gamma_taylor``, where

        (log Gamma(J + t) - log Gamma(J - t)) / 2 = sum_{m odd} k_m t^m:

    k_1 = psi(J) and k_m = -zeta(m, J)/m for m >= 3 (DLMF 5.7.3).  The
    table at N holds N^m g_m, with g_1 = psi(N) and g_m = -zeta(m, N)/m at
    odd m, and the two points differ by finite sums:

        psi(J) = psi(N) - sum_{J<=j<N} 1/j,
        zeta(m, J) = zeta(m, N) + sum_{J<=j<N} j^-m,

    formed on the scale 2^-(wp + bit_length(N) + 1), where the fewer than
    2N units they fall short cost no bit of wp (``_inverse_power_sums``).
    Past the table at N, zeta(m, N)/m is below that table's cut and taken
    as 0.  The table stops at the first m >= 3 where 2^_TAYLOR_PHI_BITS
    terms k_m t^m, t < 1/2, stay below 2^-(prec + _GUARD_BITS): the later
    ones fall by about 1/(4 J^2) each.
    """
    shift, taylor = _log_gamma_taylor(prec)
    base = _odd_point(prec, shift)
    wp = prec + _GUARD_BITS + _TAYLOR_GUARD_BITS
    extra = shift.bit_length() + 1
    sums = _inverse_power_sums(base, shift, wp + extra)
    table = [taylor[1] // shift - (next(sums) >> extra)]
    npow = shift
    for m, power_sum in zip(count(3, 2), sums):
        npow *= shift * shift
        at_n = taylor[m] // npow if m < len(taylor) else 0
        k = at_n - (power_sum >> extra) // m
        # |k_m| 2^-m 2^PHI_BITS < 2^-(prec + _GUARD_BITS), on the scale 2^-wp
        if abs(k) << (_TAYLOR_PHI_BITS - _TAYLOR_GUARD_BITS) < 1 << m:
            return base, tuple(table)
        table.append(k)


def _inverse_power_sums(lo, hi, w):
    """Yield about sum_{lo <= n < hi} 2^w / n^m for m = 1, 3, 5, ..., less than 2 hi short.

    Each n is 2^a 3^b j with j prime to 6, so 2^w / j^m is formed once
    per such j < hi, as the exact floor of a chain of quotients by j^2:
    a third of the quotients of a chain per n.  For each (a, b) the j
    with 2^a 3^b j in [lo, hi) are one run of the list of those j; the
    run's sum is shifted right by a m, and the runs of each b are
    divided by 3^(b m) at once.  Each floor, of a term, a run or a
    division, leaves less than one unit, and there are fewer than 2 hi.
    """
    coprime = [j for j in range(1, hi) if j % 2 and j % 3]
    groups = []  # per b: 3^b and the runs (a, first index, end index)
    for b in range(hi.bit_length()):
        runs = []
        for a in range(hi.bit_length()):
            s = 3 ** b << a
            if s < hi:
                runs.append((a, bisect_left(coprime, -(-lo // s)),
                             bisect_left(coprime, -(-hi // s))))
        if runs:
            groups.append((3 ** b, runs))
    divisors = [three for three, _ in groups]  # 3^(b m) at the current m
    squares = [j * j for j in coprime]
    powers = [(1 << w) // j for j in coprime]
    for m in count(1, 2):
        partial = [0, *accumulate(powers)]
        yield sum(sum(partial[e] - partial[i] >> a * m for a, i, e in runs) // divisor
                  for (_, runs), divisor in zip(groups, divisors))
        divisors = [q * three * three for q, (three, _) in zip(divisors, groups)]
        powers = list(map(floordiv, powers, squares))


def _shift_product(n, m, lo, hi):
    """prod_{lo <= j < hi} (n + j*m), exactly, by binary splitting.

    A leaf of at most _SHIFT_LEAF factors is one ``math.prod`` over a
    range; above that the two halves are multiplied, so the long
    multiplications pair integers of about equal length.
    """
    if hi - lo <= _SHIFT_LEAF:
        return prod(range(n + lo * m, n + hi * m, m))
    mid = (lo + hi) // 2
    return _shift_product(n, m, lo, mid) * _shift_product(n, m, mid, hi)


def _gamma_domain(x):
    """Raise DomainError unless x is an int or a Fraction with 0 < x <= 60."""
    if not isinstance(x, (int, Fraction)):
        raise DomainError("log_gamma takes an int or a Fraction")
    # in integers: the denominator is positive
    if x.numerator <= 0:
        raise DomainError("log_gamma requires x > 0")
    if x.numerator > _LOG_GAMMA_MAX * x.denominator:
        raise DomainError(f"log_gamma requires x <= {_LOG_GAMMA_MAX}")


@lru_cache(maxsize=_LOG_GAMMA_MEMO)
def _log_gamma_parts(x, prec):
    """(acc, S) with log Gamma(x) = acc 2^-wp - log S, at binary precision prec.

    wp = prec + _GUARD_BITS + _TAYLOR_GUARD_BITS.  With x = n/m,
    i = round(x) and t = x - i, acc is the table of ``_log_gamma_taylor``
    at N + t, summed by Horner's rule in integers, and S is
    prod_{j < N - i} (x + j) = Gamma(N + t) / Gamma(x) (DLMF 5.5.1), the
    exact integer prod (n + j*m) over m^(N - i), as an mpf at prec.  The
    least N is 72 (30 target and 20 guard digits), so i <= 60 < N.  Memoized per
    (x, prec): ``log_gamma`` and ``gamma_product`` share the parts.
    """
    shift, table = _log_gamma_taylor(prec)
    n, m = x.numerator, x.denominator
    i = round(x)
    tn, step = n - i * m, m * shift  # t/N = tn/step
    acc = 0
    for e in reversed(table):
        acc = acc * tn // step + e
    k = shift - i
    with mp.workprec(prec):
        return acc, mp.mpf(_shift_product(n, m, 0, k)) / mp.mpf(m) ** k


def log_gamma(x, ctx: PrecisionContext):
    """log Gamma(x) for an int or Fraction 0 < x <= 60, absolute error < 10**-target_digits.

    acc 2^-wp - log S from ``_log_gamma_parts``, at working + 10 digits:
    the parts are memoized, and the log is taken on every call.
    """
    _gamma_domain(x)
    with ctx.workprec(10):
        acc, shifted = _log_gamma_parts(x, mp.prec)
        return mp.mpf((acc, -(mp.prec + _GUARD_BITS + _TAYLOR_GUARD_BITS))) - mp.log(shifted)


def gamma_product(weights, ctx: PrecisionContext):
    """prod Gamma(x)^c over a map {x: c}, x an int or Fraction 0 < x <= 60, c an int.

    Returned at working + 10 digits.  Zero weights are skipped; a caller
    merges equal arguments into one weight (a dict holds each once).  From
    the parts (acc, S) of each x (``_log_gamma_parts``),

        prod Gamma(x)^c = exp(sum c acc 2^-wp) / prod S^c:

    one exact integer sum, the powers S^c and one ``mp.exp``, and no log.
    Error budget, relative, at the binary precision prec of working + 10
    digits: each acc is within its table's length of units of 2^-wp,
    wp = prec + 52, and the exp reads its argument exactly, so the exp
    adds about one ulp; each power and product of the S^c adds at most
    about 3 ulps per unit of sum |c|.  The Fermat certificates have
    sum |c| <= 3(p - 1)/2, far inside the 10 extra digits for any p the
    CLI takes.  Raises DomainError, as ``log_gamma`` does, for an x
    outside its domain.
    """
    with ctx.workprec(10):
        prec = mp.prec
        total, num, den = 0, mp.mpf(1), mp.mpf(1)
        for x, c in weights.items():
            _gamma_domain(x)
            if not c:
                continue
            acc, shifted = _log_gamma_parts(x, prec)
            total += c * acc
            if c > 0:
                den *= shifted ** c
            else:
                num *= shifted ** -c
        arg = mp.make_mpf(from_man_exp(total, -(prec + _GUARD_BITS + _TAYLOR_GUARD_BITS)))
        return mp.exp(arg) * num / den


def delta_q_terms(im_tau, working_digits: int) -> int:
    """Exponent budget of Delta's q-series at the given tau height.

    |q|^terms is below 10^-(working_digits + 10): terms of prod (1 - q^n)
    past that exponent fall below the error budget.  The quotient
    x = (working_digits + 10) ln 10 / (2 pi Im tau) is formed in floats,
    within five roundings, 2^-50 relative, of its exact value; raised by
    2^-40 relative before the ceiling, it never falls below that value
    and, for x < 2^39, stays below x + 1: the budget is the exact one or
    one more.
    """
    x = (working_digits + 10) * _LN10 / (2 * pi * float(im_tau))
    return ceil(x * (1 + 2 ** -40)) + 1


def _gauss_mul(x_re, x_im, y_re, y_im, wp):
    """(x_re + i x_im)(y_re + i y_im) for Gaussian integers scaled by 2^wp."""
    return (x_re * y_re - x_im * y_im) >> wp, (x_re * y_im + x_im * y_re) >> wp


def _gauss_sq(x_re, x_im, wp):
    """(x_re + i x_im)^2 for a Gaussian integer scaled by 2^wp, in two multiplications."""
    return (x_re + x_im) * (x_re - x_im) >> wp, (x_re * x_im) >> (wp - 1)


def _euler_series(q, terms, wp):
    """E(q) = prod (1 - q^n) through q^terms, as a Gaussian integer scaled by 2^wp.

    Summed by Euler's pentagonal number theorem,
    E(q) = sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)), over the exponents
    up to ``terms``: the series and the product of ``terms`` factors agree
    up to q^(terms + 1).  q is an mpc with |q| < 1.
    """
    # with a_k = k(3k-1)/2, (-1)^k q^a_k is carried by the step
    # -q^(3k+1) = -q^(a_(k+1) - a_k), itself carried by q^3, and
    # (-1)^k q^(a_k + k) is that times q^k
    q_re, q_im = int(mp.ldexp(q.real, wp)), int(mp.ldexp(q.imag, wp))
    q3 = _gauss_mul(*_gauss_sq(q_re, q_im, wp), q_re, q_im, wp)
    step = _gauss_mul(*q3, -q_re, -q_im, wp)
    pent, qk = (-q_re, -q_im), (q_re, q_im)
    e_re, e_im = 1 << wp, 0
    k, a = 1, 1
    while a <= terms:
        e_re, e_im = e_re + pent[0], e_im + pent[1]
        if a + k <= terms:
            b_re, b_im = _gauss_mul(*pent, *qk, wp)
            e_re, e_im = e_re + b_re, e_im + b_im
        a += 3 * k + 1
        k += 1
        if a <= terms:
            pent = _gauss_mul(*pent, *step, wp)
            step = _gauss_mul(*step, *q3, wp)
            qk = _gauss_mul(*qk, q_re, q_im, wp)
    return e_re, e_im


def delta_lattice(lattice: Lattice, ctx: PrecisionContext, terms: int | None = None):
    """Modular discriminant of scale*(Z + Z*tau).

    Computed as scale^-12 * (2*pi)^12 * q * E(q)^24 with q = exp(2*pi*i*tau)
    and E(q) = prod(1 - q^n) by ``_euler_series`` over the exponents up to
    ``terms``, the order at which the tail of 24*sum log(1-q^n) falls
    below the error budget.
    """
    with ctx.workprec(10):
        tau = mp.mpc(lattice.tau)
        scale = mp.mpc(lattice.scale)
        if terms is None:
            terms = delta_q_terms(mp.im(tau), mp.dps)
        # q = e^(i pi 2tau): mpmath reduces Re 2tau mod 2 exactly, where
        # e^(2 pi i tau) reduces by an approximate pi and, at Re tau in Z/4
        # (forms with a = 1 or 2), recomputes a cancelled sine or cosine
        q = mp.expjpi(2 * tau)
        wp = mp.prec + _GUARD_BITS
        e_re, e_im = _euler_series(q, terms, wp)
        # E^24 = E^16 * E^8, by four squarings, before the one mpc
        e8 = _gauss_sq(*_gauss_sq(*_gauss_sq(e_re, e_im, wp), wp), wp)
        e24_re, e24_im = _gauss_mul(*_gauss_sq(*e8, wp), *e8, wp)
        e24 = mp.mpc(mp.mpf((e24_re, -wp)), mp.mpf((e24_im, -wp)))
        return scale ** (-12) * _two_pi_pow12(mp.prec) * q * e24


def delta_norm(f, sqrt_d, ctx: PrecisionContext):
    """Delta(a) Delta(a^-1) for the ideal class a of the form f, from one series.

    sqrt_d is sqrt(-f.disc) at working precision, which the caller takes
    once per discriminant.  The lattice of a is a(Z + Z tau), with
    tau = (-b + i sqrt(d)) / (2a) rounded to working precision as the
    tests' lattice builder (``tests/oracles.py``) rounds it, and that of a^-1 is
    Z + Z(-conj tau), so Delta(a^-1) = conj Delta(tau) and the pair is
    the positive real

        a^-12 |Delta(tau)|^2 = (2 pi)^24 |q|^2 |E(q)|^48 / a^12,

    |E(q)|^2 the norm e_re^2 + e_im^2 of the Gaussian integer of
    ``_euler_series``: no complex 24th power and no log.  It is the one
    Delta kernel the checks run: Chowla-Selberg and the Kronecker limit
    formula take the log of the pair (``csperiods.log_delta_pair``), the
    periods its square root over a^12.  q and the series are the ones
    ``delta_lattice`` sums for the lattice of a, so the value is the
    product of the two ``delta_lattice`` values, the tests' oracle, to
    the ten digits past working precision that both carry, and it is
    returned at that precision for the caller to round.
    """
    with ctx.workprec():
        tau = (-f.b + mp.mpc(0, 1) * sqrt_d) / (2 * f.a)
    with ctx.workprec(10):
        terms = delta_q_terms(mp.im(tau), mp.dps)
        q = mp.expjpi(2 * tau)
        wp = mp.prec + _GUARD_BITS
        e_re, e_im = _euler_series(q, terms, wp)
        norm = mp.mpf((e_re * e_re + e_im * e_im, -2 * wp))
        return (_two_pi_pow12(mp.prec) ** 2 * (q.real ** 2 + q.imag ** 2)
                * norm ** 24 / f.a ** 12)
