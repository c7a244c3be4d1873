"""Arbitrary-precision numeric kernel.

Everything downstream funnels through the handful of special functions
defined here: log-gamma at rationals, the Hurwitz zeta function, and the
discriminant cusp form on complex lattices.  All of them take an explicit
:class:`PrecisionContext` and guarantee an absolute error below
``10**-target_digits``.

Arithmetic is backed by mpmath (mpf/mpc); the special functions themselves
are implemented here: Stirling's series with argument shifting for
log-gamma, Euler-Maclaurin for Hurwitz zeta, and the q-product for the
modular discriminant.  Every function is pure, so callers may fan work out
across processes freely.  ``log_gamma`` takes an int or a Fraction, as
every caller passes, and is memoized for the life of the process, per
(argument type, argument value, PrecisionContext): the Fermat
certificates sum log Gamma over the same rationals a/p again and again,
and a hit returns the very mpf the kernel computed.  The folded
character sum of ``lseries`` does not call it, so neither ``verify-cs``,
``periods``, ``faltings`` nor ``suite`` fills the memo.  Every mixed
``fermat`` triple at p = 7, 11 and 19 at one precision leaves 62 distinct
arguments, and a tate-sweep campaign of perfbench, at three precisions,
168; the arguments of one request are fractions k/p, so the 8,192 values
the memo holds leave room for many primes and precisions.

A log-gamma call that misses the memo shifts x = n/m up by N ~ 1.2*dps
(Brent and Zimmermann, *Modern Computer Arithmetic*, ch. 4): the shift
product prod_{j<N} (n + j*m) is formed exactly, in Python integers, by
binary splitting, and folded back in with one quotient by m^N and one
log.  The two hot inner loops run in fixed point, on Python integers
scaled by 2^(prec + 20), with no mpf normalization per step: Stirling's
series carries each term from the last by a ratio c_k / c_(k-1) of its
coefficients B_2k / (2k (2k-1)), read from a table kept per working
precision, and 1/z^2, so a term costs two integer multiplications; the
q-product of the discriminant multiplies Gaussian integers and becomes
an mpc once, before its 24th power.  The shift product
(``_shift_product``), the Stirling loop (``_stirling_tail``) and
``_log1p_fixed``, an atanh series on the same scale, also serve the
folded character sum of ``lseries``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, log10, prod

from mpmath import mp

from .errors import DomainError, PoleError, PrecisionError

__all__ = [
    "PrecisionContext",
    "Lattice",
    "log_gamma",
    "hurwitz_zeta",
    "delta_lattice",
]

_LN10 = 2.302585092994046
_EM_TERM_CAP = 100000  # the Euler-Maclaurin series turns and grows long before
# log-Gamma values kept, at a few hundred bytes each; only the fermat
# requests fill it (see the module docstring)
_LOG_GAMMA_MEMO = 8192
# Stirling coefficient tables kept, one per binary working precision
_STIRLING_TABLES = 16
# bits carried below the working precision by the fixed-point loops of
# Stirling's series, the q-product and epstein's incomplete gamma, for the
# rounding of each step
_GUARD_BITS = 20
# factors per leaf of the binary-split shift product
_SHIFT_LEAF = 64


@dataclass(frozen=True)
class PrecisionContext:
    """Requested accuracy: results carry absolute error < 10**-target_digits.

    ``guard_digits`` extra digits are used internally to absorb rounding.
    """

    target_digits: int = 120
    guard_digits: int = 20

    def __post_init__(self):
        if self.target_digits < 30:
            raise DomainError("target_digits must be at least 30")
        if self.guard_digits < 10:
            raise DomainError("guard_digits must be at least 10")

    @property
    def working_digits(self) -> int:
        return self.target_digits + self.guard_digits

    def workprec(self, extra: int = 0):
        """Context manager setting mpmath's decimal precision."""
        return mp.workdps(self.working_digits + extra)

    def eps(self, shift: int = 0):
        """10**-(target_digits - shift) as an mpf."""
        return mp.mpf(10) ** (-(self.target_digits - shift))


@dataclass(frozen=True)
class Lattice:
    """Complex lattice scale*(Z + Z*tau) with tau in the upper half plane."""

    tau: object
    scale: object

    def __post_init__(self):
        if not (mp.im(self.tau) > 0):
            raise DomainError("lattice tau must have positive imaginary part")
        if mp.mpc(self.scale) == 0:
            raise DomainError("lattice scale must be nonzero")


def to_mpf(x):
    """Convert int/Fraction/str/mpf to mpf at the current precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def error_digits(err) -> int:
    """Decimal digits an error of size err > 0 leaves: floor(-log10 err), at least 0."""
    return max(0, int(-mp.log10(err)))


@lru_cache(maxsize=_STIRLING_TABLES)
def _stirling_coefficients(prec):
    """Ratios c_k / c_(k-1) of c_k = B_2k / (2k (2k-1)), keyed by k >= 2.

    Each is an integer scaled by 2^(prec + _GUARD_BITS), the scale of
    ``_stirling_tail`` at binary precision prec.  Filled lazily up
    to the largest k used so far: the series stops far below its 4*dps
    cap, and building that many Bernoulli numbers up front takes seconds
    at 300 digits.
    """
    return {}


@lru_cache(maxsize=_STIRLING_TABLES)
def _half_log_two_pi(prec):
    """log(2 pi) / 2, the constant of Stirling's series, at binary precision prec."""
    return mp.log(2 * mp.pi) / 2


def _stirling_ratio(k, wp):
    """c_k / c_(k-1) as an integer scaled by 2^wp.

    Formed at the ambient precision, where mpmath keeps its Bernoulli
    numbers: an error relative to the ratio is one relative to the terms,
    which are below 1/(12 z), not one on the scale 2^-wp.
    """
    r = (mp.bernoulli(2 * k) / mp.bernoulli(2 * k - 2)
         * ((2 * k - 2) * (2 * k - 3)) / ((2 * k) * (2 * k - 1)))
    return int(mp.ldexp(r, wp))


def _stirling_log_gamma(z, budget):
    # Asymptotic series at large real z: the head in mpf, the tail in
    # fixed point, its remainder below budget
    acc = (z - mp.mpf(1) / 2) * mp.log(z) - z + _half_log_two_pi(mp.prec)
    wp = mp.prec + _GUARD_BITS
    # z = man * 2^exp > 0 is n/m exactly
    man, exp = int(z.man), int(z.exp)
    n, m = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    limit = max(1, int(mp.ldexp(budget, wp)))
    return acc + mp.mpf((_stirling_tail(n, m, limit), -wp))


def _stirling_tail(n, m, limit):
    """sum_k c_k / z^(2k-1) at z = n/m, Stirling's series past its head.

    The head is (z - 1/2) log z - z + log(2 pi)/2.  The sum is an integer
    scaled by 2^wp, wp = prec + _GUARD_BITS, and stops at the first term
    below limit on that scale; for z > 0 the remainder after a term is
    bounded by the next one.  Each term is carried from the last:
    term_k = term_(k-1) * (c_k / c_(k-1)) / z^2.  Forming c_k / z^(2k-1)
    instead would let the powers of 1/z underflow the scale while c_k grows.
    """
    wp = mp.prec + _GUARD_BITS
    ratios = _stirling_coefficients(mp.prec)
    inv_z2 = ((m * m) << wp) // (n * n)
    term = (m << wp) // (12 * n)
    total = 0
    for k in range(2, 4 * mp.dps + 1):
        total += term
        smallest = abs(term)
        if smallest < limit:
            return total
        r = ratios.get(k)
        if r is None:
            r = ratios[k] = _stirling_ratio(k, wp)
        term = (term * r >> wp) * inv_z2 >> wp
        if abs(term) >= smallest:
            break  # the series has turned: no later term is smaller
    # the smallest term bounds the best this series can do at z
    raise PrecisionError("Stirling series did not reach the error budget",
                         achieved_digits=error_digits(mp.mpf((smallest, -wp))))


def _log1p_fixed(p, q):
    """log(1 + p/q) for integers 0 <= p < q, as an integer scaled by 2^wp.

    wp = prec + _GUARD_BITS, the scale of ``_stirling_tail``.
    log(1 + u) = 2 atanh(t) with t = p/(2q + p) <= 1/3, summed as
    2 sum_k t^(2k+1)/(2k+1) until a power of t falls below one unit;
    each power is floored, so the error is at most a unit per term.
    """
    wp = mp.prec + _GUARD_BITS
    den = 2 * q + p
    p2, den2 = p * p, den * den
    power = (p << (wp + 1)) // den
    total, k = 0, 1
    while power:
        total += power // k
        power = power * p2 // den2
        k += 2
    return total


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


@lru_cache(maxsize=_LOG_GAMMA_MEMO, typed=True)
def log_gamma(x, ctx: PrecisionContext):
    """log Gamma(x) for an int or Fraction x > 0, absolute error < 10**-target_digits.

    Memoized per (type of x, x, ctx); errors are raised again on every call.
    """
    if not isinstance(x, (int, Fraction)):
        raise DomainError("log_gamma takes an int or a Fraction")
    if x <= 0:
        raise DomainError("log_gamma requires x > 0")
    with ctx.workprec(10):
        xv = to_mpf(x)
        budget = mp.mpf(10) ** (-(ctx.working_digits + 5))
        # Shift the argument up past ~1.2*working digits, then apply
        # Stirling.  With x = n/m, prod_{j<N} (x + j) is the integer
        # product prod (n + j*m) over m^N, folded back in with one
        # quotient and one log; log P - N log m would cancel digits.
        shift = int(ceil(1.2 * mp.dps - xv)) if xv < 1.2 * mp.dps else 0
        m = x.denominator
        shifted = mp.mpf(_shift_product(x.numerator, m, 0, shift)) / mp.mpf(m) ** shift
        return _stirling_log_gamma(xv + shift, budget) - mp.log(shifted)


def hurwitz_zeta(x, s, ctx: PrecisionContext):
    """H(x, s) = sum_{n>=0} (n+x)^-s continued via Euler-Maclaurin.

    Valid for 0 < x <= 1 and any real s != 1 (the continuation is used
    below s = 1; s = 1 raises PoleError).
    """
    with ctx.workprec(10):
        if not (0 < to_mpf(x) <= 1):
            raise DomainError("hurwitz_zeta requires 0 < x <= 1")
        if to_mpf(s) == 1:
            raise PoleError("hurwitz_zeta has a pole at s = 1")
        wp = mp.dps
        budget = mp.mpf(10) ** (-(wp + 5))
        n_cut = int(1.6 * wp) + 16
        for _attempt in range(4):
            # below s = 1 the direct block and the tail term grow like
            # t^(1-s) while H stays moderate: carry that many more digits
            # through the cancellation
            cancel = max(0, ceil((1 - float(s)) * log10(n_cut + 1)))
            with mp.workdps(wp + cancel):
                xv, sv = to_mpf(x), to_mpf(s)
                total = mp.mpf(0)
                for n in range(n_cut):
                    total += (n + xv) ** (-sv)
                t = n_cut + xv
                total += t ** (1 - sv) / (sv - 1) + t ** (-sv) / 2
                # Correction terms B_2k/(2k)! * (s)_{2k-1} * t^(-s-2k+1),
                # summed until one is below budget or the asymptotic
                # series turns and grows.
                rising = sv
                tpow = t ** (-sv - 1)
                tsq = t * t
                smallest = mp.inf
                for k in range(1, _EM_TERM_CAP + 1):
                    term = mp.bernoulli(2 * k) / mp.factorial(2 * k) * rising * tpow
                    total += term
                    if abs(term) < budget:
                        return total
                    if abs(term) >= smallest:
                        break
                    smallest = abs(term)
                    rising *= (sv + 2 * k - 1) * (sv + 2 * k)
                    tpow /= tsq
            n_cut = 2 * n_cut  # enlarge the direct block and retry
        raise PrecisionError("Euler-Maclaurin tail did not reach the budget",
                             achieved_digits=error_digits(smallest))


def delta_q_terms(im_tau, working_digits: int) -> int:
    """Number of q-product factors needed for the given tau height."""
    return int(ceil((working_digits + 10) * _LN10 / (2 * mp.pi * im_tau))) + 1


def delta_lattice(lattice: Lattice, ctx: PrecisionContext, terms: int | None = None):
    """Modular discriminant of scale*(Z + Z*tau).

    Computed as scale^-12 * (2*pi)^12 * q * prod(1-q^n)^24 with
    q = exp(2*pi*i*tau); the product is cut once the tail of
    24*sum log(1-q^n) is below the error budget.
    """
    with ctx.workprec(10):
        tau = mp.mpc(lattice.tau)
        scale = mp.mpc(lattice.scale)
        if terms is None:
            terms = delta_q_terms(mp.im(tau), mp.dps)
        q = mp.exp(2j * mp.pi * tau)
        # the loop runs on Gaussian integers scaled by 2^wp: q^n in
        # (qn_re, qn_im) and prod (1 - q^n) in (p_re, p_im)
        wp = mp.prec + _GUARD_BITS
        q_re, q_im = int(mp.ldexp(q.real, wp)), int(mp.ldexp(q.imag, wp))
        qn_re, qn_im = 1 << wp, 0
        p_re, p_im = 1 << wp, 0
        for _ in range(terms):
            qn_re, qn_im = ((qn_re * q_re - qn_im * q_im) >> wp,
                            (qn_re * q_im + qn_im * q_re) >> wp)
            p_re, p_im = (p_re - ((p_re * qn_re - p_im * qn_im) >> wp),
                          p_im - ((p_re * qn_im + p_im * qn_re) >> wp))
        prod = mp.mpc(mp.mpf((p_re, -wp)), mp.mpf((p_im, -wp)))
        return scale ** (-12) * (2 * mp.pi) ** 12 * q * prod ** 24
