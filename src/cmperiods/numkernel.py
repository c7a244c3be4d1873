"""Arbitrary-precision numeric kernel.

Everything downstream funnels through the handful of special functions
defined here: log-gamma, gamma at rationals, the beta function, the Hurwitz
zeta function, and the discriminant cusp form on complex lattices.  All of
them take an explicit :class:`PrecisionContext` and guarantee an absolute
error below ``10**-target_digits``.

Arithmetic is backed by mpmath (mpf/mpc); the special functions themselves
are implemented here: Stirling's series with argument shifting for
log-gamma, Euler-Maclaurin for Hurwitz zeta, and the q-product for the
modular discriminant.  Every function is pure, so callers may fan work out
across processes freely.  ``log_gamma`` is also memoized for the life of
the process, per (argument type, argument value, PrecisionContext): every
identity sums log Gamma over the same rationals a/d, and a hit returns the
very mpf the kernel computed.  The memo holds 8,192 values, enough for
one ``suite --max-d 200`` tier (4,342 distinct arguments).

A log-gamma call that misses the memo shifts x = n/m up by N ~ 1.2*dps
(Brent and Zimmermann, *Modern Computer Arithmetic*, ch. 4): the shift
product prod_{j<N} (n + j*m) is formed in Python integers by binary
splitting, exactly for every rational the checks use, and folded back in
with one quotient by m^N and one log; Stirling's series reads its
coefficients B_2k / (2k (2k-1)) from a table kept per working precision,
so a term costs two multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, log10

from mpmath import mp

from .errors import DomainError, PoleError, PrecisionError

__all__ = [
    "PrecisionContext",
    "Lattice",
    "log_gamma",
    "gamma_rational",
    "beta",
    "hurwitz_zeta",
    "delta_lattice",
]

_LN10 = 2.302585092994046
_EM_TERM_CAP = 100000  # the Euler-Maclaurin series turns and grows long before
# one suite --max-d 200 tier asks for 4,342 distinct log-Gamma arguments; the
# next power of two holds them all, at a few hundred bytes a value
_LOG_GAMMA_MEMO = 8192
# Stirling coefficient tables kept, one per binary working precision
_STIRLING_TABLES = 16


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
    """c_k = B_2k / (2k (2k-1)) at binary precision prec, keyed by k.

    Filled lazily by ``_stirling_terms`` up to the largest k used so far:
    the series stops far below its 4*dps cap, and building that many
    Bernoulli numbers up front takes seconds at 300 digits.
    """
    return {}


def _stirling_terms(z):
    """Bernoulli terms B_2k / (2k (2k-1) z^(2k-1)) of Stirling's series."""
    coeffs = _stirling_coefficients(mp.prec)
    zinv = 1 / z
    zinv2 = zinv * zinv
    for k in range(1, 4 * mp.dps):
        c = coeffs.get(k)
        if c is None:
            c = coeffs[k] = mp.bernoulli(2 * k) / ((2 * k) * (2 * k - 1))
        yield c * zinv
        zinv *= zinv2


def _stirling_log_gamma(z, budget):
    # Asymptotic series at large real z; remainder after the k-th Bernoulli
    # term is bounded by the next term for z > 0, so stop once below budget.
    acc = (z - mp.mpf(1) / 2) * mp.log(z) - z + mp.log(2 * mp.pi) / 2
    for term in _stirling_terms(z):
        acc += term
        if abs(term) < budget:
            return acc
    # the smallest term bounds the best this series can do at z; it is
    # found again here rather than tracked on the path that succeeds
    smallest = min(abs(term) for term in _stirling_terms(z))
    raise PrecisionError("Stirling series did not reach the error budget",
                         achieved_digits=error_digits(smallest))


def _exact_ratio(x, xv):
    """Integers (n, m), m > 0, with x = n/m exactly.

    A Fraction or int gives its own numerator and denominator; anything
    else is read from its working-precision mpf xv = man * 2^exp.
    """
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    man, exp = int(xv.man), int(xv.exp)
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def _shift_product(n, m, lo, hi):
    """prod_{lo <= j < hi} (n + j*m) by binary splitting.

    Exact in integers while a partial product fits in a few times the
    working precision, which holds for every a/d the checks use; past
    that it is carried as an mpf, so an mpf argument with a full-length
    mantissa costs what its precision costs, not what N times its length
    would.
    """
    limit = 4 * mp.prec
    if hi - lo > 16:
        mid = (lo + hi) // 2
        p = _shift_product(n, m, lo, mid) * _shift_product(n, m, mid, hi)
        return mp.mpf(p) if isinstance(p, int) and p.bit_length() > limit else p
    p = 1
    for j in range(lo, hi):
        p *= n + j * m
        if isinstance(p, int) and p.bit_length() > limit:
            p = mp.mpf(p)
    return p


@lru_cache(maxsize=_LOG_GAMMA_MEMO, typed=True)
def log_gamma(x, ctx: PrecisionContext):
    """log Gamma(x) for real x > 0, absolute error < 10**-target_digits.

    Memoized per (type of x, x, ctx); errors are raised again on every call.
    """
    with ctx.workprec(10):
        xv = to_mpf(x)
        if not xv > 0:
            raise DomainError("log_gamma requires x > 0")
        budget = mp.mpf(10) ** (-(ctx.working_digits + 5))
        # Shift the argument up past ~1.2*working digits, then apply
        # Stirling.  With x = n/m, prod_{j<N} (x + j) is the integer
        # product prod (n + j*m) over m^N, folded back in with one
        # quotient and one log; log P - N log m would cancel digits.
        shift = int(ceil(1.2 * mp.dps - xv)) if xv < 1.2 * mp.dps else 0
        n, m = _exact_ratio(x, xv)
        prod = mp.mpf(_shift_product(n, m, 0, shift)) / mp.mpf(m) ** shift
        return _stirling_log_gamma(xv + shift, budget) - mp.log(prod)


def gamma_rational(a: int, d: int, ctx: PrecisionContext):
    """Gamma(a/d) for integers 0 < a < d with gcd(a, d) = 1."""
    from math import gcd

    if not (0 < a < d):
        raise DomainError("gamma_rational requires 0 < a < d")
    if gcd(a, d) != 1:
        raise DomainError("gamma_rational requires gcd(a, d) = 1")
    with ctx.workprec(10):
        return mp.exp(log_gamma(Fraction(a, d), ctx))


def beta(u, v, ctx: PrecisionContext):
    """Euler beta B(u, v) = Gamma(u)Gamma(v)/Gamma(u+v) for u, v > 0."""
    with ctx.workprec(10):
        uv, vv = to_mpf(u), to_mpf(v)
        if not (uv > 0 and vv > 0):
            raise DomainError("beta requires positive arguments")
        return mp.exp(log_gamma(uv, ctx) + log_gamma(vv, ctx) - log_gamma(uv + vv, ctx))


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
        prod = mp.mpc(1)
        qp = mp.mpc(1)
        for _ in range(terms):
            qp *= q
            prod *= 1 - qp
        return scale ** (-12) * (2 * mp.pi) ** 12 * q * prod ** 24
