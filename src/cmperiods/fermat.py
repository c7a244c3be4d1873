"""CM types of Fermat quotients and their period certificates.

For a prime p = 3 mod 4 and a triple (r, s, t) with r + s + t = 0 mod p,
the exponents a with <ar/p> + <as/p> + <at/p> = 1 form a CM type.  The
associated period products are Euler beta values.  Let G_sigma be the
product of Gamma(a/p) over the residues eps(a) = sigma, e = eps(r) +
eps(s) + eps(t) = +-1, u = ar mod p and v = as mod p.  By
Gamma(x + 1) = x Gamma(x) (DLMF 5.5.1) the beta period is B = Q G_e, with

    Q = prod p / (u + v - p) over the residues a with u + v > p,

the residues outside the CM type, and by Gauss multiplication (DLMF
5.5.6) B G_-e / (2 pi)^((p-1)/2) = Q / sqrt(p).  The Tate-twist
certificate compares that ratio, times sqrt(p) at e = +1, with its
closed form, so both signs run every Gamma(a/p) through the Taylor
table of log Gamma.

The residues are a subgroup of index 2 of the units mod p, so a -> ar
mod p takes them onto the a with eps(a) = eps(r): the u-factors of B
are G_eps(r), the v-factors G_eps(s), and

    B = G_eps(r) G_eps(s) / prod Gamma((u + v)/p) over the residues a.

G_+ and G_- are kept for the process per Discriminant, sign and
precision context (``_residue_gamma_product``, at most
_GAUSS_PRODUCT_MEMO = 1,024), and (2 pi)^((p-1)/2) per exponent and
binary precision (``numkernel._two_pi_power``).  Every mixed triple
needs both signs among eps(r), eps(s) and -e, so the first certificate
at a p and precision builds both products, and every later one forms a
single ``gamma_product``, over the (p - 1)/2 sums u + v, where it
formed two over up to 2(p - 1) arguments.

Each public function takes p as an int or as the Discriminant that
``Discriminant.prime`` returned, and checks the triple once; a caller
holding that Discriminant passes it on, so p is tested for primality
once per request.  Every sum and product over the residues reads
``Discriminant.residues``, found once per p from (p - 1)/2 characters,
in increasing a, so the mpf products round in one order; eps(r) is
whether r is among them.  The Gamma arguments go to ``gamma_product``
as integer numerators over p, with no Fraction per argument, and its
memos key them on integers: u + v = 1 + k/p reads the Horner sum of
k/p, and a request at a p and precision already seen computes no part.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import NamedTuple

from mpmath import mp

from .csperiods import IdentityReport, m_invariant, make_report
from .errors import DomainError
from .numkernel import PrecisionContext, _two_pi_power, gamma_product, to_mpf
from .quadforms import Discriminant

# Gauss products G_sigma kept, one mpf each per prime, sign and precision:
# the fermat requests at p = 7, 11 and 19 at three precisions fill 18
_GAUSS_PRODUCT_MEMO = 1024


class CMTypeRecord(NamedTuple):
    p: int
    rst: tuple
    phi: tuple
    u: int
    v: int


class RatioCertificate(NamedTuple):
    """A period ratio, its exact value, and the check comparing them.

    kind is "rational" (ratio = recognized, e = +1) or "sqrtp" (ratio =
    recognized * sqrt(p), e = -1), recognized is the closed form Q or Q/p
    and height is max(|numerator|, denominator).  report.lhs is the ratio.
    """

    report: IdentityReport
    kind: str
    recognized: Fraction
    height: int
    m: Fraction

    @property
    def passed(self) -> bool:
        return self.report.passed


def _check_triple(p, r, s, t):
    disc = Discriminant.prime(p)
    p = disc.d
    r, s, t = r % p, s % p, t % p
    if 0 in (r, s, t):
        raise DomainError("r, s, t must be nonzero mod p")
    if (r + s + t) % p != 0:
        raise DomainError("r + s + t must vanish mod p")
    return disc, r, s, t


def _epsilon(disc, r, s, t) -> int:
    residues = disc.residues
    return sum(1 if x in residues else -1 for x in (r, s, t))


def epsilon_rst(p, r, s, t) -> int:
    """eps(r) + eps(s) + eps(t) in {-3, -1, 1, 3}."""
    return _epsilon(*_check_triple(p, r, s, t))


def cm_type(p, r, s, t) -> CMTypeRecord:
    """The set phi = {a : <ar/p> + <as/p> + <at/p> = 1} with its QR split."""
    disc, r, s, t = _check_triple(p, r, s, t)
    p = disc.d
    phi = tuple(a for a in range(1, p)
                if (a * r % p) + (a * s % p) + (a * t % p) == p)
    u = sum(1 for a in disc.residues if (a * r % p) + (a * s % p) + (a * t % p) == p)
    v = len(phi) - u
    return CMTypeRecord(p=p, rst=(r, s, t), phi=phi, u=u, v=v)


def beta_period(p, r, s, t, ctx: PrecisionContext):
    """prod over QRs a of B(<ar/p>, <as/p>), at working + 10 digits.

    The beta factor is Gamma(u)Gamma(v)/Gamma(u+v) with the true sum
    u + v, which may lie in (1, 2); reducing it mod 1 would silently
    drop the rational factor this module is after.  a -> ar mod p takes
    the residues onto the a with eps(a) = eps(r), so the u-factors are
    the Gauss product G_eps(r) and the v-factors G_eps(s)
    (``_residue_gamma_product``, memoized), and

        B = G_eps(r) G_eps(s) prod_a Gamma(u + v)^-1,

    multiplied in that order; the last factor is one ``gamma_product``,
    weight -1 at each sum, equal sums merged.
    """
    disc, r, s, t = _check_triple(p, r, s, t)
    p, residues = disc.d, disc.residues
    sums = Counter(a * r % p + a * s % p for a in residues)  # numerators over p
    inverse = gamma_product({n: -c for n, c in sums.items()}, p, ctx)
    g_r = _residue_gamma_product(disc, 1 if r in residues else -1, ctx)
    g_s = _residue_gamma_product(disc, 1 if s in residues else -1, ctx)
    with ctx.workprec(10):
        return g_r * g_s * inverse


@lru_cache(maxsize=_GAUSS_PRODUCT_MEMO)
def _residue_gamma_product(disc, sigma, ctx: PrecisionContext):
    """G_sigma, the product of Gamma(a/p) over the a with eps(a) = sigma = +-1.

    At working + 10 digits, in increasing a: the residues, or at
    sigma = -1 the p - a, a a residue (eps is odd), which are all the
    other a < p when p is prime.  Memoized for the process per
    Discriminant, sign and precision context, up to _GAUSS_PRODUCT_MEMO
    products: the beta periods and the ratios of every triple at one p
    and precision read the same two.
    """
    p, residues = disc.d, disc.residues
    numerators = residues if sigma == 1 else [p - a for a in reversed(residues)]
    return gamma_product(dict.fromkeys(numerators, 1), p, ctx)


def tate_twist_certificate(p, r, s, t, ctx: PrecisionContext) -> RatioCertificate:
    """Certify the beta period against Gauss multiplication and its closed form.

    Needs a mixed triple, e = eps(r) + eps(s) + eps(t) = +-1.  With B
    the beta period and G_-e the Gamma product over the residues of sign
    -e, the ratio B G_-e / (2 pi)^((p-1)/2), times sqrt(p) at e = +1, is
    formed at working + 10 digits and rounded to working once; it is
    compared with Q at +1 and (Q/p) sqrt(p) at -1 (module docstring).
    G_-e and (2 pi)^((p-1)/2) are read from their memos and B is built
    from the Gauss products (module docstring); the ratio is b g /
    (2 pi)^((p-1)/2), then times sqrt(p), in that order.
    The m-invariant rides along as the twist exponent the comparison is
    taken at.  Raises DomainError, before any Gamma product, when Q has
    more digits than CPython converts to text (from p of about 4,800).
    """
    disc, r, s, t = _check_triple(p, r, s, t)
    p = disc.d
    e = _epsilon(disc, r, s, t)
    if abs(e) != 1:
        raise DomainError("tate certificate needs eps(r)+eps(s)+eps(t) = +-1")
    m = m_invariant(disc)
    name, inputs = f"tate-twist p={p} rst={r},{s},{t}", {"p": p, "rst": [r, s, t]}
    uvs = (a * r % p + a * s % p for a in disc.residues)
    excess = [uv - p for uv in uvs if uv > p]
    q = Fraction(p ** len(excess), prod(excess))
    exact, kind = (q, "rational") if e == 1 else (q / p, "sqrtp")
    try:
        text = str(exact)
    except ValueError as exc:  # CPython's guard against quadratic int-to-str time
        raise DomainError(f"the closed form of the tate ratio at p={p} has more than "
                          f"{sys.get_int_max_str_digits()} digits") from exc
    b = beta_period(disc, r, s, t, ctx)
    g = _residue_gamma_product(disc, -e, ctx)
    with ctx.workprec(10):
        ratio = b * g / _two_pi_power((p - 1) // 2, mp.prec)
        if e == 1:
            ratio *= mp.sqrt(p)
    with ctx.workprec():
        value = to_mpf(exact)
        if e == -1:
            value, text = value * mp.sqrt(p), f"{text}*sqrt({p})"
        rep = make_report(name, inputs, +ratio, value, ctx)._replace(rhs=text)
    return RatioCertificate(rep, kind, exact, max(abs(exact.numerator), exact.denominator), m)
