"""CM types of Fermat quotients and their period certificates.

For a prime p = 3 mod 4 and a triple (r, s, t) with r + s + t = 0 mod p,
the exponents a with <ar/p> + <as/p> + <at/p> = 1 form a CM type.  The
associated period products are Euler beta values; their comparison with
the product of Gamma(a/p) over the residues a yields ratios that are
exactly rational, or rational multiples of sqrt(p), and the Tate-twist
certificate here pins those down.

Each public function takes p as an int or as the Discriminant that
``Discriminant.prime`` returned, and checks the triple once; a caller
holding that Discriminant passes it on, so p is tested for primality
once per request.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from mpmath import mp

from .csperiods import IdentityReport, m_invariant, make_report, unrecognized_report
from .errors import ConsistencyError, DomainError
from .numkernel import PrecisionContext, log_gamma, to_mpf
from .quadforms import Discriminant, class_number_dirichlet
from .relint import recognize_rational, recognize_sqrtp

_MAX_DEN = 10 ** 12


def frac(x) -> Fraction:
    """Fractional part <x> in [0, 1), exact on rationals."""
    f = Fraction(x)
    return f - (f.numerator // f.denominator)


@dataclass(frozen=True)
class CMTypeRecord:
    p: int
    rst: tuple
    phi: tuple
    u: int
    v: int


@dataclass(frozen=True)
class RatioCertificate:
    """A period ratio, its recognized exact value, and the check comparing them.

    kind is "rational" (ratio = recognized) or "sqrtp" (ratio =
    recognized * sqrt(p)).  height is max(|numerator|, denominator).
    report.lhs is the ratio; report.rhs names the exact value, or is
    "unrecognized".
    """

    report: IdentityReport
    kind: str
    recognized: Fraction | None
    height: int
    m: Fraction | None

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
    return disc.epsilon(r) + disc.epsilon(s) + disc.epsilon(t)


def epsilon_rst(p, r, s, t) -> int:
    """eps(r) + eps(s) + eps(t) in {-3, -1, 1, 3}."""
    return _epsilon(*_check_triple(p, r, s, t))


def cm_type(p, r, s, t) -> CMTypeRecord:
    """The set phi = {a : <ar/p> + <as/p> + <at/p> = 1} with its QR split."""
    disc, r, s, t = _check_triple(p, r, s, t)
    p = disc.d
    phi = tuple(a for a in range(1, p)
                if (a * r % p) + (a * s % p) + (a * t % p) == p)
    u = sum(1 for a in phi if disc.epsilon(a) == 1)
    v = len(phi) - u
    if u + v != (p - 1) // 2:
        raise ConsistencyError(f"CM type at p={p} has size {u + v} != (p-1)/2")
    h = class_number_dirichlet(disc)
    if u - v != h * _epsilon(disc, r, s, t):
        raise ConsistencyError(f"u - v != h * eps at p={p}, rst={(r, s, t)}")
    return CMTypeRecord(p=p, rst=(r, s, t), phi=phi, u=u, v=v)


def beta_period(p, r, s, t, ctx: PrecisionContext):
    """log of prod over QRs a of B(<ar/p>, <as/p>).

    The beta factor is Gamma(u)Gamma(v)/Gamma(u+v) with the true sum
    u + v, which may lie in (1, 2); reducing it mod 1 would silently
    drop the rational factor this module is after.
    """
    disc, r, s, t = _check_triple(p, r, s, t)
    p = disc.d
    with ctx.workprec():
        total = mp.mpf(0)
        for a in range(1, p):
            if disc.epsilon(a) != 1:
                continue
            u = frac(Fraction(a * r, p))
            v = frac(Fraction(a * s, p))
            total += (log_gamma(u, ctx) + log_gamma(v, ctx)
                      - log_gamma(u + v, ctx))
        return total


def _residue_gamma_sum(disc, ctx: PrecisionContext):
    """sum of log Gamma(a/p) over the residues eps(a) = 1, at working precision.

    Added in order of a, each working + 10 digit value of ``log_gamma``
    rounded to working precision first: the Tate certificates' recorded
    digits rest on that rounding.
    """
    p = disc.d
    with ctx.workprec():
        total = mp.mpf(0)
        for a in range(1, p):
            if disc.epsilon(a) == 1:
                total += +log_gamma(Fraction(a, p), ctx)
        return total


def _certify(name, inputs, log_ratio, kind, p, m, ctx) -> RatioCertificate:
    with ctx.workprec():
        ratio = mp.exp(log_ratio)
        if kind == "rational":
            rec = recognize_rational(ratio, _MAX_DEN, ctx)
        else:
            rec = recognize_sqrtp(ratio, p, _MAX_DEN, ctx)
        if rec is None:
            return RatioCertificate(unrecognized_report(name, inputs, +ratio), kind,
                                    None, 0, m)
        exact, text = to_mpf(rec), str(rec)
        if kind == "sqrtp":
            exact, text = exact * mp.sqrt(p), f"{text}*sqrt({p})"
        rep = replace(make_report(name, inputs, ratio, exact, ctx), rhs=text)
        return RatioCertificate(rep, kind, rec, max(abs(rec.numerator), rec.denominator), m)


def tate_twist_certificate(p, r, s, t, ctx: PrecisionContext) -> RatioCertificate:
    """Certify the beta period against the QR Gamma product.

    Needs a mixed triple, eps(r) + eps(s) + eps(t) = +-1.  At +1 the
    ratio is rational; at -1 it is rational * sqrt(p).  The m-invariant
    rides along as the twist exponent the comparison is taken at.
    """
    disc, r, s, t = _check_triple(p, r, s, t)
    p = disc.d
    e = _epsilon(disc, r, s, t)
    if abs(e) != 1:
        raise DomainError("tate certificate needs eps(r)+eps(s)+eps(t) = +-1")
    m = m_invariant(disc)
    name, inputs = f"tate-twist p={p} rst={r},{s},{t}", {"p": p, "rst": [r, s, t]}
    with ctx.workprec():
        logb = beta_period(disc, r, s, t, ctx)
        qr = _residue_gamma_sum(disc, ctx)
        if e == 1:
            return _certify(name, inputs, logb - qr, "rational", p, m, ctx)
        log_ratio = logb + qr - mp.mpf(p - 1) / 2 * mp.log(2 * mp.pi)
        return _certify(name, inputs, log_ratio, "sqrtp", p, m, ctx)
