"""Chowla-Selberg products, CM period integrals, and Faltings heights.

The central identity, in logarithmic form: over the h ideal classes of
the order of discriminant -d,

    sum_i log(Delta(a_i) Delta(a_i^-1))
        = 12 h log(2 pi / d) + 6 w sum_a eps(a) log Gamma(a/d),

with eps the quadratic character mod d and w the number of units.

The lattice of a^-1 is Z + Z(-conj tau) when that of a is
a(Z + Z tau), so Delta(a^-1) = a^12 conj Delta(a) and each term on the
left is the real a^12 |Delta(a)|^2 (Weil, *Elliptic Functions according
to Eisenstein and Kronecker*): ``numkernel.delta_norm`` takes it from
one pentagonal series per class, for ``cs_verify`` and the Kronecker
limit formula (``log_delta_pair``), and the same number gives the
class's period (|Delta(a)| / p^3)^(1/6) a sqrt(p) (``class_periods``).

``numkernel.delta_lattice``, on the lattices that the tests build
(``tests/oracles.py``), computes Delta(a) and Delta(a^-1) one at a
time; no check runs it, and the tests keep it as the oracle of the
closed form.  The closed form is evaluated at the lattice point they
use and carries the same ten digits past working precision, and each
value is rounded to working precision where the direct path rounds it
(the pair before its log, |Delta(a)| as ``abs`` rounds a complex
number), so every sum, and every printed digit, is the direct one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, NamedTuple

from mpmath import mp
from mpmath.libmp import mpf_pos, round_down

from .errors import ConsistencyError, DomainError
from .lseries import character_gamma_sum, dirichlet_jet
from .numkernel import PrecisionContext, delta_norm, error_digits
from .quadforms import Discriminant, QuadForm, class_number_dirichlet, reduced_forms


class IdentityReport(NamedTuple):
    """One identity check: its two sides, their agreement and the verdict.

    Every report row comes from here.  Sides are mpf numbers (printed to
    target digits) or exact values and labels (printed as they are).
    """

    name: str
    inputs: dict
    lhs: Any
    rhs: Any
    digits_agreed: int
    passed: bool

    def row(self, ctx: PrecisionContext) -> dict:
        """The six-key report row: check, inputs, lhs_log, rhs_log, digits_agreed, pass."""
        return {"check": self.name, "inputs": self.inputs,
                "lhs_log": _side_text(self.lhs, ctx), "rhs_log": _side_text(self.rhs, ctx),
                "digits_agreed": self.digits_agreed, "pass": self.passed}


def _side_text(x, ctx):
    return str(x) if isinstance(x, (int, Fraction, str)) else mp.nstr(x, ctx.target_digits)


def make_report(name: str, inputs: dict, lhs, rhs, ctx: PrecisionContext) -> IdentityReport:
    """Compare two numbers by relative error.

    digits_agreed is floor(-log10(rel_err)), exact (``error_digits``),
    at most working digits; the check passes when digits_agreed >=
    target - 20, one rule for both fields.
    """
    with ctx.workprec():
        abs_err = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs))
        rel_err = abs_err / scale if scale > 0 else abs_err
        digits = min(ctx.working_digits, error_digits(rel_err)) if rel_err else ctx.working_digits
        passed = digits >= ctx.target_digits - 20
        return IdentityReport(name, inputs, +lhs, +rhs, digits, passed)


def exact_report(name: str, inputs: dict, lhs, rhs, ctx: PrecisionContext) -> IdentityReport:
    """Compare two exact values: equal ones agree to target digits, others to none."""
    ok = lhs == rhs
    return IdentityReport(name, inputs, lhs, rhs, ctx.target_digits if ok else 0, ok)


def unrecognized_report(name: str, inputs: dict, lhs) -> IdentityReport:
    """A value no exact form was found for: a failed check with no digits agreed."""
    return IdentityReport(name, inputs, lhs, "unrecognized", 0, False)


def log_delta_pair(f: QuadForm, sqrt_d, ctx: PrecisionContext):
    """log(Delta(a) Delta(a^-1)) for the class a of f, sqrt_d = sqrt(-f.disc).

    The pair from ``delta_norm`` is rounded to working precision, where
    the direct path rounds the product of two ``delta_lattice`` values,
    and then its log is taken.
    """
    with ctx.workprec():
        return mp.log(+delta_norm(f, sqrt_d, ctx))


def cs_verify(d, ctx: PrecisionContext) -> IdentityReport:
    """Check the Chowla-Selberg identity at fundamental discriminant -d."""
    disc = Discriminant.of(d)
    d = disc.d
    group = reduced_forms(disc)
    with ctx.workprec():
        sqrt_d = mp.sqrt(d)
        lhs = sum((log_delta_pair(f, sqrt_d, ctx) for f in group), mp.mpf(0))
        rhs = (12 * group.h * mp.log(2 * mp.pi / d)
               + 6 * disc.w * character_gamma_sum(disc, ctx))
    return make_report(f"chowla-selberg d={d}", {"d": d}, lhs, rhs, ctx)


def _period(f: QuadForm, p: int, sqrt_p, ctx: PrecisionContext):
    """(|Delta(a)| / p^3)^(1/6) a sqrt(p) for the class a of f; call at working precision.

    |Delta(a)| is the square root of Delta(a) Delta(a^-1) / a^12, rounded
    as abs() rounds the complex ``delta_lattice`` value (mpmath's hypot):
    the square down to four more bits first, unless Delta(a) is real
    (a | b, where q is real) and is rounded once.
    """
    with ctx.workprec(10):
        square = delta_norm(f, sqrt_p, ctx) / f.a ** 12
    if f.b % f.a:
        square = mp.make_mpf(mpf_pos(square._mpf_, mp.prec + 4, round_down))
    return mp.power(mp.sqrt(square) / p ** 3, mp.mpf(1) / 6) * f.a * sqrt_p


def period_integral(f: QuadForm, p, ctx: PrecisionContext):
    """Real period attached to the ideal class of f, p = 3 mod 4 prime > 3.

    (|Delta(a)| / p^3)^(1/6) a sqrt(p), from one series (``class_periods``).
    """
    disc = Discriminant.prime(p)
    if f.disc != -disc.d:
        raise DomainError("form discriminant does not match p")
    with ctx.workprec():
        return _period(f, disc.d, mp.sqrt(disc.d), ctx)


def class_periods(p, ctx: PrecisionContext):
    """The class group of discriminant -p and the period of each class, in its order.

    sqrt(p) is taken once, and each period is ``period_integral``'s.
    """
    disc = Discriminant.prime(p)
    group = reduced_forms(disc)
    with ctx.workprec():
        sqrt_p = mp.sqrt(disc.d)
        return group, [_period(f, disc.d, sqrt_p, ctx) for f in group]


def m_invariant(p) -> Fraction:
    """m = sum of a/p over quadratic residues a; equals (p-1)/4 - h/2."""
    disc = Discriminant.prime(p)
    p = disc.d
    m = sum((Fraction(a, p) for a in range(1, p) if disc.epsilon(a) == 1),
            Fraction(0))
    h = class_number_dirichlet(disc)
    if m != Fraction(p - 1, 4) - Fraction(h, 2):
        raise ConsistencyError(f"m-invariant {m} != (p-1)/4 - h/2 at p={p}")
    return m


def faltings_height_periods(p, ctx: PrecisionContext):
    """Faltings height from the period integrals over the class group."""
    group, periods = class_periods(p, ctx)
    with ctx.workprec():
        total = sum((mp.log(val) for val in periods), mp.mpf(0))
        return -total / (2 * group.h) - mp.log(group.d.d) / 4


def faltings_height_L(p, ctx: PrecisionContext):
    """The same height via the logarithmic derivative of L(eps, s) at 0."""
    disc = Discriminant.prime(p)
    p = disc.d
    jet = dirichlet_jet(disc, ctx)
    with ctx.workprec():
        return -jet.dlog / 2 - mp.log(p) / 4 - mp.log(2 * mp.pi) / 2
