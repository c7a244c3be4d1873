from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from cmperiods.errors import DomainError, PrecisionError
from cmperiods.numkernel import PrecisionContext, to_mpf
from cmperiods.relint import pslq, recognize_rational, recognize_sqrtp


def test_recognize_rational_examples(ctx):
    with ctx.workprec():
        assert recognize_rational(mp.mpf("0.75"), 10 ** 6, ctx) == Fraction(3, 4)
        x = to_mpf(Fraction(22, 7)) + mp.mpf(10) ** -100
        assert recognize_rational(x, 10 ** 6, ctx) == Fraction(22, 7)
        assert recognize_rational(+mp.pi, 10 ** 6, ctx) is None


def test_recognize_rational_roundtrip(ctx, rng):
    with ctx.workprec():
        for _ in range(10 ** 4):
            q = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
            got = recognize_rational(to_mpf(q), 10 ** 6, ctx)
            assert got == q


def test_recognize_rational_needs_precision():
    ctx = PrecisionContext(30)
    with pytest.raises(PrecisionError) as exc:
        recognize_rational(mp.mpf("0.5"), 10 ** 30, ctx)
    assert exc.value.achieved_digits == ctx.working_digits


def test_recognize_rational_needs_absolute_accuracy():
    # at 30 digits (50 working) x is known to |x| 10^-50, and a hit needs
    # that below the window 1/(2 * 10^24): |x| < 5 * 10^25
    ctx = PrecisionContext(30)
    with ctx.workprec():
        big = mp.mpf("123456789012345678901234567890123456789012345678901234567890.25")
        with pytest.raises(PrecisionError) as exc:
            recognize_rational(big, 10 ** 12, ctx)
        assert exc.value.achieved_digits == 0
        with pytest.raises(PrecisionError) as exc:
            recognize_rational(mp.mpf(10) ** 26, 10 ** 12, ctx)
        assert exc.value.achieved_digits == 24
        assert recognize_rational(mp.mpf(10) ** 20, 10 ** 12, ctx) == 10 ** 20
        assert recognize_rational(mp.mpf(10) ** 25, 10 ** 12, ctx) == 10 ** 25


def test_recognize_rational_bad_args(ctx):
    with pytest.raises(DomainError):
        recognize_rational(mp.mpf("0.5"), 0, ctx)
    with pytest.raises(DomainError):
        recognize_rational(mp.inf, 10 ** 6, ctx)


def test_recognize_sqrtp(ctx):
    with ctx.workprec():
        assert recognize_sqrtp(3 * mp.sqrt(7), 7, 10 ** 6, ctx) == Fraction(3)
        assert recognize_sqrtp(mp.sqrt(7) / 2, 7, 10 ** 6, ctx) == Fraction(1, 2)
        assert recognize_sqrtp(mp.sqrt(2), 7, 10 ** 6, ctx) is None
    with pytest.raises(DomainError):
        recognize_sqrtp(mp.mpf(1), 15, 10 ** 6, ctx)


def test_pslq_sqrt2(ctx):
    with ctx.workprec():
        rel = pslq([mp.mpf(1), mp.sqrt(2), mp.mpf(2)], 10 ** 3, ctx)
    assert rel is not None
    c0, c1, c2 = rel.coeffs
    assert c1 == 0 and c0 == -2 * c2 and c2 != 0


def test_pslq_golden_ratio(ctx):
    with ctx.workprec():
        phi = (1 + mp.sqrt(5)) / 2
        rel = pslq([mp.mpf(1), phi, phi ** 2], 10 ** 3, ctx)
    assert rel is not None
    c = rel.coeffs
    assert c in ((1, 1, -1), (-1, -1, 1))


def test_pslq_no_relation(ctx):
    with ctx.workprec():
        assert pslq([mp.mpf(1), +mp.pi], 10 ** 3, ctx) is None


def test_pslq_short_input(ctx):
    with pytest.raises(DomainError):
        pslq([mp.mpf(1)], 10, ctx)


def test_pslq_matches_mpmath(ctx):
    with ctx.workprec():
        xs = [mp.mpf(1), mp.log(2), mp.log(3), mp.log(6)]
        rel = pslq(xs, 10 ** 3, ctx)
        ref = mpmath.pslq(xs, maxcoeff=10 ** 3)
    assert rel is not None and ref is not None
    c = list(rel.coeffs)
    assert c == ref or [-v for v in c] == ref


def test_pslq_planted_relations(ctx, rng):
    found = 0
    with ctx.workprec():
        basis = [mp.mpf(1), mp.sqrt(2), mp.sqrt(3), +mp.pi]
        for _ in range(100):
            coeffs = [rng.randint(-10 ** 3, 10 ** 3) for _ in range(3)]
            if not any(coeffs):
                coeffs[0] = 1
            planted = basis[:3] + [mp.fsum(c * b for c, b in zip(coeffs, basis[:3]))]
            rel = pslq(planted, 10 ** 3, ctx)
            assert rel is not None
            found += 1
            # soundness: re-evaluate the claimed relation at higher precision
            with mp.workdps(280):
                hi = [mp.mpf(1), mp.sqrt(2), mp.sqrt(3)]
                hi.append(mp.fsum(c * b for c, b in zip(coeffs, hi)))
                resid = abs(mp.fsum(c * x for c, x in zip(rel.coeffs, hi)))
            scale = max(abs(x) for x in planted) * max(abs(c) for c in rel.coeffs)
            assert resid < mp.mpf(10) ** -60 * scale
    assert found == 100
