from fractions import Fraction

import pytest
from mpmath import mp

from cmperiods.errors import DomainError, PrecisionError
from cmperiods.numkernel import PrecisionContext, to_mpf
from cmperiods.relint import recognize_rational, recognize_sqrtp


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
