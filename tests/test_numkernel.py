import random
from fractions import Fraction
from itertools import count
from math import floor

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from cmperiods import numkernel
from cmperiods.errors import DomainError, PrecisionError
from cmperiods.numkernel import (Lattice, PrecisionContext, delta_lattice, delta_q_terms,
                                 delta_norm, log_gamma, to_mpf)
from cmperiods.quadforms import is_fundamental, reduced_forms
from oracles import form_to_lattice, inverse_ideal_lattice


def _clear_parts():
    numkernel._log_gamma_parts.cache_clear()
    numkernel._log_gamma_horner.cache_clear()


def test_context_floors():
    with pytest.raises(DomainError):
        PrecisionContext(10)
    assert PrecisionContext(120).working_digits == 140
    assert PrecisionContext(120).guard_digits == 20


def test_lattice_validation(ctx):
    with ctx.workprec():
        with pytest.raises(DomainError):
            Lattice(mp.mpc(0, -1), mp.mpf(1))
        with pytest.raises(DomainError):
            Lattice(mp.mpc(0, 1), mp.mpf(0))


def test_log_gamma_exact_points(ctx):
    with ctx.workprec():
        assert abs(log_gamma(Fraction(1), ctx)) < ctx.eps()
        assert abs(log_gamma(Fraction(1, 2), ctx) - mp.log(mp.pi) / 2) < ctx.eps()
        assert abs(log_gamma(2, ctx)) < ctx.eps()


def test_log_gamma_domain(ctx):
    # the domain is checked before the parts memo is read: each call raises
    for x in (Fraction(0), Fraction(-3, 2), 0, -1, 0, -1):
        with pytest.raises(DomainError):
            log_gamma(x, ctx)


def test_log_gamma_refuses_an_mpf(ctx):
    # the argument is an exact rational: an mpf, even an integral one, is
    # refused, and so is a float; no call in the package passes either
    with ctx.workprec():
        for x in (mp.mpf(2), mp.mpf(1) / 7, mp.mpf("0.5"), 0.5):
            with pytest.raises(DomainError):
                log_gamma(x, ctx)


def test_log_gamma_memo_keeps_precisions_apart():
    lo, hi = PrecisionContext(60), PrecisionContext(120)
    x = Fraction(1, 3)
    log_gamma(x, lo)
    with mp.workdps(160):
        ref = mpmath.loggamma(mp.mpf(1) / 3)
        assert abs(log_gamma(x, hi) - ref) < mp.mpf(10) ** -120


@settings(max_examples=40, deadline=None)
@given(st.integers(30, 400), st.integers(2, 200), st.data())
def test_log_gamma_against_mpmath_random_precision(target, d, data):
    a = data.draw(st.integers(1, d - 1))
    ctx = PrecisionContext(target)
    with mp.workdps(target + 20):
        ref = mpmath.loggamma(mp.mpf(a) / d)
        assert abs(log_gamma(Fraction(a, d), ctx) - ref) < mp.mpf(10) ** -target


@settings(max_examples=40, deadline=None)
@given(st.integers(30, 400), st.sampled_from(("int", "mpf", "tiny")), st.data())
def test_log_gamma_argument_kinds_against_mpmath(target, kind, data):
    # each way the shift product is formed: an int (m = 1, t = 0), a
    # Fraction with a denominator 2^k up to 2^74 (the longest factors
    # n + j*m), and x < 10^-3, where log Gamma ~ -log x; all in the
    # domain x <= 60
    ctx = PrecisionContext(target)
    if kind == "int":
        x = data.draw(st.integers(1, 60))
    elif kind == "mpf":
        k = data.draw(st.integers(1, 74))
        x = Fraction(data.draw(st.integers(2 ** k, 60 * 2 ** k)), 2 ** k)
    else:
        k = data.draw(st.integers(10, 74))
        x = Fraction(data.draw(st.integers(1, 2 ** (k - 10))), 2 ** k)
    with mp.workdps(target + 40):
        ref = mpmath.loggamma(to_mpf(x))
        assert abs(log_gamma(x, ctx) - ref) < mp.mpf(10) ** -target, (kind, x)


@pytest.mark.parametrize("target", [300, 1000])
@pytest.mark.parametrize("kind", ["1/199", "97/199", "mpf", "419/7"])
def test_log_gamma_high_precision_against_mpmath(target, kind):
    # the fixed-point Stirling loop of the table, where carrying
    # c_k / z^(2k-1) from powers of 1/z would underflow the scale while
    # c_k grows: 10 digits lost at 60 digits, about 400 at 1000; "mpf" is
    # a 74-bit odd numerator over 2^71, the longest shift-product factors
    # the kinds test draws, and 419/7 = 60 - 1/7 the shortest shift
    x = {"1/199": Fraction(1, 199), "97/199": Fraction(97, 199),
         "mpf": Fraction(random.Random(target).getrandbits(74) | 1 << 73 | 1, 2 ** 71),
         "419/7": Fraction(419, 7)}[kind]
    ctx = PrecisionContext(target)
    with mp.workdps(target + 40):
        ref = mpmath.loggamma(to_mpf(x))
        assert abs(log_gamma(x, ctx) - ref) < mp.mpf(10) ** -target


@pytest.mark.parametrize("ctx", [PrecisionContext(30), PrecisionContext(1000)],
                         ids=["30", "1000"])
def test_log_gamma_domain_edges_against_mpmath(ctx):
    # the top of the domain, x = 60, is 12 below the least shift point,
    # N = 72 at the smallest context; half-integers sum the table at
    # |t| = 1/2, and 3/2^74 has the longest shift product.  Past 60 every
    # call raises, the memo keeping no error
    target = ctx.target_digits
    args = [60, Fraction(1, 2), Fraction(3, 2), Fraction(59, 2), Fraction(119, 2),
            Fraction(3, 2 ** 74)]
    with mp.workdps(target + 40):
        for x in args:
            ref = mpmath.loggamma(to_mpf(x))
            assert abs(log_gamma(x, ctx) - ref) < mp.mpf(10) ** -target, x
    for x in (Fraction(421, 7), Fraction(10 ** 5, 7)) * 2:
        with pytest.raises(DomainError):
            log_gamma(x, ctx)


def test_log_gamma_miss_runs_no_stirling_loop(monkeypatch):
    # every log Gamma reads the one Taylor table of its precision: once
    # the table is built, a memo miss sums it and one shift product, and
    # runs no Stirling loop.  The memos are cleared first, so the first
    # call reaches the table whatever earlier requests left in them
    ctx = PrecisionContext(60)
    _clear_parts()
    log_gamma(Fraction(1, 7), ctx)  # builds the table
    loops = []
    stirling_terms = numkernel._stirling_terms

    def counting(*args):
        loops.append(args)
        return stirling_terms(*args)

    monkeypatch.setattr(numkernel, "_stirling_terms", counting)
    _clear_parts()
    for x in (Fraction(1, 7), Fraction(12, 7), 5, Fraction(3, 2 ** 74)):
        log_gamma(x, ctx)
    assert numkernel._log_gamma_parts.cache_info().misses == 4 and loops == []


def test_stirling_table_kept_per_precision():
    # each working precision has its own Taylor tables, so a table built
    # at 60 digits is never read at 300, nor the other way round
    numkernel._log_gamma_taylor.cache_clear()
    numkernel._log_gamma_odd.cache_clear()
    for target in (60, 300, 60, 300):
        _clear_parts()
        ctx = PrecisionContext(target)
        with mp.workdps(target + 40):
            for a in range(1, 7):
                ref = mpmath.loggamma(mp.mpf(a) / 7)
                assert abs(log_gamma(Fraction(a, 7), ctx) - ref) < mp.mpf(10) ** -target


def test_log_gamma_against_mpmath(ctx):
    with mp.workdps(200):
        refs = {x: mpmath.loggamma(to_mpf(x)) for x in
                (Fraction(1, 3), Fraction(1, 7), Fraction(5, 2), Fraction(99, 100), 25)}
    with ctx.workprec():
        for x, ref in refs.items():
            assert abs(log_gamma(x, ctx) - ref) < ctx.eps()


def test_log_gamma_one_seventh_product_oracle():
    # Gamma(1/7) reconstructed from reflection + a doubled-precision
    # Gamma(6/7), fully independent of the Stirling path under test.
    ctx = PrecisionContext(200)
    with mp.workdps(400):
        oracle = mp.log(mp.pi / mp.sin(mp.pi / 7)) - mpmath.loggamma(mp.mpf(6) / 7)
    with ctx.workprec():
        assert abs(log_gamma(Fraction(1, 7), ctx) - oracle) < ctx.eps()


def test_beta_on_integers_shares_horner_sums_by_fractional_part(ctx):
    # the beta period of fermat is one gamma_product over the numerators
    # of u, v and u + v over p; u + v = 1 + k/p reads the Horner sum of
    # k/p, and a second call on the same triple computes nothing
    from cmperiods.fermat import beta_period
    parts, horner = numkernel._log_gamma_parts, numkernel._log_gamma_horner
    _clear_parts()
    beta_period(7, 1, 1, 5, ctx)
    # u = v = a/7 and u + v = 2a/7 over the residues a = 1, 2, 4: nine
    # factors merged onto four arguments, 1/7, 2/7, 4/7 and 8/7, on the
    # three fractional parts 1/7, 2/7 and 4/7 - 1
    assert parts.cache_info()[:2] == (0, 4)
    assert horner.cache_info()[:2] == (1, 3)
    beta_period(7, 1, 1, 5, ctx)
    assert parts.cache_info()[:2] == (4, 4)
    assert horner.cache_info()[:2] == (1, 3)


def _residues(p):
    return [a for a in range(1, p) if pow(a, (p - 1) // 2, p) == 1]


def _beta_terms(p, r, s):
    """The factors (n, c) of fermat's beta period at (r, s) over p, one per Gamma, unmerged."""
    terms = []
    for a in _residues(p):
        u, v = a * r % p, a * s % p
        terms += [(u, 1), (v, 1), (u + v, -1)]
    return terms


def _merged(terms):
    weights = {}
    for n, c in terms:
        weights[n] = weights.get(n, 0) + c
    return weights


@pytest.mark.parametrize("target, primes", [(30, (7, 19, 163, 1019)), (300, (7, 19, 163)),
                                            (1000, (7,))], ids=["30", "300", "1000"])
def test_gamma_product_against_mpmath(target, primes):
    # the beta and residue maps of fermat over p, and a map with a zero
    # weight, a weight -2 at (2p - 1)/p in (1, 2) and the int argument 3
    # as 3p/p, against the exp of the fsum of c loggamma(n/p) over the
    # unmerged factors, by mpmath at working + 20 digits (the beta map
    # merges duplicates: at p = 7, the nine factors of (1, 1, 5) fall on
    # four arguments)
    ctx = PrecisionContext(target)
    for p in primes:
        residues = [(a, 1) for a in _residues(p)]
        maps = [_beta_terms(p, 1, 2), _beta_terms(p, 1, 1), residues,
                residues + [(2 * p - 1, -2), (3, 0), (3 * p, 1)]]
        with mp.workdps(ctx.working_digits + 20):
            refs = {}
            for terms in maps:
                for n, _ in terms:
                    if n not in refs:
                        refs[n] = mp.loggamma(mp.mpf(n) / p)
        for terms in maps:
            got = numkernel.gamma_product(_merged(terms), p, ctx)
            with mp.workdps(ctx.working_digits + 20):
                ref = mp.exp(mp.fsum(c * refs[n] for n, c in terms))
                assert abs(got - ref) < mp.mpf(10) ** -ctx.working_digits * ref, (p, terms)


@pytest.mark.parametrize("target", [30, 300, 1000])
def test_gamma_product_gauss_multiplication(target):
    # prod_{0<a<p} Gamma(a/p) = (2 pi)^((p-1)/2) / sqrt(p) (DLMF 5.5.6),
    # a closed-form oracle that reaches p = 1019 at 1000 digits
    ctx = PrecisionContext(target)
    for p in (163, 1019):
        got = numkernel.gamma_product(dict.fromkeys(range(1, p), 1), p, ctx)
        with mp.workdps(ctx.working_digits + 20):
            ref = (2 * mp.pi) ** ((p - 1) // 2) / mp.sqrt(p)
            assert abs(got - ref) < mp.mpf(10) ** -ctx.working_digits * ref, p


def test_gamma_product_domain(ctx):
    # log_gamma's domain, on every numerator over 7, whatever its weight:
    # 0, a negative argument, 61 and 421/7 above the bound and a
    # non-integer key; and a denominator that is not a positive int
    for bad in (0, -1, 61 * 7, 421, 0.5, Fraction(1, 2)):
        for weight in (1, 0):
            with pytest.raises(DomainError):
                numkernel.gamma_product({1: 1, bad: weight}, 7, ctx)
    for den in (0, -7, 7.0, Fraction(7)):
        with pytest.raises(DomainError):
            numkernel.gamma_product({1: 1}, den, ctx)


def test_stirling_shortfall_reports_smallest_term():
    # at z = 5 the asymptotic series bottoms out near e^(-2*pi*5) ~ 2e-14,
    # far above a limit of one unit of 2^-(prec + 20)
    with mp.workdps(50):
        with pytest.raises(PrecisionError) as err:
            list(numkernel._stirling_terms(5, 1))
    assert err.value.achieved_digits == 14


def _bernoulli(n):
    return Fraction(*map(int, mpmath.bernfrac(n)))


def test_tangent_numbers_give_bernoulli_numbers():
    # |B_2k| = 2k T_k / (4^k (4^k - 1)), B_2k of sign (-1)^(k+1), exactly
    tangents = numkernel._tangent_numbers(60)
    for k in range(1, 61):
        got = Fraction((-1) ** (k + 1) * 2 * k * tangents[k - 1], 4 ** k * (4 ** k - 1))
        assert got == _bernoulli(2 * k), k


@pytest.mark.parametrize("target", [60, 300, 1000])
def test_stirling_terms_are_exact_floors(target):
    # the loop of the Taylor table, at its shift point and scale, against
    # floor(c_k 2^wp / N^(2k-1)), c_k = B_2k / (2k (2k-1)), in fractions,
    # to the first term below 2 units
    with PrecisionContext(target).workprec(10):
        prec, dps = mp.prec, mp.dps
    shift = -(-6 * dps // 5)
    with mp.workprec(prec + numkernel._TAYLOR_GUARD_BITS):
        wp = mp.prec + numkernel._GUARD_BITS
        got = list(numkernel._stirling_terms(shift, 2))
    want = []
    for k in count(1):
        c = _bernoulli(2 * k) / (2 * k * (2 * k - 1))
        want.append(floor(c * 2 ** wp / shift ** (2 * k - 1)))
        if abs(want[-1]) < 2:
            break
    assert got == want


def test_tangent_numbers_grow_once_for_the_largest_table(monkeypatch):
    # one list for every precision: after the table at 330 digits, the
    # table at 90 digits reads it and adds no tangent number
    monkeypatch.setattr(numkernel, "_TANGENTS", [1])
    monkeypatch.setattr(numkernel, "_TANGENT_COLUMN", [1])
    numkernel._log_gamma_taylor.cache_clear()
    precs = []
    for dps in (330, 90):
        with mp.workdps(dps):
            precs.append(mp.prec)
    numkernel._log_gamma_taylor(precs[0])
    grown = list(numkernel._TANGENTS)
    assert len(grown) > 1
    numkernel._log_gamma_taylor(precs[1])
    assert numkernel._TANGENTS == grown


def _digits_oracle(x):
    """floor(-log10 x) for an mpf 0 < x, at least 0, in fractions."""
    f = Fraction(int(x.man)) * Fraction(2) ** int(x.exp)
    k = 0
    while 10 ** (k + 1) * f <= 1:
        k += 1
    return k


@pytest.mark.parametrize("target", [60, 300])
def test_error_digits_against_fractions(target, rng):
    # random errors, and both neighbours of the mpf nearest 10^-k, k up
    # to working digits, one unit of working precision away
    ctx = PrecisionContext(target)
    with ctx.workprec():
        points = [mp.mpf(rng.random()) * mp.mpf(10) ** -rng.randrange(ctx.working_digits + 20)
                  for _ in range(500)]
        for k in range(ctx.working_digits + 1):
            x = mp.mpf(10) ** -k
            ulp = mp.ldexp(1, mp.mag(x) - mp.prec)
            points += [x, mp.fsub(x, ulp, exact=True), mp.fadd(x, ulp, exact=True)]
    for x in points:
        assert numkernel.error_digits(x) == _digits_oracle(x), x


def test_error_digits_refuses_non_positive_and_non_finite():
    for x in (mp.mpf(0), -mp.mpf(10) ** -5, mp.inf, -mp.inf, mp.nan):
        with pytest.raises(DomainError):
            numkernel.error_digits(x)


LN_DIGITS = [30, 60, 120, 300, 600, 1000]


def _ln_ulps(x):
    """|ln(x) - log x| in units of the last place of ln(x), log x by mp.log at 30 more digits."""
    got = numkernel.ln(x)
    _, _, exp, bc = got._mpf_
    ulp = mp.ldexp(1, exp + bc - mp.prec)
    with mp.workdps(mp.dps + 30):
        return abs(got - mp.log(x)) / ulp


@pytest.mark.parametrize("digits", LN_DIGITS)
def test_ln_rounds_to_nearest_against_mpmath(digits, rng):
    # random mantissas at exponents to +-5000 bits, and x = 1 +- 2^-k for k
    # to the precision, where log x cancels to about +-2^-k: rounded to
    # nearest from a sum within 2^-19 of an ulp, so within half an ulp
    # and 2^-18 more
    with mp.workdps(digits):
        prec = mp.prec
        xs = [mp.mpf((rng.getrandbits(prec) | 1 << (prec - 1), e - prec))
              for e in (-5000, -1000, -64, -1, 0, 1, 2, 3, 64, 1000, 5000)]
        for k in {1, 2, 3, prec // 2, prec - 2, prec - 1, *rng.sample(range(1, prec), 12)}:
            xs += [mp.mpf(((1 << k) + 1, -k)), mp.mpf(((1 << k) - 1, -k))]
        for x in xs:
            assert _ln_ulps(x) <= 0.5 + 2 ** -18, x


def test_ln_of_one_and_powers_of_two_runs_no_series(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"log_taylor called with {args}")

    monkeypatch.setattr(numkernel, "log_taylor", refuse)
    for digits in LN_DIGITS:
        with mp.workdps(digits):
            assert numkernel.ln(1)._mpf_ == numkernel.ln(mp.mpf(1))._mpf_ == mp.zero._mpf_
            for k in (1, -1, 2, -2, 64, -1000, 1000, 5000, -5000):
                assert _ln_ulps(mp.ldexp(1, k)) <= 0.5 + 2 ** -18, k


def test_ln_refuses_non_positive_and_non_finite():
    for x in (0, -3, mp.mpf(0), -mp.mpf(10) ** -5, mp.inf, -mp.inf, mp.nan):
        with pytest.raises(DomainError):
            numkernel.ln(x)


@pytest.mark.parametrize("digits", LN_DIGITS)
def test_ln_is_mp_log_to_the_bit_on_a_grid(digits):
    # the kinds of argument the package takes the log of: integers d and
    # p, 2 pi/d, fractions n/d about 1 and powers of two; each rounds as
    # mpmath's cached log does, which is why no printed byte moved when
    # the package's logs left mp.log
    with mp.workdps(digits):
        grid = ([mp.mpf(n) for n in range(2, 200)] + [2 * mp.pi / n for n in range(1, 200)]
                + [mp.mpf(n) / 97 for n in range(1, 200)]
                + [mp.ldexp(1, k) for k in range(-64, 65)])
        assert [x for x in grid if numkernel.ln(x) != mp.log(x)] == []


# the shift point N = ceil(1.2 dps) at 1000 digits
_N1000 = 1200


@pytest.mark.parametrize("target, step", [(60, 1), (300, 1), (1000, 16)],
                         ids=["60", "300", "1000"])
def test_log_gamma_taylor_table_against_mpmath(target, step):
    # the one Taylor table of log Gamma, at its shift point N = ceil(1.2 dps)
    # and working + 10 digits, against mpmath's N^m g_m: g_0 = log Gamma(N),
    # g_1 = psi(N) and g_m = (-1)^m zeta(m, N)/m.  log_gamma and the folded
    # character sum take g_m t^m at |t| <= 1/2, so each coefficient is held
    # to 2^-(prec + 40) after a factor 2^-m, and the first one the table
    # leaves out, over 2^40 terms, to 2^-(prec + 20).  mpmath's zeta(m, N)
    # is good to about 2^-prec absolute, not relative, so the oracle runs
    # at the table's scale and 64 bits more: ~55 ms a coefficient at 1000
    # digits, where the first 16, every 16th and the last are checked
    with PrecisionContext(target).workprec(10):
        prec, dps = mp.prec, mp.dps
    shift, table = numkernel._log_gamma_taylor(prec)
    assert shift == -(-6 * dps // 5)
    wp = prec + numkernel._GUARD_BITS + numkernel._TAYLOR_GUARD_BITS
    with mp.workprec(wp + 64):
        n = mp.mpf(shift)

        def oracle(m):  # g_m 2^-m
            if m == 0:
                return mp.loggamma(n)
            if m == 1:
                return mp.digamma(n) / 2
            return (-1) ** m * mp.zeta(m, n) / (m * mp.mpf(2) ** m)

        for m in sorted({*range(16), *range(0, len(table), step), len(table) - 1}):
            got = mp.ldexp(mp.mpf(table[m]) / (2 * shift) ** m, -wp)
            assert abs(got - oracle(m)) < mp.ldexp(1, -(prec + 40)), m
        assert abs(oracle(len(table))) * 2 ** 40 < mp.ldexp(1, -(prec + 20))


@pytest.mark.parametrize("target, base, step", [(60, 14, 1), (300, 30, 1), (1000, 64, 16)],
                         ids=["60-J14", "300-J30", "1000-J64"])
def test_log_gamma_odd_table_against_mpmath(target, base, step):
    # the odd coefficients of log Gamma about the point J that the cost
    # rule picks, k_1 = psi(J) and k_m = -zeta(m, J)/m at odd m >= 3,
    # against mpmath, held as the Taylor table's are: each to
    # 2^-(prec + 40) after the factor 2^-m of t^m, t < 1/2, and the first
    # one left out, over 2^40 terms, to 2^-(prec + 20).  At 1000 digits
    # the first 16, every 16th and the last are checked (~60 ms each)
    with PrecisionContext(target).workprec(10):
        prec = mp.prec
    got_base, table = numkernel._log_gamma_odd(prec)
    assert got_base == base  # the J of the rule (numkernel._odd_point)
    wp = prec + numkernel._GUARD_BITS + numkernel._TAYLOR_GUARD_BITS
    with mp.workprec(wp + 64):
        def oracle(i):  # k_m 2^-m, m = 2i + 1
            m = 2 * i + 1
            if m == 1:  # psi(J) = H_(J-1) - gamma; mp.digamma takes seconds here
                k = mp.fsum(mp.mpf(1) / j for j in range(1, base)) - mp.euler
            else:
                k = -mp.zeta(m, base) / m
            return k / mp.mpf(2) ** m

        for i in sorted({*range(16), *range(0, len(table), step), len(table) - 1}):
            got = mp.ldexp(mp.mpf(table[i]) / 2 ** (2 * i + 1), -wp)
            assert abs(got - oracle(i)) < mp.ldexp(1, -(prec + 40)), i
        assert abs(oracle(len(table))) * 2 ** 40 < mp.ldexp(1, -(prec + 20))


def test_inverse_power_sums_against_finer_floors():
    # sum_{lo <= n < hi} 2^w / n^m at odd m, from one chain of quotients
    # per j prime to 6 and, for n = 2^a 3^b j, a shift and a quotient by
    # 3^(b m), against the sum of floors 64 bits finer: short by fewer
    # than 2 hi units.  (lo, hi) = (J, N) at 30, 300 and 1000 digits, and
    # short ranges where a few runs hold one j or none
    for lo, hi in [(1, 2), (3, 7), (4, 8), (12, 72), (30, 396), (64, 1236)]:
        sums = numkernel._inverse_power_sums(lo, hi, 300)
        for m, got in zip(range(1, 40, 2), sums):
            want = sum((1 << 364) // n ** m for n in range(lo, hi)) >> 64
            assert 0 <= want - got < 2 * hi, (lo, hi, m)


@pytest.mark.parametrize("n, m", [(_N1000, 1), (5 * _N1000, 1)])
def test_stirling_tail_keeps_guard_digits(n, m):
    # the sum of the terms of Stirling's tail at z = n, the one loop the
    # Taylor table runs, against log Gamma(z) less the head of the
    # series; stopped at 10^-(dps+5), its roundings leave 4 digits past 1000
    dps = 1000
    with mp.workdps(dps):
        wp = mp.prec + numkernel._GUARD_BITS
        limit = int(mp.ldexp(mp.mpf(10) ** -(dps + 5), wp))
        val = sum(numkernel._stirling_terms(n, limit))
    with mp.workdps(dps + 40):
        z = mp.mpf(n) / m
        ref = mp.loggamma(z) - ((z - mp.mpf(1) / 2) * mp.log(z) - z + mp.log(2 * mp.pi) / 2)
        assert abs(mp.mpf((val, -wp)) - ref) < mp.mpf(10) ** -(dps + 4)


def test_reflection_identity(ctx, rng):
    with ctx.workprec():
        tol = ctx.eps(5)
        for _ in range(200):
            den = rng.randrange(2, 500)
            num = rng.randrange(1, den)
            x = Fraction(num, den)
            lhs = mp.exp(log_gamma(x, ctx) + log_gamma(1 - x, ctx)) * mp.sinpi(to_mpf(x))
            assert abs(lhs - mp.pi) < tol


def test_duplication_identity(ctx, rng):
    with ctx.workprec():
        tol = ctx.eps(5)
        for _ in range(50):
            den = rng.randrange(3, 400)
            num = rng.randrange(1, (den - 1) // 2 + 1)
            x = Fraction(num, den)
            lhs = mp.exp(log_gamma(2 * x, ctx)) * mp.sqrt(mp.pi)
            rhs = mp.mpf(2) ** (2 * to_mpf(x) - 1) * mp.exp(
                log_gamma(x, ctx) + log_gamma(x + Fraction(1, 2), ctx))
            assert abs(lhs - rhs) < tol * abs(rhs)


def test_gauss_product(ctx):
    with ctx.workprec():
        tol = ctx.eps(10)
        for p in (7, 11, 19, 23):
            lhs = mp.fsum(log_gamma(Fraction(a, p), ctx) for a in range(1, p))
            rhs = (p - 1) / mp.mpf(2) * mp.log(2 * mp.pi) - mp.log(p) / 2
            assert abs(lhs - rhs) < tol


def test_hurwitz_jet_matches_loggamma(ctx, rng):
    # d/ds H(x,s) at s=0 is log(Gamma(x)/sqrt(2*pi)) (Lerch), against
    # mpmath's independent zeta'(0, x)
    hi = PrecisionContext(260)
    with hi.workprec():
        for _ in range(20):
            den = rng.randrange(2, 200)
            num = rng.randrange(1, den)
            x = Fraction(num, den)
            deriv = mp.zeta(0, to_mpf(x), 1)
            expect = log_gamma(x, hi) - mp.log(2 * mp.pi) / 2
            assert abs(deriv - expect) < mp.mpf(10) ** -(ctx.target_digits // 2)


def test_delta_known_points(ctx):
    with ctx.workprec():
        tau7 = (-1 + mp.sqrt(-7)) / 2
        val = delta_lattice(Lattice(tau7, mp.mpf(1)), ctx)
        assert mp.re(val) < 0
        assert abs(mp.im(val)) < ctx.eps(10) * abs(val)
        halved = delta_lattice(Lattice(tau7, mp.mpf(2)), ctx)
        assert abs(halved - val / 2 ** 12) < ctx.eps(10) * abs(val)
        # Delta(Z + Zi) = Gamma(1/4)^24 / (2^12 pi^6)
        vi = delta_lattice(Lattice(mp.mpc(0, 1), mp.mpf(1)), ctx)
        lemn = mp.exp(24 * log_gamma(Fraction(1, 4), ctx)) / (2 ** 12 * mp.pi ** 6)
        assert abs(vi - lemn) < ctx.eps(10) * abs(vi)


def test_delta_cutoff_stability(ctx):
    with ctx.workprec():
        for d in (7, 23, 163):
            tau = (-1 + mp.sqrt(-d)) / 2
            lat = Lattice(tau, mp.mpf(1))
            base = delta_lattice(lat, ctx)
            n = delta_q_terms(mp.im(tau), ctx.working_digits)
            again = delta_lattice(lat, ctx, terms=2 * n)
            assert abs(base - again) < ctx.eps() * max(1, abs(base))


def test_delta_complex_scale(ctx):
    with ctx.workprec():
        tau = (-1 + mp.sqrt(-7)) / 2
        base = delta_lattice(Lattice(tau, mp.mpf(1)), ctx)
        spun = delta_lattice(Lattice(tau, mp.mpc(0, 2)), ctx)
        assert abs(spun - base / 2 ** 12) < ctx.eps(10) * abs(base)


@pytest.mark.parametrize("target", [60, 300])
@pytest.mark.parametrize("d", [23, 71, 199])
def test_delta_inverse_lattice_is_conjugate(target, d):
    # the form lattice is a(Z + Z tau) and the inverse ideal's lattice is
    # Z + Z(-conj tau), whose q is conj q: Delta(a^-1) = a^12 conj Delta(a),
    # though the kernel computes the two from different q
    ctx = PrecisionContext(target)
    for f in reduced_forms(d):
        with ctx.workprec(10):
            val = delta_lattice(form_to_lattice(f, ctx), ctx)
            inv = delta_lattice(inverse_ideal_lattice(f, ctx), ctx)
            assert abs(inv - f.a ** 12 * mp.conj(val)) < ctx.eps() * abs(inv)


@pytest.mark.parametrize("tau", [mp.mpc(0, 1), mp.mpc(-0.5, mp.sqrt(3) / 2), mp.mpc(0.3, 1.2)],
                         ids=["i", "rho", "0.3+1.2i"])
def test_delta_terms_is_the_exponent_budget(tau):
    # terms = n keeps the q-expansion of prod (1 - q^m)^24 through q^n, as
    # the product over m <= n does: the two truncations of
    # E(q) = prod (1 - q^m) first differ at q^(n+1), where the product's
    # coefficient exceeds E's by 1 and the truncated series has none, so
    # the 24th powers differ by at most 24 * 2 |q|^(n+1) at leading order;
    # 100 leaves room for the higher orders (the worst seen is 53 |q|^(n+1))
    ctx = PrecisionContext(60)
    with ctx.workprec(10):
        lat = Lattice(tau, mp.mpf(1))
        vals = [delta_lattice(lat, ctx, terms=n) for n in range(12)]
    with mp.workdps(100):
        q = mp.exp(2j * mp.pi * tau)
        lead = (2 * mp.pi) ** 12 * q
        for n, val in enumerate(vals):
            ref = lead * mp.fprod(1 - q ** m for m in range(1, n + 1)) ** 24
            assert abs(val - ref) < 100 * abs(lead) * abs(q) ** (n + 1)


_FUNDAMENTAL_200 = tuple(d for d in range(3, 201) if is_fundamental(d))


@pytest.mark.parametrize("target", [30, 60, 120, 300, 1000])
def test_delta_q_terms_float_bound_against_mpf(target):
    # the float budget against the same formula in mpf at working
    # precision, at the tau of every reduced form that a shipped check
    # builds a lattice on, and at the working + 10 digits that
    # delta_lattice passes: never fewer terms, and at most one more
    ctx = PrecisionContext(target)
    for d in (*_FUNDAMENTAL_200, 1999):
        for f in reduced_forms(d):
            with ctx.workprec(10):
                im_tau = mp.im(form_to_lattice(f, ctx).tau)
                exact = int(mp.ceil((mp.dps + 10) * numkernel._LN10 / (2 * mp.pi * im_tau))) + 1
                got = delta_q_terms(im_tau, mp.dps)
            assert exact <= got <= exact + 1, (d, f.tuple(), exact, got)


_DELTA_NORM_CASES = ([(target, d) for target in (60, 300) for d in _FUNDAMENTAL_200]
                     + [(60, 1999), (60, 9995), (1000, 23), (1000, 199)])


@pytest.mark.parametrize("target,d", _DELTA_NORM_CASES,
                         ids=[f"{t}-{d}" for t, d in _DELTA_NORM_CASES])
def test_delta_norm_against_pair_and_qp(target, d):
    # every reduced form's Delta(a) Delta(a^-1) in closed form, against two
    # values at the tau that form_to_lattice builds (sqrt(d) and the
    # division by 2a rounded at working precision): mpmath's q-Pochhammer
    # prod (1 - q^n) = qp(q) at working + 20 digits, and the product of the
    # two delta_lattice values of the form's and the inverse ideal's
    # lattice, taken at the ten digits past working precision that
    # delta_lattice carries.  Logs are compared, whose error scales with
    # their largest term, size = 1 + 2 pi sqrt(d)/a
    ctx = PrecisionContext(target)
    work = ctx.working_digits
    with ctx.workprec():
        sqrt_d = mp.sqrt(d)
    for f in reduced_forms(d):
        tau = form_to_lattice(f, ctx).tau
        with ctx.workprec(10):
            got = mp.log(delta_norm(f, ctx))
            pair = mp.log(delta_lattice(form_to_lattice(f, ctx), ctx)
                          * delta_lattice(inverse_ideal_lattice(f, ctx), ctx))
        with mp.workdps(work + 20):
            q = mp.expjpi(2 * tau)
            ref = mp.log(abs((2 * mp.pi) ** 12 * q * mp.qp(q) ** 24) ** 2 / f.a ** 12)
            size = 1 + 2 * mp.pi * sqrt_d / f.a
            # both kernels carry 10 digits past working precision and
            # round each term there: either may lose one of them (the
            # worst seen is 0.39 units of 10^-(work + 10) size against
            # qp, 0.66 against the pair)
            assert abs(got - ref) < mp.mpf(10) ** -(work + 9) * size, f.tuple()
            assert abs(got - pair) < mp.mpf(10) ** -(work + 9) * size, f.tuple()


@settings(max_examples=30, deadline=None)
@given(st.integers(30, 400), st.floats(-0.5, 0.5), st.floats(0, 2),
       st.sampled_from((1, 2, 1j, 3 + 1j)))
@example(target=400, x=-0.5, lift=0.0, scale=1)
@example(target=400, x=0.5, lift=0.0, scale=3 + 1j)
def test_delta_lattice_against_eta_product(target, x, lift, scale):
    # tau = x + i(sqrt(1 - x^2) + lift) runs over the fundamental domain
    # from its bottom corners rho, where |q| is largest and the product
    # needs the most factors; the reference is mpmath's q-Pochhammer
    # prod (1 - q^n) = qp(q)
    ctx = PrecisionContext(target)
    with ctx.workprec(10):
        tau = mp.mpc(x, mp.sqrt(1 - mp.mpf(x) ** 2) + lift)
        val = delta_lattice(Lattice(tau, mp.mpc(scale)), ctx)
    with mp.workdps(target + 40):
        q = mp.exp(2j * mp.pi * tau)
        ref = mp.mpc(scale) ** -12 * (2 * mp.pi) ** 12 * q * mp.qp(q) ** 24
        assert abs(val - ref) < mp.mpf(10) ** -target


@pytest.mark.parametrize("target", [300, 1000])
@pytest.mark.parametrize("x", [-0.5, 0.5])
def test_delta_lattice_corners_high_precision(target, x):
    # at the corners rho = x + i sqrt(3)/2 |q| is largest and the q-product
    # longest (about 450 factors at 1000 digits); the fixed-point loop keeps
    # its rounding below the 10 digits the kernel carries past working
    # precision, losing at most 2 of them, where a loop without guard bits
    # loses 3
    ctx = PrecisionContext(target)
    with ctx.workprec(10):
        tau = mp.mpc(x, mp.sqrt(3) / 2)
        val = delta_lattice(Lattice(tau, mp.mpf(1)), ctx)
    with mp.workdps(target + 40):
        q = mp.exp(2j * mp.pi * tau)
        ref = (2 * mp.pi) ** 12 * q * mp.qp(q) ** 24
        assert abs(val - ref) < mp.mpf(10) ** -(ctx.working_digits + 8) * abs(ref)
