import io
import json
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import isqrt
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from cmperiods import cli, csperiods, epstein, fermat, heckechar, numkernel
from cmperiods.arith import is_prime
from cmperiods.errors import PrecisionError
from cmperiods.quadforms import Discriminant, class_number

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_class_command(capsys):
    code, out, _ = run(capsys, "class", "--d", "23")
    assert code == 0
    assert "h(-23) = 3" in out
    assert "(1, 1, 6)" in out and "(2, 1, 3)" in out and "(2, -1, 3)" in out


def test_verify_cs(capsys):
    code, out, _ = run(capsys, "verify-cs", "--d", "7")
    assert code == 0
    assert "[pass] chowla-selberg d=7" in out


def test_verify_cs_json_digits(capsys):
    code, out, _ = run(capsys, "--json", "verify-cs", "--d", "7")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert set(reports[0]) == {"check", "inputs", "lhs_log", "rhs_log",
                               "digits_agreed", "pass"}
    assert reports[0]["pass"] is True
    assert reports[0]["digits_agreed"] >= 100


def test_kronecker(capsys):
    code, out, _ = run(capsys, "kronecker", "--d", "7")
    assert code == 0
    assert "[pass]" in out


def test_kronecker_class_flag(capsys):
    code, out, _ = run(capsys, "kronecker", "--d", "23", "--class", "1")
    assert code == 0
    assert out.count("[pass]") == 1


# (test id, argv, golden file, exit code).  The kronecker files were
# recorded from the earlier finite-difference jet, the others from the
# five row shapes the single check record replaced; both rewrites must
# reproduce every digit and every verdict.
GOLDEN_RUNS = [
    *((f"kronecker_d{d}", f"kronecker --d {d} --json --prec 60",
       f"kronecker_d{d}_prec60.json", 0) for d in (3, 4, 7, 23)),
    ("class_d23", "class --d 23 --json --prec 60", "class_d23_prec60.json", 0),
    ("verify_cs_d163", "verify-cs --d 163 --json --prec 60", "verify_cs_d163_prec60.json", 0),
    ("periods_p23", "periods --p 23 --json --prec 60", "periods_p23_prec60.json", 0),
    ("faltings_p23", "faltings --p 23 --json --prec 60", "faltings_p23_prec60.json", 0),
    ("fermat_rational", "fermat --p 7 --rst 1,1,5 --json --prec 60",
     "fermat_p7_rst115_prec60.json", 0),
    ("fermat_sqrtp", "fermat --p 7 --rst 3,3,1 --json --prec 60",
     "fermat_p7_rst331_prec60.json", 0),
    ("hecke_p23", "hecke --p 23 --form 2,1,3 --json --prec 60",
     "hecke_p23_form213_prec60.json", 0),
    ("recognize_rational", "recognize --value 0.75 --json --prec 60",
     "recognize_rational_prec60.json", 0),
    ("recognize_miss", "recognize --value 0.5000000000001 --json --prec 60",
     "recognize_miss_prec60.json", 1),
    ("suite_threads1", "suite --max-d 60 --threads 1 --json --prec 60",
     "suite_maxd60_prec60.json", 0),
    ("suite_threads2", "suite --max-d 60 --threads 2 --json --prec 60",
     "suite_maxd60_prec60.json", 0),
    ("fermat_text", "fermat --p 7 --rst 1,1,5", "fermat_p7_rst115.txt", 0),
    ("periods_text", "periods --p 23", "periods_p23.txt", 0),
]


@pytest.mark.parametrize("argv, golden, exit_code", [r[1:] for r in GOLDEN_RUNS],
                         ids=[r[0] for r in GOLDEN_RUNS])
def test_golden_bytes(capsys, argv, golden, exit_code):
    code, out, _ = run(capsys, *argv.split())
    assert code == exit_code
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("d, k, prec", [(4, 0, 30), (7, 0, 30), (23, 1, 30),
                                        (1019, 1, 30), (4, 0, 300), (7, 0, 300),
                                        (23, 2, 300)])
def test_kronecker_precision_sweep(capsys, d, k, prec):
    code, out, _ = run(capsys, "kronecker", "--d", str(d), "--class", str(k),
                       "--prec", str(prec), "--json")
    [row] = json.loads(out)
    assert code == 0 and row["pass"] is True
    assert row["digits_agreed"] == prec + 20


ENVELOPE_RUNS = [
    *(("verify-cs", "--d", d) for d in (3, 4, 7, 8, 23, 56, 163, 199)),
    *((cmd, "--p", p) for cmd in ("periods", "faltings") for p in (7, 23, 163)),
    ("suite", "--max-d", 60),  # every cs_verify, periods and faltings row to 60
]


@pytest.mark.parametrize("prec", [30, 300])
@pytest.mark.parametrize("cmd, flag, n", ENVELOPE_RUNS,
                         ids=[f"{cmd}-{n}" for cmd, _, n in ENVELOPE_RUNS])
def test_character_sum_precision_envelope(capsys, cmd, flag, n, prec):
    code, out, _ = run(capsys, cmd, flag, str(n), "--prec", str(prec), "--json")
    rows = json.loads(out)
    assert code == 0 and rows
    assert all(row["pass"] for row in rows)


def test_kronecker_all_classes_match_each_class(capsys):
    # the request over every class sums them in one pass over n; its rows
    # are byte for byte those of one request per class
    code, out, _ = run(capsys, "kronecker", "--d", "23", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    for k, row in enumerate(rows):
        code, one, _ = run(capsys, "kronecker", "--d", "23", "--class", str(k), "--json")
        assert code == 0 and json.loads(one) == [row]


def test_kronecker_precision_failure_reports_digits(capsys, monkeypatch):
    monkeypatch.setattr(epstein, "_CF_CAP", 2)
    code, _, err = run(capsys, "kronecker", "--d", "7", "--prec", "60")
    assert code == 3
    assert re.search(r"continued fraction stalled \(achieved \d+ digits\)", err)


DELTA_SIDE_RUNS = [("verify-cs", "--d", "chowla-selberg d=7"),
                   ("kronecker", "--d", "kronecker-limit d=7 class=0"),
                   ("periods", "--p", "period-product p=7"),
                   ("faltings", "--p", "faltings-height p=7")]


@pytest.mark.parametrize("command, flag, check", DELTA_SIDE_RUNS,
                         ids=[cmd for cmd, _, _ in DELTA_SIDE_RUNS])
def test_identity_fails_when_the_delta_side_is_off(capsys, monkeypatch, command, flag, check):
    # every command reads Delta(a) Delta(a^-1) from delta_norm; off by
    # 10^-30 relative, the Delta side of each identity misses its other
    # side by far more than the 10^-40 allowed at 60 digits
    real = csperiods.delta_norm
    monkeypatch.setattr(csperiods, "delta_norm",
                        lambda *args: real(*args) * (1 + mp.mpf(10) ** -30))
    code, out, err = run(capsys, command, flag, "7", "--prec", "60", "--json")
    [row] = json.loads(out)
    assert (code, err) == (1, "")
    assert row["check"] == check and row["pass"] is False


def count_delta_lattice(monkeypatch):
    """Count delta_lattice calls through every cmperiods module that binds it."""
    real, calls = numkernel.delta_lattice, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("cmperiods") and getattr(mod, "delta_lattice", None) is real:
            monkeypatch.setattr(mod, "delta_lattice", counted)
    return calls


NO_DELTA_LATTICE_RUNS = [*(("verify-cs", "--d", d) for d in (7, 23, 199, 1999)),
                         *(("kronecker", "--d", d) for d in (7, 23)),
                         *((cmd, "--p", p) for cmd in ("periods", "faltings")
                           for p in (7, 23, 199))]


@pytest.mark.parametrize("command, flag, n", NO_DELTA_LATTICE_RUNS,
                         ids=[f"{n}-{cmd}" for cmd, _, n in NO_DELTA_LATTICE_RUNS])
def test_periods_and_faltings_call_no_delta_lattice(capsys, monkeypatch, command, flag, n):
    # nor does any other command: each class's Delta(a) Delta(a^-1), and
    # a period's |Delta(a)|^2 = Delta(a) Delta(a^-1) / a^12, is one
    # delta_norm series; delta_lattice is the tests' oracle
    calls = count_delta_lattice(monkeypatch)
    assert run(capsys, command, flag, str(n), "--prec", "30")[0] == 0
    assert calls == []


_PRIMES_3MOD4_199 = [p for p in range(7, 200, 4) if is_prime(p)]


@pytest.mark.parametrize("prec", [60, 120])
def test_periods_prints_each_period_correctly_rounded(capsys, prec):
    # periods prints every class's period (|Delta(a)| / p^3)^(1/6) a sqrt(p)
    # to 30 digits: each must be the 30-digit rounding of that product
    # from mpmath's q-Pochhammer prod (1 - q^n) = qp(q) at prec + 40 digits
    for p in _PRIMES_3MOD4_199:
        code, out, _ = run(capsys, "periods", "--p", str(p), "--prec", str(prec))
        printed = re.findall(r"class \((\d+), (-?\d+), \d+\): (\S+)", out)
        assert code == 0 and len(printed) == class_number(p)
        with mp.workdps(prec + 40):
            for a, b, text in printed:
                a, b = int(a), int(b)
                q = mp.expjpi(mp.mpc(-b, mp.sqrt(p)) / a)
                delta = abs((2 * mp.pi) ** 12 * q * mp.qp(q) ** 24) / a ** 12
                period = (delta / p ** 3) ** (mp.mpf(1) / 6) * a * mp.sqrt(p)
                assert text == mp.nstr(period, 30), (p, a, b)


def test_kronecker_class_out_of_range(capsys):
    code, _, err = run(capsys, "kronecker", "--d", "23", "--class", "9")
    assert code == 2
    assert "--class must be in 0..2" in err


def test_periods(capsys):
    code, out, _ = run(capsys, "periods", "--p", "7")
    assert code == 0
    assert "[pass] period-product p=7" in out


def test_faltings(capsys):
    code, out, _ = run(capsys, "faltings", "--p", "7")
    assert code == 0
    assert "[pass] faltings-height p=7" in out


def test_fermat(capsys):
    code, out, _ = run(capsys, "fermat", "--p", "7", "--rst", "1,1,5")
    assert code == 0
    assert "phi = (1, 2, 3)" in out
    assert "[pass] tate-twist p=7 rst=1,1,5" in out


def test_fermat_json_recognized(capsys):
    code, out, _ = run(capsys, "--json", "fermat", "--p", "7", "--rst", "1,1,5")
    assert code == 0
    reports = json.loads(out)
    tate = [r for r in reports if r["check"].startswith("tate-twist")]
    assert len(tate) == 1
    assert tate[0]["rhs_log"] == "7"
    assert tate[0]["pass"] is True


def test_fermat_rows_name_the_reduced_triple(capsys):
    code, out, _ = run(capsys, "--json", "--prec", "30", "fermat", "--p", "7", "--rst", "8,8,5")
    assert code == 0
    names = [r["check"] for r in json.loads(out)]
    assert len(names) == 3
    assert all(name.endswith(" p=7 rst=1,1,5") for name in names), names


@pytest.mark.parametrize("rst, kind", [("1,2,16", "rational"), ("1,3,15", "sqrtp")])
def test_fermat_request_validates_p_once(capsys, monkeypatch, rst, kind):
    # the Discriminant checked at the entry is passed inward, so one
    # request costs the primality tests of one Discriminant.prime(p);
    # the certificate's exact side is a closed form, so no recognizer
    # runs and tests p again
    from cmperiods import arith, quadforms, relint
    calls = {"arith": 0, "quadforms": 0, "relint": 0}
    real = arith.is_prime
    for mod in (arith, quadforms, relint):
        def counting(n, _name=mod.__name__.split(".")[-1]):
            calls[_name] += 1
            return real(n)
        monkeypatch.setattr(mod, "is_prime", counting)
    Discriminant.prime(19)
    one_validation = calls["arith"] + calls["quadforms"]
    assert one_validation > 0
    calls.update(arith=0, quadforms=0, relint=0)
    code, out, _ = run(capsys, "--json", "--prec", "30", "fermat", "--p", "19", "--rst", rst)
    assert code == 0
    tate = json.loads(out)[2]
    assert tate["pass"] and ("sqrt(19)" in tate["rhs_log"]) == (kind == "sqrtp")
    assert calls["arith"] + calls["quadforms"] == one_validation, calls
    assert calls["relint"] == 0


def test_fermat_and_verify_cs_share_one_stirling_table(capsys):
    # the Tate certificate's Gamma products and the folded character sum
    # of verify-cs read one Taylor table of log Gamma per precision, so
    # the two requests at one --prec run one Stirling loop
    from cmperiods import numkernel
    for cache in (numkernel._log_gamma_taylor, numkernel._log_gamma_odd,
                  numkernel._log_gamma_parts):
        cache.cache_clear()
    for argv in (["fermat", "--p", "7", "--rst", "1,1,5"], ["verify-cs", "--d", "7"]):
        code, _, _ = run(capsys, "--json", "--prec", "45", *argv)
        assert code == 0
    assert numkernel._log_gamma_taylor.cache_info().currsize == 1


def test_hecke(capsys):
    code, out, _ = run(capsys, "hecke", "--p", "23", "--form", "2,1,3")
    assert code == 0
    assert "(3, 1)" in out
    assert "N(beta) = 8 = 2^3" in out
    assert "[pass]" in out


def _rows(out):
    return {row["check"].split()[0]: row for row in json.loads(out)}


def test_hecke_row_fails_on_a_wrong_generator(capsys, monkeypatch):
    # psi_M does not check N(beta) = a^h itself: the hecke-psi row is the
    # one place it is checked.  A reduction column off by one gives a
    # beta of another norm, and the request exits 1 with its row failed
    real = heckechar.reduce_with_column
    def off_by_one(f):
        g, x, y = real(f)
        return g, x + 1, y
    monkeypatch.setattr(heckechar, "reduce_with_column", off_by_one)
    code, out, _ = run(capsys, "--json", "hecke", "--p", "23", "--form", "2,1,3")
    assert code == 1
    row = _rows(out)["hecke-psi"]
    assert row["pass"] is False and row["lhs_log"] != row["rhs_log"] == "8"
    # the text report prints the two sides unequal, as its row fails them
    code, out, _ = run(capsys, "hecke", "--p", "23", "--form", "2,1,3")
    assert code == 1
    assert f"N(beta) = {row['lhs_log']} != 2^3" in out


def _corrupt_inside_cm_type(monkeypatch, corrupt):
    # cli's cm_type call sees its checked triple (disc, r, s, t) through
    # corrupt; epsilon_rst and the Tate certificate see the true one
    real_check, real_cm_type = fermat._check_triple, fermat.cm_type
    def corrupt_cm_type(*args):
        with monkeypatch.context() as m:
            m.setattr(fermat, "_check_triple", lambda *a: corrupt(*real_check(*a)))
            return real_cm_type(*args)
    monkeypatch.setattr(cli, "cm_type", corrupt_cm_type)


def test_cm_type_size_row_fails_on_a_wrong_cm_type(capsys, monkeypatch):
    # cm_type does not check |phi| = (p-1)/2 itself: the cm-type-size row
    # is the one place it is checked.  Inside cm_type, the triple 1, 1, 5
    # at p = 7 becomes 1, 1, 6, whose phi is empty
    _corrupt_inside_cm_type(monkeypatch, lambda disc, r, s, t: (disc, r, s, t + 1))
    code, out, _ = run(capsys, "--json", "--prec", "30", "fermat", "--p", "7", "--rst", "1,1,5")
    assert code == 1
    rows = _rows(out)
    assert (rows["cm-type-size"]["lhs_log"], rows["cm-type-size"]["rhs_log"]) == ("0", "3")
    assert rows["cm-type-size"]["pass"] is False and rows["tate-twist"]["pass"] is True


def test_cm_type_balance_row_fails_on_a_wrong_cm_type(capsys, monkeypatch):
    # cm_type does not check u - v = h * eps itself: the cm-type-balance
    # row is the one place it is checked.  Inside cm_type, the non-residue
    # 3 of phi = (1, 2, 3) at p = 7, rst = 1, 1, 5 counts as a residue, so
    # u - v = 3 misses h * eps = 1 while |phi| stays 3
    def three_a_residue(disc, r, s, t):
        skewed = SimpleNamespace(d=disc.d, epsilon=lambda a: 1 if a == 3 else disc.epsilon(a))
        return skewed, r, s, t
    _corrupt_inside_cm_type(monkeypatch, three_a_residue)
    code, out, _ = run(capsys, "--json", "--prec", "30", "fermat", "--p", "7", "--rst", "1,1,5")
    assert code == 1
    rows = _rows(out)
    assert (rows["cm-type-balance"]["lhs_log"], rows["cm-type-balance"]["rhs_log"]) == ("3", "1")
    assert rows["cm-type-balance"]["pass"] is False
    assert rows["cm-type-size"]["pass"] is True and rows["tate-twist"]["pass"] is True


def test_hecke_request_validates_p_once(capsys, monkeypatch):
    # cli builds Discriminant.prime(p) once and passes it to psi_M and
    # class_number_dirichlet
    from cmperiods import arith, quadforms
    calls = [0]
    real = arith.is_prime
    def counting(n):
        calls[0] += 1
        return real(n)
    for mod in (arith, quadforms):
        monkeypatch.setattr(mod, "is_prime", counting)
    Discriminant.prime(23)
    one_validation = calls[0]
    assert one_validation > 0
    calls[0] = 0
    code, out, _ = run(capsys, "--json", "hecke", "--p", "23", "--form", "2,1,3")
    assert code == 0 and json.loads(out)[0]["pass"]
    assert calls[0] == one_validation


def test_recognize_rational(capsys):
    code, out, _ = run(capsys, "recognize", "--value", "0.75")
    assert code == 0
    assert "3/4" in out


def test_recognize_sqrtp(capsys):
    code, out, _ = run(capsys, "recognize", "--value",
                       "4.58257569495584000658804719372800848898445657676797190260724212"
                       "390686842554526442559058356309145219245110132542206151536858818",
                       "--sqrtp", "21")
    assert code == 2  # 21 is not prime


def test_recognize_needs_absolute_accuracy(capsys):
    big = "123456789012345678901234567890123456789012345678901234567890.25"
    code, out, err = run(capsys, "recognize", "--value", big, "--prec", "30", "--json")
    assert (code, out) == (3, "")
    assert err.startswith("precision failure: rational recognition")
    assert err.endswith("(achieved 0 digits)\n")
    code, out, _ = run(capsys, "recognize", "--value", "1e20", "--prec", "30", "--json")
    [row] = json.loads(out)
    assert code == 0 and row["pass"] and row["rhs_log"] == str(10 ** 20)


def test_recognize_unrecognized_is_failure(capsys):
    code, out, _ = run(capsys, "recognize", "--value", "0.5000000000001")
    assert code == 1
    assert "unrecognized" in out


TINY_AND_HUGE = [
    ("1e-10000000", 0, "0\n[pass] recognize  (120 digits agreed)\n", ""),
    ("-1e-10000000", 0, "0\n[pass] recognize  (120 digits agreed)\n", ""),
    ("1e10000000", 3, "", "precision failure: rational recognition at max_den=1000000000000 "
                          "needs |x| below 5.0e+115 (achieved 0 digits)\n"),
]


@pytest.mark.parametrize("value,code,out,err", TINY_AND_HUGE,
                         ids=[v for v, *_ in TINY_AND_HUGE])
def test_recognize_decides_extreme_exponents_without_the_exact_fraction(capsys, value, code,
                                                                         out, err):
    # the exact Fraction of x = 10^-10^7 has a denominator of 2^33,219,748,
    # and that of 10^10^7 a numerator as long: |x| below 1/(2 max_den) has
    # 0 as its one candidate and a large |x| is a precision failure, both
    # decided from the mpf, with the same bytes and exit code as before
    import tracemalloc
    tracemalloc.start()
    try:
        got = run(capsys, "recognize", f"--value={value}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (code, out, err)
    assert peak < 2 ** 20, peak


MALFORMED = [
    "fermat --p 7 --rst 1,2,4",
    "fermat --p 7 --rst 1,2",
    "fermat --p 7 --rst a,b,c",
    "hecke --p 7 --form 7,7,2",
    "hecke --p 23 --form 2,1",
    "hecke --p 23 --form 0,1,3",
    "hecke --p 4 --form 1,0,1",
    "verify-cs --d 999",
    "periods --p 15",
    "faltings --p 3",
    "recognize --value nan",
    "recognize --value 0.75 --sqrtp 0",
    "suite --max-d 2",
    "kronecker --d 23 --class -1",
    "--prec 10 class --d 7",
    "--threads 0 class --d 7",
    "--out /nonexistent/dir/x class --d 7",
]


def _is_mixed_fermat_request(p, rst):
    """Whether --p p --rst rst names a mixed triple at a prime p = 3 mod 4, p > 3."""
    if p <= 3 or p % 4 != 3 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        return False
    try:
        r, s, t = map(int, rst.split(","))
    except ValueError:  # not three parts, or a part that is not an integer
        return False
    if 0 in (r % p, s % p, t % p) or (r + s + t) % p:
        return False
    return abs(sum(1 if pow(x, (p - 1) // 2, p) == 1 else -1 for x in (r, s, t))) == 1


@st.composite
def fermat_argv(draw):
    # p prime = 3 mod 4 about half the time; r + s + t = 0 mod p about
    # two thirds of the time, zeros and non-mixed triples included
    p = draw(st.one_of(st.sampled_from([7, 11, 19, 23, 43, 47, 163, 199]),
                       st.integers(2, 200)))
    if draw(st.integers(0, 2)):
        r, s = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
        rst = f"{r},{s},{(-r - s) % p + p * draw(st.integers(-1, 1))}"
    else:
        part = st.one_of(st.integers(-3 * p, 3 * p).map(str),
                         st.sampled_from(["", "a", "1.5", "x1", " 2", "1e3"]))
        rst = ",".join(draw(st.lists(part, min_size=1, max_size=4)))
    return p, rst, draw(st.integers(30, 130))


@settings(max_examples=40, deadline=None)
@given(fermat_argv())
def test_fermat_fuzz_exit_codes(request):
    # random fermat argv: anything but a mixed triple at a prime p = 3 mod 4
    # exits 2 with one error line, and nothing raises.  A mixed triple
    # passes its two CM-type rows and its Tate row and exits 0 at every
    # p <= 200 drawn, 47, 163 and 199 included: the Tate row compares with
    # a closed form, whatever the height of the exact ratio (from p of
    # about 4,800 that form is too long to print, and the request exits 2)
    p, rst, prec = request
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["--json", "--prec", str(prec), "fermat", "--p", str(p),
                         f"--rst={rst}"])
    if not _is_mixed_fermat_request(p, rst):
        assert (code, out.getvalue()) == (2, ""), (p, rst, prec)
        assert err.getvalue().startswith("error: ")
    else:
        rows = json.loads(out.getvalue())
        assert code == 0, (p, rst, prec)
        assert [row["pass"] for row in rows] == [True, True, True], (p, rst, prec)


def test_fermat_closed_form_past_the_digit_limit_exits_2(capsys, monkeypatch):
    # at p = 5023 the closed form Q of rst = 1,1,5021 has more digits than
    # CPython converts from an int to text (4,300): the request exits 2
    # with one line naming p, before it forms any Gamma product
    from cmperiods import fermat

    def no_gamma_product(*args):
        raise AssertionError("a Gamma product was formed")

    monkeypatch.setattr(fermat, "gamma_product", no_gamma_product)
    code, out, err = run(capsys, "fermat", "--p", "5023", "--rst", "1,1,5021", "--prec", "30")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "p=5023" in err and err.count("\n") == 1


@pytest.mark.parametrize("json_flag", [["--json"], []], ids=["json", "text"])
def test_hecke_past_the_digit_limit_exits_2(capsys, monkeypatch, json_flag):
    # a generator whose norm has more digits than CPython converts from an
    # int to text (4,300): the request exits 2 with one line naming p,
    # before any output, in --json and in text alike
    from cmperiods.quadforms import QuadInteger

    monkeypatch.setattr(cli, "psi_M", lambda f, disc: QuadInteger(2 * 10 ** 2200 + 1, 1, 23))
    code, out, err = run(capsys, "hecke", "--p", "23", "--form", "2,1,3", "--prec", "30",
                         *json_flag)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "p=23" in err and err.count("\n") == 1


# d = 10^12 + 3; d = 3,999,999,999,988 = 4m with m = 999,999,999,997 = 1
# mod 4 under the bound, so factoring m alone would find -d fundamental;
# and the prime p = 1,000,000,000,039 = 3 mod 4
ABOVE_THE_BOUND = [
    *(f"{cmd} --d {d}" for cmd in ("class", "verify-cs", "kronecker")
      for d in (10 ** 12 + 3, 3999999999988)),
    *(f"{cmd} --p 1000000000039" for cmd in ("periods", "faltings")),
    "fermat --p 1000000000039 --rst 1,1,1000000000037",
    "hecke --p 1000000000039 --form 1,1,250000000010",
    f"suite --max-d {10 ** 12 + 1}",
]


@pytest.mark.parametrize("argv", ABOVE_THE_BOUND)
def test_above_the_domain_bound_exits_2_at_once(capsys, argv):
    # d and p at most 10^12: above it every command exits 2 before any
    # sum over a < d, which would run for months
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 0.5, argv
    assert (code, out) == (2, ""), argv
    assert err.startswith("error: ") and err.count("\n") == 1, err


# every fundamental d <= 8 is a suite task: d = 3, 4, 7 and 8
@pytest.mark.parametrize("threads, cores, workers", [(64, 16, 4), (64, 3, 3), (2, 16, 2),
                                                     (64, 1, None), (64, None, None),
                                                     (1, 16, None)])
def test_suite_pool_is_no_larger_than_its_tasks_or_cores(capsys, monkeypatch, threads,
                                                         cores, workers):
    # a fork pool starts all max_workers processes at its first submit, so
    # suite asks for min(--threads, tasks, cores) workers, and forms no
    # pool when that is 1.  The pool here records its size and maps in
    # this process; the output is that of --threads 1
    argv = ["--json", "--prec", "30", "suite", "--max-d", "8", "--threads"]
    code, serial, _ = run(capsys, *argv, "1")
    assert code == 0
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append({"max_workers": max_workers})

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, tasks, chunksize):
            pools[-1]["chunksize"] = chunksize
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    assert run(capsys, *argv, str(threads))[:2] == (0, serial)
    assert pools == ([] if workers is None else
                     [{"max_workers": workers, "chunksize": -(-4 // workers)}])


# integers int() refuses
_NOT_INTS = ["", "x", "1.5", "7e1", "0x7", "--"]
_ABOVE_D = [10 ** 12 + 3, 3999999999988]
_ABOVE_P = [1000000000039]


@st.composite
def cli_argv(draw):
    """(argv, expected): random argv for one of the nine subcommands.

    expected is 2 for a malformed integer, form or triple, a value of d,
    p or --max-d above 10^12, a --prec below 30 or a --threads below 1,
    and None where any exit code 0-3 may come.
    """
    two = False

    def integer(lo, hi, above=(), valid=()):
        # Hypothesis leans to small draws: the rare kinds are the large ones
        nonlocal two
        kind = draw(st.integers(0, 9))
        if kind == 9:
            two = True
            return draw(st.sampled_from(_NOT_INTS))
        if kind == 8 and above:
            two = True
            return str(draw(st.sampled_from(above)))
        if kind < 4 and valid:
            return str(draw(st.sampled_from(valid)))
        return str(draw(st.integers(lo, hi)))

    def int_list(n, lo, hi):
        nonlocal two
        parts = draw(st.lists(st.one_of(st.integers(lo, hi).map(str),
                                        st.sampled_from(_NOT_INTS)), min_size=1, max_size=4))
        two |= len(parts) != n or any(part in _NOT_INTS for part in parts)
        return ",".join(parts)

    prec = integer(30, 60)
    two |= prec not in _NOT_INTS and int(prec) < 30
    threads = integer(1, 2)
    argv = [f"--prec={prec}", f"--threads={threads}"] + draw(st.sampled_from([[], ["--json"]]))
    command = draw(st.sampled_from(["class", "verify-cs", "kronecker", "periods", "faltings",
                                    "fermat", "hecke", "recognize", "suite"]))
    argv.append(command)
    if command in ("class", "verify-cs", "kronecker"):
        argv.append(f"--d={integer(-5, 200, _ABOVE_D, [3, 4, 7, 8, 23, 71, 163, 199])}")
        if command == "kronecker" and draw(st.booleans()):
            argv.append(f"--class={integer(-1, 10)}")
    elif command == "suite":
        argv.append(f"--max-d={integer(-2, 30, [10 ** 12 + 1])}")
    elif command == "recognize":
        value = draw(st.one_of(st.integers(-10 ** 6, 10 ** 6).map(str),
                               st.floats().map(repr),
                               st.sampled_from(["1/3", "0.75", "1e400", "nan", "x", ""])))
        argv.append(f"--value={value}")
        if draw(st.booleans()):
            argv.append(f"--sqrtp={integer(-5, 200)}")
    else:
        p = integer(-5, 200, _ABOVE_P, [7, 11, 19, 23, 43, 47, 163, 199])
        argv.append(f"--p={p}")
        valid_p = p not in _NOT_INTS and 0 < int(p) <= 200
        if command == "fermat":
            if valid_p and draw(st.booleans()):
                n = int(p)
                r, s = draw(st.integers(0, n)), draw(st.integers(0, n))
                argv.append(f"--rst={r},{s},{-r - s}")
            else:
                argv.append(f"--rst={int_list(3, -400, 400)}")
        elif command == "hecke":
            if valid_p and int(p) % 4 == 3 and draw(st.booleans()):
                n, a = int(p), draw(st.integers(1, 8))
                a, b = next(((a, b) for b in range(-a, a + 1) if (b * b + n) % (4 * a) == 0),
                            (1, 1))
                argv.append(f"--form={a},{b},{(b * b + n) // (4 * a)}")
            else:
                argv.append(f"--form={int_list(3, -60, 60)}")
    return argv, 2 if two else None


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_cli_fuzz_exit_codes(request):
    # random argv over all nine subcommands: exit 0-3 and no traceback;
    # malformed input and input above the domain bound exit 2
    argv, expected = request
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: a flag's value is not an int
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    if expected is not None:
        assert (code, out.getvalue()) == (expected, ""), argv


def test_exit_code_domain_errors(capsys):
    for argv in MALFORMED:
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


@pytest.mark.parametrize("d", ["-7", "0", "5"])
def test_class_error_names_the_d_given(capsys, d):
    code, out, err = run(capsys, "class", "--d", d)
    assert (code, out) == (2, "")
    assert err == f"error: -d is not a fundamental discriminant for d = {d}\n"


def test_argparse_failures(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-cs"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_exit_code_precision(capsys, monkeypatch):
    def boom(args, ctx):
        raise PrecisionError("digits ran out", achieved_digits=12)

    monkeypatch.setitem(cli._HANDLERS, "recognize", boom)
    code, _, err = run(capsys, "recognize", "--value", "0.75")
    assert code == 3
    assert "achieved 12 digits" in err


def test_global_flags_both_positions(capsys):
    a = run(capsys, "--prec", "60", "verify-cs", "--d", "7")
    b = run(capsys, "verify-cs", "--d", "7", "--prec", "60")
    assert a == b and a[0] == 0


def test_json_out_byte_determinism(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["--json", "--out", str(f1), "verify-cs", "--d", "23"]) == 0
    assert cli.main(["--json", "--out", str(f2), "verify-cs", "--d", "23"]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_suite_thread_invariance(capsys, tmp_path):
    f1, f2 = tmp_path / "t1.json", tmp_path / "t3.json"
    args = ["--json", "--prec", "60", "suite", "--max-d", "20"]
    assert cli.main(args + ["--out", str(f1), "--threads", "1"]) == 0
    assert cli.main(args + ["--out", str(f2), "--threads", "3"]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    reports = json.loads(f1.read_text())
    checks = [r["check"] for r in reports]
    assert checks[0].startswith("class-number-sweep")
    assert "chowla-selberg d=7" in checks
    assert all(r["pass"] for r in reports)


def test_suite_m_invariant_row_counts_disagreements(capsys, monkeypatch):
    real = csperiods.class_number_dirichlet
    monkeypatch.setattr(csperiods, "class_number_dirichlet",
                        lambda d: real(d) + (Discriminant.of(d).d == 11))
    code, out, _ = run(capsys, "--json", "--prec", "30", "suite", "--max-d", "20")
    assert code == 1
    rows = json.loads(out)
    failed = [r for r in rows if not r["pass"]]
    assert failed == [{"check": "m-invariant-sweep p<=20", "inputs": {"max_d": 20},
                       "lhs_log": "2", "rhs_log": "3", "digits_agreed": 0, "pass": False}]
    assert len(rows) == 14  # class and m sweeps, 8 chowla-selberg, 2 periods, 2 faltings


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "cmperiods", "class", "--d", "7"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "h(-7) = 1" in proc.stdout


TRACING_PROBE = """
import sys
import tracing
tracing.install()
from cmperiods import cli
for name in tracing.SPAN_NAMES:
    modname, fn = name.split(".")
    bound = getattr(sys.modules["cmperiods." + modname], fn)
    assert bound.__wrapped__ is tracing._ORIGINAL[name], name
assert cli._cs_worker is tracing.traced_cs_worker
assert cli.ProcessPoolExecutor is tracing.TracedPool
requests = [
    (["verify-cs", "--d", "7"], {"csperiods.cs_verify", "csperiods.make_report",
                                 "quadforms.reduced_forms"}),
    (["fermat", "--p", "7", "--rst", "1,1,5"], {
        "fermat.cm_type", "fermat.tate_twist_certificate", "fermat.beta_period",
        "csperiods.m_invariant", "csperiods.make_report", "quadforms.class_number_dirichlet"}),
    (["recognize", "--value", "0.75"], {"relint.recognize_rational"}),
]
for i, (argv, expected) in enumerate(requests):
    tracing.start_request(i)
    cli.main(["--prec", "30"] + argv)
    missing = expected - {span[0] for span in tracing._REC.spans if span[4] == i}
    assert not missing, (argv, missing)
"""


def test_perfbench_tracing_binds_every_name():
    # the traced benchmark wraps 23 functions by module attribute and
    # rebinds each by-name import of them; a renamed function fails here,
    # and a call through a stored function object would leave no span
    import os
    import subprocess
    import sys
    root = Path(__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                                        str(root / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", TRACING_PROBE], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
