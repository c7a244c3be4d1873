import json
import re
from pathlib import Path

import pytest

from cmperiods import cli, epstein
from cmperiods.errors import PrecisionError

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


@pytest.mark.parametrize("d", [3, 4, 7, 23])
def test_kronecker_json_golden_bytes(capsys, d):
    # bytes recorded from the earlier finite-difference jet at 60 digits;
    # the closed form must reproduce every digit and every verdict
    code, out, _ = run(capsys, "kronecker", "--d", str(d), "--json", "--prec", "60")
    assert code == 0
    assert out == (GOLDEN / f"kronecker_d{d}_prec60.json").read_text()


@pytest.mark.parametrize("d, k, prec", [(4, 0, 30), (7, 0, 30), (23, 1, 30),
                                        (1019, 1, 30), (4, 0, 300), (7, 0, 300),
                                        (23, 2, 300)])
def test_kronecker_precision_sweep(capsys, d, k, prec):
    code, out, _ = run(capsys, "kronecker", "--d", str(d), "--class", str(k),
                       "--prec", str(prec), "--json")
    [row] = json.loads(out)
    assert code == 0 and row["pass"] is True
    assert row["digits_agreed"] == prec + 20


def test_kronecker_precision_failure_reports_digits(capsys, monkeypatch):
    monkeypatch.setattr(epstein, "_CF_CAP", 2)
    code, _, err = run(capsys, "kronecker", "--d", "7", "--prec", "60")
    assert code == 3
    assert re.search(r"continued fraction stalled \(achieved \d+ digits\)", err)


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


def test_hecke(capsys):
    code, out, _ = run(capsys, "hecke", "--p", "23", "--form", "2,1,3")
    assert code == 0
    assert "(3, 1)" in out
    assert "[pass]" in out


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


def test_recognize_unrecognized_is_failure(capsys):
    code, out, _ = run(capsys, "recognize", "--value", "0.5000000000001")
    assert code == 1
    assert "unrecognized" in out


def test_exit_code_domain_errors(capsys):
    assert run(capsys, "fermat", "--p", "7", "--rst", "1,2,4")[0] == 2
    assert run(capsys, "hecke", "--p", "7", "--form", "7,7,2")[0] == 2
    assert run(capsys, "verify-cs", "--d", "999")[0] == 2
    assert run(capsys, "--prec", "10", "class", "--d", "7")[0] == 2
    assert run(capsys, "--threads", "0", "class", "--d", "7")[0] == 2


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


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "cmperiods", "class", "--d", "7"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "h(-7) = 1" in proc.stdout
