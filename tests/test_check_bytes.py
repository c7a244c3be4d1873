"""The re-record rule of ``benchmarks/check_bytes.py``, on hand-made outputs."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "benchmarks" / "check_bytes.py"
_spec = importlib.util.spec_from_file_location("check_bytes", SCRIPT)
check_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bytes)

ARGV = ["periods", "--p", "7", "--json"]
ROW = {"check": "period-product p=7", "inputs": {"p": 7}, "lhs_log": "-1.2345",
       "rhs_log": "-1.2346", "digits_agreed": 80, "pass": True}


def result(*rows, code=0, err=""):
    return ["digest", code, json.dumps(list(rows)), err]


def moved(**fields):
    return result({**ROW, **fields})


def test_rule_accepts_last_digit_and_small_digit_changes():
    reason, deltas = check_bytes.rule_break(
        ARGV, result(ROW), moved(lhs_log="-1.2344", rhs_log="-1.23459", digits_agreed=78))
    assert reason is None and deltas == [("period-product", -2)]
    assert check_bytes.rule_break(ARGV, result(ROW, ROW), result(ROW, ROW)) == (None, [])


def test_rule_names_what_breaks_it():
    old = result(ROW)
    cases = [
        (moved(digits_agreed=83), "row 0: digits_agreed +3"),
        (moved(lhs_log="-1.2343"), "row 0: lhs_log -1.2345 -> -1.2343"),
        (moved(rhs_log="unrecognized"), "row 0: rhs_log -1.2346 -> unrecognized"),
        (moved(**{"pass": False}), "row 0: pass differs"),
        (moved(inputs={"p": 11}), "row 0: inputs differs"),
        (result(ROW, code=1), "exit code 0 -> 1"),
        (result(ROW, err="warning\n"), "stderr differs"),
        (result(ROW, ROW), "1 -> 2 rows"),
    ]
    for new, reason in cases:
        assert check_bytes.rule_break(ARGV, old, new)[0] == reason
    assert check_bytes.rule_break(["periods", "--p", "7"], old, moved())[0] is not None
