"""The package's records: frozen values with the repr, hash and pickling of
frozen dataclasses, built on NamedTuple or __slots__ so that importing the
CLI loads neither ``dataclasses`` nor ``inspect``."""

import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

import cmperiods
from cmperiods.csperiods import IdentityReport
from cmperiods.errors import DomainError
from cmperiods.fermat import RatioCertificate, cm_type
from cmperiods.lseries import SZeroJet
from cmperiods.numkernel import Lattice, PrecisionContext
from cmperiods.quadforms import ClassGroup, Discriminant, QuadForm, QuadInteger, reduced_forms

SRC = str(Path(cmperiods.__file__).resolve().parents[1])


def test_cli_import_loads_no_dataclasses_or_inspect():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import cmperiods.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe, SRC],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def _report():
    with mp.workdps(30):
        return IdentityReport("chowla-selberg d=7", {"d": 7}, mp.mpf(2) / 3, +mp.pi, 25, True)


# each record, its field names and its repr as a frozen dataclass printed it
RECORDS = [
    (lambda: PrecisionContext(60), ("target_digits",), "PrecisionContext(target_digits=60)"),
    (lambda: Lattice(mp.mpc(0, 1), mp.mpf(2)), ("tau", "scale"),
     "Lattice(tau=mpc(real='0.0', imag='1.0'), scale=mpf('2.0'))"),
    (lambda: Discriminant(23), ("d",), "Discriminant(d=23)"),
    (lambda: QuadForm(1, 1, 2), ("a", "b", "c"), "QuadForm(a=1, b=1, c=2)"),
    (lambda: reduced_forms(23), ("d", "forms"),
     "ClassGroup(d=Discriminant(d=23), forms=(QuadForm(a=1, b=1, c=6), "
     "QuadForm(a=2, b=1, c=3), QuadForm(a=2, b=-1, c=3)))"),
    (lambda: QuadInteger(3, 1, 7), ("x", "y", "d"), "QuadInteger(x=3, y=1, d=7)"),
    (lambda: IdentityReport("recognize", {"value": "0.75"}, "0.75", "3/4", 60, True),
     ("name", "inputs", "lhs", "rhs", "digits_agreed", "passed"),
     "IdentityReport(name='recognize', inputs={'value': '0.75'}, lhs='0.75', rhs='3/4', "
     "digits_agreed=60, passed=True)"),
    (lambda: SZeroJet(1, 2), ("value", "deriv", "value_exact"),
     "SZeroJet(value=1, deriv=2, value_exact=None)"),
    (lambda: cm_type(7, 1, 2, 4), ("p", "rst", "phi", "u", "v"),
     "CMTypeRecord(p=7, rst=(1, 2, 4), phi=(1, 2, 4), u=3, v=0)"),
    (lambda: RatioCertificate(IdentityReport("x", {}, 1, 1, 60, True), "rational",
                              Fraction(1, 2), 2, Fraction(3, 4)),
     ("report", "kind", "recognized", "height", "m"),
     "RatioCertificate(report=IdentityReport(name='x', inputs={}, lhs=1, rhs=1, "
     "digits_agreed=60, passed=True), kind='rational', recognized=Fraction(1, 2), "
     "height=2, m=Fraction(3, 4))"),
]
IDS = [text.split("(")[0] for _, _, text in RECORDS]


@pytest.mark.parametrize("make, fields, text", RECORDS, ids=IDS)
def test_record_is_frozen_with_its_dataclass_repr(make, fields, text):
    rec = make()
    assert repr(rec) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))


@pytest.mark.parametrize("make, fields, text", RECORDS, ids=IDS)
def test_record_hash_is_the_hash_of_its_fields(make, fields, text):
    rec = make()
    values = tuple(getattr(rec, name) for name in fields)
    try:
        expected = hash(values)
    except TypeError:  # a dict among the fields: the record is unhashable too
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == expected
    assert rec == make() and pickle.loads(pickle.dumps(rec)) == rec


@pytest.mark.parametrize("make", [lambda: PrecisionContext(29), lambda: QuadForm(0, 1, 1),
                                  lambda: QuadForm(1, 3, 1), lambda: Discriminant(5),
                                  lambda: Discriminant(10 ** 12 + 3),
                                  lambda: QuadInteger(1, 0, 7), lambda: QuadInteger(1, 1, 0)],
                         ids=["prec-29", "form-a-0", "form-indefinite", "disc-5",
                              "disc-above-bound", "quadint-parity", "quadint-d-0"])
def test_record_validation_raises_domain_error(make):
    with pytest.raises(DomainError):
        make()


def test_slotted_records_compare_by_class_and_cannot_lose_a_field():
    q = QuadInteger(3, 1, 7)
    assert q != (3, 1, 7) and q != QuadInteger(3, -1, 7) and -q == QuadInteger(-3, -1, 7)
    with pytest.raises(AttributeError):
        del q.x
    group = reduced_forms(23)
    assert isinstance(group, ClassGroup) and list(group) == list(group.forms) and group.h == 3
    with pytest.raises(AttributeError):
        group.extra = 1


def test_tuple_records_equal_their_field_tuples_and_replace():
    # as NamedTuples the records compare equal to the tuple of their fields
    assert QuadForm(1, 1, 2) == (1, 1, 2) and PrecisionContext() == (120,)
    rep = _report()
    assert rep._replace(rhs="pi") == (*rep[:3], "pi", *rep[4:])


def test_pickle_keeps_report_sides_and_discriminant_flag():
    rep = _report()
    back = pickle.loads(pickle.dumps(rep))
    assert back == rep and type(back.lhs) is type(rep.lhs) and back.rhs == rep.rhs
    # the primality flag that Discriminant.prime keeps travels with it
    back = pickle.loads(pickle.dumps(Discriminant.prime(23)))
    assert back == Discriminant(23) and vars(back)["is_prime_3mod4"] is True
    assert Discriminant.prime(back) is back
