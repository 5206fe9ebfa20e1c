"""The result types are immutable values.

Each type is built by keyword with its defaults, has the ``Name(field=value,
...)`` repr, refuses assignment, and is equal and hashed by value. The three
validating types (``LowerTriMatrix``, ``Poly``, ``CoeffReport``) are not
tuples: they never equal a tuple or an instance of another class. Importing
the CLI on a clean interpreter (``python -S``, no site hook to preload the
standard library) loads none of ``dataclasses``, ``inspect``, ``typing``,
``pathlib`` and ``bisect``, which keeps a cold command cheap.
"""
from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import zetacomb
from zetacomb.cli import _Result
from zetacomb.numcore import Basis, Poly
from zetacomb.trimat import LowerTriMatrix
from zetacomb.zetadiff import (
    CoeffReport,
    CombinationViolation,
    ExpectedSign,
    SignPatternFinding,
    SignViolation,
    VerificationReport,
)

HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)
M1 = LowerTriMatrix(dim=2, entries=(HALF, 0, QUARTER))
M1_REPR = "LowerTriMatrix(dim=2, entries=(Fraction(1, 2), Fraction(0, 1), Fraction(1, 4)))"
VIOLATION = CombinationViolation(row=1, sample=HALF, residual=Fraction(-3, 4))
SIGN = SignViolation(i=2, j=0, value=QUARTER, expected=ExpectedSign.NEGATIVE)

# name -> (build an instance, build a different one, the first one's repr)
CASES = {
    "Poly": (
        lambda: Poly(coeffs=(1, HALF, 0)),
        lambda: Poly(coeffs=(1, HALF), basis=Basis.SHIFTED),
        "Poly(coeffs=(Fraction(1, 1), Fraction(1, 2)), basis=<Basis.MONOMIAL: 'monomial'>)",
    ),
    "LowerTriMatrix": (
        lambda: LowerTriMatrix(dim=2, entries=(HALF, 0, QUARTER)),
        lambda: LowerTriMatrix(dim=2, entries=(HALF, 1, QUARTER)),
        M1_REPR,
    ),
    "CoeffReport": (
        lambda: CoeffReport(m=1, matrix=M1),
        lambda: CoeffReport(m=1, matrix=LowerTriMatrix(dim=2, entries=(HALF, 1, QUARTER))),
        f"CoeffReport(m=1, matrix={M1_REPR})",
    ),
    "CombinationViolation": (
        lambda: CombinationViolation(row=1, sample=HALF, residual=Fraction(-3, 4)),
        lambda: CombinationViolation(row=2, sample=HALF, residual=Fraction(-3, 4)),
        "CombinationViolation(row=1, sample=Fraction(1, 2), residual=Fraction(-3, 4))",
    ),
    "VerificationReport": (
        lambda: VerificationReport(m=2, samples=(HALF,), passed=False, violations=(VIOLATION,)),
        lambda: VerificationReport(m=2, samples=(HALF,), passed=True, violations=()),
        "VerificationReport(m=2, samples=(Fraction(1, 2),), passed=False, violations=("
        "CombinationViolation(row=1, sample=Fraction(1, 2), residual=Fraction(-3, 4)),))",
    ),
    "SignViolation": (
        lambda: SignViolation(i=2, j=0, value=QUARTER, expected=ExpectedSign.NEGATIVE),
        lambda: SignViolation(i=2, j=0, value=QUARTER, expected=ExpectedSign.POSITIVE),
        "SignViolation(i=2, j=0, value=Fraction(1, 4), expected=<ExpectedSign.NEGATIVE: 'negative'>)",
    ),
    "SignPatternFinding": (
        lambda: SignPatternFinding(max_m=3, checked=6, violations=(SIGN,)),
        lambda: SignPatternFinding(max_m=3, checked=6, violations=()),
        "SignPatternFinding(max_m=3, checked=6, violations=(SignViolation(i=2, j=0, "
        "value=Fraction(1, 4), expected=<ExpectedSign.NEGATIVE: 'negative'>),))",
    ),
    "_Result": (
        lambda: _Result(json=dict, csv=str, pretty=str),
        lambda: _Result(json=dict, csv=str, pretty=str, failure="check failed"),
        "_Result(json=<class 'dict'>, csv=<class 'str'>, pretty=<class 'str'>, failure=None)",
    ),
}
FIELDS = {
    "Poly": ("coeffs", "basis"),
    "LowerTriMatrix": ("dim", "entries"),
    "CoeffReport": ("m", "matrix"),
    "CombinationViolation": ("row", "sample", "residual"),
    "VerificationReport": ("m", "samples", "passed", "violations"),
    "SignViolation": ("i", "j", "value", "expected"),
    "SignPatternFinding": ("max_m", "checked", "violations"),
    "_Result": ("json", "csv", "pretty", "failure"),
}
VALIDATING = ("Poly", "LowerTriMatrix", "CoeffReport")


@pytest.mark.parametrize("name", CASES)
def test_keyword_construction_and_repr(name):
    make, _, expected = CASES[name]
    assert repr(make()) == expected


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = CASES[name][0]()
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == CASES[name][2]


@pytest.mark.parametrize("name", CASES)
def test_equal_and_hashed_by_value(name):
    make, make_other, _ = CASES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != make_other()


@pytest.mark.parametrize("name", [name for name in CASES if name != "_Result"])
def test_copies_and_pickles_equal(name):
    value = CASES[name][0]()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_defaults():
    assert Poly((1,)).basis is Basis.MONOMIAL
    assert _Result(json=dict, csv=str, pretty=str).failure is None


@pytest.mark.parametrize("name", VALIDATING)
def test_validating_types_equal_only_their_own_class(name):
    value = CASES[name][0]()
    fields = tuple(getattr(value, field) for field in FIELDS[name])
    assert value != fields
    for other in VALIDATING:
        if other != name:
            assert value != CASES[other][0]()


def test_validating_types_are_not_sequences():
    with pytest.raises(TypeError):
        Poly((1,)) + Poly((2,))
    with pytest.raises(TypeError):
        len(M1)


def test_clean_cli_import_loads_no_dataclasses_inspect_typing_pathlib_or_bisect():
    # -S: a site hook may import typing, pathlib or bisect before zetacomb runs
    code = (
        "import sys, zetacomb.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib', 'bisect'} & set(sys.modules)))"
    )
    home = os.path.dirname(os.path.dirname(zetacomb.__file__))  # the directory holding the package
    env = {**os.environ, "PYTHONPATH": home}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")
