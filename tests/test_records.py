"""The value records (``_exact.Record`` subclasses) keep the semantics they had
as frozen dataclasses: field names and order, the ``Name(field=value, ...)``
repr, equality only within one class, the hash of the field tuple, refused
assignment and the checks of ``__post_init__``.  The library logs without
importing ``logging``, and importing the CLI loads neither ``logging`` nor
the modules behind ``dataclasses``."""

import linecache
import logging
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from dessinkit import belyi, dessins
from dessinkit.belyi import INFINITY, BmnParams, BmnStage, CritProfile, ReductionReport
from dessinkit.dessins import Passport, RegularDescriptor, Separation, WitnessVerdict
from dessinkit.errors import DegenerateTriple, NotCoprime, OutOfRange
from dessinkit.models import DeltaTildeReport, LocalModel, TwoAdicReport
from dessinkit.perms import parse_cycles
from dessinkit.tower import CurveTriple, DistinctnessReport, TowerField
from dessinkit.words import parse_word

K = TowerField(3, 2)
Y, T_, OMEGA, S = (parse_cycles(c, 4) for c in ("(1,2,3,4)", "(1,3)", "(2,4)", "(1,2)(3,4)"))
PERM_REPRS = ("y=Permutation((1,2,3,4), degree=4), t=Permutation((1,3), degree=4), "
              "omega=Permutation((2,4), degree=4), s=Permutation((1,2)(3,4), degree=4)")

# (class, field names, positional values, repr at the last dataclass version)
RECORDS = [
    (CritProfile, ("values",), (frozenset({F(0), F(1), INFINITY}),),
     "CritProfile(values=frozenset({Fraction(0, 1), Fraction(1, 1), inf}))"),
    (BmnParams, ("m", "n"), (2, 3), "BmnParams(m=2, n=3)"),
    (BmnStage, ("m", "n"), (2, 3), "BmnStage(m=2, n=3)"),
    (ReductionReport,
     ("points_to_zero", "critical_values_in_01", "value_at_zero_in_unit_interval",
      "derivative_positive_at_zero", "value_at_zero"),
     (True, True, True, True, F(16, 3125)),
     "ReductionReport(points_to_zero=True, critical_values_in_01=True, "
     "value_at_zero_in_unit_interval=True, derivative_positive_at_zero=True, "
     "value_at_zero=Fraction(16, 3125))"),
    (Passport, ("black", "white", "faces"), ((3, 3), (2, 2, 2), (6,)),
     "Passport(black=(3, 3), white=(2, 2, 2), faces=(6,))"),
    (RegularDescriptor,
     ("group_order", "ord_x", "ord_y", "ord_xy", "euler_characteristic", "genus"),
     (6, 3, 2, 6, 0, 1),
     "RegularDescriptor(group_order=6, ord_x=3, ord_y=2, ord_xy=6, "
     "euler_characteristic=0, genus=1)"),
    (WitnessVerdict, ("separation", "commutator_with"),
     (Separation.COMMUTATION, parse_word("x y^-1")),
     "WitnessVerdict(separation=<Separation.COMMUTATION: 'commutation'>, "
     "commutator_with=FreeWord(x y^-1))"),
    (LocalModel, ("point_count", "y", "t", "omega", "s", "k", "p", "variant"),
     (4, Y, T_, OMEGA, S, 1, 3, "plain"),
     f"LocalModel(point_count=4, {PERM_REPRS}, k=1, p=3, variant='plain')"),
    (DeltaTildeReport, ("partial_sums", "total", "modulus", "ok"), ((3, 5), 8, 16, True),
     "DeltaTildeReport(partial_sums=(3, 5), total=8, modulus=16, ok=True)"),
    (TwoAdicReport,
     ("alpha", "nu", "a", "b", "c0", "m", "n", "e", "congruences_consistent", "v2_s",
      "v2_s_is_exact", "required", "r", "s"),
     (5, 1, 3, 7, 2, 11, 13, None, True, 6, False, 4, None, None),
     "TwoAdicReport(alpha=5, nu=1, a=3, b=7, c0=2, m=11, n=13, e=None, "
     "congruences_consistent=True, v2_s=6, v2_s_is_exact=False, required=4, r=None, "
     "s=None)"),
    (CurveTriple, ("a", "b", "c"), (K.zero(), K.one() - K.zeta(), K.root() * 2),
     "CurveTriple(a=TowerElement(0), b=TowerElement(1 - z), c=TowerElement(2*t))"),
    (DistinctnessReport, ("count", "collisions"), (6, (((0, 1), (1, 2)),)),
     "DistinctnessReport(count=6, collisions=(((0, 1), (1, 2)),))"),
]
IDS = [row[0].__name__ for row in RECORDS]


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_fields_and_repr(cls, names, values, text):
    record = cls(*values)
    assert repr(record) == text
    assert tuple(getattr(record, name) for name in names) == values
    assert record == cls(**dict(zip(names, values)))
    assert record == cls(*values[:1], **dict(zip(names[1:], values[1:])))


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_equality_within_the_class_and_hash_of_the_fields(cls, names, values, text):
    record = cls(*values)
    twin = cls(*values)
    assert record == twin and not record != twin and record is not twin
    assert hash(record) == hash(twin) == hash(values)
    assert record != values and not record == values
    assert {record: 1}[twin] == 1
    for other in RECORDS:
        if other[0] is not cls and len(other[2]) == len(values):
            assert record != other[0](*other[2])
    with pytest.raises(TypeError):
        record < twin


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_assignment_is_refused(cls, names, values, text):
    record = cls(*values)
    for name in names + ("undeclared",):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_a_missing_or_extra_argument_is_a_type_error(cls, names, values, text):
    calls = [
        lambda: cls(),
        lambda: cls(*values, values[0]),
        lambda: cls(*values, undeclared=1),
        lambda: cls(**dict(zip(names[1:], values[1:]))),
        lambda: cls(*values[:1], **{names[0]: values[0]}),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_bmn_stage_differs_from_its_parameters():
    assert BmnStage(2, 3) != BmnParams(2, 3) and not BmnParams(2, 3) == BmnStage(2, 3)
    assert BmnStage(2, 3).peak == BmnParams(2, 3).peak == F(2, 5)


def test_defaults_fill_the_fields_left_out():
    assert WitnessVerdict(Separation.NONE) == WitnessVerdict(Separation.NONE, None)
    assert repr(WitnessVerdict(Separation.KERNEL)) == (
        "WitnessVerdict(separation=<Separation.KERNEL: 'kernel'>, commutator_with=None)")
    model = LocalModel(4, Y, T_, OMEGA, S, k=1)
    assert (model.p, model.variant) == (None, None)
    assert repr(model) == f"LocalModel(point_count=4, {PERM_REPRS}, k=1, p=None, variant=None)"
    assert LocalModel(4, Y, T_, OMEGA, S, 1, variant="j").variant == "j"
    with pytest.raises(TypeError, match=r"^LocalModel\(point_count, y, t, omega, s, k, "
                                        r"p=None, variant=None\): give each field once, "
                                        r"by position or by name$"):
        LocalModel(4, Y, T_, OMEGA, S, p=3)


@pytest.mark.parametrize("cls", [BmnParams, BmnStage])
def test_bmn_parameters_are_checked_in_order(cls):
    for m, n in ((0, 1), (2, -4), (-2, 4), (0, 0)):
        with pytest.raises(OutOfRange, match=rf"^exponents must be positive, got \({m}, {n}\)$"):
            cls(m, n)
    for m, n in ((2, 4), (6, 9)):
        with pytest.raises(NotCoprime, match=rf"^\({m}, {n}\) are not coprime$"):
            cls(m=m, n=n)


def test_curve_triple_points_must_be_distinct():
    a, b = K.zero(), K.one()
    for triple in ((a, a, b), (a, b, a), (b, a, a), (a, a, a)):
        with pytest.raises(DegenerateTriple, match="^branch points must be pairwise distinct$"):
            CurveTriple(*triple)


def test_info_records_name_the_caller(caplog):
    with caplog.at_level(logging.INFO, logger="dessinkit.belyi"):
        belyi.belyi_reduce([2, 2, -4])
    messages = [r.getMessage() for r in caplog.records]
    assert messages == ["belyi_reduce: duplicate inputs collapsed (3 -> 2)",
                        "belyi_reduce: quadratic stage merged symmetric points (2 -> 1)"]
    for record in caplog.records:
        assert (record.funcName, Path(record.pathname).name) == ("belyi_reduce", "belyi.py")
        assert '_log("info"' in linecache.getline(record.pathname, record.lineno)


STARTUP = """
import sys
before = set(sys.modules)
import dessinkit, dessinkit.cli
loaded = set(sys.modules) - before
code = dessinkit.cli.run_cli(["belyi", "reduce", "--points", "2,2,-4"])
ran = set(sys.modules) - before
print(sorted(loaded & {"dataclasses", "inspect", "logging"}),
      sorted(ran & {"dataclasses", "inspect", "logging"}), code)
"""


def test_startup_loads_no_dataclasses_inspect_or_logging():
    paths = [str(Path(dessins.__file__).resolve().parent.parent),
             os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, "-c", STARTUP], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "[] [] 0"
