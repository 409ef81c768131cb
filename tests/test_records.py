from fractions import Fraction

import pytest

import tsirelson as t
from tsirelson import audit, averages, spaces
from tsirelson.functionals import Violation
from tsirelson.norm import AdmissibleSumResult, NormResult

HALF = Fraction(1, 2)
VECTOR = t.SparseVector(((1, HALF), (3, Fraction(-1, 3))))
LEAF = t.Leaf(1, 3)
AVG_ROOT = averages.AvgNode(0, VECTOR)

# one instance of every record class in the package
RECORDS = [
    audit.AuditRow("row", {"value": HALF}, True),
    audit.AuditReport("suite", {"n": 1}, (), 7),
    AVG_ROOT,
    averages.AveragingTree(0, HALF, HALF, AVG_ROOT),
    averages.SCC(1, HALF, (2, 3), (HALF, HALF)),
    t.An(2),
    t.Sn(2),
    t.Compose(t.Sn(1), t.An(2)),
    t.Decomposition(t.Sn(1), (2, 3)),
    LEAF,
    t.Node(1, (LEAF,)),
    Violation((0, 1), "reason"),
    NormResult(HALF, LEAF, 1, Fraction(0)),
    AdmissibleSumResult(HALF, ((1,), (3,))),
    t.Geometric(HALF),
    t.PowerLaw(2),
    t.ScaledPowerLaw(0.5, 2),
    t.LogReciprocal(),
    t.ExplicitSeq((HALF,), HALF),
    spaces.RegularityReport("sum", 2, (), (), True, 0.5),
    t.preset("geometric-s:1/2"),
    spaces.DerivedParams(1, HALF, (1,), None, None),
    VECTOR,
]


def _values(record):
    return tuple(getattr(record, name) for name in type(record).__annotations__)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_semantics(record):
    cls = type(record)
    names = tuple(cls.__annotations__)
    values = _values(record)
    copy = record.replace()
    assert copy == record and copy is not record and not copy != record
    assert cls(*values) == record and cls(**dict(zip(names, values))) == record
    try:
        fields_hash = hash(values)
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(copy) == fields_hash
    rendered = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__qualname__}({rendered})"
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    if names:
        with pytest.raises(AttributeError):
            delattr(record, names[0])
        with pytest.raises(TypeError):
            record.replace(no_such_field=1)
    assert _values(record) == values
    assert record != tuple(values) and record != object()


def test_records_compare_by_class_and_revalidate_on_replace():
    assert t.An(2) != t.Sn(2) and len({t.An(2), t.Sn(2)}) == 2
    assert hash(t.Sn(2)) == hash((2,))
    with pytest.raises(AttributeError):
        t.Sn(2).n = 3
    with pytest.raises(ValueError, match="leaf sign"):
        t.Leaf(1, 3).replace(sign=0)
    assert repr(t.Sn(2)) == "Sn(n=2)"
    assert t.Leaf(1, 3).replace(sign=-1) == t.Leaf(-1, 3)
    spec = t.preset("geometric-s:1/2")
    assert spec.with_inner_ak(2) == spec.replace(inner_ak=2) != spec
    # defaults come from the class attributes
    assert spaces.SpaceSpec("S", t.Geometric(HALF)).arithmetic == "rational"


def test_every_record_class_is_covered():
    from tsirelson.records import Record

    assert {type(r) for r in RECORDS} == set(Record.__subclasses__())
    assert len(RECORDS) == 23
