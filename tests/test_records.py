"""The value-record contract, pinned one behaviour at a time for every record type.

Each record is built from its fields, positionally or by keyword, with
defaults for trailing fields.  Its normalising constructor sorts and
tuples what the type keeps canonical, and refuses what it must.  Two
records are equal only when they have the same class and the same field
values; the hash is the hash of the tuple of field values, so set and
dict iteration orders follow the values; the repr is
`Class(field=value, ...)`; and no field can be assigned or deleted.
"""
import copy
import pickle

import pytest

from gdim3.bass_serre import (BASE_VERTEX, AxisStabilizerReport, Cell, ConedComplex,
                              FreeProductSpec, NormalizerProbe, SemidirectSpec, TreeBall)
from gdim3.dimension import DimensionReport, GdResult, TraceStep
from gdim3.geometry import Geometry
from gdim3.gl2z import Mat2Z, MatClass, MatKind
from gdim3.model import (Geometric, HyperbolicCusped, JsjGraph, KleinDouble, ManifoldDescription,
                         SeifertBounded, SeifertClosed, SeifertData, Spherical, TorusBundle)
from gdim3.orbifold2 import OrbifoldBase

M = Mat2Z(2, 1, 1, 1)
M_REPR = "Mat2Z(a=2, b=1, c=1, d=1)"
BASE = OrbifoldBase(0, True, 0, (2, 3, 7))
BASE_REPR = "OrbifoldBase(genus=0, orientable=True, boundary_count=0, cone_orders=(2, 3, 7))"
DISK = OrbifoldBase(0, True, 1, (2, 3))
DISK_REPR = "OrbifoldBase(genus=0, orientable=True, boundary_count=1, cone_orders=(2, 3))"
DATA = SeifertData(BASE, ((2, 1), (3, 1), (7, 1)), -1)
DATA_REPR = f"SeifertData(base={BASE_REPR}, cone_pairs=((2, 1), (3, 1), (7, 1)), b=-1)"
BOUNDED = SeifertBounded(SeifertData(DISK, ((2, 1), (3, 1))))
BOUNDED_REPR = (f"SeifertBounded(data=SeifertData(base={DISK_REPR}, "
                "cone_pairs=((2, 1), (3, 1)), b=None))")
STEP = TraceStep("pieces[0]", "Table1-row3", "spherical", 0)
STEP_REPR = "TraceStep(path='pieces[0]', rule='Table1-row3', inputs='spherical', value=0)"
RESULT = GdResult(0, (STEP,))
RESULT_REPR = f"GdResult(value=0, trace=({STEP_REPR},))"
DESC = ManifoldDescription("rp3", (Spherical(2),))
DESC_REPR = "ManifoldDescription(name='rp3', pieces=(Spherical(pi1_order=2),))"
SPEC = FreeProductSpec((2, 2))
SPEC_REPR = "FreeProductSpec(factor_orders=(2, 2))"
VERTEX_REPR = "Vertex(word=(), factor=None)"
TREE = TreeBall(SPEC, 0, (BASE_VERTEX,), (), {BASE_VERTEX: ()})
TREE_REPR = (f"TreeBall(spec={SPEC_REPR}, radius=0, vertices=({VERTEX_REPR},), edges=(), "
             f"adjacency={{{VERTEX_REPR}: ()}})")
AXIS_ARGS = (((), ((0, 1),)), (((), 0),), (((0, 1), 1),), ())
AXIS_REPORT = AxisStabilizerReport(*AXIS_ARGS)
CELL = Cell("vertex", 0, (BASE_VERTEX,))

#: type -> (the arguments, positionally; the field names; the field values; the repr)
CASES = {
    "SeifertData": (SeifertData, (BASE, [[7, 1], (2, 1), [3, 1]], -1), ("base", "cone_pairs", "b"),
                    (BASE, ((2, 1), (3, 1), (7, 1)), -1), DATA_REPR),
    "Spherical": (Spherical, (2,), ("pi1_order",), (2,), "Spherical(pi1_order=2)"),
    "Geometric": (Geometric, (Geometry.SOL,), ("geometry",), (Geometry.SOL,),
                  "Geometric(geometry=<Geometry.SOL: 'Sol'>)"),
    "TorusBundle": (TorusBundle, (M,), ("monodromy",), (M,), f"TorusBundle(monodromy={M_REPR})"),
    "KleinDouble": (KleinDouble, (), (), (), "KleinDouble()"),
    "SeifertClosed": (SeifertClosed, (DATA,), ("data",), (DATA,), f"SeifertClosed(data={DATA_REPR})"),
    "HyperbolicCusped": (HyperbolicCusped, (2,), ("cusps",), (2,), "HyperbolicCusped(cusps=2)"),
    "SeifertBounded": (SeifertBounded, (BOUNDED.data,), ("data",), (BOUNDED.data,), BOUNDED_REPR),
    "JsjGraph": (JsjGraph, ([HyperbolicCusped(1), BOUNDED], [[1, 0]], M),
                 ("vertices", "edges", "monodromy"), ((HyperbolicCusped(1), BOUNDED), ((0, 1),), M),
                 f"JsjGraph(vertices=(HyperbolicCusped(cusps=1), {BOUNDED_REPR}), "
                 f"edges=((0, 1),), monodromy={M_REPR})"),
    "ManifoldDescription": (ManifoldDescription, ("rp3", [Spherical(2)]), ("name", "pieces"),
                            ("rp3", (Spherical(2),)), DESC_REPR),
    "TraceStep": (TraceStep, ("pieces[0]", "Table1-row3", "spherical", 0),
                  ("path", "rule", "inputs", "value"), ("pieces[0]", "Table1-row3", "spherical", 0),
                  STEP_REPR),
    "GdResult": (GdResult, (0, (STEP,)), ("value", "trace"), (0, (STEP,)), RESULT_REPR),
    "DimensionReport": (DimensionReport, ("rp3", DESC, RESULT, RESULT, 2),
                        ("name", "description", "k2", "k3plus", "rank_cap"),
                        ("rp3", DESC, RESULT, RESULT, 2),
                        f"DimensionReport(name='rp3', description={DESC_REPR}, k2={RESULT_REPR}, "
                        f"k3plus={RESULT_REPR}, rank_cap=2)"),
    "Mat2Z": (Mat2Z, (2, 1, 1, 1), ("a", "b", "c", "d"), (2, 1, 1, 1), M_REPR),
    "MatClass": (MatClass, (MatKind.ELLIPTIC, 4), ("kind", "order"), (MatKind.ELLIPTIC, 4),
                 "MatClass(kind=<MatKind.ELLIPTIC: 'elliptic'>, order=4)"),
    "OrbifoldBase": (OrbifoldBase, (0, True, 0, [7, 2, 3]),
                     ("genus", "orientable", "boundary_count", "cone_orders"),
                     (0, True, 0, (2, 3, 7)), BASE_REPR),
    "FreeProductSpec": (FreeProductSpec, ([2, 2],), ("factor_orders",), ((2, 2),), SPEC_REPR),
    "TreeBall": (TreeBall, (SPEC, 0, (BASE_VERTEX,), (), {BASE_VERTEX: ()}),
                 ("spec", "radius", "vertices", "edges", "adjacency"),
                 (SPEC, 0, (BASE_VERTEX,), (), {BASE_VERTEX: ()}), TREE_REPR),
    "AxisStabilizerReport": (AxisStabilizerReport, AXIS_ARGS,
                             ("elements", "translations", "reflections", "violations"), AXIS_ARGS,
                             "AxisStabilizerReport(elements=((), ((0, 1),)), "
                             "translations=(((), 0),), reflections=(((0, 1), 1),), violations=())"),
    "ConedComplex": (ConedComplex, (TREE, (), 0, {CELL: ((),)}, (AXIS_REPORT,)),
                     ("tree", "axes", "budget", "stabilizer_records", "axis_reports"),
                     (TREE, (), 0, {CELL: ((),)}, (AXIS_REPORT,)),
                     f"ConedComplex(tree={TREE_REPR}, axes=(), budget=0, stabilizer_records="
                     f"{{Cell(cell_class='vertex', dim=0, key=({VERTEX_REPR},)): ((),)}}, "
                     "axis_reports=(AxisStabilizerReport(elements=((), ((0, 1),)), "
                     "translations=(((), 0),), reflections=(((0, 1), 1),), violations=()),))"),
    "SemidirectSpec": (SemidirectSpec, (M,), ("monodromy",), (M,),
                       f"SemidirectSpec(monodromy={M_REPR})"),
    "NormalizerProbe": (NormalizerProbe, (1, ("det(A - I) = -1",)), ("rank", "certificate"),
                        (1, ("det(A - I) = -1",)),
                        "NormalizerProbe(rank=1, certificate=('det(A - I) = -1',))"),
}
NAMES = sorted(CASES)
#: the two records that hold a dict, so they have no hash
UNHASHABLE = {"TreeBall", "ConedComplex"}


def make(name):
    cls, args, _, _, _ = CASES[name]
    return cls(*args)


def values(record, fields):
    return tuple(getattr(record, f) for f in fields)


def test_every_record_type_is_pinned():
    assert len(CASES) == 22


@pytest.mark.parametrize("name", NAMES)
def test_positional_and_keyword_construction(name):
    cls, args, fields, expected, _ = CASES[name]
    assert len(args) == len(fields)
    positional = cls(*args)
    keyword = cls(**dict(zip(fields, args)))
    reversed_keywords = cls(**dict(reversed(list(zip(fields, args)))))
    for record in (positional, keyword, reversed_keywords):
        assert type(record) is cls
        assert values(record, fields) == expected
    assert positional == keyword == reversed_keywords


@pytest.mark.parametrize("name", NAMES)
def test_an_extra_or_repeated_argument_is_a_type_error(name):
    cls, args, fields, _, _ = CASES[name]
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) takes .* but {len(args) + 2} were given"):
        cls(*args, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'no_such_field'"):
        cls(*args, no_such_field=1)
    if fields:
        with pytest.raises(TypeError, match=f"multiple values for argument '{fields[0]}'"):
            cls(*args, **{fields[0]: args[0]})


@pytest.mark.parametrize("cls,message", [
    (Spherical, "Spherical.__init__() missing 1 required positional argument: 'pi1_order'"),
    (JsjGraph, "JsjGraph.__init__() missing 1 required positional argument: 'vertices'"),
    (TraceStep, "TraceStep.__init__() missing 4 required positional arguments: "
                "'path', 'rule', 'inputs', and 'value'"),
    (TreeBall, "TreeBall.__init__() missing 5 required positional arguments: "
               "'spec', 'radius', 'vertices', 'edges', and 'adjacency'"),
])
def test_missing_fields_are_named(cls, message):
    with pytest.raises(TypeError) as info:
        cls()
    assert str(info.value) == message


def test_defaults():
    assert values(OrbifoldBase(), ("genus", "orientable", "boundary_count", "cone_orders")) == (
        0, True, 0, ())
    assert OrbifoldBase(genus=2) == OrbifoldBase(2, True, 0, ())
    assert SeifertData(BASE).cone_pairs == () and SeifertData(BASE).b is None
    assert SeifertData(BASE, b=3) == SeifertData(BASE, (), 3)
    graph = JsjGraph((HyperbolicCusped(1),))
    assert graph.edges == () and graph.monodromy is None
    assert MatClass(MatKind.PARABOLIC).order is None
    assert KleinDouble() == KleinDouble()


def test_construction_normalises_sequences():
    assert OrbifoldBase(cone_orders=[5, 2, 3, 2]).cone_orders == (2, 2, 3, 5)
    assert SeifertData(BASE, [[7, 1], [2, -1], (2, 1)]).cone_pairs == ((2, -1), (2, 1), (7, 1))
    graph = JsjGraph([HyperbolicCusped(1), HyperbolicCusped(2)], [[1, 0], (1, 1), [0, 1]])
    assert graph.vertices == (HyperbolicCusped(1), HyperbolicCusped(2))
    assert graph.edges == ((0, 1), (1, 1), (0, 1))
    assert ManifoldDescription("x", [Spherical(2), KleinDouble()]).pieces == (
        Spherical(2), KleinDouble())
    assert FreeProductSpec([2, 3]).factor_orders == (2, 3)
    # the normalised record equals, and hashes like, the one built from canonical values
    assert SeifertData(BASE, [[7, 1], [2, 1], [3, 1]], -1) == DATA
    assert hash(OrbifoldBase(cone_orders=[3, 2])) == hash(OrbifoldBase(cone_orders=(2, 3)))


@pytest.mark.parametrize("make_it,error,message", [
    (lambda: GdResult(1, (STEP,)), AssertionError, "value 1 outside {0, 2, 3, 5}"),
    (lambda: GdResult(2, ()), AssertionError, "trace must end in the step producing the value"),
    (lambda: GdResult(0, (TraceStep("p", "r", "i", 3),)), AssertionError,
     "trace must end in the step producing the value"),
    (lambda: FreeProductSpec((2,)), ValueError, "a free product needs at least two factors"),
    (lambda: FreeProductSpec(()), ValueError, "a free product needs at least two factors"),
    (lambda: FreeProductSpec((2, 1)), ValueError, "factor orders must be >= 2"),
])
def test_refusals_keep_their_type_and_message(make_it, error, message):
    with pytest.raises(error) as info:
        make_it()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("name", NAMES)
def test_equality_needs_the_same_class_and_the_same_values(name):
    record = make(name)
    cls, args, fields, expected, _ = CASES[name]
    assert record == record and record == cls(*args) and not record != cls(*args)
    assert record != expected and expected != record
    assert record.__eq__(object()) is NotImplemented
    for other in NAMES:
        if other != name:
            assert record != make(other) and not record == make(other)
    for field in fields:
        twin = copy.copy(record)
        object.__setattr__(twin, field, object())
        assert record != twin and not record == twin


@pytest.mark.parametrize("left,right", [
    (Spherical(2), HyperbolicCusped(2)),
    (SeifertClosed(DATA), SeifertBounded(DATA)),
    (TorusBundle(M), SemidirectSpec(M)),
    (Geometric(Geometry.SOL), Spherical(Geometry.SOL)),
])
def test_records_of_two_classes_with_equal_values_differ(left, right):
    assert left != right and right != left
    assert not left == right and not right == left
    assert hash(left) == hash(right) and len({left, right}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_the_hash_of_the_field_values(name):
    record = make(name)
    _, _, fields, expected, _ = CASES[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == hash(values(record, fields)) == hash(expected)
    assert hash(record) == hash(make(name))


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    assert repr(make(name)) == CASES[name][4]


@pytest.mark.parametrize("name", sorted(set(NAMES) - UNHASHABLE))
def test_fields_cannot_be_assigned_or_deleted(name):
    record = make(name)
    _, _, fields, expected, _ = CASES[name]
    for field in fields + ("no_such_field",):
        with pytest.raises(AttributeError) as info:
            setattr(record, field, 1)
        assert str(info.value) == f"cannot assign to field {field!r}"
        with pytest.raises(AttributeError) as info:
            delattr(record, field)
        assert str(info.value) == f"cannot delete field {field!r}"
    assert values(record, fields) == expected


@pytest.mark.parametrize("name", NAMES)
def test_copies_and_pickles_are_equal(name):
    record = make(name)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_tree_balls_and_coned_complexes_are_frozen_too(name):
    record = make(name)
    _, _, fields, expected, _ = CASES[name]
    for field in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field {field!r}"):
            setattr(record, field, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field {field!r}"):
            delattr(record, field)
    assert values(record, fields) == expected
