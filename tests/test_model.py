import json
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdim3 import compute, corpus
from gdim3.gl2z import Mat2Z
from gdim3.model import (
    DescriptionFormatError,
    Geometric,
    HyperbolicCusped,
    InvalidDescription,
    JsjGraph,
    KleinDouble,
    ManifoldDescription,
    NormalizationAmbiguous,
    SeifertBounded,
    SeifertClosed,
    SeifertData,
    Spherical,
    TorusBundle,
    Violation,
    description_from_json,
    description_to_json,
    load_description,
    normalize,
    validate,
)
from gdim3.orbifold2 import OrbifoldBase, annulus, disk, mobius_band, sphere

from randgen import random_description


def desc(*pieces) -> ManifoldDescription:
    return ManifoldDescription(name="t", pieces=tuple(pieces))


def closed_seifert(base, pairs, b) -> SeifertClosed:
    return SeifertClosed(SeifertData(base=base, cone_pairs=pairs, b=b))


# --- Seifert data ---

def test_euler_number_is_exact():
    data = SeifertData(base=sphere(2, 4, 4), cone_pairs=((2, 1), (4, 1), (4, 1)), b=-1)
    assert data.euler_number() == 0
    data = SeifertData(base=sphere(2, 4, 4), cone_pairs=((2, 1), (4, 1), (4, 1)), b=0)
    assert data.euler_number() == -1
    data = SeifertData(base=sphere(2, 3, 7), cone_pairs=((2, 1), (3, 1), (7, 1)), b=-1)
    assert data.euler_number() == Fraction(1, 42)


def test_euler_number_needs_a_closed_base():
    data = SeifertData(base=disk(2, 3), cone_pairs=((2, 1), (3, 1)))
    with pytest.raises(ValueError):
        data.euler_number()


def test_cone_pairs_are_stored_as_written_and_encoded_ascending():
    a = SeifertData(base=sphere(3, 2), cone_pairs=[[3, 1], (2, 1)], b=0)
    b = SeifertData(base=sphere(2, 3), cone_pairs=((2, 1), (3, 1)), b=0)
    assert a.cone_pairs == ((3, 1), (2, 1)) and a.base.cone_orders == (3, 2)
    assert a != b and validate(desc(SeifertClosed(a))) == []
    written = description_to_json(desc(SeifertClosed(a)))
    assert written == description_to_json(desc(SeifertClosed(b)))
    assert written["pieces"][0]["cone_pairs"] == [[2, 1], [3, 1]]


# --- validation ---

def test_empty_description_is_rejected():
    report = validate(desc())
    assert any(v.path == "pieces" for v in report)


@pytest.mark.parametrize("value", ["x", None, [Spherical(2)], Spherical(2)])
def test_validate_refuses_what_is_no_description(value):
    """There is no field to report on, so validate raises where it would list violations."""
    with pytest.raises(InvalidDescription) as info:
        validate(value)
    assert str(info.value) == f"description: unknown description type {type(value).__name__}"


def test_spherical_order_must_be_positive():
    report = validate(desc(Spherical(0)))
    assert any("pi1_order" in v.path for v in report)


def test_monodromy_determinant_checked():
    report = validate(desc(TorusBundle(Mat2Z(2, 0, 0, 1))))
    assert any("monodromy" in v.path for v in report)
    assert validate(desc(TorusBundle(Mat2Z(0, 1, 1, 0)))) == []


def test_gcd_condition_on_cone_pairs():
    bad = closed_seifert(sphere(4, 6), ((4, 2), (6, 1)), 0)
    report = validate(desc(bad))
    assert any("gcd" in v.message for v in report)


def test_cone_order_mismatch_detected():
    bad = closed_seifert(sphere(2, 3), ((2, 1), (5, 1)), 0)
    report = validate(desc(bad))
    assert any("cone order mismatch" in v.message for v in report)


def test_closed_seifert_needs_b():
    bad = SeifertClosed(SeifertData(base=sphere(2, 3), cone_pairs=((2, 1), (3, 1))))
    report = validate(desc(bad))
    assert any(v.path.endswith(".b") for v in report)


def test_closed_seifert_over_bounded_base_rejected():
    bad = SeifertClosed(SeifertData(base=disk(2, 3), cone_pairs=((2, 1), (3, 1)), b=0))
    report = validate(desc(bad))
    assert any("bounded base" in v.message for v in report)


def test_bounded_seifert_must_not_carry_b():
    graph = JsjGraph(
        vertices=(
            SeifertBounded(SeifertData(base=disk(2, 3), cone_pairs=((2, 1), (3, 1)), b=1)),
            HyperbolicCusped(1),
        ),
        edges=((0, 1),),
    )
    report = validate(desc(graph))
    assert any(v.path.endswith(".b") for v in report)


def test_nonorientable_genus_zero_rejected():
    base = OrbifoldBase(genus=0, orientable=False)
    bad = closed_seifert(base, (), 0)
    report = validate(desc(bad))
    assert any("genus" in v.path for v in report)


def test_boundary_bookkeeping():
    # a 2-cusp piece with a single edge end leaves one torus unglued
    graph = JsjGraph(
        vertices=(HyperbolicCusped(2), HyperbolicCusped(1)),
        edges=((0, 1),),
    )
    report = validate(desc(graph))
    assert any("boundary bookkeeping" in v.message for v in report)


def test_graph_connectivity_required():
    graph = JsjGraph(
        vertices=(HyperbolicCusped(2), HyperbolicCusped(2)),
        edges=((0, 0), (1, 1)),
    )
    report = validate(desc(graph))
    assert any("not connected" in v.message for v in report)


def test_edge_indices_must_be_in_range():
    graph = JsjGraph(vertices=(HyperbolicCusped(1),), edges=((0, 3),))
    report = validate(desc(graph))
    assert any("out of range" in v.message for v in report)


def test_klein_double_shape_passes_validate():
    """The doubled twisted I-bundle is an accepted spelling, which normalize rewrites."""
    twisted = SeifertBounded(SeifertData(base=mobius_band()))
    graph = JsjGraph(vertices=(twisted, twisted), edges=((0, 1),))
    assert validate(desc(graph)) == []


def test_torus_x_interval_vertex_flagged_in_multivertex_graph():
    graph = JsjGraph(
        vertices=(
            SeifertBounded(SeifertData(base=annulus())),
            HyperbolicCusped(2),
        ),
        edges=((0, 1), (0, 1)),
    )
    report = validate(desc(graph))
    assert any("torus-times-interval" in v.message for v in report)


MONODROMY_MISPLACED = ("only a single torus-times-interval vertex glued to itself takes a "
                       "monodromy")


@pytest.mark.parametrize("vertices,edges", [
    ((HyperbolicCusped(2),), ((0, 0),)),
    ((HyperbolicCusped(1), HyperbolicCusped(1)), ((0, 1),)),
    ((SeifertBounded(SeifertData(base=mobius_band())),) * 2, ((0, 1),)),
    ((SeifertBounded(SeifertData(base=annulus(2), cone_pairs=((2, 1),))),), ((0, 0),)),
])
def test_only_the_torus_times_interval_loop_takes_a_monodromy(vertices, edges):
    graph = JsjGraph(vertices=vertices, edges=edges, monodromy=Mat2Z(2, 1, 1, 1))
    assert validate(desc(Spherical(2), graph)) == [
        Violation("pieces[1].monodromy", MONODROMY_MISPLACED)]
    assert validate(desc(Spherical(2), JsjGraph(vertices=vertices, edges=edges))) == []


def test_the_torus_times_interval_loop_takes_a_unimodular_monodromy():
    loop = (SeifertBounded(SeifertData(base=annulus())),)
    assert validate(desc(JsjGraph(loop, ((0, 0),), Mat2Z(0, 1, 1, 0)))) == []
    assert validate(desc(JsjGraph(loop, ((0, 0),), Mat2Z(2, 0, 0, 1)))) == [
        Violation("pieces[0].monodromy", "monodromy determinant must be +1 or -1")]


def _bounded(base, pairs=()) -> SeifertBounded:
    return SeifertBounded(SeifertData(base=base, cone_pairs=pairs))


def sph(order) -> dict:
    return {"kind": "spherical", "pi1_order": order}


def doc(*pieces, name="t") -> dict:
    return {"name": name, "pieces": list(pieces)}


def closed_json(base: dict, pairs: list, b) -> dict:
    return {"kind": "seifert_closed", "base": base, "cone_pairs": pairs, "b": b}


def bounded_json(base: dict, pairs: list = ()) -> dict:
    return {"kind": "seifert_bounded", "base": base, "cone_pairs": list(pairs)}


def jsj_json(vertices: list, edges: list, monodromy=None) -> dict:
    obj = {"kind": "jsj", "vertices": vertices, "edges": edges}
    return obj if monodromy is None else dict(obj, monodromy=monodromy)


CUSPED_JSON = {"kind": "hyperbolic_cusped", "cusps": 2}

# id -> (the JSON document, or None where only Python can build the description, the
# description built in Python, its refusals); the JSON reader refuses the base fields it
# merges itself, with the same path and words
WRONG_TYPES = {
    "float-order": (doc(sph(2.0), sph(2)), desc(Spherical(2.0), Spherical(2)),
                    [("pieces[0].pi1_order", "expected an integer, got 2.0")]),
    "bool-order": (doc(sph(True), sph(2)), desc(Spherical(True), Spherical(2)),
                   [("pieces[0].pi1_order", "expected an integer, got True")]),
    "fractional-order": (doc(sph(2.5)), desc(Spherical(2.5)),
                         [("pieces[0].pi1_order", "expected an integer, got 2.5")]),
    "string-order": (doc(sph("2")), desc(Spherical("2")),
                     [("pieces[0].pi1_order", "expected an integer, got '2'")]),
    "float-b": (doc(closed_json({"cone_orders": [3, 3, 3]}, [[3, 1]] * 3, 0.5)),
                desc(closed_seifert(sphere(3, 3, 3), ((3, 1),) * 3, 0.5)),
                [("pieces[0].b", "expected an integer, got 0.5")]),
    "bool-b": (doc(closed_json({"genus": 1}, [[2, 1]], False)),
               desc(closed_seifert(OrbifoldBase(1, True, 0, (2,)), ((2, 1),), False)),
               [("pieces[0].b", "expected an integer, got False")]),
    "bool-genus": (doc(closed_json({"genus": True}, [], 0)),
                   desc(closed_seifert(OrbifoldBase(True, True, 0), (), 0)),
                   [("pieces[0].base.genus", "expected an integer, got True")]),
    "int-orientable": (doc(closed_json({"genus": 1, "orientable": 1}, [], 0)),
                       desc(closed_seifert(OrbifoldBase(1, 1, 0), (), 0)),
                       [("pieces[0].base.orientable", "expected true or false, got 1")]),
    "float-matrix-entry": (doc({"kind": "torus_bundle", "monodromy": [[2.0, 1], [1, 1]]}),
                           desc(TorusBundle(Mat2Z(2.0, 1, 1, 1))),
                           [("pieces[0].monodromy[0][0]", "expected an integer, got 2.0")]),
    "bool-matrix-entry": (doc({"kind": "torus_bundle", "monodromy": [[2, 1], [1, True]]}),
                          desc(TorusBundle(Mat2Z(2, 1, 1, True))),
                          [("pieces[0].monodromy[1][1]", "expected an integer, got True")]),
    "float-cone-pair": (doc(closed_json({"cone_orders": [2, 3, 7]},
                                        [[2, 1], [3, 1.5], [7, 1]], -1)),
                        desc(closed_seifert(sphere(2, 3, 7), ((2, 1), (3, 1.5), (7, 1)), -1)),
                        [("pieces[0].cone_pairs[1][1]", "expected an integer, got 1.5")]),
    "bool-cone-pair-filling-the-base": (
        doc(closed_json({"genus": 1}, [[2, True]], 0)),
        desc(closed_seifert(OrbifoldBase(1, True, 0, (2,)), ((2, True),), 0)),
        [("pieces[0].cone_pairs[0][1]", "expected an integer, got True")]),
    "string-cone-pair-filling-the-base": (
        doc(closed_json({"genus": 1}, [[3, 1], ["2", 1]], 0)),
        desc(closed_seifert(OrbifoldBase(1, True, 0, (3,)), ((3, 1), ("2", 1)), 0)),
        [("pieces[0].cone_pairs[1][0]", "expected an integer, got '2'")]),
    "float-cone-order": (doc(closed_json({"genus": 1, "cone_orders": [2, 2.0]}, [[2, 1]] * 2, 0)),
                         desc(closed_seifert(OrbifoldBase(1, True, 0, (2, 2.0)), ((2, 1),) * 2, 0)),
                         [("pieces[0].base.cone_orders[1]", "expected an integer, got 2.0")]),
    "int-name": (doc(sph(2), name=3), ManifoldDescription(3, (Spherical(2),)),
                 [("name", "expected a string, got 3")]),
    "string-cusps": (doc(jsj_json([{"kind": "hyperbolic_cusped", "cusps": "1"},
                                   {"kind": "hyperbolic_cusped", "cusps": 1}], [[0, 1]])),
                     desc(JsjGraph((HyperbolicCusped("1"), HyperbolicCusped(1)), ((0, 1),))),
                     [("pieces[0].vertices[0].cusps", "expected an integer, got '1'")]),
    "float-cone-order-in-a-graph": (
        doc(jsj_json([bounded_json({"genus": 0, "boundary": 2, "cone_orders": [2.5]}, [[2.5, 1]]),
                      CUSPED_JSON], [[0, 1], [0, 1]])),
        desc(JsjGraph((_bounded(OrbifoldBase(0, True, 2, (2.5,)), ((2.5, 1),)),
                       HyperbolicCusped(2)), ((0, 1), (0, 1)))),
        [("pieces[0].vertices[0].base.cone_orders[0]", "expected an integer, got 2.5"),
         ("pieces[0].vertices[0].cone_pairs[0][0]", "expected an integer, got 2.5")]),
    "string-boundary-count": (
        doc(jsj_json([bounded_json({"boundary_count": "2"})], [[0, 0]], [[0, 1], [1, 0]])),
        desc(JsjGraph((_bounded(OrbifoldBase(0, True, "2")),), ((0, 0),), Mat2Z(0, 1, 1, 0))),
        [("pieces[0].vertices[0].base.boundary_count", "expected an integer, got '2'")]),
    "string-genus-with-a-monodromy": (
        doc(jsj_json([bounded_json({"genus": "0", "boundary": 2})], [[0, 0]], [[0, 1], [1, 0]])),
        desc(JsjGraph((_bounded(OrbifoldBase("0", True, 2)),), ((0, 0),), Mat2Z(0, 1, 1, 0))),
        [("pieces[0].vertices[0].base.genus", "expected an integer, got '0'")]),
    "float-edge": (doc(jsj_json([CUSPED_JSON], [[0, 0.0]])),
                   desc(JsjGraph((HyperbolicCusped(2),), ((0, 0.0),))),
                   [("pieces[0].edges[0][1]", "expected an integer, got 0.0")]),
    "float-edge-end-first": (doc(jsj_json([CUSPED_JSON], [[0, 0], [0.5, 0]])),
                             desc(JsjGraph((HyperbolicCusped(2),), ((0, 0), (0.5, 0)))),
                             [("pieces[0].edges[1][0]", "expected an integer, got 0.5")]),
    "vertex-of-another-type": (None, desc(JsjGraph((Spherical(2),))),
                               [("pieces[0].vertices[0]", "unknown vertex type Spherical")]),
    "closed-seifert-vertex": (None, desc(JsjGraph((SeifertClosed(SeifertData(annulus())),),
                                                  ((0, 0),))),
                              [("pieces[0].vertices[0]", "unknown vertex type SeifertClosed")]),
    "data-of-another-type": (None, desc(SeifertClosed("x")),
                             [("pieces[0]", "unknown data type str")]),
    "base-of-another-type": (None, desc(SeifertClosed(SeifertData("S2", (), 0))),
                             [("pieces[0].base", "unknown base type str")]),
    "monodromy-of-another-type": (None, desc(TorusBundle("m")),
                                  [("pieces[0].monodromy", "unknown monodromy type str")]),
    "no-monodromy": (None, desc(TorusBundle(None)),
                     [("pieces[0].monodromy", "unknown monodromy type NoneType")]),
    "graph-monodromy-of-another-type": (
        None, desc(JsjGraph((_bounded(annulus()),), ((0, 0),), "m")),
        [("pieces[0].monodromy", "unknown monodromy type str")]),
    "short-cone-pair": (None, desc(closed_seifert(sphere(2), ((2,),), 0)),
                        [("pieces[0].cone_pairs[0]", "expected a list of 2 integers, got (2,)")]),
    "short-edge": (None, desc(JsjGraph((HyperbolicCusped(1),), ((0,),))),
                   [("pieces[0].edges[0]", "expected a list of 2 integers, got (0,)")]),
    "geometry-of-another-type": (None, desc(Geometric("H3")),
                                 [("pieces[0].geometry", "unknown geometry")]),
    "piece-of-another-type": (None, desc("x"), [("pieces[0]", "unknown piece type str")]),
}


def refusals_of_json(obj: dict) -> list:
    """What the reader, or else validate, refuses in a JSON document, as printed lines."""
    try:
        description = description_from_json(obj)
    except DescriptionFormatError as exc:
        return [str(exc)]
    return [str(violation) for violation in validate(description)]


@pytest.mark.parametrize("obj,description,report", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_a_field_of_the_wrong_type_is_refused_with_its_path(obj, description, report):
    """A JSON document and the same description built in Python are refused alike, in the
    words of `wrong_type`, with the path of the field as written, before any range check,
    rewrite or evaluation reads the field.  What only Python can build, a record or a row of
    another shape, is refused alike by the encoder, and never raises another error."""
    expected = [Violation(path, message) for path, message in report]
    assert validate(description) == expected
    with pytest.raises(InvalidDescription) as info:
        compute(description)
    assert info.value.report == expected
    if obj is None:
        with pytest.raises(InvalidDescription) as info:
            description_to_json(description)
        assert info.value.report == expected
    else:
        assert refusals_of_json(obj) == [str(violation) for violation in expected]


# id -> (the JSON document, the same description built in Python, its refusals)
AS_WRITTEN = {
    "pair": (doc(closed_json({"surface": "sphere"}, [[3, 1], [2, 2], [5, 1]], 0)),
             desc(closed_seifert(sphere(3, 2, 5), ((3, 1), (2, 2), (5, 1)), 0)),
             [("pieces[0].cone_pairs[1]", "gcd(2, 2) != 1")]),
    "cone-order": (doc(closed_json({"cone_orders": [3, 1, 2]}, [[3, 1], [2, 1]], 0)),
                   desc(closed_seifert(sphere(3, 1, 2), ((3, 1), (2, 1)), 0)),
                   [("pieces[0].base.cone_orders[1]", "cone orders must be >= 2"),
                    ("pieces[0].cone_pairs", "cone order mismatch: pairs carry orders [2, 3] "
                                             "but the base carries [1, 2, 3]")]),
    "edge": (doc(jsj_json([{"kind": "hyperbolic_cusped", "cusps": 4}], [[0, 0], [5, 0]])),
             desc(JsjGraph((HyperbolicCusped(4),), ((0, 0), (5, 0)))),
             [("pieces[0].edges[1]", "vertex index out of range: (5, 0)")]),
    "alpha": (doc(closed_json({"cone_orders": [2, 3, 7]}, [[1, 0], [3, 1], [7, 1]], -1)),
              desc(closed_seifert(sphere(2, 3, 7), ((1, 0), (3, 1), (7, 1)), -1)),
              [("pieces[0].cone_pairs[0]", "alpha must be >= 2"),
               ("pieces[0].cone_pairs", "cone order mismatch: pairs carry orders [1, 3, 7] "
                                        "but the base carries [2, 3, 7]")]),
    "bounded-vertex-over-a-closed-base": (
        doc(jsj_json([bounded_json({"cone_orders": [2, 3, 7]}, [[2, 1], [3, 1], [7, 1]])], [])),
        desc(JsjGraph((_bounded(sphere(2, 3, 7), ((2, 1), (3, 1), (7, 1))),), ())),
        [("pieces[0].vertices[0].base", "bounded Seifert piece over a closed base")]),
    "graph-without-vertices": (doc(jsj_json([], [])), desc(JsjGraph((), ())),
                               [("pieces[0].vertices", "graph needs at least one vertex")]),
}


@pytest.mark.parametrize("obj,description,report", AS_WRITTEN.values(), ids=AS_WRITTEN)
def test_paths_index_the_file_as_written(obj, description, report):
    """A refusal names the entry at its index in the file, and prints it as written."""
    expected = [Violation(path, message) for path, message in report]
    assert description_from_json(obj) == description
    assert validate(description) == expected
    assert refusals_of_json(obj) == [str(violation) for violation in expected]


def test_corpus_descriptions_validate_cleanly():
    for name in corpus.names():
        assert validate(corpus.load(name)) == [], name


# --- normalization ---

def test_trivial_summands_dropped():
    d = normalize(desc(Spherical(1), Spherical(2), Spherical(1)))
    assert d.pieces == (Spherical(2),)


def test_all_trivial_collapses_to_single_trivial_piece():
    d = normalize(desc(Spherical(1), Spherical(1)))
    assert d.pieces == (Spherical(1),)


def test_klein_double_shape_rewrites():
    twisted = SeifertBounded(SeifertData(base=mobius_band()))
    cone_twisted = SeifertBounded(SeifertData(base=disk(2, 2), cone_pairs=((2, 1), (2, 1))))
    graph = JsjGraph(vertices=(twisted, cone_twisted), edges=((0, 1),))
    d = normalize(desc(graph))
    assert d.pieces == (KleinDouble(),)


def test_self_glued_torus_x_interval_rewrites_with_monodromy():
    graph = JsjGraph(
        vertices=(SeifertBounded(SeifertData(base=annulus())),),
        edges=((0, 0),),
        monodromy=Mat2Z(2, 1, 1, 1),
    )
    d = normalize(desc(graph))
    assert d.pieces == (TorusBundle(Mat2Z(2, 1, 1, 1)),)


def test_self_glued_torus_x_interval_without_monodromy_is_ambiguous():
    graph = JsjGraph(
        vertices=(SeifertBounded(SeifertData(base=annulus())),),
        edges=((0, 0),),
    )
    with pytest.raises(NormalizationAmbiguous):
        normalize(desc(graph))


def test_an_ambiguous_rewrite_names_the_piece_as_written():
    graph = JsjGraph(vertices=(SeifertBounded(SeifertData(base=annulus())),), edges=((0, 0),))
    with pytest.raises(NormalizationAmbiguous, match=r"^pieces\[2\]: a torus-times-interval "):
        normalize(desc(Spherical(1), Spherical(3), graph))


TWISTED = [SeifertBounded(SeifertData(base=mobius_band())),
           SeifertBounded(SeifertData(base=disk(2, 2), cone_pairs=((2, 1), (2, 1))))]
PRODUCT = SeifertBounded(SeifertData(base=annulus()))
REWRITABLE = [JsjGraph((a, b), ((0, 1),)) for a in TWISTED for b in TWISTED] + [
    JsjGraph((PRODUCT,), ((0, 0),), m)
    for m in (Mat2Z(2, 1, 1, 1), Mat2Z(0, -1, 1, 0), Mat2Z(1, 1, 0, 1), Mat2Z(0, 1, 1, 0))]
# (piece, the one violation it carries, relative to its own path)
INVALID = [
    (Spherical(0), ".pi1_order"),
    (TorusBundle(Mat2Z(2, 0, 0, 1)), ".monodromy"),
    (JsjGraph((HyperbolicCusped(2),), ()), ".vertices[0]"),
    (JsjGraph((SeifertBounded(SeifertData(base=mobius_band(), b=7)), TWISTED[0]), ((0, 1),)),
     ".vertices[0].b"),
    (JsjGraph((SeifertBounded(SeifertData(base=annulus(), b=3)),), ((0, 0),), Mat2Z(2, 1, 1, 1)),
     ".vertices[0].b"),
    (JsjGraph((SeifertBounded(SeifertData(base=OrbifoldBase(0, False, 2))),), ((0, 0),),
              Mat2Z(2, 1, 1, 1)), ".vertices[0].base.genus"),
    (JsjGraph(tuple(TWISTED), ((0, 1),), Mat2Z(1, 0, 0, 1)), ".monodromy"),
]


@given(seed=st.integers(0, 10_000), data=st.data())
def test_normalize_validates_the_description_as_written(seed, data):
    """Trivial summands and rewritable graphs anywhere: the output validates and is a fixed
    point; an invalid piece is refused with the path of the piece in the input."""
    pieces = list(random_description(seed).pieces)
    for extra in data.draw(st.lists(st.sampled_from([Spherical(1)] + REWRITABLE), max_size=5)):
        pieces.insert(data.draw(st.integers(0, len(pieces))), extra)
    invalid = data.draw(st.none() | st.sampled_from(INVALID))
    if invalid is None:
        n = normalize(desc(*pieces))
        assert validate(n) == []
        assert normalize(n) == n
        assert n.pieces == (Spherical(1),) or Spherical(1) not in n.pieces
        assert not any(p in REWRITABLE for p in n.pieces)
        return
    piece, field = invalid
    at = data.draw(st.integers(0, len(pieces)))
    pieces.insert(at, piece)
    with pytest.raises(InvalidDescription) as info:
        normalize(desc(*pieces))
    assert [v.path for v in info.value.report] == [f"pieces[{at}]{field}"]
    assert info.value.report == validate(desc(*pieces))


def test_normalize_validates_once_before_any_rewrite(monkeypatch):
    import gdim3.model as model

    calls = []
    validate_, rewrite = model.validate, model._rewrite_jsj
    monkeypatch.setattr(model, "validate", lambda d: calls.append("validate") or validate_(d))
    monkeypatch.setattr(model, "_rewrite_jsj",
                        lambda piece, path: calls.append(f"rewrite {path}") or rewrite(piece, path))
    d = desc(Spherical(1), REWRITABLE[0], REWRITABLE[-1])
    assert normalize(d).pieces == (KleinDouble(), TorusBundle(Mat2Z(0, 1, 1, 0)))
    assert calls == ["validate", "rewrite pieces[0]", "rewrite pieces[1]", "rewrite pieces[2]"]


def test_normalize_raises_on_hard_violations():
    with pytest.raises(InvalidDescription) as info:
        normalize(desc(Spherical(0)))
    assert info.value.report


@given(st.integers(0, 10_000))
def test_random_descriptions_validate_and_normalize_idempotently(seed):
    d = random_description(seed)
    assert validate(d) == []
    n = normalize(d)
    assert normalize(n) == n


# --- JSON wire format ---

@given(st.integers(0, 10_000))
def test_json_round_trip(seed):
    """The wire form is canonical, so it round-trips, and so does a record read from it."""
    obj = description_to_json(random_description(seed))
    d = description_from_json(obj)
    assert description_to_json(d) == obj
    assert description_from_json(description_to_json(d)) == d


def test_a_bundled_file_with_a_repeated_key_is_refused(tmp_path, monkeypatch):
    """The corpus reads its files as load_description does, so the last key does not win."""
    (tmp_path / "twice.json").write_text(
        '{"pieces": [{"kind": "spherical", "pi1_order": 2, "pi1_order": 3}]}', encoding="utf-8")
    monkeypatch.setattr(corpus, "resources", SimpleNamespace(files=lambda package: tmp_path))
    assert corpus.names() == ["twice"]
    with pytest.raises(DescriptionFormatError, match="duplicate key 'pi1_order'"):
        corpus.load("twice")


def test_the_corpus_loads_only_the_names_it_lists():
    """A path that reaches a bundled file by another name is no name of the corpus."""
    assert "rp3_rp3" in corpus.names()
    for name in ("../corpus/rp3_rp3", "./rp3_rp3", "rp3_rp3/../rp3_rp3"):
        with pytest.raises(KeyError) as info:
            corpus.load(name)
        assert info.value.args == (f"no bundled description named {name!r}; see `gdim3 corpus`",)
    assert corpus.load("rp3_rp3").name == "rp3_rp3"


def test_corpus_round_trips():
    for name in corpus.names():
        d = corpus.load(name)
        assert description_from_json(description_to_json(d)) == d


def test_unknown_piece_kind_rejected():
    with pytest.raises(DescriptionFormatError):
        description_from_json({"name": "x", "pieces": [{"kind": "lens"}]})


def test_unknown_geometry_rejected():
    with pytest.raises(DescriptionFormatError):
        description_from_json(
            {"name": "x", "pieces": [{"kind": "geometric", "geometry": "F4"}]}
        )


def test_malformed_monodromy_rejected():
    with pytest.raises(DescriptionFormatError):
        description_from_json(
            {"name": "x", "pieces": [{"kind": "torus_bundle", "monodromy": [[1, 2, 3]]}]}
        )


def test_pieces_must_be_a_list():
    with pytest.raises(DescriptionFormatError):
        description_from_json({"name": "x"})


def test_load_description_reports_json_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DescriptionFormatError):
        load_description(str(path))


def test_load_description_names_the_path_of_an_unreadable_file(tmp_path):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"\xff{}")
    for path in (tmp_path, latin1):
        with pytest.raises(DescriptionFormatError, match=f"^{re.escape(str(path))}: "):
            load_description(str(path))
    with pytest.raises(FileNotFoundError):
        load_description(str(tmp_path / "missing.json"))


def test_base_cone_orders_default_from_pairs():
    d = description_from_json(
        {
            "name": "x",
            "pieces": [
                {
                    "kind": "seifert_closed",
                    "base": {"genus": 0, "orientable": True, "boundary_count": 0},
                    "cone_pairs": [[3, 1], [2, 1]],
                    "b": -1,
                }
            ],
        }
    )
    piece = d.pieces[0]
    assert piece.data.base.cone_orders == (3, 2)
    assert validate(d) == []
    assert description_to_json(d)["pieces"][0]["base"]["cone_orders"] == [2, 3]


def closed_over(base: dict, b: int = 0) -> dict:
    return {"name": "x", "pieces": [
        {"kind": "seifert_closed", "base": base, "cone_pairs": [], "b": b},
    ]}


@pytest.mark.parametrize("base,expected", [
    ({"surface": "sphere"}, OrbifoldBase(genus=0, orientable=True)),
    ({"surface": "torus", "cone_orders": []}, OrbifoldBase(genus=1, orientable=True)),
    ({"surface": "projective-plane"}, OrbifoldBase(genus=1, orientable=False)),
    ({"surface": "klein-bottle"}, OrbifoldBase(genus=2, orientable=False)),
    ({"genus": 1, "nonorientable": True}, OrbifoldBase(genus=1, orientable=False)),
    ({"genus": 2, "nonorientable": False, "boundary": 1},
     OrbifoldBase(genus=2, orientable=True, boundary_count=1)),
    ({"surface": "sphere", "boundary": 1}, OrbifoldBase(genus=0, orientable=True, boundary_count=1)),
    ({"surface": "torus", "genus": 1, "orientable": True, "boundary_count": 0},
     OrbifoldBase(genus=1, orientable=True)),
])
def test_readme_base_fields_are_read(base, expected):
    (piece,) = description_from_json(closed_over(base)).pieces
    assert piece.data.base == expected


def test_three_torus_over_the_readme_torus_base_is_flat():
    report = compute(description_from_json(closed_over({"surface": "torus", "cone_orders": []})))
    assert (report.value(2), report.value(3)) == (5, 0)


@pytest.mark.parametrize("base", [
    {"surface": "donut"},
    {"surface": ["torus"]},
    {"surface": "disk"},            # the bounded surfaces of classify-orbifold --surface
    {"surface": "annulus"},
    {"surface": "mobius-band"},
    {"genus": 1, "colour": "red"},
    {"surface": "torus", "genus": 2},
    {"surface": "klein-bottle", "nonorientable": False},
    {"orientable": True, "nonorientable": True},
    {"boundary": 1, "boundary_count": 2},
])
def test_unknown_or_conflicting_base_fields_are_refused(base):
    with pytest.raises(DescriptionFormatError):
        description_from_json(closed_over(base))


def seifert(**fields):
    piece = {"kind": "seifert_closed", "base": {"genus": 1}, "cone_pairs": [[2, 1]], "b": 0}
    piece.update(fields)
    return piece


@pytest.mark.parametrize("piece,path", [
    ({"kind": "spherical", "pi1_order": "x"}, "pieces[1].pi1_order"),
    ({"kind": "spherical", "pi1_order": True}, "pieces[1].pi1_order"),
    ({"kind": "spherical", "pi1_order": 2.7}, "pieces[1].pi1_order"),
    ({"kind": "spherical", "pi1_order": 2.0}, "pieces[1].pi1_order"),
    ({"kind": "spherical"}, "pieces[1].pi1_order"),
    (seifert(base={"genus": 2.9}), "pieces[1].base.genus"),
    (seifert(base={"genus": 1, "orientable": "false"}), "pieces[1].base.orientable"),
    (seifert(base={"genus": 1, "nonorientable": 1}), "pieces[1].base.nonorientable"),
    (seifert(base={"boundary": "0"}), "pieces[1].base.boundary"),
    (seifert(base={"boundary_count": None}), "pieces[1].base.boundary_count"),
    (seifert(base={"cone_orders": [2.0]}), "pieces[1].base.cone_orders[0]"),
    (seifert(base={"cone_orders": 2}), "pieces[1].base.cone_orders"),
    (seifert(b=1.5), "pieces[1].b"),
    (seifert(b=False), "pieces[1].b"),
    (seifert(cone_pairs=[[2, True]]), "pieces[1].cone_pairs[0][1]"),
    (seifert(cone_pairs=[[2]]), "pieces[1].cone_pairs[0]"),
    (seifert(cone_pairs=[2, 1]), "pieces[1].cone_pairs[0]"),
    ({"kind": "torus_bundle", "monodromy": [[2, 1], [1, True]]}, "pieces[1].monodromy[1][1]"),
    ({"kind": "torus_bundle", "monodromy": [[1, 0]]}, "pieces[1].monodromy"),
    ({"kind": "jsj", "vertices": [{"kind": "hyperbolic_cusped", "cusps": "2"}],
      "edges": [[0, 0]]}, "pieces[1].vertices[0].cusps"),
    ({"kind": "jsj", "vertices": [{"kind": "hyperbolic_cusped", "cusps": 2}],
      "edges": [[0, 0.0]]}, "pieces[1].edges[0][1]"),
])
def test_scalar_fields_are_read_strictly(piece, path):
    """Integers are JSON integers and booleans JSON booleans; the one refusal, by the reader
    or by validate, names the path."""
    obj = {"name": "x", "pieces": [{"kind": "spherical", "pi1_order": 2}, piece]}
    refusals = refusals_of_json(obj)
    assert len(refusals) == 1 and refusals[0].startswith(path + ": "), refusals


@pytest.mark.parametrize("piece,path", [
    ({"kind": "spherical"}, "pieces[1].pi1_order"),
    (seifert(base={"genus": 2.9}), "pieces[1].base.genus"),
    (seifert(base={"genus": 1, "orientable": "false"}), "pieces[1].base.orientable"),
    (seifert(base={"genus": 1, "nonorientable": 1}), "pieces[1].base.nonorientable"),
    (seifert(base={"boundary": "0"}), "pieces[1].base.boundary"),
    (seifert(base={"boundary_count": None}), "pieces[1].base.boundary_count"),
    (seifert(base={"cone_orders": 2}), "pieces[1].base.cone_orders"),
    (seifert(cone_pairs=[[2]]), "pieces[1].cone_pairs[0]"),
    (seifert(cone_pairs=[2, 1]), "pieces[1].cone_pairs[0]"),
    ({"kind": "torus_bundle", "monodromy": [[1, 0]]}, "pieces[1].monodromy"),
    ({"kind": "jsj", "vertices": {"kind": "hyperbolic_cusped"}}, "pieces[1].vertices"),
    (seifert(base=5), "pieces[1].base"),
])
def test_the_reader_refuses_what_it_cannot_build_with_its_path(piece, path):
    """A missing group order, a wrong shape, and a base field that is merged or negated;
    validate types every other field."""
    obj = {"name": "x", "pieces": [{"kind": "spherical", "pi1_order": 2}, piece]}
    with pytest.raises(DescriptionFormatError, match="^" + re.escape(path) + ": "):
        description_from_json(obj)


@pytest.mark.parametrize("piece,path", [
    ({"kind": "seifert_closed", "cone_pairs": [[2, 1], [3, 1], [5, 1]], "b": -1},
     "pieces[1].base"),
    ({"kind": "jsj", "vertices": [{"kind": "hyperbolic_cusped"}]}, "pieces[1].vertices[0].cusps"),
    ({"kind": "jsj", "vertices": [{"kind": "seifert_bounded", "cone_pairs": [[2, 1]]}]},
     "pieces[1].vertices[0].base"),
    ({"kind": "jsj"}, "pieces[1].vertices"),
    ({"kind": "jsj", "edges": [[0, 0]]}, "pieces[1].vertices"),
    ({"kind": "jsj", "vertices": [{"kind": "hyperbolic_cusped", "cusps": 2}]}, "pieces[1].edges"),
])
def test_a_missing_required_field_is_refused_with_its_path(piece, path):
    """Nothing stands in for a missing base, cusp count, or graph vertex or edge list."""
    obj = {"name": "x", "pieces": [{"kind": "spherical", "pi1_order": 2}, piece]}
    with pytest.raises(DescriptionFormatError, match="^" + re.escape(path) + ": missing$"):
        description_from_json(obj)


@pytest.mark.parametrize("piece,path", [
    (SeifertClosed(SeifertData(sphere(2, "3"), ((2, 1), ("3", 1)), 0)),
     "pieces[0].cone_pairs[1][0]"),
    (JsjGraph((HyperbolicCusped(1), HyperbolicCusped(1)), ((0, "1"),)), "pieces[0].edges[0][1]"),
])
def test_the_encoder_refuses_a_description_that_validate_refuses(piece, path):
    """Mixed types cannot be put in ascending order; the refusal is validate's report."""
    desc = ManifoldDescription("x", (piece,))
    with pytest.raises(InvalidDescription) as raised:
        description_to_json(desc)
    assert raised.value.report == validate(desc)
    assert Violation(path, "expected an integer, got '3'" if "cone" in path
                     else "expected an integer, got '1'") in raised.value.report


SPHERICAL = {"kind": "spherical", "pi1_order": 2}
HYPERBOLIC_LOOP = {"kind": "jsj", "vertices": [{"kind": "hyperbolic_cusped", "cusps": 2}],
                   "edges": [[0, 0]]}


def with_vertex(**fields):
    vertex = {"kind": "seifert_bounded", "base": {"genus": 0, "boundary": 1},
              "cone_pairs": [[2, 1], [3, 1]]}
    vertex.update(fields)
    return {"kind": "jsj", "vertices": [vertex, {"kind": "hyperbolic_cusped", "cusps": 1}],
            "edges": [[0, 1]]}


@pytest.mark.parametrize("obj,path", [
    ({"name": "x", "extra": 1, "pieces": [SPHERICAL]}, "extra"),
    ({"name": "x", "pieces": [dict(SPHERICAL, bogus=0)]}, "pieces[0].bogus"),
    ({"name": "x", "pieces": [{"kind": "torus_bundle", "monodromy": [[2, 1], [1, 1]],
                              "cusps": 1}]}, "pieces[0].cusps"),
    ({"pieces": [SPHERICAL, {"kind": "geometric", "geometry": "Nil", "pi1_order": 2}]},
     "pieces[1].pi1_order"),
    ({"pieces": [{"kind": "klein_double", "geometry": "Sol"}]}, "pieces[0].geometry"),
    ({"pieces": [seifert(cusps=2)]}, "pieces[0].cusps"),
    ({"pieces": [dict(HYPERBOLIC_LOOP, b=0)]}, "pieces[0].b"),
    ({"pieces": [{"kind": "jsj", "edges": [[0, 0]],
                  "vertices": [{"kind": "hyperbolic_cusped", "cusps": 2, "base": {}}]}]},
     "pieces[0].vertices[0].base"),
    ({"pieces": [with_vertex(cusps=1)]}, "pieces[0].vertices[0].cusps"),
    ({"pieces": [seifert(base={"genus": 1, "colour": "red"})]}, "pieces[0].base.colour"),
    ({"pieces": [with_vertex(base={"genus": 0, "boundary": 1, "holes": 1})]},
     "pieces[0].vertices[0].base.holes"),
    ({"pieces": [dict(SPHERICAL, first=1, second=2)]}, "pieces[0].first"),
])
def test_unknown_fields_are_refused_at_every_level(obj, path):
    """The first unknown field, in document order, is named by its path."""
    with pytest.raises(DescriptionFormatError,
                       match="^" + re.escape(path) + r": unknown field, expected one of \["):
        description_from_json(obj)


# the fields that a reader of a description may find missing and fill in, and those that it
# refuses as missing
OPTIONAL = {"name", "b", "genus", "orientable", "boundary_count", "cone_orders", "cone_pairs"}
REQUIRED = {"pi1_order", "base", "cusps", "vertices", "edges"}


def _places(obj):
    """Every (container, key) in a JSON document, outermost first."""
    for key, value in list(obj.items() if isinstance(obj, dict) else enumerate(obj)):
        yield obj, key
        if isinstance(value, (dict, list)):
            yield from _places(value)


def _fields(obj, path: str = ""):
    """Every (object, key, path of the object) of the JSON objects in a document, outermost
    first, with paths as the reader writes them."""
    for key, value in list(obj.items() if isinstance(obj, dict) else enumerate(obj)):
        if isinstance(obj, dict):
            yield obj, key, path
        inner = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
        if isinstance(value, (dict, list)):
            yield from _fields(value, inner)


def _in_file(obj, keys) -> bool:
    for key in keys:
        if isinstance(key, int):
            if not isinstance(obj, list) or not 0 <= key < len(obj):
                return False
        elif not isinstance(obj, dict) or key not in obj:
            return False
        obj = obj[key]
    return True


def _keys(path: str) -> tuple:
    return tuple(int(index) if index else name
                 for name, index in re.findall(r"([A-Za-z_][A-Za-z_0-9]*)|\[(\d+)\]", path))


@settings(max_examples=200)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_no_path_is_reported_for_a_field_missing_from_the_file(seed, data):
    """Delete fields of a valid document and spoil some entries: every refusal's path runs
    through the file.  A path may name a field the file omits only when the omission is the
    fault (a missing `b`, too few cusps); a type refusal, or an entry of a list (such as cone
    orders that the reader fills in from the pairs), is always in the file.  The reader
    refuses a document that lacks a required field, and a `<path>.<key>: missing` refusal
    names a field that was dropped."""
    obj = description_to_json(random_description(seed))
    dropped = set()   # the paths of the required fields deleted
    for container, key, path in list(_fields(obj)):
        if key in OPTIONAL | REQUIRED and data.draw(st.booleans()):
            del container[key]
            if key in REQUIRED:
                dropped.add(f"{path}.{key}")
    leaves = [(container, key) for container, key in _places(obj)
              if key != "kind" and not isinstance(container[key], (dict, list))]
    spoiled = data.draw(st.lists(st.sampled_from(leaves), max_size=3)
                        if leaves else st.just([]))
    for container, key in spoiled:
        container[key] = data.draw(st.sampled_from([1, 0, 2.0, True, "2", None]))
    try:
        description = description_from_json(obj)
    except DescriptionFormatError as exc:
        # nothing stands in for a required field, and its refusal names it
        missing = re.fullmatch(r"(.*): missing", str(exc))
        if missing:
            assert missing[1] in dropped, (str(exc), obj)
        else:
            assert spoiled, (str(exc), obj)
        return
    assert not dropped, (dropped, obj)
    for violation in validate(description):
        keys = _keys(violation.path)
        assert _in_file(obj, keys[:-1]), (violation, obj)
        if isinstance(keys[-1], int) or violation.message.startswith("expected "):
            assert _in_file(obj, keys), (violation, obj)


def test_fields_that_validation_judges_are_still_read():
    """b on a bounded vertex and a misplaced graph monodromy reach validate and its message."""
    d = description_from_json({"pieces": [with_vertex(b=7)]})
    assert validate(d) == [
        Violation("pieces[0].vertices[0].b", "bounded Seifert data must not carry b")]
    d = description_from_json({"pieces": [dict(HYPERBOLIC_LOOP, monodromy=[[2, 1], [1, 1]])]})
    assert validate(d) == [Violation("pieces[0].monodromy", MONODROMY_MISPLACED)]


@pytest.mark.parametrize("name", [None, {"a": 1}, ["x"], 7, True])
def test_a_name_that_is_not_a_string_is_refused(name):
    obj = {"name": name, "pieces": [{"kind": "spherical", "pi1_order": 2}]}
    assert validate(description_from_json(obj)) == [
        Violation("name", f"expected a string, got {name!r}")]


def test_a_missing_name_is_empty():
    d = description_from_json({"pieces": [{"kind": "spherical", "pi1_order": 2}]})
    assert d.name == "" and description_to_json(d)["name"] == ""


def test_strict_readers_accept_the_written_spelling():
    d = description_from_json(closed_over({"genus": 2, "orientable": False,
                                            "boundary_count": 0}))
    assert d.pieces[0].data.base.genus == 2 and not d.pieces[0].data.base.orientable
    assert description_from_json(description_to_json(d)) == d
