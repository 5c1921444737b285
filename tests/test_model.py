import json
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdim3 import compute, corpus
from gdim3.gl2z import Mat2Z
from gdim3.model import (
    DescriptionFormatError,
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


def test_cone_pairs_are_stored_sorted():
    a = SeifertData(base=sphere(2, 3), cone_pairs=((3, 1), (2, 1)), b=0)
    b = SeifertData(base=sphere(2, 3), cone_pairs=((2, 1), (3, 1)), b=0)
    assert a == b


# --- validation ---

def test_empty_description_is_rejected():
    report = validate(desc())
    assert any(v.path == "pieces" for v in report)


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


def test_klein_double_shape_flagged_by_validate():
    twisted = SeifertBounded(SeifertData(base=mobius_band()))
    graph = JsjGraph(vertices=(twisted, twisted), edges=((0, 1),))
    report = validate(desc(graph))
    assert any("KleinDouble" in v.message for v in report)


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
    d = random_description(seed)
    assert description_from_json(description_to_json(d)) == d


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
    assert piece.data.base.cone_orders == (2, 3)
    assert validate(d) == []


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
    ({"kind": "jsj", "vertices": [{"kind": "hyperbolic_cusped", "cusps": "2"}]},
     "pieces[1].vertices[0].cusps"),
    ({"kind": "jsj", "vertices": [{"kind": "hyperbolic_cusped", "cusps": 2}],
      "edges": [[0, 0.0]]}, "pieces[1].edges[0][1]"),
])
def test_scalar_fields_are_read_strictly(piece, path):
    """Integers are JSON integers and booleans JSON booleans; errors name the path."""
    obj = {"name": "x", "pieces": [{"kind": "spherical", "pi1_order": 2}, piece]}
    with pytest.raises(DescriptionFormatError, match="^" + re.escape(path) + ": "):
        description_from_json(obj)


@pytest.mark.parametrize("name", [None, {"a": 1}, ["x"], 7, True])
def test_a_name_that_is_not_a_string_is_refused(name):
    obj = {"name": name, "pieces": [{"kind": "spherical", "pi1_order": 2}]}
    with pytest.raises(DescriptionFormatError,
                       match="^" + re.escape(f"name: expected a string, got {name!r}") + "$"):
        description_from_json(obj)


def test_a_missing_name_is_empty():
    d = description_from_json({"pieces": [{"kind": "spherical", "pi1_order": 2}]})
    assert d.name == "" and description_to_json(d)["name"] == ""


def test_strict_readers_accept_the_written_spelling():
    d = description_from_json(closed_over({"genus": 2, "orientable": False,
                                            "boundary_count": 0}))
    assert d.pieces[0].data.base.genus == 2 and not d.pieces[0].data.base.orientable
    assert description_from_json(description_to_json(d)) == d
