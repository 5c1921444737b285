import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdim3 import corpus, dimension, model, orbifold2
from gdim3.dimension import (
    ALLOWED_VALUES,
    RULES,
    GdResult,
    TraceStep,
    compute,
    evaluate_piece,
)
from gdim3.geometry import Geometry
from gdim3.gl2z import Mat2Z
from gdim3.model import (
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
)
from gdim3.orbifold2 import OrbifoldClass, annulus, classify_base, disk, mobius_band, sphere

from randgen import random_description, random_jsj
from test_model import REWRITABLE


def both(piece):
    return (evaluate_piece(piece, 2).value, evaluate_piece(piece, 3).value)


SEIFERT_SPHERICAL = SeifertClosed(
    SeifertData(base=sphere(2, 2, 3), cone_pairs=((2, 1), (2, 1), (3, 1)), b=-1)
)
SEIFERT_HYPERBOLIC = SeifertClosed(
    SeifertData(base=sphere(2, 3, 7), cone_pairs=((2, 1), (3, 1), (7, 1)), b=-1)
)
SEIFERT_FLAT_E0 = SeifertClosed(
    SeifertData(base=sphere(2, 4, 4), cone_pairs=((2, 1), (4, 1), (4, 1)), b=-1)
)
SEIFERT_FLAT_NIL = SeifertClosed(
    SeifertData(base=sphere(2, 4, 4), cone_pairs=((2, 1), (4, 1), (4, 1)), b=0)
)
SEIFERT_BOUNDED_HYP = SeifertBounded(
    SeifertData(base=disk(2, 3), cone_pairs=((2, 1), (3, 1)))
)
TWISTED_I_BUNDLE = SeifertBounded(SeifertData(base=mobius_band()))

ELLIPTIC = Mat2Z(0, -1, 1, 0)
PARABOLIC = Mat2Z(1, 3, 0, 1)
ANOSOV = Mat2Z(2, 1, 1, 1)


# --- the piece table ---

def test_piece_table_row_values():
    assert both(HyperbolicCusped(1)) == (3, 3)
    assert both(Geometric(Geometry.H3)) == (3, 3)
    assert both(SEIFERT_SPHERICAL) == (0, 0)
    assert both(SEIFERT_HYPERBOLIC) == (2, 2)
    assert both(SEIFERT_BOUNDED_HYP) == (2, 2)
    assert both(SEIFERT_FLAT_E0) == (5, 0)
    assert both(SEIFERT_FLAT_NIL) == (3, 3)
    assert both(TWISTED_I_BUNDLE) == (0, 0)


def test_geometric_pieces_cover_all_eight_geometries():
    expected = {
        Geometry.S3: (0, 0),
        Geometry.S2xE: (0, 0),
        Geometry.E3: (5, 0),
        Geometry.NIL: (3, 3),
        Geometry.H2xE: (2, 2),
        Geometry.PSL2R: (2, 2),
        Geometry.SOL: (2, 2),
        Geometry.H3: (3, 3),
    }
    for geometry, values in expected.items():
        assert both(Geometric(geometry)) == values, geometry


def test_elementary_base_costs_nothing():
    solid = SeifertBounded(SeifertData(base=disk(3), cone_pairs=((3, 1),)))
    result = evaluate_piece(solid, 2)
    assert result.value == 0
    assert result.trace[-1].rule == "Elementary-piece"


def test_spherical_pieces_are_free():
    for n in (1, 2, 8, 120):
        assert both(Spherical(n)) == (0, 0)


# --- torus bundles ---

def test_monodromy_class_decides_the_value():
    assert both(TorusBundle(ELLIPTIC)) == (5, 0)
    assert both(TorusBundle(PARABOLIC)) == (3, 3)
    assert both(TorusBundle(ANOSOV)) == (2, 2)


def test_torus_bundle_rules_are_named_for_their_class():
    assert evaluate_piece(TorusBundle(ELLIPTIC), 2).trace[-1].rule == "Thm4.5-elliptic"
    assert evaluate_piece(TorusBundle(PARABOLIC), 2).trace[-1].rule == "Thm4.5-parabolic"
    assert evaluate_piece(TorusBundle(ANOSOV), 2).trace[-1].rule == "Thm4.5-hyperbolic"


# --- family index ---

def test_family_index_rejects_small_k():
    report = compute(corpus.load("e3_rp3"))
    for k in (1, 0, -3):
        with pytest.raises(ValueError, match=f"family index must be >= 2, got {k}"):
            evaluate_piece(Spherical(2), k)
        with pytest.raises(ValueError, match=f"family index must be >= 2, got {k}"):
            report.value(k)


@pytest.mark.parametrize("k", [2.5, "3", True])
def test_a_family_index_that_is_no_integer_is_refused(k):
    """In the words of the tree calls, and before the range check: True is no index 1."""
    report = compute(corpus.load("e3_rp3"))
    for call in (lambda: evaluate_piece(Spherical(2), k), lambda: report.value(k)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"family index: expected an integer, got {k!r}"


def test_family_index_clamps_at_three():
    report = compute(corpus.load("e3_rp3"))
    assert (report.value(2), report.value(3), report.value(7)) == (5, 2, 2)
    flat = Geometric(Geometry.E3)
    assert evaluate_piece(flat, 2).value == 5
    assert evaluate_piece(flat, 7) == evaluate_piece(flat, 3)
    assert evaluate_piece(flat, 7, "pieces[0]").trace == report.k3plus.trace[:1]


@given(st.integers(3, 50))
def test_values_stabilise_from_k_equals_three(k):
    for piece in (SEIFERT_FLAT_E0, Geometric(Geometry.E3), TorusBundle(ELLIPTIC)):
        assert evaluate_piece(piece, k).value == evaluate_piece(piece, 3).value


def test_corpus_values_stabilise():
    for name in corpus.names():
        report = compute(corpus.load(name))
        assert report.value(3) == report.value(7) == report.k3plus.value
        for piece in report.description.pieces:
            assert evaluate_piece(piece, 3) == evaluate_piece(piece, 7)


# --- family membership ---

def in_family(piece, k):
    """A group lies in the family exactly when its value is 0."""
    return evaluate_piece(piece, k).value == 0


def test_in_family():
    assert in_family(Spherical(8), 2)
    assert in_family(Geometric(Geometry.S2xE), 2)
    assert not in_family(Geometric(Geometry.E3), 2)
    assert in_family(Geometric(Geometry.E3), 3)
    assert in_family(TorusBundle(ELLIPTIC), 3)
    assert not in_family(TorusBundle(ELLIPTIC), 2)
    assert in_family(SEIFERT_FLAT_E0, 3)
    assert not in_family(Geometric(Geometry.H3), 3)
    assert not in_family(KleinDouble(), 3)
    assert not in_family(SEIFERT_FLAT_NIL, 3)


# --- graph combination ---

def test_jsj_takes_the_maximum_over_vertices():
    graph = JsjGraph(
        vertices=(HyperbolicCusped(1), SEIFERT_BOUNDED_HYP),
        edges=((0, 1),),
    )
    result = evaluate_piece(graph, 2)
    assert result.value == 3
    assert result.trace[-1].rule == "Thm1.2-max"
    assert [s.value for s in result.trace[:-1]] == [3, 2]


def test_unknown_piece_types_are_unsupported():
    with pytest.raises(InvalidDescription, match=r"^piece: unknown piece type str$"):
        evaluate_piece("S3", 2)


@pytest.mark.parametrize("desc", ["x", None, (Spherical(2),), Spherical(2)])
def test_compute_refuses_what_is_no_description(desc):
    kind = type(desc).__name__
    with pytest.raises(InvalidDescription) as info:
        compute(desc)
    assert info.value.report == [Violation("description", f"unknown description type {kind}")]


# --- one piece, checked and rewritten as compute checks and rewrites it ---

@given(st.integers(0, 10_000))
def test_evaluate_piece_agrees_with_compute_on_every_piece(seed):
    """A piece alone takes the steps compute takes for it, before the Thm 1.1 step."""
    for piece in random_description(seed).pieces + tuple(REWRITABLE):
        report = compute(ManifoldDescription("", (piece,)))
        for k, column in ((2, report.k2), (3, report.k3plus)):
            assert evaluate_piece(piece, k, "pieces[0]").trace == column.trace[:-1]


PRODUCT = SeifertBounded(SeifertData(base=annulus()))


@pytest.mark.parametrize("graph,rule", [
    (JsjGraph((TWISTED_I_BUNDLE, TWISTED_I_BUNDLE), ((0, 1),)), "Prop5.1-sol"),
    (JsjGraph((PRODUCT,), ((0, 0),), ANOSOV), "Thm4.5-hyperbolic"),
])
def test_a_graph_that_spells_a_geometric_piece_is_valued_as_that_piece(graph, rule):
    for k in (2, 3):
        result = evaluate_piece(graph, k)
        assert (result.value, [step.rule for step in result.trace]) == (2, [rule])


def test_a_self_glued_product_without_its_monodromy_is_ambiguous():
    with pytest.raises(NormalizationAmbiguous, match=r"^piece: a torus-times-interval vertex "):
        evaluate_piece(JsjGraph((PRODUCT,), ((0, 0),)), 2)


@pytest.mark.parametrize("piece,path,refusal", [
    (JsjGraph((Spherical(2),)), "piece", "piece.vertices[0]: unknown vertex type Spherical"),
    (TorusBundle("m"), "piece", "piece.monodromy: unknown monodromy type str"),
    (Spherical(0), "piece", "piece.pi1_order: group order must be >= 1"),
    (HyperbolicCusped(0), "pieces[1].vertices[2]",
     "pieces[1].vertices[2].cusps: cusps must be >= 1"),
])
def test_an_invalid_piece_or_vertex_is_refused_at_its_path(piece, path, refusal):
    for k in (2, 3):
        with pytest.raises(InvalidDescription) as info:
            evaluate_piece(piece, k, path)
        assert str(info.value) == refusal


# --- connected sums ---

def connected_sum(*pieces):
    """Both columns of the connected sum of the pieces, by Thm 1.1."""
    report = compute(ManifoldDescription("", pieces))
    return report.k2, report.k3plus


def test_infinite_dihedral_sum_is_virtually_cyclic():
    result, _ = connected_sum(Spherical(2), Spherical(2))
    assert result.value == 0
    assert result.trace[-1].rule == "Thm1.1-case1"


def test_family_free_product_costs_two():
    result, _ = connected_sum(*(Spherical(2),) * 3)
    assert result.value == 2
    assert result.trace[-1].rule == "Thm1.1-case2"
    assert result.trace[-1].inputs == "all 3 factors lie in the family at k=2"
    # mixed finite orders are not dihedral either
    assert connected_sum(Spherical(2), Spherical(3))[0].value == 2


def test_general_sum_takes_the_maximum():
    result, _ = connected_sum(Geometric(Geometry.H3), Spherical(2))
    assert result.value == 3
    assert result.trace[-1].rule == "Thm1.1-case3"


def test_case_switch_depends_on_k():
    at2, at3 = connected_sum(Geometric(Geometry.E3), Spherical(2))
    # at k = 2 the flat factor is outside the family and dominates
    assert at2.value == 5 and at2.trace[-1].rule == "Thm1.1-case3"
    # at k >= 3 it joins the family and the free product costs 2
    assert at3.value == 2 and at3.trace[-1].rule == "Thm1.1-case2"
    assert at3.trace[-1].inputs == "all 2 factors lie in the family at k=3"


def test_single_piece_passes_through():
    result, _ = connected_sum(Geometric(Geometry.NIL))
    assert result.value == 3
    assert result.trace[-1].rule == "Thm1.1-case3"


# --- traces ---

def test_every_trace_rule_is_registered():
    for name in corpus.names():
        report = compute(corpus.load(name))
        for result in (report.k2, report.k3plus):
            for step in result.trace:
                assert step.rule in RULES


def test_gd_result_rejects_forbidden_values():
    with pytest.raises(AssertionError):
        GdResult((TraceStep("p", "Table1-row1", "x", 1),))
    with pytest.raises(AssertionError):
        GdResult(())
    step = TraceStep("p", "Table1-row1", "x", 3)
    assert GdResult((TraceStep("q", "Table1-row3", "y", 0), step)).value == 3


# --- whole-description reports ---

CORPUS_EXPECTED = {
    "table1_row1_closed_hyperbolic": (3, 3, 2),
    "table1_row2_cusped_hyperbolic": (3, 3, 2),
    "table1_row3_spherical_base_seifert": (0, 0, 2),
    "table1_row4_hyperbolic_base_seifert": (2, 2, 2),
    "table1_row4b_bounded_hyperbolic_base": (2, 2, 2),
    "table1_row5_flat_euler_zero": (5, 0, 3),
    "table1_row6_flat_euler_nonzero": (3, 3, 2),
    "table1_row7_flat_base_bounded": (3, 3, 2),
    "rp3_rp3": (0, 0, 2),
    "rp3_rp3_rp3": (2, 2, 2),
    "h3_rp3": (3, 3, 2),
    "e3_rp3": (5, 2, 3),
    "jsj_hyperbolic_plus_seifert": (3, 3, 2),
    "torus_bundle_elliptic": (5, 0, 3),
    "torus_bundle_parabolic": (3, 3, 2),
    "torus_bundle_anosov": (2, 2, 2),
    "geometric_sol": (2, 2, 2),
    "klein_double": (2, 2, 2),
}


def test_corpus_reports():
    assert set(CORPUS_EXPECTED) == set(corpus.names())
    for name, (k2, k3, cap) in CORPUS_EXPECTED.items():
        report = compute(corpus.load(name))
        assert (report.k2.value, report.k3plus.value, report.rank_cap) == (k2, k3, cap), name


def test_report_value_accessor():
    report = compute(corpus.load("e3_rp3"))
    assert report.value(2) == 5
    assert report.value(3) == 2
    assert report.value(11) == 2


# --- the never-one invariant and the sandwich ---

@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3]))
def test_values_are_never_one_and_sandwiched(seed, k):
    report = compute(random_description(seed))
    value = report.value(k)
    assert value in ALLOWED_VALUES
    pieces = report.description.pieces
    parts = [evaluate_piece(p, k).value for p in pieces]
    if len(parts) > 1:
        assert max(parts) <= value <= max(2, max(parts))
    else:
        assert value == parts[0]


# --- the rank indicator ---

def test_rank_cap_detects_euclidean_pieces():
    assert compute(ManifoldDescription("x", (Geometric(Geometry.E3),))).rank_cap == 3
    assert compute(ManifoldDescription("x", (TorusBundle(ELLIPTIC),))).rank_cap == 3
    assert compute(ManifoldDescription("x", (SEIFERT_FLAT_E0,))).rank_cap == 3
    assert compute(ManifoldDescription("x", (SEIFERT_FLAT_NIL,))).rank_cap == 2
    assert compute(ManifoldDescription("x", (Geometric(Geometry.H3),))).rank_cap == 2
    assert compute(ManifoldDescription("x", (TorusBundle(ANOSOV),))).rank_cap == 2
    mixed = ManifoldDescription("x", (Geometric(Geometry.H3), Geometric(Geometry.E3)))
    assert compute(mixed).rank_cap == 3


# --- one pass ---

def test_compute_classifies_each_piece_at_most_once(monkeypatch):
    calls = Counter()

    def counted(name, classifier):
        def wrapper(argument):
            calls[name] += 1
            return classifier(argument)
        return wrapper

    monkeypatch.setattr(dimension, "classify_base", counted("base", dimension.classify_base))
    monkeypatch.setattr(dimension, "classify", counted("matrix", dimension.classify))
    descriptions = [corpus.load(name) for name in corpus.names()]
    descriptions += [random_description(seed) for seed in range(300)]
    seen = Counter()
    for desc in descriptions:
        calls.clear()
        pieces = compute(desc).description.pieces
        vertices = [v for p in pieces if isinstance(p, JsjGraph) for v in p.vertices]
        seifert = sum(isinstance(p, (SeifertClosed, SeifertBounded)) for p in pieces + tuple(vertices))
        bundles = sum(isinstance(p, TorusBundle) for p in pieces)
        assert calls["base"] <= seifert and calls["matrix"] <= bundles, desc.name
        seen.update(calls)
    assert seen["base"] and seen["matrix"]


def test_compute_builds_a_fraction_only_for_a_flat_euler_number(monkeypatch):
    """Bases are classified in integers: the one Fraction left on the compute path is the
    Euler number of a closed Seifert piece over a flat base (Table1-row5 or row6)."""
    callers = Counter()

    def counted(real):
        def fraction(*args):
            callers[sys._getframe(1).f_code.co_name] += 1
            return real(*args)
        return fraction

    monkeypatch.setattr(model, "Fraction", counted(model.Fraction))
    monkeypatch.setattr(orbifold2, "Fraction", counted(orbifold2.Fraction))
    seen = Counter()
    for seed in range(300):
        callers.clear()
        pieces = compute(random_description(seed)).description.pieces
        flat = [p for p in pieces if isinstance(p, SeifertClosed)
                and classify_base(p.data.base) is OrbifoldClass.FLAT]
        assert set(callers) <= ({"euler_number"} if flat else set()), (seed, callers)
        seen.update(callers)
    assert seen["euler_number"]


def test_a_graph_column_is_its_vertex_steps_then_their_maximum():
    """The one-pass graph valuation against evaluate_piece on each vertex alone."""
    for seed in range(200):
        graph = random_jsj(random.Random(seed))
        report = compute(ManifoldDescription("graph", (graph,)))
        assert report.description.pieces == (graph,)
        for k, column in ((2, report.k2), (3, report.k3plus)):
            *vertex_steps, graph_step, sum_step = column.trace
            vertices = [evaluate_piece(v, k, f"pieces[0].vertices[{i}]")
                        for i, v in enumerate(graph.vertices)]
            assert vertex_steps == [step for v in vertices for step in v.trace]
            values = [v.value for v in vertices]
            assert graph_step == TraceStep("pieces[0]", "Thm1.2-max",
                                           f"vertex values {values}", max(values))
            assert sum_step.rule == "Thm1.1-case3"


def test_compute_builds_one_result_per_piece_and_column_and_the_sums(monkeypatch):
    """No result is built per graph vertex: a one-graph description builds 2 for the graph
    and 2 for the sums, whatever its vertex count."""
    built = Counter()

    def counted(trace):
        built["results"] += 1
        return GdResult(trace)

    monkeypatch.setattr(dimension, "GdResult", counted)
    middle = SeifertBounded(SeifertData(base=annulus(2), cone_pairs=((2, 1),)))
    graph = JsjGraph((HyperbolicCusped(1), middle, HyperbolicCusped(1)),
                     ((0, 1), (1, 2)))
    compute(ManifoldDescription("chain", (graph,)))
    assert built["results"] == 4
    for seed in range(300):
        built.clear()
        pieces = compute(random_description(seed)).description.pieces
        assert built["results"] == 2 * len(pieces) + 2, seed
