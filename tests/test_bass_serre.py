import re
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gdim3 import bass_serre
from gdim3.bass_serre import (
    BASE_VERTEX,
    BallLimitExceeded,
    Cell,
    FreeProductSpec,
    MissingAssignment,
    NotHyperbolic,
    SemidirectSpec,
    TreeBall,
    UnsupportedElement,
    Vertex,
    _ball_size,
    _geodesic,
    _parent,
    _shown,
    axis_of,
    ball,
    cone_off,
    coset_canonical,
    cyclically_reduce,
    inverse,
    normal_form,
    normalizer_probe,
    parse_word,
    pushout_dimension_bound,
    setwise_axis_stabilizer,
    word_str,
)
from gdim3.gl2z import Mat2Z, MatKind, classify

from oracles import (
    BfsDistances,
    act,
    axis_by_displacement,
    bfs_ball,
    cone_cell_records,
    cone_off_records,
    geodesic_by_adjacency,
    mul,
    normalising_elements,
    order_path,
    path_stabilizer,
    pushout_bound_by_walk,
    rank_seen,
    rotate_to_cyclically_reduced,
    sd_inv,
    sd_mul,
    sd_pow,
    setwise_by_pairs,
    setwise_by_scan,
    translation_syllables,
    tree_cell_records,
    words_up_to,
)
from test_acceptance import unimodular_matrices

Z22 = FreeProductSpec((2, 2))
Z23 = FreeProductSpec((2, 3))
Z33 = FreeProductSpec((3, 3))
Z222 = FreeProductSpec((2, 2, 2))
Z234 = FreeProductSpec((2, 3, 4))


def syllables(spec):
    return st.lists(
        st.tuples(st.integers(0, spec.num_factors - 1), st.integers(-5, 5)),
        max_size=8,
    )


# --- words ---

def test_spec_validation():
    with pytest.raises(ValueError):
        FreeProductSpec((2,))
    with pytest.raises(ValueError):
        FreeProductSpec((2, 1))


def test_normal_form_known_cases():
    assert normal_form(Z22, [(0, 1), (0, 1)]) == ()
    assert normal_form(Z22, [(0, 1), (1, 1), (0, 1)]) == ((0, 1), (1, 1), (0, 1))
    assert normal_form(Z23, [(0, 1), (1, 2), (1, 1), (0, 1)]) == ()
    assert normal_form(Z23, [(1, 5)]) == ((1, 2),)
    assert normal_form(Z23, [(0, -1)]) == ((0, 1),)


@given(syllables(Z23))
def test_normal_form_is_idempotent(raw):
    w = normal_form(Z23, raw)
    assert normal_form(Z23, w) == w
    assert all(e != 0 for _, e in w)
    assert all(f1 != f2 for (f1, _), (f2, _) in zip(w, w[1:]))


@given(syllables(Z23), syllables(Z23), syllables(Z23))
def test_multiplication_is_associative(a, b, c):
    a, b, c = (normal_form(Z23, w) for w in (a, b, c))
    assert mul(Z23, mul(Z23, a, b), c) == mul(Z23, a, mul(Z23, b, c))


@given(syllables(Z23))
def test_inverse_law(w):
    w = normal_form(Z23, w)
    assert mul(Z23, w, inverse(Z23, w)) == ()
    assert mul(Z23, inverse(Z23, w), w) == ()


@given(st.sampled_from([Z22, Z23, Z33, Z222]).flatmap(
    lambda spec: st.tuples(st.just(spec), syllables(spec), syllables(spec))))
def test_mul_merges_at_the_junction_like_a_full_normal_form(case):
    # arbitrary syllable lists: unreduced, with negative and zero exponents
    spec, u, v = case
    assert mul(spec, u, v) == normal_form(spec, u + v)


@given(st.sampled_from([Z22, Z23, Z33, Z222]).flatmap(
    lambda spec: st.tuples(st.just(spec), syllables(spec))))
def test_cyclic_reduction_matches_rotating_the_last_syllable_forward(case):
    spec, w = case
    assert cyclically_reduce(spec, w) == rotate_to_cyclically_reduced(spec, w)


@given(syllables(Z23))
def test_cyclic_reduction_is_a_conjugate_of_no_greater_length(w):
    w = normal_form(Z23, w)
    r = cyclically_reduce(Z23, w)
    assert len(r) <= len(w)
    if len(r) >= 2:
        assert r[0][0] != r[-1][0]


def test_words_up_to_counts():
    assert sum(1 for _ in words_up_to(Z23, 0)) == 1
    assert sum(1 for _ in words_up_to(Z23, 1)) == 4
    assert sum(1 for _ in words_up_to(Z23, 2)) == 8
    assert sum(1 for _ in words_up_to(Z22, 3)) == 7


@given(syllables(Z33))
def test_word_str_round_trips(raw):
    w = normal_form(Z33, raw)
    assert parse_word(Z33, word_str(w)) == w


def test_parse_word_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word(Z23, "xyz")
    with pytest.raises(ValueError):
        parse_word(Z23, "a!b")


# --- balls ---

def test_radius_zero_is_the_base_vertex():
    tree = ball(Z23, 0)
    assert tree.vertices == (BASE_VERTEX,)
    assert tree.edges == ()


def test_infinite_dihedral_ball_is_a_line():
    tree = ball(Z22, 3)
    assert len(tree.vertices) == 7
    assert len(tree.edges) == 6
    assert all(tree.degree(v) <= 2 for v in tree.vertices)
    tree = ball(Z22, 6)
    assert len(tree.vertices) == 13
    assert len(tree.edges) == 12
    assert sorted(tree.degree(v) for v in tree.vertices) == [1, 1] + [2] * 11


def test_z2_z3_ball_is_bipartite_with_factor_degrees():
    tree = ball(Z23, 4)
    for v in tree.vertices:
        if tree.distance(BASE_VERTEX, v) < tree.radius:
            if v.factor is None:
                assert tree.degree(v) == 2    # one coset per factor
            else:
                assert tree.degree(v) == Z23.factor_orders[v.factor]
        # every edge joins an element vertex to a coset vertex
        for n in tree.adjacency[v]:
            assert (v.factor is None) != (n.factor is None)


@pytest.mark.parametrize("spec,radius", [(Z22, 5), (Z23, 4), (Z222, 4), (Z33, 3)])
def test_balls_are_trees(spec, radius):
    tree = ball(spec, radius)
    assert len(tree.vertices) == len(tree.edges) + 1
    # union-find: adding each edge merges two previously distinct components
    parent = {v: v for v in tree.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in tree.edges:
        ru, rv = find(u), find(v)
        assert ru != rv, "cycle detected"
        parent[ru] = rv
    assert len({find(v) for v in tree.vertices}) == 1


def test_vertex_distances_track_syllable_length():
    tree = ball(Z23, 5)
    for v in tree.vertices:
        d = tree.distance(BASE_VERTEX, v)
        if v.factor is None:
            assert d == 2 * len(v.word)
        else:
            assert d == 2 * len(v.word) + 1


def test_ball_limit_guard():
    with pytest.raises(BallLimitExceeded):
        ball(Z222, 8, max_vertices=50)


@pytest.mark.parametrize("radius", [0, 2])
def test_vertex_caps_below_one_are_refused(radius):
    """The base vertex alone needs a cap of 1; a smaller cap is a bad argument."""
    for cap in (0, -1):
        with pytest.raises(ValueError, match="max_vertices must be >= 1"):
            ball(Z23, radius, max_vertices=cap)
    assert len(ball(Z23, 0, max_vertices=1).vertices) == 1


def test_a_negative_radius_is_refused_before_a_bad_cap():
    with pytest.raises(ValueError, match="^radius must be >= 0$"):
        ball(Z23, -1, max_vertices=0)


@pytest.mark.parametrize("spec,radius", [(Z23, 6), (Z33, 5), (Z222, 4), (Z22, 7)])
def test_ball_layout_and_every_vertex_cap(spec, radius):
    """Levels in order, nearer neighbours first; a cap refuses exactly the larger balls."""
    tree = ball(spec, radius)
    size = len(tree.vertices)
    depth = [tree.distance(BASE_VERTEX, v) for v in tree.vertices]
    assert tree.vertices[0] == BASE_VERTEX and depth == sorted(depth) and depth[-1] == radius
    assert list(tree.adjacency) == list(tree.vertices)
    assert tree.edges == tuple((tree.adjacency[v][0], v) for v in tree.vertices[1:])
    for v, d in zip(tree.vertices, depth):
        steps = [tree.distance(BASE_VERTEX, n) - d for n in tree.adjacency[v]]
        assert steps == sorted(steps) and steps.count(-1) == (d > 0)
    for cap in range(1, size + 2):
        if cap < size:
            with pytest.raises(BallLimitExceeded) as info:
                ball(spec, radius, max_vertices=cap)
            assert str(info.value) == f"ball of radius {radius} exceeds {cap} vertices"
        else:
            assert ball(spec, radius, max_vertices=cap) == tree


def test_action_is_by_isometries_and_composes():
    tree = ball(Z23, 4)
    words = [w for w in words_up_to(Z23, 2)]
    for g in words:
        for h in words:
            gh = mul(Z23, g, h)
            for v in tree.vertices[:12]:
                assert act(Z23, g, act(Z23, h, v)) == act(Z23, gh, v)


def test_action_preserves_adjacency():
    tree = ball(Z23, 4)
    g = parse_word(Z23, "ab")
    for u, v in tree.edges:
        gu, gv = act(Z23, g, u), act(Z23, g, v)
        if gu in tree and gv in tree:
            assert gv in tree.adjacency[gu]


def test_coset_canonical_strips_own_factor_syllable():
    w = parse_word(Z23, "ab")
    assert coset_canonical(w, 1) == parse_word(Z23, "a")
    assert coset_canonical(w, 0) == w


# --- stabilizers and acylindricity ---

def test_single_coset_vertex_stabilizer_is_the_conjugated_factor():
    tree = ball(Z23, 4)
    fix = path_stabilizer(tree, [Vertex((), 1)], budget=4)
    assert set(fix) == {(), ((1, 1),), ((1, 2),)}
    fix = path_stabilizer(tree, [Vertex(parse_word(Z23, "a"), 1)], budget=4)
    assert set(fix) == {(), parse_word(Z23, "aba"), parse_word(Z23, "ab2a")}


def test_element_vertex_stabilizer_is_trivial():
    tree = ball(Z23, 4)
    assert path_stabilizer(tree, [BASE_VERTEX], budget=4) == [()]


def test_acylindricity_every_edge_path_has_trivial_stabilizer():
    # fixing both endpoints of a geodesic fixes the whole path, so vertex
    # pairs certify every path with at least one edge
    tree = ball(Z22, 6)
    for u, v in combinations(tree.vertices, 2):
        assert path_stabilizer(tree, [u, v], budget=6) == [()]


# --- axes ---

def test_elliptic_words_have_no_axis():
    tree = ball(Z23, 4)
    assert axis_of(tree, parse_word(Z23, "a")) is None
    assert axis_of(tree, parse_word(Z23, "b2")) is None
    assert axis_of(tree, parse_word(Z23, "aba")) is None      # conjugate of b
    assert axis_of(tree, ()) is None


def test_axis_of_ab_in_the_dihedral_line():
    # the whole tree is the axis line, and all of it is visible
    tree = ball(Z22, 6)
    g = parse_word(Z22, "ab")
    assert translation_syllables(Z22, g) == 2
    axis = axis_of(tree, g)
    assert axis is not None
    assert set(axis) == set(tree.vertices)
    for u, v in zip(axis, axis[1:]):
        assert v in tree.adjacency[u]
    # the ordered path is carried into itself four steps along
    index = {v: i for i, v in enumerate(axis)}
    for v in axis:
        image = act(Z22, g, v)
        if image in index:
            assert abs(index[image] - index[v]) == 4


def test_axis_is_equivariant_under_conjugation():
    tree = ball(Z23, 6)
    g = parse_word(Z23, "ab")
    a = parse_word(Z23, "a")
    conj = mul(Z23, mul(Z23, a, g), inverse(Z23, a))
    axis_g = axis_of(tree, g)
    axis_conj = set(axis_of(tree, conj))
    for v in axis_g:
        image = act(Z23, a, v)
        if image in tree and act(Z23, conj, image) in tree:
            assert image in axis_conj


def test_axis_not_visible_in_a_small_ball():
    tree = ball(Z23, 1)
    assert axis_of(tree, parse_word(Z23, "ab")) is None


def test_translation_length_is_cyclic_syllable_length():
    assert translation_syllables(Z23, parse_word(Z23, "ab")) == 2
    assert translation_syllables(Z23, parse_word(Z23, "abab")) == 4
    assert translation_syllables(Z23, parse_word(Z23, "aba")) == 1   # elliptic
    # displacement of a hyperbolic word doubles the syllable count
    tree = ball(Z23, 6)
    g = parse_word(Z23, "ab")
    assert tree.distance(BASE_VERTEX, Vertex(g, None)) == 4


# --- setwise axis stabilizers ---

def test_dihedral_axis_has_translations_and_reflections():
    tree = ball(Z22, 6)
    axis = axis_of(tree, parse_word(Z22, "ab"))
    report = setwise_axis_stabilizer(tree, axis, budget=4)
    assert report.consistent
    deltas = {d for _, d in report.translations}
    assert {0}.issubset(deltas) and any(d != 0 for d in deltas)
    assert report.reflections      # a reverses the line
    assert parse_word(Z22, "a") in {g for g, _ in report.reflections}


def test_orientation_only_axis_in_z3_z3():
    # ab is not conjugate to its inverse ab2 (cyclic words differ), so no
    # budgeted word may reverse the axis
    tree = ball(Z33, 6)
    axis = axis_of(tree, parse_word(Z33, "ab"))
    report = setwise_axis_stabilizer(tree, axis, budget=5)
    assert report.consistent
    assert report.reflections == ()
    assert any(d != 0 for _, d in report.translations)


def test_no_commuting_hyperbolics_with_crossing_axes_within_budget():
    # bounded check: any two commuting hyperbolic words must share their
    # axis line, so the union of the visible windows is still a path
    tree = ball(Z23, 6)
    words = [w for w in words_up_to(Z23, 3)
             if len(cyclically_reduce(Z23, w)) >= 2]
    for g in words:
        for h in words:
            if g >= h or mul(Z23, g, h) != mul(Z23, h, g):
                continue
            axis_g, axis_h = axis_of(tree, g), axis_of(tree, h)
            if axis_g is None or axis_h is None:
                continue
            union = list(set(axis_g) | set(axis_h))
            assert order_path(tree, union)


# --- coned complexes ---

def test_cone_off_without_axes_is_the_bare_ball():
    tree = ball(Z23, 3)
    cx = cone_off(tree, [], budget=3)
    assert tuple(cx.cell_counts()) == ("vertex", "edge")
    assert pushout_dimension_bound(cx, {"vertex": 0, "edge": 0}) == 1


def test_the_dihedral_ball_is_counted_without_walking_its_levels():
    """Z2 * Z2 repeats its levels: its ball of radius R is a line of 2R + 1 vertices, counted
    at once however large, and only ball() refuses it past the vertex cap."""
    cx = cone_off(TreeBall(Z22, 10**9), [])
    assert cx.cell_counts() == {"vertex": 2 * 10**9 + 1, "edge": 2 * 10**9}
    with pytest.raises(BallLimitExceeded):
        ball(Z22, 10**9)


def test_dihedral_cone_vertex_is_preserved_by_every_budgeted_word():
    tree = ball(Z22, 6)
    axis = axis_of(tree, parse_word(Z22, "ab"))
    cx = cone_off(tree, [axis], budget=2)
    record = cx.stabilizer(("cone_vertex", 0, (0,)))
    assert set(record) == set(words_up_to(Z22, 2))


def test_cell_counts_track_the_axes():
    tree = ball(Z222, 4)
    axes = [axis_of(tree, parse_word(Z222, w)) for w in ("ab", "bc", "ac")]
    assert all(a is not None for a in axes)
    cx = cone_off(tree, axes, budget=4)
    counts = {}
    for cell in cx.cells():
        counts[cell.cell_class] = counts.get(cell.cell_class, 0) + 1
    assert counts["cone_vertex"] == 3
    assert counts["cone_edge"] == sum(len(a) for a in axes)
    assert counts["face"] == sum(len(a) - 1 for a in axes)
    assert counts["vertex"] == len(tree.vertices)
    assert counts["edge"] == len(tree.edges)
    # the three axes have pairwise distinct setwise stabilizer records
    records = [cx.stabilizer(("cone_vertex", 0, (i,))) for i in range(3)]
    assert records[0] != records[1] != records[2] != records[0]


def test_stabilizer_records_do_preserve_their_cells():
    tree = ball(Z222, 4)
    axes = [axis_of(tree, parse_word(Z222, "ab"))]
    cx = cone_off(tree, axes, budget=3)
    axis_set = set(axes[0])
    for cell in cx.cells():
        for g in cx.stabilizer(cell):
            if cell.cell_class == "vertex":
                (v,) = cell.key
                assert act(Z222, g, v) == v
            elif cell.cell_class == "edge":
                u, v = cell.key
                assert {act(Z222, g, u), act(Z222, g, v)} == {u, v}
            elif cell.cell_class == "cone_edge":
                _, v = cell.key
                assert act(Z222, g, v) == v
            elif cell.cell_class == "face":
                _, u, v = cell.key
                assert {act(Z222, g, u), act(Z222, g, v)} == {u, v}
            if cell.cell_class != "vertex" and cell.cell_class != "edge":
                # cone cells also preserve the axis setwise where visible
                for v in axis_set:
                    image = act(Z222, g, v)
                    if image in tree:
                        assert image in axis_set


def test_missing_assignment_only_for_present_classes():
    tree = ball(Z22, 4)
    cx = cone_off(tree, [], budget=2)
    with pytest.raises(MissingAssignment):
        pushout_dimension_bound(cx, {"vertex": 0})
    # cone classes are absent, so they need no assignment
    assert pushout_dimension_bound(cx, {"vertex": 0, "edge": 0}) == 1


def test_jsj_style_assignment_dominates():
    tree = ball(Z22, 4)
    cx = cone_off(tree, [], budget=2)
    assert pushout_dimension_bound(cx, {"vertex": 3, "edge": 0}) == 3


# --- normalizer probe ---

ANOSOV = Mat2Z(2, 1, 1, 1)


def test_probe_matches_the_dichotomy_for_the_reference_monodromy():
    group = SemidirectSpec(ANOSOV)
    probe = normalizer_probe(group, ((0, 0), 1))
    assert probe.rank == 1
    assert probe.certificate
    probe = normalizer_probe(group, ((1, 0), 0))
    assert probe.rank == 2
    assert probe.certificate


NAMED = re.compile(
    r"is <\(\((-?\d+), (-?\d+)\), (\d+)\)> \(rank 1\), containing it with index (\d+)$")


def named_generator(probe):
    """The generator and index that a rank-1 certificate prints."""
    x, y, m, index = map(int, NAMED.search(probe.certificate[-1]).groups())
    return ((x, y), m), index


@pytest.mark.parametrize("element,generator,index", [
    (((0, 0), 2), ((0, 0), 1), 2),
    (((0, 0), -4), ((0, 0), 1), 4),
    (((1, 2), 3), ((1, 2), 3), 1),
    (((1, 2), -3), ((-29, -18), 3), 1),
    (((3, 1), 2), ((1, 0), 1), 2),
    (((35, 21), 8), ((1, 0), 4), 2),
])
def test_probe_names_the_generator_and_its_index(element, generator, index):
    probe = normalizer_probe(SemidirectSpec(ANOSOV), element)
    assert probe.rank == 1 and len(probe.certificate) == 2
    assert named_generator(probe) == (generator, index)


def test_probe_states_the_fibre_once():
    probe = normalizer_probe(SemidirectSpec(ANOSOV), ((1, 0), 0))
    assert probe.certificate == (
        "tr A = 3, det A = 1: the eigenvalues of A are real and off the unit circle, "
        "so (u, m) maps c to +-c only for m = 0",
        "normaliser of <((1, 0), 0)> is the fibre Z^2 (rank 2)",
    )


@pytest.mark.parametrize("digits", [1, 2, 4299, 4300, 4301, 5016, 20000])
@pytest.mark.parametrize("sign", [1, -1])
def test_a_certificate_integer_past_the_str_cap_shows_its_digit_count(digits, sign):
    """Integers of up to 4300 digits print in full; longer ones as their sign and length."""
    for n in (sign * 10 ** (digits - 1), sign * (10 ** digits - 1)):
        shown = str(n) if digits <= 4300 else f"{'-' if sign < 0 else ''}<{digits} digits>"
        assert _shown(n) == shown
    assert _shown(0) == "0"


def test_a_fibre_vector_past_the_str_cap_is_shown_by_its_digit_count():
    probe = normalizer_probe(SemidirectSpec(ANOSOV), ((10 ** 5000, -1), 0))
    assert probe.certificate[1] == (
        "normaliser of <((<5001 digits>, -1), 0)> is the fibre Z^2 (rank 2)")


def test_probe_rejects_bad_inputs():
    with pytest.raises(NotHyperbolic):
        normalizer_probe(SemidirectSpec(Mat2Z(0, -1, 1, 0)), ((0, 0), 1))
    with pytest.raises(NotHyperbolic):
        normalizer_probe(SemidirectSpec(Mat2Z(1, 1, 0, 1)), ((0, 0), 1))
    with pytest.raises(UnsupportedElement):
        normalizer_probe(SemidirectSpec(ANOSOV), ((0, 0), 0))


HYPERBOLIC_MATRICES = [m for m in unimodular_matrices() if classify(m).kind is MatKind.HYPERBOLIC]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(HYPERBOLIC_MATRICES),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-4, 4))
def test_probe_over_random_hyperbolic_monodromies(matrix, v, l):
    assume((v, l) != ((0, 0), 0))
    group, c = SemidirectSpec(matrix), (v, l)
    probe = normalizer_probe(group, c)
    found = normalising_elements(group, c, reach=6, height=4)
    assert probe.rank == rank_seen(found)
    assert len(probe.certificate) == 2
    if probe.rank == 2:
        assert all(m == 0 for _, m in found)
        return
    generator, index = named_generator(probe)
    m = generator[1]
    for g in found:
        assert g[1] % m == 0 and sd_pow(group, generator, g[1] // m) == g
    assert sd_pow(group, generator, index) in (c, sd_inv(group, c))


def test_semidirect_group_laws():
    group = SemidirectSpec(ANOSOV)
    e1, e2, e3 = ((1, 2), 1), ((0, -1), -2), ((3, 0), 1)
    assert sd_mul(group, sd_mul(group, e1, e2), e3) == sd_mul(group, e1, sd_mul(group, e2, e3))
    assert sd_mul(group, e1, sd_inv(group, e1)) == ((0, 0), 0)
    assert sd_inv(group, sd_inv(group, e2)) == e2


def test_fibre_vectors_commute():
    group = SemidirectSpec(ANOSOV)
    u, v = ((1, 0), 0), ((0, 1), 0)
    assert sd_mul(group, u, v) == sd_mul(group, v, u)


# --- closed forms against the search oracles ---

ORACLE_BALLS = {
    (spec, radius): ball(spec, radius)
    for spec, radii in ((Z22, (2, 5, 8)), (Z23, (3, 6, 9)), (Z33, (3, 5)), (Z222, (3, 4, 6)))
    for radius in radii
}
ORACLE_DISTANCES = {key: BfsDistances(tree) for key, tree in ORACLE_BALLS.items()}


@st.composite
def ball_and_word(draw):
    spec, radius = draw(st.sampled_from(list(ORACLE_BALLS)))
    raw = draw(st.lists(
        st.tuples(st.integers(0, spec.num_factors - 1), st.integers(-3, 3)), max_size=5))
    return (spec, radius), raw


@settings(max_examples=300, deadline=None)
@given(ball_and_word())
def test_axis_matches_displacement_minimisation(case):
    key, w = case
    tree = ORACLE_BALLS[key]
    assert axis_of(tree, w) == axis_by_displacement(tree, w, ORACLE_DISTANCES[key])


@pytest.mark.parametrize("key", [(Z22, 8), (Z23, 6), (Z33, 3), (Z222, 4)])
def test_every_axis_of_short_words_matches_displacement_minimisation(key):
    tree = ORACLE_BALLS[key]
    words = list(words_up_to(key[0], 4))
    axes = [axis_of(tree, w) for w in words]
    assert axes == [axis_by_displacement(tree, w, ORACLE_DISTANCES[key]) for w in words]
    assert any(axis is None for axis in axes) and any(axis is not None for axis in axes)


@pytest.mark.parametrize("spec,radius", [(Z22, 8), (Z23, 6), (Z33, 4), (Z222, 4)])
def test_distance_matches_breadth_first_search_on_every_pair(spec, radius):
    tree = ball(spec, radius)
    bfs = BfsDistances(tree)
    for u in tree.vertices:
        for v in tree.vertices:
            assert tree.distance(u, v) == bfs(u, v)


def test_distance_refuses_vertices_outside_the_ball():
    tree = ball(Z23, 2)
    outside = Vertex(parse_word(Z23, "aba"), None)
    with pytest.raises(KeyError):
        tree.distance(BASE_VERTEX, outside)
    with pytest.raises(KeyError):
        tree.distance(outside, BASE_VERTEX)


# --- the implicit ball against the breadth-first one ---

IMPLICIT_SPECS = (Z22, Z23, Z33, Z222, Z234)
oracle_ball = lru_cache(maxsize=None)(bfs_ball)


def non_members(spec, radius, v):
    """Objects that are not vertices of the ball, built from one of its vertices."""
    m, word = spec.num_factors, v.word
    found = [
        Vertex(word, m),                                    # a coset of no factor
        Vertex(word + ((m, 1),), None),                     # a syllable of no factor
        None, 0, "a", word, Cell("vertex", 0, (v,)),        # no Vertex at all
    ]
    if word:
        (factor, exponent), n = word[-1], spec.factor_orders[word[-1][0]]
        found += [
            Vertex(word, factor),                           # a coset word ending in its factor
            Vertex(word[:-1] + ((factor, 0),), v.factor),   # a zero exponent
            Vertex(word[:-1] + ((factor, n),), v.factor),   # exponents run up to n - 1
            Vertex(word[:-1] + ((factor, -exponent),), v.factor),
            Vertex(list(word), v.factor),                   # a word that is no tuple
        ]
    deeper = oracle_ball(spec, radius + 1).vertices[len(oracle_ball(spec, radius).vertices):]
    return found + list(deeper[:3])                         # depth radius + 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(IMPLICIT_SPECS), st.integers(0, 9), st.data())
def test_the_implicit_ball_matches_breadth_first_search(spec, radius, data):
    """Membership, distance, parent and size come from the words; the vertex table, built
    when it is read, is the breadth-first one in the same order."""
    oracle = oracle_ball(spec, radius)
    tree = ball(spec, radius)
    assert _ball_size(spec, radius) == len(oracle.vertices)
    assert all(v in tree for v in oracle.vertices)
    assert all(_parent(v) == oracle.adjacency[v][0] for v in oracle.vertices[1:])
    v = data.draw(st.sampled_from(oracle.vertices))
    distances = BfsDistances(oracle)
    assert all(tree.distance(v, u) == distances(v, u) for u in oracle.vertices)
    for outside in non_members(spec, radius, v):
        assert outside not in tree
        with pytest.raises(KeyError):
            tree.distance(v, outside)
    assert tuple(v) not in tree                             # equal to a vertex, but no Vertex
    assert "vertices" not in vars(tree)
    assert tree.vertices == oracle.vertices and tree.edges == oracle.edges
    assert "adjacency" not in vars(tree)
    assert list(tree.adjacency.items()) == list(oracle.adjacency.items())


@pytest.mark.parametrize("spec", [Z22, Z23, Z234])
def test_a_vertex_cap_refuses_a_huge_radius_without_counting_it_all(spec):
    """The count stops once it passes the cap, however large the radius."""
    message = f"^ball of radius {10 ** 9} exceeds 50000 vertices$"
    with pytest.raises(BallLimitExceeded, match=message):
        ball(spec, 10 ** 9)


@pytest.mark.parametrize("spec,radius", [(Z22, 6), (Z23, 6), (Z23, 9), (Z33, 5), (Z222, 4), (Z222, 6)])
def test_tree_cell_records_match_enumeration(spec, radius):
    tree = ball(spec, radius)
    for budget in range(0, 6):
        cx = cone_off(tree, [], budget=budget)
        records = {cell: cx.stabilizer(cell) for cell in cx.cells()}
        assert records == tree_cell_records(tree, budget)


# --- axis stabilisers by the endpoint test against the vertex scan ---

SCAN_SPECS = (Z22, Z23, Z33, Z222, Z234)
scan_ball = lru_cache(maxsize=None)(ball)


def cone_records(complex_):
    """The cone-vertex, cone-edge and face records, axis by axis as cone_cell_records lists them."""
    cells = [cell for cell in complex_.cells()
             if cell.cell_class in ("cone_vertex", "cone_edge", "face")]
    # a stable sort by axis index keeps each axis's cone vertex, cone edges and faces in order
    return [(cell, complex_.stabilizer(cell)) for cell in sorted(cells, key=lambda c: c.key[0])]


@st.composite
def axes_case(draw):
    spec = draw(st.sampled_from(SCAN_SPECS))
    radius = draw(st.integers(3, 10))
    budget = draw(st.integers(0, 6 if spec is not Z234 else 5))   # 6,077 words at 6
    tree = scan_ball(spec, radius)
    cores = [w for w in words_up_to(spec, 3) if len(w) >= 2 and w[0][0] != w[-1][0]]
    axes = []
    for _ in range(draw(st.integers(1, 3))):
        core = draw(st.sampled_from(cores))
        conjugator = draw(st.sampled_from(list(words_up_to(spec, 2))))
        g = mul(spec, mul(spec, conjugator, core), inverse(spec, conjugator))
        axis = axis_of(tree, g) or axis_of(tree, core)
        if axis is not None:
            # sub-geodesics: fewer element vertices than the budget allows
            axes.append(axis[:draw(st.one_of(st.none(), st.integers(0, len(axis))))])
    return tree, axes, budget


@settings(max_examples=60, deadline=None)
@given(axes_case())
def test_axis_stabilisers_match_the_vertex_scan(case):
    tree, axes, budget = case
    reports = tuple(setwise_by_scan(tree, axis, budget) for axis in axes)
    for axis, report in zip(axes, reports):
        assert setwise_axis_stabilizer(tree, axis, budget) == report
    cone = cone_off(tree, axes, budget)
    assert cone_records(cone) == cone_cell_records(tree, axes, budget)
    assert cone.axis_reports == reports


@pytest.mark.parametrize("spec,radius,words", [
    (Z22, 10, ("ab",)),
    (Z23, 9, ("ab", "bab", "ab2ab")),
    (Z33, 7, ("ab", "ab2", "bab")),
    (Z222, 8, ("ab", "bc", "ac", "cabc", "abcb")),
    (Z234, 6, ("ab", "bc3", "cabc", "abc")),
])
def test_conjugate_axes_that_miss_the_base_match_the_vertex_scan(spec, radius, words):
    tree = ball(spec, radius)
    axes = [axis_of(tree, parse_word(spec, w)) for w in words]
    assert all(axis is not None for axis in axes)
    assert spec is Z22 or any(BASE_VERTEX not in axis for axis in axes)
    for budget in range(0, 5):
        for axis in axes:
            report = setwise_axis_stabilizer(tree, axis, budget)
            assert report == setwise_by_scan(tree, axis, budget)
            assert report.consistent
        assert cone_records(cone_off(tree, axes, budget)) == cone_cell_records(tree, axes, budget)


# --- cell stabilisers on request against the one-pass records ---

def slices(axis):
    """The axis, a sub-geodesic, one vertex and an empty slice of it."""
    middle = len(axis) // 2
    return [axis, axis[1:middle + 2], axis[middle:middle + 1], axis[middle:middle]]


@st.composite
def coned_case(draw):
    """No axes or up to three axes, each the visible axis line or a slice of it."""
    spec = draw(st.sampled_from(SCAN_SPECS))
    radius = draw(st.integers(2, 9 if spec is not Z234 else 7))
    budget = draw(st.integers(0, 6))
    tree = scan_ball(spec, radius)
    cores = [w for w in words_up_to(spec, 3) if len(w) >= 2 and w[0][0] != w[-1][0]]
    axes = []
    for _ in range(draw(st.integers(0, 3))):
        core = draw(st.sampled_from(cores))
        conjugator = draw(st.sampled_from(list(words_up_to(spec, 2))))
        g = mul(spec, mul(spec, conjugator, core), inverse(spec, conjugator))
        axis = axis_of(tree, g) or axis_of(tree, core)
        if axis is None:
            continue
        kind = draw(st.sampled_from(["line", "slice", "one", "empty"]))
        if kind == "line":
            axes.append(axis)
        elif kind == "slice":
            start = draw(st.integers(0, len(axis)))
            axes.append(axis[start:draw(st.integers(start, len(axis)))])
        else:
            start = draw(st.integers(0, len(axis) - 1))
            axes.append(axis[start:start + (kind == "one")])
    return tree, axes, budget


def assert_stabilizers_match_the_records(tree, axes, budget):
    cx = cone_off(tree, axes, budget)
    records = cone_off_records(tree, axes, budget)
    cells = list(cx.cells())
    assert len(cells) == len(set(cells)) == len(records)
    # the words of each record in the same order, cone-edge set layout included
    assert {cell: cx.stabilizer(cell) for cell in cells} == records


@settings(max_examples=120, deadline=None)
@given(coned_case())
def test_cell_stabilisers_match_the_one_pass_records(case):
    assert_stabilizers_match_the_records(*case)


@pytest.mark.parametrize("spec,radius,words", [
    (Z22, 8, ("ab",)),
    (Z23, 8, ("ab", "bab", "ab2ab")),
    (Z33, 6, ("ab", "ab2", "bab")),
    (Z222, 6, ("ab", "bc", "cabc")),
    (Z234, 5, ("ab", "bc3", "abc")),
])
def test_cell_stabilisers_match_the_one_pass_records_at_every_budget(spec, radius, words):
    tree = ball(spec, radius)
    lines = [axis_of(tree, parse_word(spec, w)) for w in words]
    assert all(axis is not None for axis in lines)
    for budget in range(0, 7):
        assert_stabilizers_match_the_records(tree, [], budget)
        assert_stabilizers_match_the_records(tree, lines, budget)
        assert_stabilizers_match_the_records(tree, slices(lines[-1]), budget)


FOREIGN_TREE = ball(Z222, 4)
FOREIGN_AXES = [axis_of(FOREIGN_TREE, parse_word(Z222, w)) for w in ("ab", "bc")]
OUTSIDE = Vertex(parse_word(Z222, "abcab"), None)
OFF_AXIS = next(v for v in FOREIGN_AXES[1] if v not in FOREIGN_AXES[0])
CHILD = FOREIGN_TREE.adjacency[BASE_VERTEX][0]
GRANDCHILD = FOREIGN_TREE.adjacency[CHILD][1]
FOREIGN_CELLS = {
    "vertex outside the ball": Cell("vertex", 0, (OUTSIDE,)),
    "coset outside the ball": Cell("vertex", 0, (Vertex(parse_word(Z222, "abc"), 0),)),
    "reversed tree edge": Cell("edge", 1, (CHILD, BASE_VERTEX)),
    "pair two steps apart": Cell("edge", 1, (BASE_VERTEX, GRANDCHILD)),
    "edge leaving the ball": Cell("edge", 1, (FOREIGN_TREE.vertices[-1], OUTSIDE)),
    "cone vertex past the last axis": Cell("cone_vertex", 0, (2,)),
    "cone vertex at a negative index": Cell("cone_vertex", 0, (-1,)),
    "cone edge of a missing axis": Cell("cone_edge", 1, (2, FOREIGN_AXES[0][0])),
    "cone edge off its axis": Cell("cone_edge", 1, (0, OFF_AXIS)),
    "cone edge outside the ball": Cell("cone_edge", 1, (0, OUTSIDE)),
    "face over non-consecutive vertices": Cell(
        "face", 2, (0, FOREIGN_AXES[0][0], FOREIGN_AXES[0][2])),
    "face in reverse order": Cell("face", 2, (0, FOREIGN_AXES[0][1], FOREIGN_AXES[0][0])),
    "face past the end of its axis": Cell("face", 2, (0, FOREIGN_AXES[0][-1], OFF_AXIS)),
    "face of a missing axis": Cell("face", 2, (2, FOREIGN_AXES[0][0], FOREIGN_AXES[0][1])),
    "unknown class": Cell("simplex", 0, (BASE_VERTEX,)),
    "wrong dimension": Cell("vertex", 1, (BASE_VERTEX,)),
    "vertex class with an edge's dimension and key": Cell("vertex", 1, (BASE_VERTEX, CHILD)),
    "vertex key of two vertices": Cell("vertex", 0, (BASE_VERTEX, CHILD)),
}


@pytest.mark.parametrize("name", sorted(FOREIGN_CELLS))
def test_cells_outside_the_complex_are_refused(name):
    """A foreign cell raises KeyError, as a lookup in the one-pass records does."""
    cell = FOREIGN_CELLS[name]
    assert cell not in cone_off_records(FOREIGN_TREE, FOREIGN_AXES, 3)
    with pytest.raises(KeyError) as raised:
        cone_off(FOREIGN_TREE, FOREIGN_AXES, 3).stabilizer(cell)
    assert raised.value.args == (cell,)


@settings(max_examples=60, deadline=None)
@given(coned_case())
def test_cell_counts_match_the_cells(case):
    tree, axes, budget = case
    cx = cone_off(tree, axes, budget)
    walked = {}
    for cell in cx.cells():
        walked[cell.cell_class] = walked.get(cell.cell_class, 0) + 1
    assert list(cx.cell_counts().items()) == list(walked.items())
    assert tuple(cx.cell_counts()) == tuple(walked)


def test_cone_off_computes_no_cell_stabiliser(monkeypatch):
    """Coset stabilisers are formed on request, one per coset cell asked for."""
    calls = []
    real = bass_serre._coset_stabilizer

    def counting(spec, v):
        calls.append(v)
        return real(spec, v)

    monkeypatch.setattr(bass_serre, "_coset_stabilizer", counting)
    tree = ball(Z23, 9)
    axes = [axis_of(tree, parse_word(Z23, w)) for w in ("ab", "bab")]
    cx = cone_off(tree, axes, budget=6)
    assert calls == []
    cosets = [cell for cell in cx.cells() if cell.cell_class == "vertex"
              and cell.key[0].factor is not None and 2 * len(cell.key[0].word) + 1 <= 6]
    for cell in cx.cells():
        cx.stabilizer(cell)
    assert calls == [cell.key[0] for cell in cosets] and calls


def test_cone_off_and_stabilizer_never_walk_the_ball():
    """Axes, cone_off, every cell's stabiliser, the cell counts and the push-out bound read
    the tree in closed form: its vertex table is never built."""
    walked = ball(Z222, 6)
    tree = ball(Z222, 6)
    axes = [axis_of(tree, parse_word(Z222, w)) for w in ("ab", "cabc")]
    cells = list(cone_off(walked, axes, 4).cells())
    expected = cone_off_records(walked, axes, 4)
    cx = cone_off(tree, axes, 4)
    assert [cx.stabilizer(cell) for cell in cells] == [expected[cell] for cell in cells]
    walked_counts = {}
    for cell in cells:
        walked_counts[cell.cell_class] = walked_counts.get(cell.cell_class, 0) + 1
    assert cx.cell_counts() == walked_counts
    assert pushout_dimension_bound(cx, dict.fromkeys(walked_counts, 0)) == 2
    assert [setwise_axis_stabilizer(tree, axis, 4) for axis in axes] == list(cx.axis_reports)
    assert not {"vertices", "edges", "adjacency"} & set(vars(tree)), sorted(vars(tree))


def tree_geodesic(tree, u, v):
    """The ball's geodesic from u to v, climbing from the deeper end through nearer neighbours."""
    up, down = [u], [v]
    while up[-1] != down[-1]:
        a, b = up[-1], down[-1]
        deeper = up if tree.distance(BASE_VERTEX, a) >= tree.distance(BASE_VERTEX, b) else down
        deeper.append(tree.adjacency[deeper[-1]][0])
    return tuple(up + down[-2::-1])


@st.composite
def geodesic_case(draw):
    spec = draw(st.sampled_from(SCAN_SPECS))
    radius = draw(st.integers(2, 9 if spec is not Z234 else 6))
    tree = scan_ball(spec, radius)
    kind = draw(st.sampled_from(["pair", "branch", "axis", "one", "empty"]))
    vertices = st.sampled_from(tree.vertices)
    if kind == "pair":
        path = tree_geodesic(tree, draw(vertices), draw(vertices))
    elif kind == "branch":
        # a branch from a vertex towards the identity vertex: its nearest vertex is an end
        path = tree_geodesic(tree, draw(vertices), BASE_VERTEX)
        path = path[:draw(st.integers(1, len(path)))]
    elif kind == "axis":
        word = draw(st.sampled_from([w for w in words_up_to(spec, 3) if axis_of(tree, w)] or [()]))
        path = axis_of(tree, word) or ()
    else:
        path = (draw(vertices),) if kind == "one" else ()
    if draw(st.booleans()):
        path = path[::-1]
    return tree, path, draw(st.integers(0, radius + 3))


@settings(max_examples=300, deadline=None)
@given(geodesic_case())
def test_axis_stabilisers_match_every_product_of_two_axis_elements(case):
    """Only the element vertices near the one nearest the identity give candidates."""
    tree, path, budget = case
    assert setwise_axis_stabilizer(tree, path, budget) == setwise_by_pairs(tree, path, budget)


def test_products_formed_grow_with_the_budget_not_the_axis(monkeypatch):
    """At most (2 budget + 2)^2 products per axis, however many element vertices it has."""
    tree = ball(Z23, 24)
    axis = axis_of(tree, parse_word(Z23, "ab"))
    assert sum(v.factor is None for v in axis) == 25
    counts = {"join": 0, "act": 0}
    real_join, real_act = bass_serre._join, bass_serre._act

    def counting_join(spec, u, v):
        counts["join"] += 1
        return real_join(spec, u, v)

    def counting_act(spec, g, v):
        counts["act"] += 1
        return real_act(spec, g, v)

    monkeypatch.setattr(bass_serre, "_join", counting_join)
    monkeypatch.setattr(bass_serre, "_act", counting_act)
    for budget in range(0, 7):
        counts.update(join=0, act=0)
        setwise_axis_stabilizer(tree, axis, budget)
        # each _act call forms one product of its own with _join
        assert counts["join"] - counts["act"] <= (2 * budget + 2) ** 2


def outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(geodesic_case(), st.data())
def test_the_axis_check_keeps_its_messages_and_their_order(case, data):
    """Stepping to a parent or child in O(1) refuses the same paths, with the same message,
    as looking every vertex and every step up in the breadth-first table."""
    tree, path, _ = case
    oracle = oracle_ball(tree.spec, tree.radius)
    v = data.draw(st.sampled_from(oracle.vertices))
    extra = data.draw(st.sampled_from(
        [x for x in non_members(tree.spec, tree.radius, v)
         if isinstance(x, Vertex) and isinstance(x.word, tuple)]   # the table needs a hash
        + list(oracle.adjacency[v]) + [v]))
    path = list(path)
    for _ in range(data.draw(st.integers(0, 2))):
        path.insert(data.draw(st.integers(0, len(path))), extra)
    if path and data.draw(st.booleans()):
        del path[data.draw(st.integers(0, len(path) - 1))]
    onward = oracle_ball(tree.spec, tree.radius + 1).adjacency.get(path[-1]) if path else None
    if onward and data.draw(st.booleans()):   # one step on, perhaps past the radius
        path.append(data.draw(st.sampled_from(onward)))
    assert outcome(_geodesic, tree, path) == outcome(geodesic_by_adjacency, oracle, path)


def steps_from(spec, u):
    """Every vertex one syllable change away from u: its neighbours, and near misses with a
    factor or exponent out of range or a coset word ending in its own factor."""
    word, m = u.word, spec.num_factors
    found = [Vertex(w, j) for w in (word, word[:-1]) for j in range(-1, m + 1)]
    found += [Vertex(w, None) for w in (word, word[:-1])]
    for k in range(-1, m + 1):
        n = spec.factor_orders[k] if 0 <= k < m else 3
        found += [Vertex(word + ((k, e),), None) for e in range(-1, n + 1)]
    return found


@pytest.mark.parametrize("spec,radius", [(Z22, 4), (Z23, 5), (Z222, 4), (Z234, 3)])
def test_every_step_of_an_axis_is_checked_as_the_table_would(spec, radius):
    """Each step from a ball vertex, to a neighbour or a near miss of one, is accepted or
    refused with the message of the breadth-first table."""
    tree, oracle = ball(spec, radius), oracle_ball(spec, radius)
    for u in oracle.vertices:
        for v in steps_from(spec, u):
            expected = outcome(geodesic_by_adjacency, oracle, (u, v))
            assert outcome(_geodesic, tree, (u, v)) == expected


def test_non_geodesic_axes_are_refused():
    tree = ball(Z222, 6)
    axis = axis_of(tree, parse_word(Z222, "ab"))
    gap = axis[:3] + axis[4:]                         # consecutive vertices not adjacent
    backtrack = axis[:3] + (axis[1],)                 # adjacent steps, ends too close
    k = next(k for k, v in enumerate(axis) if k and v.factor is None)
    off = next(n for n in tree.adjacency[axis[k]] if n not in axis)
    branch = axis[:k + 1] + (off,)                    # leaves the line: still a geodesic
    outside = axis + (Vertex(parse_word(Z222, "abcabc"), None),)
    for bad in (gap, backtrack, axis[::2], outside):
        with pytest.raises(ValueError):
            setwise_axis_stabilizer(tree, bad, budget=2)
        with pytest.raises(ValueError):
            cone_off(tree, [axis, bad], budget=2)
    assert setwise_axis_stabilizer(tree, branch, budget=3) == setwise_by_scan(tree, branch, 3)


def test_negative_budgets_are_refused():
    tree = ball(Z23, 4)
    axis = axis_of(tree, parse_word(Z23, "ab"))
    with pytest.raises(ValueError):
        setwise_axis_stabilizer(tree, axis, budget=-1)
    with pytest.raises(ValueError):
        cone_off(tree, [axis], budget=-1)


def test_each_word_costs_at_most_four_actions_per_axis(monkeypatch):
    """Only the products v_j v_i^-1 of element vertices are assessed, whatever the budget."""
    calls = []
    real_act = bass_serre._act

    def counting_act(spec, g, v):
        calls.append(g)
        return real_act(spec, g, v)

    monkeypatch.setattr(bass_serre, "_act", counting_act)
    for spec, radius, words, budget in ((Z23, 10, ("ab", "bab"), 3),
                                        (Z222, 8, ("ab", "bc", "ac", "cabc"), 6),
                                        (Z222, 8, ("ab", "cabc"), 12)):
        tree = ball(spec, radius)
        axes = [axis_of(tree, parse_word(spec, w)) for w in words]
        bounds = [4 * sum(v.factor is None for v in axis) ** 2 for axis in axes]
        for axis, bound in zip(axes, bounds):
            calls.clear()
            setwise_axis_stabilizer(tree, axis, budget)
            assert len(calls) <= bound
        calls.clear()
        cone_off(tree, axes, budget)
        assert len(calls) <= sum(bounds)


# --- the push-out bound by cell class ---

def test_cell_classes_and_bound_follow_the_cells():
    tree = ball(Z222, 4)
    axis = axis_of(tree, parse_word(Z222, "ab"))
    values = {"vertex": 3, "cone_vertex": 1, "edge": 0, "cone_edge": 2, "face": 0}
    for axes in ([], [()], [axis[:1]], [axis[:1], ()], [axis], [(), axis, axis[:1]]):
        cx = cone_off(tree, axes, budget=2)
        assert tuple(cx.cell_counts()) == tuple(dict.fromkeys(c.cell_class for c in cx.cells()))
        assert pushout_dimension_bound(cx, values) == pushout_bound_by_walk(cx, values)
        for missing in cx.cell_counts():
            partial = {k: v for k, v in values.items() if k != missing}
            with pytest.raises(MissingAssignment) as raised:
                pushout_dimension_bound(cx, partial)
            assert raised.value.args == (missing,)
        assert pushout_dimension_bound(cx, {c: 0 for c in cx.cell_counts()}) == (
            2 if any(len(a) >= 2 for a in axes) else 1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(Z22, 5), (Z23, 6), (Z222, 4)]),
       st.lists(st.integers(0, 4), min_size=5, max_size=5),
       st.lists(st.integers(0, 9), max_size=3))
def test_pushout_bound_matches_the_walk_over_every_cell(key, values, cuts):
    spec, radius = key
    tree = ball(spec, radius)
    axis = axis_of(tree, ((0, 1), (1, 1)))
    axes = [axis[:cut] for cut in cuts]
    cx = cone_off(tree, axes, budget=1)
    assignment = dict(zip(("vertex", "cone_vertex", "edge", "cone_edge", "face"), values))
    assert pushout_dimension_bound(cx, assignment) == pushout_bound_by_walk(cx, assignment)
