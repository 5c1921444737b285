"""Brute-force oracles for the GL(2, Z) and Bass-Serre tests.

The package classifies GL(2, Z) matrices by trace and determinant and
measures tree geometry in closed form; these helpers recompute the same
facts by search and enumeration (the order of a matrix by taking powers,
a lattice basis by the extended Euclidean algorithm, the ball grown
breadth first from each vertex's children with its adjacency lists,
breadth-first distances and paths inside that ball, displacement
minimisation over each of its vertices,
stabilisers by testing every budgeted word on every vertex, axis
stabilisers from the action of every product of two axis elements, the
stabiliser record of every cell of a coned complex built in one pass,
the push-out bound by walking every cell, the short hyperbolic words of
`--axes auto` by filtering every word, the normaliser of a cyclic
subgroup of Z^2 x| Z by conjugating with every element of a box) so the
tests can compare the two.  The group operations that only these comparisons need
(the enumeration of words, their product, the action on vertices and on
a geodesic axis, the product, inverse, powers and conjugation in
Z^2 x| Z) live here too.
"""
from __future__ import annotations

from collections import deque
from math import gcd
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from gdim3.bass_serre import (
    BASE_VERTEX,
    AxisStabilizerReport,
    Cell,
    ConedComplex,
    FreeProductSpec,
    SdElement,
    SemidirectSpec,
    Syllable,
    TreeBall,
    Vertex,
    Word,
    _axis_position,
    _coset_stabilizer,
    _depth,
    _geodesic,
    _join,
    coset_canonical,
    inverse,
    normal_form,
    setwise_axis_stabilizer,
)
from gdim3.gl2z import IDENTITY, Mat2Z, _require_unimodular

#: Finite orders occurring in GL(2, Z) are 1, 2, 3, 4 and 6; all divide 12.
MAX_FINITE_ORDER = 12


def order(m: Mat2Z) -> Optional[int]:
    """Least n >= 1 with m^n = I, or None when m has infinite order.

    Brute force up to 12 suffices: finite subgroups of GL(2, Z) realise
    element orders 1, 2, 3, 4 and 6 only (the crystallographic
    restriction), so nothing is missed past that bound.  This is the
    independent oracle against which classify() is tested.
    """
    _require_unimodular(m)
    power = m
    for n in range(1, MAX_FINITE_ORDER + 1):
        if power == IDENTITY:
            return n
        power = power * m
    return None


def complete_basis(v: Tuple[int, int]) -> Tuple[int, int]:
    """A vector w with det(v | w) = 1, for primitive v, via Bezout."""
    x, y = v
    if gcd(x, y) != 1:
        raise ValueError(f"{v} is not primitive")
    # extended gcd: s*x + t*y = 1, then w = (-t, s) gives x*s - y*(-t) = 1
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r == -1:
        old_s, old_t = -old_s, -old_t
    return (-old_t, old_s)


def sd_mul(group: SemidirectSpec, g: SdElement, h: SdElement) -> SdElement:
    """The product (v1, l1)(v2, l2) = (v1 + A^l1 v2, l1 + l2) in Z^2 x|_A Z."""
    (v1, l1), (v2, l2) = g, h
    moved = group.monodromy.pow(l1).apply(v2)
    return ((v1[0] + moved[0], v1[1] + moved[1]), l1 + l2)


def sd_inv(group: SemidirectSpec, g: SdElement) -> SdElement:
    """The inverse (v, l)^-1 = (-A^-l v, -l) in Z^2 x|_A Z."""
    v, l = g
    moved = group.monodromy.pow(-l).apply(v)
    return ((-moved[0], -moved[1]), -l)


def conjugate(group: SemidirectSpec, g: SdElement, h: SdElement) -> SdElement:
    """g h g^-1 in Z^2 x| Z."""
    return sd_mul(group, sd_mul(group, g, h), sd_inv(group, g))


def sd_pow(group: SemidirectSpec, g: SdElement, k: int) -> SdElement:
    """g^k in Z^2 x| Z, by repeated multiplication."""
    factor = g if k >= 0 else sd_inv(group, g)
    power: SdElement = ((0, 0), 0)
    for _ in range(abs(k)):
        power = sd_mul(group, power, factor)
    return power


def normalising_elements(group: SemidirectSpec, c: SdElement, reach: int,
                         height: int) -> List[SdElement]:
    """Every ((x, y), m) with |x|, |y| <= reach and |m| <= height that
    conjugates c to c or c^-1, found by testing each."""
    targets = (c, sd_inv(group, c))
    box = range(-reach, reach + 1)
    return [
        g for g in (((x, y), m) for x in box for y in box for m in range(-height, height + 1))
        if conjugate(group, g, c) in targets
    ]


def rank_seen(elements: Sequence[SdElement]) -> int:
    """The Hirsch length that a set of normalising elements shows: the rank of
    its fibre vectors, plus 1 when one has a nonzero stable exponent."""
    fibre = [v for v, m in elements if m == 0 and v != (0, 0)]
    independent = any(v[0] * w[1] != v[1] * w[0] for v in fibre for w in fibre)
    fibre_rank = 2 if independent else 1 if fibre else 0
    return fibre_rank + any(m != 0 for _, m in elements)


def words_up_to(spec: FreeProductSpec, length: int) -> Iterator[Word]:
    """All normal-form words of syllable length <= length, shortest first."""
    frontier: List[Word] = [()]
    yield ()
    for _ in range(length):
        new: List[Word] = []
        for w in frontier:
            last = w[-1][0] if w else None
            for factor, order in enumerate(spec.factor_orders):
                if factor == last:
                    continue
                for exponent in range(1, order):
                    nxt = w + ((factor, exponent),)
                    new.append(nxt)
                    yield nxt
        frontier = new


def auto_axis_words(spec: FreeProductSpec) -> List[Word]:
    """The hyperbolic words of at most two syllables, found by enumeration."""
    return [w for w in words_up_to(spec, 2) if len(rotate_to_cyclically_reduced(spec, w)) >= 2]


def mul(spec: FreeProductSpec, u: Sequence[Syllable], v: Sequence[Syllable]) -> Word:
    """The normal form of the product u v."""
    return _join(spec, normal_form(spec, u), normal_form(spec, v))


def act(spec: FreeProductSpec, g: Sequence[Syllable], v: Vertex) -> Vertex:
    """Left translation action on vertex labels (defined on the whole tree): g w, and for a
    coset g w<i> with the word's own last syllable of factor i dropped."""
    moved = mul(spec, g, v.word)
    return Vertex(moved if v.factor is None else coset_canonical(moved, v.factor), v.factor)


def translation_syllables(spec: FreeProductSpec, w: Sequence[Syllable]) -> int:
    """Translation length in syllable units (half the graph displacement)."""
    return len(rotate_to_cyclically_reduced(spec, w))


def rotate_to_cyclically_reduced(spec: FreeProductSpec, w: Sequence[Syllable]) -> Word:
    """Move the last syllable to the front until the ends lie in different factors."""
    word = normal_form(spec, w)
    while len(word) >= 2 and word[0][0] == word[-1][0]:
        word = normal_form(spec, word[-1:] + word[:-1])
    return word


def path_stabilizer(spec_ball: TreeBall, path: Sequence[Vertex],
                    budget: int = 6) -> List[Word]:
    """Words of syllable length <= budget fixing every vertex of the path.

    Any path containing an element vertex, in particular any path with
    at least one edge, is fixed by the identity alone; a single coset
    vertex w * Z_n is fixed by the n conjugates w * s * w^-1.
    """
    spec = spec_ball.spec
    return [g for g in words_up_to(spec, budget) if all(act(spec, g, v) == v for v in path)]


def children(spec: FreeProductSpec, v: Vertex) -> List[Vertex]:
    """Neighbours of v one step farther from the identity vertex."""
    if v.factor is None:
        last = v.word[-1][0] if v.word else None
        return [Vertex(v.word, i) for i in range(spec.num_factors) if i != last]
    exponents = range(1, spec.factor_orders[v.factor])
    return [Vertex(v.word + ((v.factor, e),), None) for e in exponents]


class BfsBall(NamedTuple):
    """The vertex table of a ball as a breadth-first search meets it."""

    vertices: Tuple[Vertex, ...]
    edges: Tuple[Tuple[Vertex, Vertex], ...]
    adjacency: Dict[Vertex, Tuple[Vertex, ...]]


def bfs_ball(spec: FreeProductSpec, radius: int) -> BfsBall:
    """The ball grown from the identity vertex one distance level at a time: vertices in the
    order met, each edge (nearer, farther), each adjacency list nearer neighbour first."""
    order: List[Vertex] = [BASE_VERTEX]
    neighbours: List[List[Vertex]] = [[]]
    edges: List[Tuple[Vertex, Vertex]] = []
    start = 0
    for _ in range(radius):
        end = len(order)
        for k in range(start, end):
            v = order[k]
            for child in children(spec, v):
                order.append(child)
                edges.append((v, child))
                neighbours.append([v])
                neighbours[k].append(child)
        start = end
    return BfsBall(tuple(order), tuple(edges), dict(zip(order, map(tuple, neighbours))))


def geodesic_by_adjacency(oracle: BfsBall, axis: Sequence[Vertex]) -> Tuple[Vertex, ...]:
    """The axis check by table lookups: every vertex in the ball first, then every step
    along an edge, then the ends as far apart as the path is long."""
    axis = tuple(axis)
    for v in axis:
        if v not in oracle.adjacency:
            raise ValueError(f"axis vertex {v.label()} lies outside the ball")
    for u, v in zip(axis, axis[1:]):
        if v not in oracle.adjacency[u]:
            raise ValueError(f"axis vertices {u.label()} and {v.label()} are not adjacent")
    if axis and BfsDistances(oracle)(axis[0], axis[-1]) != len(axis) - 1:
        raise ValueError(
            f"the axis from {axis[0].label()} to {axis[-1].label()} is not a geodesic")
    return axis


class BfsDistances:
    """Graph distances inside a breadth-first ball, one breadth-first search per source."""

    def __init__(self, oracle: BfsBall) -> None:
        self.oracle = oracle
        self.tables: Dict[Vertex, Dict[Vertex, int]] = {}

    def __call__(self, u: Vertex, v: Vertex) -> int:
        table = self.tables.get(u)
        if table is None:
            table = {u: 0}
            queue = deque([u])
            while queue:
                current = queue.popleft()
                for neighbour in self.oracle.adjacency[current]:
                    if neighbour not in table:
                        table[neighbour] = table[current] + 1
                        queue.append(neighbour)
            self.tables[u] = table
        return table[v]


def _vertex_key(v: Vertex) -> tuple:
    return (v.word, -1 if v.factor is None else v.factor)


def axis_by_displacement(spec: FreeProductSpec, w: Sequence[Syllable],
                         distance: BfsDistances) -> Optional[Tuple[Vertex, ...]]:
    """Visible axis of w found by minimising the displacement d(v, w.v) over the vertices
    of the breadth-first ball that distance measures.

    The displacement can only be measured where both endpoints lie in the
    ball, so the minimiser set is a window strictly inside the visible
    line; the window must be a path, and the geodesic hull of it and its
    w- and w^-1-translates is the axis inside the ball, ordered from the
    end with the smaller (word, factor) key.
    """
    oracle = distance.oracle
    g = normal_form(spec, w)
    reduced = rotate_to_cyclically_reduced(spec, g)
    if len(reduced) <= 1:
        return None
    expected = 2 * len(reduced)
    window: List[Vertex] = []
    for v in oracle.vertices:
        image = act(spec, g, v)
        if image not in oracle.adjacency:
            continue
        displacement = distance(v, image)
        if displacement < expected:
            raise AssertionError(f"displacement below the translation length for {g}")
        if displacement == expected:
            window.append(v)
    if not window:
        return None
    order_path(oracle, window)   # the minimal displacement set must be a path
    points = set(window)
    for direction in (g, inverse(spec, g)):
        for v in window:
            image = act(spec, direction, v)
            if image in oracle.adjacency:
                points.add(image)
    ordered = sorted(points, key=_vertex_key)
    end_a, end_b, span = ordered[0], ordered[0], 0
    for i, u in enumerate(ordered):
        for v in ordered[i:]:
            if distance(u, v) > span:
                end_a, end_b, span = u, v, distance(u, v)
    line = [x for x in oracle.vertices if distance(end_a, x) + distance(end_b, x) == span]
    if not points <= set(line):
        raise AssertionError("axis translates are not collinear")
    line.sort(key=lambda x: distance(end_a, x))
    return tuple(line)


def order_path(oracle: BfsBall, vertices: Sequence[Vertex]) -> Tuple[Vertex, ...]:
    """The vertices in path order in a breadth-first ball; AssertionError unless they form
    a path."""
    vertex_set = set(vertices)
    local = {
        v: [n for n in oracle.adjacency[v] if n in vertex_set]
        for v in vertices
    }
    ends = sorted(
        (v for v in vertices if len(local[v]) <= 1),
        key=lambda v: (v.factor is not None, v.factor if v.factor is not None else -1, v.word),
    )
    if len(vertices) == 1:
        return (vertices[0],)
    if len(ends) != 2:
        raise AssertionError("vertex set is not a path segment")
    path = [ends[0]]
    previous = None
    while True:
        candidates = [n for n in local[path[-1]] if n != previous]
        if not candidates:
            break
        previous = path[-1]
        path.append(candidates[0])
    if len(path) != len(vertices):
        raise AssertionError("vertex set is not connected")
    return tuple(path)


def tree_cell_records(tree: TreeBall, budget: int) -> Dict[Cell, Tuple[Word, ...]]:
    """Stabiliser records of the tree's vertices and edges, word by word."""
    spec = tree.spec
    words = list(words_up_to(spec, budget))
    records: Dict[Cell, Tuple[Word, ...]] = {}
    for v in tree.vertices:
        records[Cell("vertex", 0, (v,))] = tuple(g for g in words if act(spec, g, v) == v)
    for u, v in tree.edges:
        records[Cell("edge", 1, (u, v))] = tuple(
            g for g in words if {act(spec, g, u), act(spec, g, v)} == {u, v}
        )
    return records


def preserving_words(tree: TreeBall, axis: Sequence[Vertex], words: Sequence[Word]) -> Set[Word]:
    """Words carrying the axis into itself wherever its image is visible, on >= 2 vertices.

    The set is filled with add in the order of words, as cone_off fills its own.
    """
    spec, axis_set = tree.spec, set(axis)
    keep = set()
    for g in words:
        assessed = 0
        for v in axis:
            image = act(spec, g, v)
            if image not in tree:
                continue
            if image not in axis_set:
                break
            assessed += 1
        else:
            if assessed >= 2:
                keep.add(g)
    return keep


def setwise_by_scan(tree: TreeBall, axis: Sequence[Vertex], budget: int) -> AxisStabilizerReport:
    """The setwise axis stabiliser from the image of every axis vertex under every word."""
    spec = tree.spec
    index = {v: i for i, v in enumerate(axis)}
    elements: List[Word] = []
    translations: List[Tuple[Word, int]] = []
    reflections: List[Tuple[Word, int]] = []
    violations: List[Word] = []
    for g in words_up_to(spec, budget):
        pairs: List[Tuple[int, int]] = []
        off_axis = False
        for i, v in enumerate(axis):
            image = act(spec, g, v)
            if image not in tree:
                continue
            target = index.get(image)
            if target is None:
                off_axis = True
                break
            pairs.append((i, target))
        if off_axis or len(pairs) < 2:
            continue
        elements.append(g)
        deltas = {j - i for i, j in pairs}
        sums = {j + i for i, j in pairs}
        if len(deltas) == 1:
            translations.append((g, deltas.pop()))
        elif len(sums) == 1:
            reflections.append((g, sums.pop()))
        else:
            violations.append(g)
    return AxisStabilizerReport(
        elements=tuple(elements),
        translations=tuple(translations),
        reflections=tuple(reflections),
        violations=tuple(violations),
    )


class AxisAction(NamedTuple):
    """How a word moves the visible part of a geodesic axis v_0 ... v_{n-1}.

    v_t goes to v_{t + value} (a translation) or to v_{value - t} (a
    reflection), wherever its image lies in the ball.
    """

    reflection: bool
    value: int


def axis_action(spec_ball: TreeBall, axis: Tuple[Vertex, ...], g: Word) -> Optional[AxisAction]:
    """The action of g on a geodesic axis, or None unless g preserves it.

    g preserves the axis when at least two axis vertices have images in
    the ball and all of those images lie on the axis.  The image of v_t
    lies at depth |t - s| + delta, where v_s is the axis vertex nearest to
    g^-1 * (identity vertex) at distance delta, so the two ends give s and
    delta and the vertices with images in the ball are v_lo ... v_hi.  The
    image of that segment is the geodesic between the images of v_lo and
    v_hi, which lies on the axis when both of them do.  At most four
    act calls per word.
    """
    spec, last = spec_ball.spec, len(axis) - 1
    if last < 1:
        return None
    head, tail = act(spec, g, axis[0]), act(spec, g, axis[last])
    depth = _depth(head)
    s = (depth - _depth(tail) + last) // 2
    reach = spec_ball.radius - (depth - s)
    lo, hi = max(0, s - reach), min(last, s + reach)
    if hi <= lo:
        return None
    ja = _axis_position(axis, head if lo == 0 else act(spec, g, axis[lo]))
    jb = _axis_position(axis, tail if hi == last else act(spec, g, axis[hi]))
    if ja is None or jb is None:
        return None
    if jb - ja == hi - lo:
        return AxisAction(False, ja - lo)
    return AxisAction(True, ja + lo)


def setwise_by_pairs(tree: TreeBall, axis: Sequence[Vertex], budget: int) -> AxisStabilizerReport:
    """The setwise axis stabiliser from every product v_j v_i^-1 of the axis's element vertices."""
    axis = _geodesic(tree, axis)
    spec = tree.spec
    words = [v.word for v in axis if v.factor is None]
    products = {_join(spec, u, inverse(spec, w)) for u in words for w in words}
    elements: List[Word] = []
    translations: List[Tuple[Word, int]] = []
    reflections: List[Tuple[Word, int]] = []
    for g in sorted((g for g in products if len(g) <= budget), key=lambda w: (len(w), w)):
        action = axis_action(tree, axis, g)
        if action is None:
            continue
        elements.append(g)
        (reflections if action.reflection else translations).append((g, action.value))
    return AxisStabilizerReport(
        elements=tuple(elements),
        translations=tuple(translations),
        reflections=tuple(reflections),
        violations=(),
    )


def cone_cell_records(tree: TreeBall, axes: Sequence[Sequence[Vertex]],
                      budget: int) -> List[Tuple[Cell, Tuple[Word, ...]]]:
    """Cone-vertex, cone-edge and face records, in cone_off's order, by testing every word."""
    spec = tree.spec
    words = list(words_up_to(spec, budget))
    records: List[Tuple[Cell, Tuple[Word, ...]]] = []
    for i, axis in enumerate(axes):
        keep = preserving_words(tree, axis, words)
        records.append((Cell("cone_vertex", 0, (i,)), tuple(sorted(keep))))
        for v in axis:
            records.append((Cell("cone_edge", 1, (i, v)),
                            tuple(g for g in keep if act(spec, g, v) == v)))
        for u, v in zip(axis, axis[1:]):
            records.append((Cell("face", 2, (i, u, v)), tuple(
                g for g in keep if {act(spec, g, u), act(spec, g, v)} == {u, v}
            )))
    return records


def cone_off_records(tree: TreeBall, axes: Sequence[Sequence[Vertex]],
                     budget: int) -> Dict[Cell, Tuple[Word, ...]]:
    """The setwise stabiliser record of every cell of the coned complex, built in one pass.

    This is the record dict cone_off used to build, in its order: the
    tree's vertices, then per axis its cone vertex, cone edges and faces,
    then the tree's edges.  Tree cells take the closed forms, cone cells
    the setwise_axis_stabilizer report, and cone-edge records list words
    in the iteration order of keep, a set filled by add in report order.
    """
    spec = tree.spec
    axis_tuples = tuple(tuple(a) for a in axes)
    reports = tuple(setwise_axis_stabilizer(tree, a, budget) for a in axis_tuples)
    trivial: Tuple[Word, ...] = ((),)
    records: Dict[Cell, Tuple[Word, ...]] = {}
    for v in tree.vertices:
        records[Cell("vertex", 0, (v,))] = (
            trivial if v.factor is None or 2 * len(v.word) + 1 > budget
            else _coset_stabilizer(spec, v))
    for i, (axis, report) in enumerate(zip(axis_tuples, reports)):
        keep = set()
        for g in report.elements:
            keep.add(g)
        centres = {g: value // 2 for g, value in report.reflections}
        records[Cell("cone_vertex", 0, (i,))] = tuple(sorted(keep))
        for t, v in enumerate(axis):
            records[Cell("cone_edge", 1, (i, v))] = tuple(
                g for g in keep if not g or centres.get(g) == t)
        for u, v in zip(axis, axis[1:]):
            records[Cell("face", 2, (i, u, v))] = trivial
    for e in tree.edges:
        records[Cell("edge", 1, e)] = trivial
    return records


def pushout_bound_by_walk(complex_: ConedComplex, cell_gd: Dict[str, int]) -> int:
    """max(assigned value + dim) over every cell; KeyError names the first unassigned one."""
    best: Optional[int] = None
    for cell in complex_.cells():
        if cell.cell_class not in cell_gd:
            raise KeyError(cell.cell_class)
        candidate = cell_gd[cell.cell_class] + cell.dim
        if best is None or candidate > best:
            best = candidate
    if best is None:
        raise ValueError("the complex has no cells")
    return best
