"""Brute-force oracles for the GL(2, Z) and Bass-Serre tests.

The package classifies GL(2, Z) matrices by trace and determinant and
measures tree geometry in closed form; these helpers recompute the same
facts by search and enumeration (the order of a matrix by taking powers,
a lattice basis by the extended Euclidean algorithm, breadth-first
distances inside the ball, displacement minimisation over every vertex,
stabilisers by testing every budgeted word on every vertex, the push-out
bound by walking every cell) so the tests can compare the two.  The
group operations that only these comparisons need (the product of
words, the action on vertices, conjugation in Z^2 x| Z) live here too.
"""
from __future__ import annotations

from collections import deque
from math import gcd
from typing import Dict, List, Optional, Sequence, Set, Tuple

from gdim3.bass_serre import (
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
    _act,
    _join,
    inverse,
    normal_form,
    words_up_to,
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


def conjugate(group: SemidirectSpec, g: SdElement, h: SdElement) -> SdElement:
    """g h g^-1 in Z^2 x| Z."""
    return group.mul(group.mul(g, h), group.inv(g))


def mul(spec: FreeProductSpec, u: Sequence[Syllable], v: Sequence[Syllable]) -> Word:
    """The normal form of the product u v."""
    return _join(spec, normal_form(spec, u), normal_form(spec, v))


def act(spec: FreeProductSpec, g: Sequence[Syllable], v: Vertex) -> Vertex:
    """Left translation action on vertex labels (defined on the whole tree)."""
    return _act(spec, normal_form(spec, g), Vertex(normal_form(spec, v.word), v.factor))


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


class BfsDistances:
    """Graph distances inside a ball, one breadth-first search per source."""

    def __init__(self, tree: TreeBall) -> None:
        self.tree = tree
        self.tables: Dict[Vertex, Dict[Vertex, int]] = {}

    def __call__(self, u: Vertex, v: Vertex) -> int:
        table = self.tables.get(u)
        if table is None:
            table = {u: 0}
            queue = deque([u])
            while queue:
                current = queue.popleft()
                for neighbour in self.tree.adjacency[current]:
                    if neighbour not in table:
                        table[neighbour] = table[current] + 1
                        queue.append(neighbour)
            self.tables[u] = table
        return table[v]


def _vertex_key(v: Vertex) -> tuple:
    return (v.word, -1 if v.factor is None else v.factor)


def axis_by_displacement(tree: TreeBall, w: Sequence[Syllable],
                         distance: Optional[BfsDistances] = None
                         ) -> Optional[Tuple[Vertex, ...]]:
    """Visible axis of w found by minimising the displacement d(v, w.v).

    The displacement can only be measured where both endpoints lie in the
    ball, so the minimiser set is a window strictly inside the visible
    line; the window must be a path, and the geodesic hull of it and its
    w- and w^-1-translates is the axis inside the ball, ordered from the
    end with the smaller (word, factor) key.
    """
    spec = tree.spec
    distance = distance or BfsDistances(tree)
    g = normal_form(spec, w)
    reduced = rotate_to_cyclically_reduced(spec, g)
    if len(reduced) <= 1:
        return None
    expected = 2 * len(reduced)
    window: List[Vertex] = []
    for v in tree.vertices:
        image = act(spec, g, v)
        if image not in tree:
            continue
        displacement = distance(v, image)
        if displacement < expected:
            raise AssertionError(f"displacement below the translation length for {g}")
        if displacement == expected:
            window.append(v)
    if not window:
        return None
    order_path(tree, window)   # the minimal displacement set must be a path
    points = set(window)
    for direction in (g, inverse(spec, g)):
        for v in window:
            image = act(spec, direction, v)
            if image in tree:
                points.add(image)
    ordered = sorted(points, key=_vertex_key)
    end_a, end_b, span = ordered[0], ordered[0], 0
    for i, u in enumerate(ordered):
        for v in ordered[i:]:
            if distance(u, v) > span:
                end_a, end_b, span = u, v, distance(u, v)
    line = [x for x in tree.vertices if distance(end_a, x) + distance(end_b, x) == span]
    if not points <= set(line):
        raise AssertionError("axis translates are not collinear")
    line.sort(key=lambda x: distance(end_a, x))
    return tuple(line)


def order_path(tree: TreeBall, vertices: Sequence[Vertex]) -> Tuple[Vertex, ...]:
    """The vertices in path order; AssertionError unless they form a path."""
    vertex_set = set(vertices)
    local = {
        v: [n for n in tree.adjacency[v] if n in vertex_set]
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
