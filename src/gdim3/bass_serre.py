"""Finite-scale certificates for groups acting on trees.

Two independent gadgets live here.

The first is the Bass-Serre tree of a free product of finite cyclic
groups, Z_{n_1} * ... * Z_{n_m}.  The tree realised is the one for the
star-shaped splitting with a central trivial vertex group: its vertices
are the group elements (one per reduced word) together with the cosets
w * Z_{n_i}, and each element w is joined to its m cosets.  Edge
stabilisers are trivial, the stabiliser of a coset vertex is the
conjugate of the finite factor, and an element vertex is stabilised by
the identity alone, so the action is acylindrical in the strongest
sense: every path with at least one edge has trivial stabiliser.  For
two factors the element vertices have degree two and the tree draws as
the familiar line or biregular tree.  balls are explored breadth first
from the identity vertex; hyperbolic elements are recognised by
symbolic cyclic reduction but their axes are found by honest
displacement minimisation inside the ball, so equivariance is a
testable fact rather than an assumption.  Coning each axis to a point
produces a two-complex whose cells carry setwise stabiliser records,
and the push-out dimension bound max(gd(stabiliser class) + dim cell)
can be evaluated against any assignment of values to cell classes.

The second gadget is algebraic: in Gamma = Z^2 x|_A Z with hyperbolic
monodromy A, the normaliser of the infinite cyclic subgroup generated
by c is Z when c lies outside the fibre Z^2 and Z^2 when c is a fibre
vector.  The probe verifies the defining identities for all exponents
up to a budget and returns the certificate lines.

Everything here is budget bounded.  A result only certifies the
statement "within radius r" or "for words of syllable length <= B".
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .gl2z import Mat2Z, MatKind, classify

Syllable = Tuple[int, int]
Word = Tuple[Syllable, ...]   # normal form: alternating factors, exponents in 1..n_i - 1


class BallLimitExceeded(RuntimeError):
    """The requested ball is larger than the resource cap."""


class MissingAssignment(KeyError):
    """A cell class present in the complex has no assigned value."""


class NotHyperbolic(ValueError):
    """The probe needs a hyperbolic monodromy."""


class UnsupportedElement(ValueError):
    """The probe handles fibre vectors and powers of the stable letter only."""


@dataclass(frozen=True)
class FreeProductSpec:
    """Free product of finite cyclic groups, given by the factor orders."""

    factor_orders: Tuple[int, ...]

    def __post_init__(self) -> None:
        orders = tuple(int(n) for n in self.factor_orders)
        object.__setattr__(self, "factor_orders", orders)
        if len(orders) < 2:
            raise ValueError("a free product needs at least two factors")
        if any(n < 2 for n in orders):
            raise ValueError("factor orders must be >= 2")

    @property
    def num_factors(self) -> int:
        return len(self.factor_orders)


# ---------------------------------------------------------------------------
# words

def normal_form(spec: FreeProductSpec, syllables: Sequence[Syllable]) -> Word:
    """Confluent reduction: merge adjacent same-factor syllables, drop zeros."""
    orders = spec.factor_orders
    out: List[List[int]] = []
    for factor, exponent in syllables:
        if not 0 <= factor < len(orders):
            raise ValueError(f"factor index {factor} out of range")
        exponent %= orders[factor]
        if exponent == 0:
            continue
        if out and out[-1][0] == factor:
            merged = (out[-1][1] + exponent) % orders[factor]
            if merged == 0:
                out.pop()
            else:
                out[-1][1] = merged
        else:
            out.append([factor, exponent])
    return tuple((f, e) for f, e in out)


def mul(spec: FreeProductSpec, u: Sequence[Syllable], v: Sequence[Syllable]) -> Word:
    return normal_form(spec, tuple(u) + tuple(v))


def inverse(spec: FreeProductSpec, w: Sequence[Syllable]) -> Word:
    return normal_form(spec, tuple((f, -e) for f, e in reversed(tuple(w))))


def cyclically_reduce(spec: FreeProductSpec, w: Sequence[Syllable]) -> Word:
    """A cyclically reduced conjugate of w (length <= 1 means elliptic)."""
    word = normal_form(spec, w)
    while len(word) >= 2 and word[0][0] == word[-1][0]:
        word = normal_form(spec, word[-1:] + word[:-1])
    return word


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


def word_str(w: Sequence[Syllable]) -> str:
    """Compact rendering: factor 0, 1, 2, ... print as a, b, c, ..."""
    if not w:
        return "1"
    parts = []
    for factor, exponent in w:
        letter = chr(ord("a") + factor)
        parts.append(letter if exponent == 1 else f"{letter}{exponent}")
    return "".join(parts)


def parse_word(spec: FreeProductSpec, text: str) -> Word:
    """Inverse of word_str: letters with optional positive exponents."""
    text = text.strip()
    if text in ("", "1"):
        return ()
    syllables: List[Syllable] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if not ch.isalpha():
            raise ValueError(f"bad word syntax at {text[i:]!r}")
        factor = ord(ch.lower()) - ord("a")
        if not 0 <= factor < spec.num_factors:
            raise ValueError(f"letter {ch!r} has no factor in {spec.factor_orders}")
        i += 1
        digits = ""
        while i < len(text) and text[i].isdigit():
            digits += text[i]
            i += 1
        syllables.append((factor, int(digits) if digits else 1))
    return normal_form(spec, syllables)


# ---------------------------------------------------------------------------
# the tree

class Vertex(NamedTuple):
    """Tree vertex: factor is None for an element vertex, else a coset w*Z_{n_i}.

    Coset words are canonical representatives, never ending in a syllable
    of their own factor.
    """

    word: Word
    factor: Optional[int]

    def label(self) -> str:
        if self.factor is None:
            return word_str(self.word)
        letter = chr(ord("a") + self.factor)
        return f"{word_str(self.word)}<{letter}>"


def coset_canonical(word: Word, factor: int) -> Word:
    if word and word[-1][0] == factor:
        return word[:-1]
    return word


def act(spec: FreeProductSpec, g: Sequence[Syllable], v: Vertex) -> Vertex:
    """Left translation action on vertex labels (defined on the whole tree)."""
    moved = mul(spec, g, v.word)
    if v.factor is None:
        return Vertex(moved, None)
    return Vertex(coset_canonical(moved, v.factor), v.factor)


BASE_VERTEX = Vertex((), None)


@dataclass
class TreeBall:
    """Ball of given radius around the identity vertex, with BFS structure."""

    spec: FreeProductSpec
    radius: int
    vertices: Tuple[Vertex, ...]
    edges: Tuple[Tuple[Vertex, Vertex], ...]
    adjacency: Dict[Vertex, Tuple[Vertex, ...]]
    _distance_cache: Dict[Vertex, Dict[Vertex, int]] = field(default_factory=dict)

    def __contains__(self, v: Vertex) -> bool:
        return v in self.adjacency

    def degree(self, v: Vertex) -> int:
        return len(self.adjacency[v])

    def distance(self, u: Vertex, v: Vertex) -> int:
        """Graph distance inside the ball (BFS, cached per source)."""
        table = self._distance_cache.get(u)
        if table is None:
            table = {u: 0}
            queue = deque([u])
            while queue:
                current = queue.popleft()
                for neighbour in self.adjacency[current]:
                    if neighbour not in table:
                        table[neighbour] = table[current] + 1
                        queue.append(neighbour)
            self._distance_cache[u] = table
        return table[v]


def _neighbours(spec: FreeProductSpec, v: Vertex) -> List[Vertex]:
    if v.factor is None:
        return [
            Vertex(coset_canonical(v.word, i), i)
            for i in range(spec.num_factors)
        ]
    factor = v.factor
    out = [Vertex(v.word, None)]
    for exponent in range(1, spec.factor_orders[factor]):
        out.append(Vertex(mul(spec, v.word, ((factor, exponent),)), None))
    return out


def ball(spec: FreeProductSpec, radius: int, max_vertices: int = 50000) -> TreeBall:
    """Breadth-first ball around the identity vertex.

    Element vertices sit at even distance 2 * (syllable length), coset
    vertices at odd distance 2 * (syllable length of the canonical
    representative) + 1.  Radius 0 is the base vertex alone.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    dist: Dict[Vertex, int] = {BASE_VERTEX: 0}
    order: List[Vertex] = [BASE_VERTEX]
    adjacency: Dict[Vertex, List[Vertex]] = {BASE_VERTEX: []}
    edges: List[Tuple[Vertex, Vertex]] = []
    queue = deque([BASE_VERTEX])
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for neighbour in _neighbours(spec, v):
            if neighbour not in dist:
                if len(dist) >= max_vertices:
                    raise BallLimitExceeded(
                        f"ball of radius {radius} exceeds {max_vertices} vertices"
                    )
                dist[neighbour] = dist[v] + 1
                order.append(neighbour)
                adjacency[neighbour] = []
                queue.append(neighbour)
                edges.append((v, neighbour))
                adjacency[v].append(neighbour)
                adjacency[neighbour].append(v)
            # the graph is a tree: the only previously seen neighbour is the
            # BFS parent, whose edge is already recorded
    return TreeBall(
        spec=spec,
        radius=radius,
        vertices=tuple(order),
        edges=tuple(edges),
        adjacency={v: tuple(ns) for v, ns in adjacency.items()},
    )


# ---------------------------------------------------------------------------
# axes

def axis_of(spec_ball: TreeBall, w: Sequence[Syllable]) -> Optional[Tuple[Vertex, ...]]:
    """Visible part of the axis line of a hyperbolic word.

    Elliptic words (cyclic reduction of syllable length <= 1, conjugate
    into a factor) have no axis and return None.  Hyperbolic words whose
    axis is not visible at this radius also return None; enlarge the
    ball.

    The displacement d(v, w.v) can only be measured where both endpoints
    lie in the ball, so the raw minimizer set is a window strictly inside
    the visible line; the window is checked to be a path and then grown
    to the geodesic hull of its w- and w^-1-translates, which is the full
    intersection of the axis with the ball.  The result is ordered along
    the line with a deterministic orientation.
    """
    spec = spec_ball.spec
    g = normal_form(spec, w)
    reduced = cyclically_reduce(spec, g)
    if len(reduced) <= 1:
        return None
    expected = 2 * len(reduced)
    window: List[Vertex] = []
    for v in spec_ball.vertices:
        image = act(spec, g, v)
        if image not in spec_ball:
            continue
        displacement = spec_ball.distance(v, image)
        if displacement < expected:
            raise AssertionError(
                f"displacement below the translation length for {word_str(g)}"
            )
        if displacement == expected:
            window.append(v)
    if not window:
        return None
    _order_path(spec_ball, window)   # minimal displacement set must be a path
    points = set(window)
    for direction in (g, inverse(spec, g)):
        for v in window:
            image = act(spec, direction, v)
            if image in spec_ball:
                points.add(image)
    end_a, end_b = _farthest_pair(spec_ball, points)
    span = spec_ball.distance(end_a, end_b)
    line = [
        x
        for x in spec_ball.vertices
        if spec_ball.distance(end_a, x) + spec_ball.distance(end_b, x) == span
    ]
    if not points <= set(line):
        raise AssertionError("axis translates are not collinear")
    line.sort(key=lambda x: spec_ball.distance(end_a, x))
    return tuple(line)


def _vertex_key(v: Vertex) -> tuple:
    return (v.word, -1 if v.factor is None else v.factor)


def _farthest_pair(tree: TreeBall, points: set) -> Tuple[Vertex, Vertex]:
    ordered = sorted(points, key=_vertex_key)
    best = (ordered[0], ordered[0], 0)
    for i, u in enumerate(ordered):
        for v in ordered[i:]:
            d = tree.distance(u, v)
            if d > best[2]:
                best = (u, v, d)
    return best[0], best[1]


def _order_path(tree: TreeBall, vertices: Sequence[Vertex]) -> Tuple[Vertex, ...]:
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
        raise AssertionError("minimal-displacement set is not a path segment")
    path = [ends[0]]
    previous = None
    while True:
        candidates = [n for n in local[path[-1]] if n != previous]
        if not candidates:
            break
        previous = path[-1]
        path.append(candidates[0])
    if len(path) != len(vertices):
        raise AssertionError("minimal-displacement set is not connected")
    return tuple(path)


# ---------------------------------------------------------------------------
# stabilisers

@dataclass(frozen=True)
class AxisStabilizerReport:
    """Setwise stabiliser of an axis, classified element by element.

    Every recorded element acts on the ordered axis as an index
    translation or an index reflection; the report is consistent when no
    element escapes that dichotomy (the virtually cyclic picture).
    Elements whose action cannot be assessed inside the ball (fewer than
    two axis vertices with images in the ball) are skipped.
    """

    elements: Tuple[Word, ...]
    translations: Tuple[Tuple[Word, int], ...]
    reflections: Tuple[Tuple[Word, int], ...]
    violations: Tuple[Word, ...]

    @property
    def consistent(self) -> bool:
        return not self.violations


def setwise_axis_stabilizer(spec_ball: TreeBall, axis: Sequence[Vertex],
                            budget: int = 6) -> AxisStabilizerReport:
    spec = spec_ball.spec
    index = {v: i for i, v in enumerate(axis)}
    elements: List[Word] = []
    translations: List[Tuple[Word, int]] = []
    reflections: List[Tuple[Word, int]] = []
    violations: List[Word] = []
    for g in words_up_to(spec, budget):
        pairs: List[Tuple[int, Optional[int]]] = []
        off_axis = False
        for i, v in enumerate(axis):
            image = act(spec, g, v)
            if image not in spec_ball:
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


# ---------------------------------------------------------------------------
# coned complex and the push-out bound

class Cell(NamedTuple):
    """Cell of the coned complex: a class name, a dimension, and a key."""

    cell_class: str
    dim: int
    key: tuple


@dataclass
class ConedComplex:
    """Tree ball with one cone vertex per axis and triangular 2-cells.

    Cell classes: "vertex" and "edge" from the tree, "cone_vertex",
    "cone_edge" and "face" from the coning.  Each 2-cell has exactly one
    cone vertex.  stabilizer_records maps cells to the (budgeted) list of
    words preserving the cell setwise.
    """

    tree: TreeBall
    axes: Tuple[Tuple[Vertex, ...], ...]
    budget: int
    stabilizer_records: Dict[Cell, Tuple[Word, ...]]

    def cells(self) -> Iterator[Cell]:
        for v in self.tree.vertices:
            yield Cell("vertex", 0, (v,))
        for i in range(len(self.axes)):
            yield Cell("cone_vertex", 0, (i,))
        for e in self.tree.edges:
            yield Cell("edge", 1, e)
        for i, axis in enumerate(self.axes):
            for v in axis:
                yield Cell("cone_edge", 1, (i, v))
            for u, v in zip(axis, axis[1:]):
                yield Cell("face", 2, (i, u, v))

    def cell_classes(self) -> Tuple[str, ...]:
        seen = []
        for cell in self.cells():
            if cell.cell_class not in seen:
                seen.append(cell.cell_class)
        return tuple(seen)


def cone_off(spec_ball: TreeBall, axes: Sequence[Sequence[Vertex]],
             budget: int = 4) -> ConedComplex:
    """Attach a cone over each axis and record setwise cell stabilisers.

    The stabiliser of a cone vertex is the setwise stabiliser of its
    axis; a cone edge is preserved by elements fixing its tree vertex
    and preserving the axis; a face by elements fixing both tree
    vertices.  Tree cells are included for completeness: element
    vertices and all edges are rigid (trivial records beyond identity),
    coset vertices carry their finite conjugated factor.
    """
    spec = spec_ball.spec
    axis_tuples = tuple(tuple(a) for a in axes)
    words = list(words_up_to(spec, budget))
    axis_sets = [set(a) for a in axis_tuples]
    preserve_axis: List[set] = []
    for axis, axis_set in zip(axis_tuples, axis_sets):
        keep = set()
        for g in words:
            ok = True
            assessed = 0
            for v in axis:
                image = act(spec, g, v)
                if image not in spec_ball:
                    continue
                assessed += 1
                if image not in axis_set:
                    ok = False
                    break
            if ok and assessed >= 2:
                keep.add(g)
        preserve_axis.append(keep)

    records: Dict[Cell, Tuple[Word, ...]] = {}
    for v in spec_ball.vertices:
        fixing = tuple(g for g in words if act(spec, g, v) == v)
        records[Cell("vertex", 0, (v,))] = fixing
    for i, axis in enumerate(axis_tuples):
        records[Cell("cone_vertex", 0, (i,))] = tuple(sorted(preserve_axis[i]))
        for v in axis:
            fixing = tuple(
                g for g in preserve_axis[i] if act(spec, g, v) == v
            )
            records[Cell("cone_edge", 1, (i, v))] = fixing
        for u, v in zip(axis, axis[1:]):
            fixing = tuple(
                g
                for g in preserve_axis[i]
                if {act(spec, g, u), act(spec, g, v)} == {u, v}
            )
            records[Cell("face", 2, (i, u, v))] = fixing
    for e in spec_ball.edges:
        u, v = e
        fixing = tuple(
            g for g in words if {act(spec, g, u), act(spec, g, v)} == {u, v}
        )
        records[Cell("edge", 1, e)] = fixing
    return ConedComplex(
        tree=spec_ball,
        axes=axis_tuples,
        budget=budget,
        stabilizer_records=records,
    )


def pushout_dimension_bound(complex_: ConedComplex, cell_gd: Dict[str, int]) -> int:
    """max over cells of (assigned value of the cell's class + cell dimension).

    Every cell class present in the complex must be assigned; classes
    that do not occur need no value.
    """
    best: Optional[int] = None
    for cell in complex_.cells():
        if cell.cell_class not in cell_gd:
            raise MissingAssignment(cell.cell_class)
        candidate = cell_gd[cell.cell_class] + cell.dim
        if best is None or candidate > best:
            best = candidate
    if best is None:
        raise ValueError("the complex has no cells")
    return best


# ---------------------------------------------------------------------------
# normaliser probe in Z^2 x| Z

SdElement = Tuple[Tuple[int, int], int]


@dataclass(frozen=True)
class SemidirectSpec:
    """Z^2 x|_A Z: elements ((x, y), l) with (v1, l1)(v2, l2) = (v1 + A^l1 v2, l1 + l2)."""

    monodromy: Mat2Z

    def mul(self, g: SdElement, h: SdElement) -> SdElement:
        (v1, l1), (v2, l2) = g, h
        moved = self.monodromy.pow(l1).apply(v2)
        return ((v1[0] + moved[0], v1[1] + moved[1]), l1 + l2)

    def inv(self, g: SdElement) -> SdElement:
        v, l = g
        moved = self.monodromy.pow(-l).apply(v)
        return ((-moved[0], -moved[1]), -l)

    def conjugate(self, g: SdElement, h: SdElement) -> SdElement:
        """g h g^-1."""
        return self.mul(self.mul(g, h), self.inv(g))


IDENTITY_ELEMENT: SdElement = ((0, 0), 0)


@dataclass(frozen=True)
class NormalizerProbe:
    """Outcome of the normaliser computation, with the checked identities."""

    rank: int
    certificate: Tuple[str, ...]


def normalizer_probe(spec: SemidirectSpec, c: SdElement, bound: int = 8) -> NormalizerProbe:
    """Rank of the normaliser of <c> in Z^2 x|_A Z, A hyperbolic.

    For c a nonzero power of the stable letter, conjugating c by
    ((x, y), w) multiplies the fibre part by I - A^(exponent of c); the
    probe certifies det(A^t - I) != 0 for all relevant nonzero t, so
    only fibre part zero normalises and the normaliser is <c> itself,
    rank 1.  For c a nonzero fibre vector the fibre Z^2 normalises, and
    an element with stable exponent l sends c to A^l c; the probe
    certifies A^l c != +-c for 0 < |l| <= bound, so the normaliser is
    the fibre, rank 2.  Mixed elements are out of scope.
    """
    matrix = spec.monodromy
    if classify(matrix).kind is not MatKind.HYPERBOLIC:
        raise NotHyperbolic(f"monodromy {matrix} is {classify(matrix)}")
    (x, y), l = c
    if (x, y) == (0, 0) and l == 0:
        raise UnsupportedElement("the identity generates no infinite cyclic subgroup")
    if (x, y) != (0, 0) and l != 0:
        raise UnsupportedElement(
            "mixed elements (nonzero fibre part and nonzero stable exponent) "
            "are not supported"
        )
    certificate: List[str] = []
    if l != 0:
        exponents = sorted(set(range(-bound, bound + 1)) | {l, -l} - {0})
        exponents = [t for t in exponents if t != 0]
        for t in exponents:
            power = matrix.pow(t)
            det = (power.a - 1) * (power.d - 1) - power.b * power.c
            if det == 0:
                raise AssertionError(f"A^{t} fixes a vector, monodromy is not hyperbolic")
            certificate.append(
                f"det(A^{t} - I) = {det} != 0: conjugation by ((x, y), w) moves "
                f"((0, 0), {l}) off <c> unless (x, y) = (0, 0)"
            )
        certificate.append(
            f"normaliser of <((0, 0), {l})> is the cyclic group itself (rank 1), "
            f"verified for exponents up to {bound}"
        )
        return NormalizerProbe(rank=1, certificate=tuple(certificate))
    for t in range(1, bound + 1):
        for exponent in (t, -t):
            moved = matrix.pow(exponent).apply((x, y))
            if moved == (x, y) or moved == (-x, -y):
                raise AssertionError(
                    f"A^{exponent} maps {(x, y)} to +-itself, monodromy is not hyperbolic"
                )
            certificate.append(
                f"A^{exponent}{(x, y)} = {moved} differs from +-{(x, y)}: no element "
                f"with stable exponent {exponent} normalises <c>"
            )
    certificate.append(
        f"normaliser of <(({x}, {y}), 0)> is the fibre Z^2 (rank 2), "
        f"verified for exponents up to {bound}"
    )
    return NormalizerProbe(rank=2, certificate=tuple(certificate))
