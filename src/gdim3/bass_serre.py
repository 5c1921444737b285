"""Finite-scale certificates for groups acting on trees.

Two independent gadgets live here.

The first is the Bass-Serre tree of a free product of finite cyclic
groups, Z_{n_1} * ... * Z_{n_m}, for the star-shaped splitting with a
central trivial vertex group: its vertices are the group elements (one
per reduced word) and the cosets w * Z_{n_i}, and each element w is
joined to its m cosets.  Every geometric fact is read off normal forms
(Serre, *Trees*, I.4) rather than searched for.  An element vertex w
lies at distance 2|w| from the identity vertex and a coset vertex w<i>
at 2|w| + 1.  A hyperbolic word h c h^-1, with c cyclically reduced of
L >= 2 syllables, translates by 2L along the line through the elements
h c^k (prefix of c).  Element vertices and edges have trivial
stabilisers and a coset vertex w<i> has stabiliser w Z_{n_i} w^-1, so
every path with at least one edge has trivial stabiliser.  Coning each
axis to a point produces a two-complex whose cell stabilisers are
computed per cell on request, and the push-out dimension bound
max(gd(stabiliser class) + dim cell) is evaluated per cell class.

Axes must be geodesics of the ball.  A word preserving one maps an
element vertex v_i of it onto an element vertex v_j, so only the
products v_j v_i^-1 are tested, and only with v_i and v_j within
2 * budget + 1 steps of the axis vertex nearest the identity vertex,
because a word of syllable length <= budget moves the identity vertex
by at most 2 * budget and projecting onto the axis shrinks no distance.
Each is tested at a few vertices: along the geodesic v_0 ... v_{n-1}
the distance from g^-1 * (identity vertex) is |t - s| + delta, so the
depths of the images of the two ends give the window v_lo ... v_hi of
vertices whose images stay in the ball.  g maps that segment onto the
geodesic between the images of its ends, so it carries the visible axis
into itself exactly when those two images lie on the axis, and it then
shifts or reflects the indices.  A cone edge keeps the identity and the
reflections about its vertex, a face the identity only.  The
breadth-first distances, displacement-minimising axis search and
word-by-word stabilisers these closed forms replace are kept as test
oracles in tests/oracles.py.

The second gadget is algebraic: in Gamma = Z^2 x|_A Z with hyperbolic
monodromy A, the normaliser of the infinite cyclic subgroup generated
by c is infinite cyclic when c lies outside the fibre Z^2, and the
fibre when c is a fibre vector.  The probe reads both from the
conjugation formula and names the normaliser in a two-line certificate
that holds for every power of A.  The tree gadget is budget bounded: a
result only certifies "within radius r" or "for words of syllable
length <= B".
"""
from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ._record import Record, wrong_type
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
    """The identity generates no infinite cyclic subgroup to probe."""


class FreeProductSpec(Record):
    """Free product of finite cyclic groups, given by the factor orders."""

    factor_orders: Tuple[int, ...]

    def __post_init__(self) -> None:
        orders = tuple(self.factor_orders)
        for i, n in enumerate(orders):
            if type(n) is not int:
                raise ValueError(f"factor_orders[{i}]: {wrong_type(n, int)}")
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


def _join(spec: FreeProductSpec, u: Word, v: Word) -> Word:
    """Product of two normal forms: only syllables at the junction can merge."""
    orders = spec.factor_orders
    i, j = len(u), 0
    while i and j < len(v) and u[i - 1][0] == v[j][0]:
        factor = v[j][0]
        exponent = (u[i - 1][1] + v[j][1]) % orders[factor]
        i -= 1
        j += 1
        if exponent:
            return u[:i] + ((factor, exponent),) + v[j:]
    return u[:i] + v[j:]


def inverse(spec: FreeProductSpec, w: Sequence[Syllable]) -> Word:
    return normal_form(spec, tuple((f, -e) for f, e in reversed(tuple(w))))


def _peel(spec: FreeProductSpec, g: Word) -> Tuple[Word, Word, int]:
    """Split a normal form as g = h c h^-1 with c cyclically reduced.

    Returns (h, c, t0).  When |c| >= 2 the axis of g is the line through
    the elements h c^k (prefix of c), numbered so that h sits at 0; the
    identity vertex is nearest to the point t0 of it (the element h, or
    the coset just before it), at distance 2|h| + t0.
    """
    orders = spec.factor_orders
    i, j = 0, len(g) - 1
    while i < j and g[i][0] == g[j][0] and (g[i][1] + g[j][1]) % orders[g[i][0]] == 0:
        i += 1
        j -= 1
    if i < j and g[i][0] == g[j][0]:
        # g = h x m y h^-1 with x y != 1 in one factor: conjugate x to the end
        factor = g[i][0]
        merged = (factor, (g[j][1] + g[i][1]) % orders[factor])
        return g[:i + 1], g[i + 1:j] + (merged,), -1
    return g[:i], g[i:j + 1], 0


def cyclically_reduce(spec: FreeProductSpec, w: Sequence[Syllable]) -> Word:
    """A cyclically reduced conjugate of w (length <= 1 means elliptic).

    This is the conjugate reached by moving the last syllable to the front
    until the ends lie in different factors.
    """
    _, c, t0 = _peel(spec, normal_form(spec, w))
    return c[-1:] + c[:-1] if t0 else c


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


def _act(spec: FreeProductSpec, g: Word, v: Vertex) -> Vertex:
    """The left translation g * v, for a normal-form g and a canonical vertex."""
    moved = _join(spec, g, v.word)
    if v.factor is None:
        return Vertex(moved, None)
    return Vertex(coset_canonical(moved, v.factor), v.factor)


BASE_VERTEX = Vertex((), None)


def _depth(v: Vertex) -> int:
    """Distance from the identity vertex: 2|w| for w, 2|w| + 1 for w<i>."""
    return 2 * len(v.word) + (v.factor is not None)


class TreeBall(Record):
    """Ball of given radius around the identity vertex.

    vertices are listed level by level, each edge is (nearer, farther) and
    each adjacency list starts with the neighbour nearer to the identity.
    """

    spec: FreeProductSpec
    radius: int
    vertices: Tuple[Vertex, ...]
    edges: Tuple[Tuple[Vertex, Vertex], ...]
    adjacency: Dict[Vertex, Tuple[Vertex, ...]]

    def __contains__(self, v: Vertex) -> bool:
        return v in self.adjacency

    def degree(self, v: Vertex) -> int:
        return len(self.adjacency[v])

    def distance(self, u: Vertex, v: Vertex) -> int:
        """Tree distance between two vertices of the ball (KeyError outside it).

        The path from the identity vertex to w or w<i> runs through the
        prefixes of w, leaving w[:p] through the coset of the factor of
        w[p]; two such paths share the common prefix of the words, and one
        step more when both leave it through the same coset.
        """
        for x in (u, v):
            if x not in self.adjacency:
                raise KeyError(x)
        a, b = u.word, v.word
        p = 0
        while p < len(a) and p < len(b) and a[p] == b[p]:
            p += 1
        leave_u = a[p][0] if p < len(a) else u.factor
        leave_v = b[p][0] if p < len(b) else v.factor
        shared = 2 * p + (leave_u is not None and leave_u == leave_v)
        depth = 2 * (len(a) + len(b)) + (u.factor is not None) + (v.factor is not None)
        return depth - 2 * shared


def _children(spec: FreeProductSpec, v: Vertex) -> List[Vertex]:
    """Neighbours of v one step farther from the identity vertex."""
    if v.factor is None:
        last = v.word[-1][0] if v.word else None
        return [Vertex(v.word, i) for i in range(spec.num_factors) if i != last]
    return [
        Vertex(v.word + ((v.factor, exponent),), None)
        for exponent in range(1, spec.factor_orders[v.factor])
    ]


def ball(spec: FreeProductSpec, radius: int, max_vertices: int = 50000) -> TreeBall:
    """The ball around the identity vertex, one distance level at a time.

    Element vertices sit at even distance 2 * (syllable length), coset
    vertices at odd distance 2 * (syllable length of the canonical
    representative) + 1.  Radius 0 is the base vertex alone.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if max_vertices < 1:
        raise ValueError("max_vertices must be >= 1")
    # neighbours[k] lists the neighbours of order[k], so that each vertex is
    # hashed once, when the adjacency dict is built
    order: List[Vertex] = [BASE_VERTEX]
    neighbours: List[List[Vertex]] = [[]]
    edges: List[Tuple[Vertex, Vertex]] = []
    start = 0
    for _ in range(radius):
        end = len(order)
        for k in range(start, end):
            v = order[k]
            children = _children(spec, v)
            if len(order) + len(children) > max_vertices:
                raise BallLimitExceeded(
                    f"ball of radius {radius} exceeds {max_vertices} vertices"
                )
            order += children
            for child in children:
                edges.append((v, child))
                neighbours.append([v])
            neighbours[k] += children
        start = end
    return TreeBall(
        spec=spec,
        radius=radius,
        vertices=tuple(order),
        edges=tuple(edges),
        adjacency=dict(zip(order, map(tuple, neighbours))),
    )


# ---------------------------------------------------------------------------
# axes

def axis_of(spec_ball: TreeBall, w: Sequence[Syllable]) -> Optional[Tuple[Vertex, ...]]:
    """Visible part of the axis line of a hyperbolic word.

    Elliptic words (conjugate into a factor) have no axis and return
    None.  So do hyperbolic words g = h c h^-1 whose axis meets the ball
    in fewer than 2|c| edges, too few to show one translation; enlarge
    the ball.  The axis is the line through h c^k (prefix of c), with
    the coset of the next syllable between consecutive elements, and the
    distance to the identity vertex grows by one per step either way
    from its nearest point.  The result is the line inside the ball,
    starting at the end with the smaller (word, factor) key.
    """
    spec = spec_ball.spec
    h, c, t0 = _peel(spec, normal_form(spec, w))
    length = len(c)
    if length <= 1:
        return None
    reach = spec_ball.radius - (2 * len(h) + t0)
    if reach < length:
        return None
    first, last = t0 - reach, t0 + reach
    # the element at the even point 2s of the line is h c^k c[:j], s = kL + j
    k, j = divmod(first // 2, length)
    power = c * k if k >= 0 else inverse(spec, c) * -k
    word = _join(spec, h, _join(spec, power, c[:j]))
    line: List[Vertex] = []
    for t in range(first - first % 2, last + 1):
        if t % 2 == 0:
            vertex = Vertex(word, None)
        else:
            factor = c[j][0]
            vertex = Vertex(coset_canonical(word, factor), factor)
            word = _join(spec, word, c[j:j + 1])
            j = (j + 1) % length
        if t >= first:
            line.append(vertex)
    ends = [(v.word, -1 if v.factor is None else v.factor) for v in (line[0], line[-1])]
    return tuple(reversed(line) if ends[1] < ends[0] else line)


# ---------------------------------------------------------------------------
# stabilisers

class AxisStabilizerReport(Record):
    """Setwise stabiliser of an axis, classified element by element.

    Every recorded element acts on the ordered axis as an index
    translation (recorded with its shift) or an index reflection
    (recorded with the index sum it preserves).  Elements whose action
    cannot be assessed inside the ball (fewer than two axis vertices with
    images in the ball) are skipped.  On a tree every element carrying a
    geodesic segment into itself does one or the other, so violations is
    always empty; it is kept so that the report states its own
    consistency.
    """

    elements: Tuple[Word, ...]
    translations: Tuple[Tuple[Word, int], ...]
    reflections: Tuple[Tuple[Word, int], ...]
    violations: Tuple[Word, ...]

    @property
    def consistent(self) -> bool:
        return not self.violations


def _geodesic(spec_ball: TreeBall, axis: Sequence[Vertex]) -> Tuple[Vertex, ...]:
    """The axis as a tuple; ValueError unless it is a geodesic path in the ball."""
    axis = tuple(axis)
    for v in axis:
        if v not in spec_ball:
            raise ValueError(f"axis vertex {v.label()} lies outside the ball")
    for u, v in zip(axis, axis[1:]):
        if v not in spec_ball.adjacency[u]:
            raise ValueError(f"axis vertices {u.label()} and {v.label()} are not adjacent")
    if axis and spec_ball.distance(axis[0], axis[-1]) != len(axis) - 1:
        raise ValueError(
            f"the axis from {axis[0].label()} to {axis[-1].label()} is not a geodesic"
        )
    return axis


class _AxisAction(NamedTuple):
    """How a word moves the visible part of a geodesic axis v_0 ... v_{n-1}.

    v_t goes to v_{t + value} (a translation) or to v_{value - t} (a
    reflection), wherever its image lies in the ball.
    """

    reflection: bool
    value: int


def _axis_action(spec_ball: TreeBall, axis: Tuple[Vertex, ...],
                 g: Word) -> Optional[_AxisAction]:
    """The action of g on a geodesic axis, or None unless g preserves it.

    g preserves the axis when at least two axis vertices have images in
    the ball and all of those images lie on the axis.  The image of v_t
    lies at depth |t - s| + delta, where v_s is the axis vertex nearest to
    g^-1 * (identity vertex) at distance delta, so the two ends give s and
    delta and the vertices with images in the ball are v_lo ... v_hi.  The
    image of that segment is the geodesic between the images of v_lo and
    v_hi, which lies on the axis when both of them do.  At most four
    _act calls per word.
    """
    spec, last = spec_ball.spec, len(axis) - 1
    if last < 1:
        return None
    head, tail = _act(spec, g, axis[0]), _act(spec, g, axis[last])
    depth = _depth(head)
    s = (depth - _depth(tail) + last) // 2
    reach = spec_ball.radius - (depth - s)
    lo, hi = max(0, s - reach), min(last, s + reach)
    if hi <= lo:
        return None
    ja = _axis_position(spec_ball, axis, head if lo == 0 else _act(spec, g, axis[lo]))
    jb = _axis_position(spec_ball, axis, tail if hi == last else _act(spec, g, axis[hi]))
    if ja is None or jb is None:
        return None
    if jb - ja == hi - lo:
        return _AxisAction(False, ja - lo)
    return _AxisAction(True, ja + lo)


def _axis_position(spec_ball: TreeBall, axis: Tuple[Vertex, ...], v: Vertex) -> Optional[int]:
    """The index of a ball vertex on a geodesic axis, None when it is off the axis."""
    t = spec_ball.distance(axis[0], v)
    return t if t < len(axis) and axis[t] == v else None


def setwise_axis_stabilizer(spec_ball: TreeBall, axis: Sequence[Vertex],
                            budget: int = 6) -> AxisStabilizerReport:
    """Words of syllable length <= budget preserving a geodesic axis, by action.

    Only the products v_j v_i^-1 of the axis's element vertices can
    preserve it, and only those with v_i and v_j within 2 * budget + 1
    steps of the axis vertex v_p nearest the identity vertex are tested,
    because a word of syllable length <= budget moves the identity vertex
    by at most 2 * budget and projecting onto the axis shrinks no
    distance.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    axis = _geodesic(spec_ball, axis)
    spec = spec_ball.spec
    # For a kept g, let q = g^-1 * (identity vertex) and v_s the axis vertex
    # nearest q: |s - p| <= 2 * budget, and g * v_s, at depth d(q, v_s) <=
    # depth(v_p) + 2 * budget, also lies within 2 * budget of v_p.  The
    # window _axis_action assesses holds v_s and a neighbour, so an element
    # vertex v_i with |i - s| <= 1, carried onto v_j with j at most one step
    # from the index of g * v_s.
    p = min(range(len(axis)), key=lambda t: _depth(axis[t]), default=0)
    near = axis[max(0, p - 2 * budget - 1):p + 2 * budget + 2]
    words = [v.word for v in near if v.factor is None]
    backs = [inverse(spec, w) for w in words]
    products = (_join(spec, w, back) for w in words for back in backs)
    candidates = {g for g in products if len(g) <= budget}
    elements: List[Word] = []
    translations: List[Tuple[Word, int]] = []
    reflections: List[Tuple[Word, int]] = []
    for g in sorted(candidates, key=lambda w: (len(w), w)):
        action = _axis_action(spec_ball, axis, g)
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


def _coset_stabilizer(spec: FreeProductSpec, v: Vertex) -> Tuple[Word, ...]:
    """The words of w Z_{n_i} w^-1 fixing a coset vertex w<i>, by exponent.

    The identity comes first.  The nontrivial words all have 2|w| + 1
    syllables, so this is also shortest first, the order of enumeration.
    """
    back = inverse(spec, v.word)
    return ((),) + tuple(
        v.word + ((v.factor, exponent),) + back
        for exponent in range(1, spec.factor_orders[v.factor])
    )


# ---------------------------------------------------------------------------
# coned complex and the push-out bound

class Cell(NamedTuple):
    """Cell of the coned complex: a class name, a dimension, and a key."""

    cell_class: str
    dim: int
    key: tuple


_CELL_DIMS = {"vertex": 0, "cone_vertex": 0, "edge": 1, "cone_edge": 1, "face": 2}
_TRIVIAL: Tuple[Word, ...] = ((),)


class ConedComplex(Record):
    """Tree ball with one cone vertex per axis and triangular 2-cells.

    Cell classes: "vertex" and "edge" from the tree, "cone_vertex",
    "cone_edge" and "face" from the coning.  Each 2-cell has exactly one
    cone vertex.  axis_reports holds the setwise stabiliser report of
    each axis; no cell is recorded.
    """

    tree: TreeBall
    axes: Tuple[Tuple[Vertex, ...], ...]
    budget: int
    axis_reports: Tuple[AxisStabilizerReport, ...]

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

    def cell_counts(self) -> Dict[str, int]:
        """The number of cells of each class present, in the order cells() first yields them."""
        lengths = [len(axis) for axis in self.axes]
        counts = {
            "vertex": len(self.tree.vertices),
            "cone_vertex": len(lengths),
            "edge": len(self.tree.edges),
            "cone_edge": sum(lengths),
            "face": sum(n - 1 for n in lengths if n),
        }
        return {cell_class: n for cell_class, n in counts.items() if n}

    def cell_classes(self) -> Tuple[str, ...]:
        """The classes present, in the order cells() first yields them."""
        return tuple(self.cell_counts())

    def stabilizer(self, cell: Cell) -> Tuple[Word, ...]:
        """The words of syllable length <= budget preserving a cell setwise.

        Element vertices, edges, faces and the cosets w<i> with
        2|w| + 1 > budget keep the identity alone, the other cosets the
        words of w Z_{n_i} w^-1, and a cone vertex its axis report.  A
        cone edge over v_t keeps the identity and the reflections about
        v_t (index sum 2t: a reflection has finite order, so it fixes the
        middle of the segment it reverses, a vertex since it keeps element
        and coset vertices apart), in the iteration order of a set filled
        by add in report order.  The cost grows with the axis and its
        report, never with the ball.  KeyError for a cell not in the complex.
        """
        cell_class, dim, key = cell
        tree, axes = self.tree, self.axes
        # every class keys its cells by dim + 1 items, the cone classes first by axis index
        if _CELL_DIMS.get(cell_class) != dim or len(key) != dim + 1:
            raise KeyError(cell)
        if cell_class == "vertex":
            v = key[0]
            if v in tree:
                if v.factor is None or 2 * len(v.word) + 1 > self.budget:
                    return _TRIVIAL
                return _coset_stabilizer(tree.spec, v)
        elif cell_class == "edge":
            # each adjacency list but the identity vertex's starts with the parent
            u, v = key
            if v in tree and v != BASE_VERTEX and tree.adjacency[v][0] == u:
                return _TRIVIAL
        elif isinstance(key[0], int) and 0 <= key[0] < len(axes):
            axis, report = axes[key[0]], self.axis_reports[key[0]]
            if cell_class == "cone_vertex":
                return tuple(sorted(report.elements))
            t = _axis_position(tree, axis, key[1]) if axis and key[1] in tree else None
            if t is not None and cell_class == "cone_edge":
                keep = set()
                for g in report.elements:
                    keep.add(g)
                centres = {g: value // 2 for g, value in report.reflections}
                return tuple(g for g in keep if not g or centres.get(g) == t)
            if t is not None and axis[t + 1:t + 2] == key[2:]:
                return _TRIVIAL
        raise KeyError(cell)


def cone_off(spec_ball: TreeBall, axes: Sequence[Sequence[Vertex]],
             budget: int = 4) -> ConedComplex:
    """Attach a cone over each geodesic axis and compute its setwise_axis_stabilizer report.

    No cell is visited: ConedComplex.stabilizer answers one cell on request.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    axis_tuples = tuple(tuple(a) for a in axes)
    return ConedComplex(
        tree=spec_ball,
        axes=axis_tuples,
        budget=budget,
        axis_reports=tuple(setwise_axis_stabilizer(spec_ball, a, budget) for a in axis_tuples),
    )


def pushout_dimension_bound(complex_: ConedComplex, cell_gd: Dict[str, int]) -> int:
    """max over cells of (assigned value of the cell's class + cell dimension).

    Every cell class present in the complex must be assigned; classes
    that do not occur need no value.  The cells of one class share a
    dimension, so the maximum runs over the classes present.
    """
    classes = complex_.cell_classes()
    if not classes:
        raise ValueError("the complex has no cells")
    for cell_class in classes:
        if cell_class not in cell_gd:
            raise MissingAssignment(cell_class)
    return max(cell_gd[cell_class] + _CELL_DIMS[cell_class] for cell_class in classes)


# ---------------------------------------------------------------------------
# normaliser probe in Z^2 x| Z

SdElement = Tuple[Tuple[int, int], int]


class SemidirectSpec(Record):
    """Z^2 x|_A Z: elements ((x, y), l) with (v1, l1)(v2, l2) = (v1 + A^l1 v2, l1 + l2)."""

    monodromy: Mat2Z


class NormalizerProbe(Record):
    """Outcome of the normaliser computation, with the checked identities."""

    rank: int
    certificate: Tuple[str, ...]


def normalizer_probe(spec: SemidirectSpec, c: SdElement) -> NormalizerProbe:
    """The normaliser of <c> in Z^2 x|_A Z, A hyperbolic, in closed form.

    Conjugating c = (v, l) by g = (u, m) gives ((I - A^l)u + A^m v, l).
    For l != 0 that is never c^-1, so the normaliser is the centraliser
    (I - A^l)u = (I - A^m)v, on which det(A^l - I) != 0 makes u a function
    of m: it is infinite cyclic (rank 1).  Its admissible m form a subgroup
    of Z containing l, so the generator has the least divisor m of |l| for
    which the adjugate of I - A^l carries (I - A^m)v into det(I - A^l) Z^2,
    and contains <c> with index |l| / m.  For l = 0, g sends c to
    (A^m v, 0), and no A^m with m != 0 has an eigenvalue +-1, so the
    normaliser is the fibre Z^2 (rank 2).
    """
    matrix = spec.monodromy
    if classify(matrix).kind is not MatKind.HYPERBOLIC:
        raise NotHyperbolic(f"monodromy {matrix} is {classify(matrix)}")
    (x, y), l = c
    if l == 0:
        if (x, y) == (0, 0):
            raise UnsupportedElement("the identity generates no infinite cyclic subgroup")
        return NormalizerProbe(rank=2, certificate=(
            f"tr A = {matrix.trace()}, det A = {matrix.det()}: the eigenvalues of A are real "
            f"and off the unit circle, so (u, m) maps c to +-c only for m = 0",
            f"normaliser of <(({x}, {y}), 0)> is the fibre Z^2 (rank 2)",
        ))
    power = matrix.pow(l)
    det = (power.a - 1) * (power.d - 1) - power.b * power.c
    adjugate = Mat2Z(1 - power.d, power.b, power.c, 1 - power.a)   # of I - A^l
    n = abs(l)
    divisors = {k for j in range(1, int(n ** 0.5) + 2) if n % j == 0 for k in (j, n // j)}
    for m in sorted(divisors):
        moved = matrix.pow(m).apply((x, y))
        u = adjugate.apply((x - moved[0], y - moved[1]))
        if u[0] % det == u[1] % det == 0:
            break   # m = |l| always passes: c or c^-1 has stable exponent |l|
    generator = ((u[0] // det, u[1] // det), m)
    return NormalizerProbe(rank=1, certificate=(
        f"det(A^{l} - I) = {det} != 0: (u, m) normalises <c> only if "
        f"(I - A^{l})u = (I - A^m)v, which fixes u given m",
        f"normaliser of <(({x}, {y}), {l})> is <{generator}> (rank 1), "
        f"containing it with index {n // m}",
    ))
