"""Finite-scale certificates for groups acting on trees: two independent gadgets.

The first is the Bass-Serre tree of a free product of finite cyclic
groups, Z_{n_1} * ... * Z_{n_m}, for the star-shaped splitting with a
central trivial vertex group: its vertices are the group elements (one
per reduced word) and the cosets w * Z_{n_i}, and each element w is
joined to its m cosets.  Every geometric fact is read off normal forms
(Serre, *Trees*, I.4) rather than searched for, so a ball of the tree is
implicit: membership, distance, parents and the vertex count are closed
forms, and the vertex table is built only when it is read.  An element
vertex w lies at distance 2|w| from the identity vertex and a coset
vertex w<i> at 2|w| + 1.  A hyperbolic word h c h^-1, with c cyclically
reduced of L >= 2 syllables, translates by 2L along the line through the
elements h c^k (prefix of c).  Element vertices and edges have trivial
stabilisers and a coset vertex w<i> has stabiliser w Z_{n_i} w^-1, so
every path with at least one edge has trivial stabiliser.  Coning each
axis to a point produces a two-complex whose cell stabilisers are
computed per cell on request, and the push-out dimension bound
max(gd(stabiliser class) + dim cell) is evaluated per cell class.

The breadth-first ball and distances, displacement-minimising axis
search and word-by-word stabilisers these closed forms replace are kept
as test oracles in tests/oracles.py.

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

from math import isqrt
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
    return "".join(chr(ord("a") + f) + ("" if e == 1 else str(e)) for f, e in w) or "1"


def parse_word(spec: FreeProductSpec, text: str) -> Word:
    """Inverse of word_str: letters with optional positive exponents."""
    text, syllables, i = text.strip(), [], 0
    while text != "1" and i < len(text):
        ch, j = text[i], i + 1
        if not ch.isalpha():
            raise ValueError(f"bad word syntax at {text[i:]!r}")
        factor = ord(ch.lower()) - ord("a")
        if not 0 <= factor < spec.num_factors:
            raise ValueError(f"letter {ch!r} has no factor in {spec.factor_orders}")
        while j < len(text) and text[j].isdigit():
            j += 1
        syllables.append((factor, int(text[i + 1:j] or 1)))
        i = j
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
        coset = "" if self.factor is None else f"<{chr(ord('a') + self.factor)}>"
        return word_str(self.word) + coset


def coset_canonical(word: Word, factor: int) -> Word:
    return word[:-1] if word and word[-1][0] == factor else word


def _act(spec: FreeProductSpec, g: Word, v: Vertex) -> Vertex:
    """The left translation g * v, for a normal-form g and a canonical vertex."""
    moved = _join(spec, g, v.word)
    return Vertex(moved if v.factor is None else coset_canonical(moved, v.factor), v.factor)


BASE_VERTEX = Vertex((), None)


def _depth(v: Vertex) -> int:
    """Distance from the identity vertex: 2|w| for w, 2|w| + 1 for w<i>."""
    return 2 * len(v.word) + (v.factor is not None)


def _parent(v: Vertex) -> Vertex:
    """The neighbour one step nearer the identity vertex: w<i> for w ending in i, w for w<i>."""
    return Vertex(v.word, None) if v.factor is not None else Vertex(v.word[:-1], v.word[-1][0])


def _adjacent(spec: FreeProductSpec, u: Vertex, v: object) -> bool:
    """Whether v is the parent or a canonical child of the canonical vertex u, in O(1): an
    element a has a[:-1]<last> and a<j>, j not last, and a coset a<i> has a and a (i, e)."""
    try:
        (a, i), (b, j) = u, v
        if i is None:
            last = a[-1][0] if a else None
            parent = bool(a) and b == a[:-1] and j == last
            return j is not None and (parent or b == a and j != last and 0 <= j < spec.num_factors)
        return j is None and (b == a or b[:-1] == a and b[-1][0] == i
                              and 0 < b[-1][1] < spec.factor_orders[i])
    except (TypeError, ValueError, IndexError):
        return False


def _distance(u: Vertex, v: Vertex) -> int:
    """Tree distance between two canonical vertices.

    The path from the identity vertex to w or w<i> runs through the
    prefixes of w, leaving w[:p] through the coset of the factor of w[p];
    two such paths share the common prefix of the words, and one step more
    when both leave it through the same coset.
    """
    a, b, p = u.word, v.word, 0
    while p < len(a) and p < len(b) and a[p] == b[p]:
        p += 1
    leave_u = a[p][0] if p < len(a) else u.factor
    leave_v = b[p][0] if p < len(b) else v.factor
    shared = 2 * p + (leave_u is not None and leave_u == leave_v)
    return _depth(u) + _depth(v) - 2 * shared


def _ball_size(spec: FreeProductSpec, radius: int, cap: Optional[int] = None) -> int:
    """The vertices within radius, counted level by level until the count passes cap: the
    words of L syllables at 2L, and at 2L + 1 their cosets w<i>, i not the last factor of w.
    A level that repeats the one before it repeats for good, so the rest are counted at once;
    only Z_2 * Z_2 does this, and its ball is a line."""
    ends, words, size = [0] * spec.num_factors, 1, 0   # the words of L syllables, by last factor
    for depth in range(0, radius + 1, 2):
        cosets = spec.num_factors * words - sum(ends)
        size += words + (cosets if depth < radius else 0)
        if cap is not None and size > cap:
            break
        level = [(n - 1) * (words - e) for n, e in zip(spec.factor_orders, ends)]
        if level == ends:   # and so is every later level
            return (size + len(range(depth + 2, radius + 1, 2)) * words
                    + len(range(depth + 2, radius, 2)) * cosets)
        ends, words = level, sum(level)
    return size


class TreeBall(Record):
    """Ball of given radius around the identity vertex, implicit in the words; any radius
    is accepted, since only ball() applies the vertex cap.

    The vertex table is built when it is first read: vertices level by
    level, each edge as (nearer, farther), and, only when adjacency itself
    is read, lists starting with the neighbour nearer the identity vertex.
    """

    spec: FreeProductSpec
    radius: int

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("radius must be >= 0")

    def __contains__(self, v: object) -> bool:
        """Whether v is a vertex within the radius: w, or w (i, 1) for w<i>, in normal form."""
        try:
            word = v.word + ((v.factor, 1),) * (v.factor is not None)
            inside = isinstance(v, Vertex) and _depth(v) <= self.radius
            return inside and normal_form(self.spec, word) == word
        except (AttributeError, TypeError, ValueError):
            return False

    def __getattr__(self, name: str):
        if name in ("vertices", "edges"):
            # each level from the one before it, in the order of a breadth-first search
            new, factors = tuple.__new__, range(self.spec.num_factors)
            others = [[j for j in factors if j != i] for i in factors] + [factors]
            orders = enumerate(self.spec.factor_orders)
            steps = [[((i, e),) for e in range(1, n)] for i, n in orders]
            level, vertices, edges = [BASE_VERTEX], [BASE_VERTEX], []
            for depth in range(self.radius):
                if depth % 2:
                    pairs = [(v, new(Vertex, (v[0] + step, None)))
                             for v in level for step in steps[v[1]]]
                else:
                    pairs = [(v, new(Vertex, (v[0], i)))
                             for v in level for i in others[v[0][-1][0] if v[0] else -1]]
                edges += pairs
                level = [child for _, child in pairs]
                vertices += level
            self.__dict__.update(vertices=tuple(vertices), edges=tuple(edges))
        elif name == "adjacency":
            near = {v: (_parent(v),) if v != BASE_VERTEX else () for v in self.vertices}
            for u, v in self.edges:
                near[u] += (v,)
            self.__dict__[name] = near
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.__dict__[name]

    def degree(self, v: Vertex) -> int:
        return len(self.adjacency[v])

    def distance(self, u: Vertex, v: Vertex) -> int:
        """Tree distance between two vertices of the ball (KeyError outside it)."""
        for x in (u, v):
            if x not in self:
                raise KeyError(x)
        return _distance(u, v)


def ball(spec: FreeProductSpec, radius: int, max_vertices: int = 50000) -> TreeBall:
    """The ball around the identity vertex; BallLimitExceeded past max_vertices, which is
    compared with the vertex count in closed form before anything is built."""
    tree = TreeBall(spec, radius)
    if max_vertices < 1:
        raise ValueError("max_vertices must be >= 1")
    if _ball_size(spec, radius, max_vertices) > max_vertices:
        raise BallLimitExceeded(f"ball of radius {radius} exceeds {max_vertices} vertices")
    return tree


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
    """The axis as a tuple; ValueError unless it is a geodesic path in the ball.

    A vertex that is the parent or a child of the ball vertex before it is checked in O(1),
    any other in full, so a vertex outside the ball is reported before a gap in the path.
    """
    axis, spec, gap = tuple(axis), spec_ball.spec, None
    for u, v in zip((None,) + axis, axis):
        if u is not None and _adjacent(spec, u, v):
            inside = _depth(v) <= spec_ball.radius
        else:
            inside, gap = v in spec_ball, gap or (u is not None and (u, v))
        if not inside:
            raise ValueError(f"axis vertex {v.label()} lies outside the ball")
    if gap:
        raise ValueError(f"axis vertices {gap[0].label()} and {gap[1].label()} are not adjacent")
    if axis and _distance(axis[0], axis[-1]) != len(axis) - 1:
        raise ValueError(f"the axis from {axis[0].label()} to {axis[-1].label()} "
                         "is not a geodesic")
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
    ja = _axis_position(axis, head if lo == 0 else _act(spec, g, axis[lo]))
    jb = _axis_position(axis, tail if hi == last else _act(spec, g, axis[hi]))
    if ja is None or jb is None:
        return None
    if jb - ja == hi - lo:
        return _AxisAction(False, ja - lo)
    return _AxisAction(True, ja + lo)


def _axis_position(axis: Tuple[Vertex, ...], v: Vertex) -> Optional[int]:
    """The index of a canonical vertex on a geodesic axis (so in the ball), else None."""
    t = _distance(axis[0], v)
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
    axis, spec = _geodesic(spec_ball, axis), spec_ball.spec
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
    ordered = sorted(candidates, key=lambda w: (len(w), w))
    actions = ((g, _axis_action(spec_ball, axis, g)) for g in ordered)
    kept = [(g, action) for g, action in actions if action is not None]
    return AxisStabilizerReport(
        elements=tuple(g for g, _ in kept),
        translations=tuple((g, action.value) for g, action in kept if not action.reflection),
        reflections=tuple((g, action.value) for g, action in kept if action.reflection),
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
        for v in self.tree.vertices:   # tuple.__new__ skips Cell's per-call constructor
            yield tuple.__new__(Cell, ("vertex", 0, (v,)))
        for i in range(len(self.axes)):
            yield tuple.__new__(Cell, ("cone_vertex", 0, (i,)))
        for e in self.tree.edges:
            yield tuple.__new__(Cell, ("edge", 1, e))
        for i, axis in enumerate(self.axes):
            for v in axis:
                yield tuple.__new__(Cell, ("cone_edge", 1, (i, v)))
            for u, v in zip(axis, axis[1:]):
                yield tuple.__new__(Cell, ("face", 2, (i, u, v)))

    def cell_counts(self) -> Dict[str, int]:
        """The number of cells of each class present, in the order cells() first yields them."""
        lengths = [len(axis) for axis in self.axes]
        vertices = _ball_size(self.tree.spec, self.tree.radius)
        counts = {
            "vertex": vertices,
            "cone_vertex": len(lengths),
            "edge": vertices - 1,
            "cone_edge": sum(lengths),
            "face": sum(n - 1 for n in lengths if n),
        }
        return {cell_class: n for cell_class, n in counts.items() if n}

    def stabilizer(self, cell: Cell) -> Tuple[Word, ...]:
        """The words of syllable length <= budget preserving a cell setwise.

        Element vertices, edges, faces and the cosets w<i> with
        2|w| + 1 > budget keep the identity alone, the other cosets the
        words of w Z_{n_i} w^-1, and a cone vertex its axis report.  A
        cone edge over v_t keeps the identity and the reflections about
        v_t (index sum 2t: a reflection has finite order, so it fixes the
        middle of the segment it reverses, a vertex since it keeps element
        and coset vertices apart), in the iteration order of the set of the
        report's elements.  The cost grows with the axis and its
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
                trivial = v.factor is None or _depth(v) > self.budget
                return _TRIVIAL if trivial else _coset_stabilizer(tree.spec, v)
        elif cell_class == "edge":
            u, v = key
            if v in tree and v != BASE_VERTEX and _parent(v) == u:
                return _TRIVIAL
        elif isinstance(key[0], int) and 0 <= key[0] < len(axes):
            axis, report = axes[key[0]], self.axis_reports[key[0]]
            if cell_class == "cone_vertex":
                return tuple(sorted(report.elements))
            t = _axis_position(axis, key[1]) if axis and key[1] in tree else None
            if t is not None and cell_class == "cone_edge":
                centres = {g: value // 2 for g, value in report.reflections}
                return tuple(g for g in set(report.elements) if not g or centres.get(g) == t)
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
    axes = tuple(tuple(a) for a in axes)
    reports = tuple(setwise_axis_stabilizer(spec_ball, a, budget) for a in axes)
    return ConedComplex(tree=spec_ball, axes=axes, budget=budget, axis_reports=reports)


def pushout_dimension_bound(complex_: ConedComplex, cell_gd: Dict[str, int]) -> int:
    """max over cells of (assigned value of the cell's class + cell dimension).

    Every cell class present in the complex must be assigned; classes
    that do not occur need no value.  The cells of one class share a
    dimension, so the maximum runs over the classes present.
    """
    classes = complex_.cell_counts()
    for cell_class in classes:
        if cell_class not in cell_gd:
            raise MissingAssignment(cell_class)
    return max(cell_gd[cell_class] + _CELL_DIMS[cell_class] for cell_class in classes)


# ---------------------------------------------------------------------------
# normaliser probe in Z^2 x| Z

SdElement = Tuple[Tuple[int, int], int]


def _shown(n: int) -> str:
    """An integer in full, or as its sign and digit count past Python's 4300-digit str cap."""
    digits = (abs(n).bit_length() - 1) * 30102 // 100000 + 1   # log10(2) > 0.30102
    while 10 ** digits <= abs(n):
        digits += 1
    return str(n) if digits <= 4300 else f"{'-' if n < 0 else ''}<{digits} digits>"


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
            f"tr A = {_shown(matrix.trace())}, det A = {_shown(matrix.det())}: the eigenvalues "
            f"of A are real and off the unit circle, so (u, m) maps c to +-c only for m = 0",
            f"normaliser of <(({_shown(x)}, {_shown(y)}), 0)> is the fibre Z^2 (rank 2)",
        ))
    power = matrix.pow(l)
    det = (power.a - 1) * (power.d - 1) - power.b * power.c
    adjugate = Mat2Z(1 - power.d, power.b, power.c, 1 - power.a)   # of I - A^l
    n = abs(l)
    divisors = {k for j in range(1, isqrt(n) + 1) if n % j == 0 for k in (j, n // j)}
    for m in sorted(divisors):
        moved = matrix.pow(m).apply((x, y))
        u = adjugate.apply((x - moved[0], y - moved[1]))
        if u[0] % det == u[1] % det == 0:
            break   # m = |l| always passes: c or c^-1 has stable exponent |l|
    return NormalizerProbe(rank=1, certificate=(
        f"det(A^{_shown(l)} - I) = {_shown(det)} != 0: (u, m) normalises <c> only if "
        f"(I - A^{_shown(l)})u = (I - A^m)v, which fixes u given m",
        f"normaliser of <(({_shown(x)}, {_shown(y)}), {_shown(l)})> is "
        f"<(({_shown(u[0] // det)}, {_shown(u[1] // det)}), {_shown(m)})> (rank 1), "
        f"containing it with index {_shown(n // m)}",
    ))
