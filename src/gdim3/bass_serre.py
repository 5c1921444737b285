"""Finite-scale certificates for groups acting on trees: two independent gadgets.

The first is the Bass-Serre tree of a free product of finite cyclic
groups, Z_{n_1} * ... * Z_{n_m}, for the star-shaped splitting with a
central trivial vertex group: its vertices are the group elements (one
per reduced word) and the cosets w * Z_{n_i}, and each element w is
joined to its m cosets.  Every geometric fact is read off normal forms
(Serre, *Trees*, I.4) rather than searched for, so a ball of the tree is
implicit: membership, distance, degree, parents and the element and
coset counts are closed forms, and the vertex table is built only when
it is read.  An element vertex w lies at distance 2|w| from the identity
vertex and a coset vertex w<i> at 2|w| + 1.  A hyperbolic word h c h^-1,
with c cyclically reduced of L >= 2 syllables, translates by 2L along
the line through the elements h c^k (prefix of c).  Element vertices and edges have trivial
stabilisers and a coset vertex w<i> has stabiliser w Z_{n_i} w^-1, so
every path with at least one edge has trivial stabiliser.  Left
translation keeps the syllable that carries one element vertex of a path
to the next, so the setwise stabiliser of an axis is read off these
labels, one shift or mirror of the axis at a time, and no vertex is
moved.  Coning each axis to a point produces a two-complex whose cell
stabilisers are computed per cell on request, and the push-out dimension
bound max(gd(stabiliser class) + dim cell) is evaluated per cell class.

The breadth-first ball and its adjacency and distances,
displacement-minimising axis search, word-by-word stabilisers and the
action of a word on a vertex or an axis that these closed forms replace
are kept as test oracles in tests/oracles.py.

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

from collections.abc import Sequence
from math import isqrt
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

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
    """Confluent reduction: merge adjacent same-factor syllables, drop zeros.  ValueError
    unless every syllable is a pair of exact ints (a bool is no int) with a factor in range."""
    orders = spec.factor_orders
    out: List[Syllable] = []
    for pair in syllables:
        try:
            factor, exponent = pair
        except (TypeError, ValueError):
            raise ValueError(f"syllable {pair!r}: expected a pair of integers") from None
        if type(factor) is not int or type(exponent) is not int:
            bad = exponent if type(factor) is int else factor
            raise ValueError(f"syllable {pair!r}: {wrong_type(bad, int)}")
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
                out[-1] = (factor, merged)
        else:
            out.append((factor, exponent))
    return tuple(out)


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
    return tuple((f, spec.factor_orders[f] - e) for f, e in reversed(normal_form(spec, w)))


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
            return type(j) is int and (parent or b == a and j != last and 0 <= j < spec.num_factors)
        return j is None and (b == a or b[:-1] == a and type(b[-1][0]) is type(b[-1][1]) is int
                              and b[-1][0] == i and 0 < b[-1][1] < spec.factor_orders[i])
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


def _ball_size(spec: FreeProductSpec, radius: int, cap: Optional[int] = None) -> Tuple[int, int]:
    """The element and the coset vertices within radius, counted level by level until their
    sum passes cap: the words of L syllables at 2L, and at 2L + 1 their cosets w<i>, i not the
    last factor of w.  A level that repeats the one before it repeats for good, so the rest
    are counted at once; only Z_2 * Z_2 does this, and its ball is a line."""
    ends, words = [0] * spec.num_factors, 1   # the words of L syllables, by last factor
    elements = cosets = 0
    for depth in range(0, radius + 1, 2):
        level_cosets = spec.num_factors * words - sum(ends)
        elements, cosets = elements + words, cosets + (level_cosets if depth < radius else 0)
        if cap is not None and elements + cosets > cap:
            break
        level = [(n - 1) * (words - e) for n, e in zip(spec.factor_orders, ends)]
        if level == ends:   # and so is every later level
            return (elements + len(range(depth + 2, radius + 1, 2)) * words,
                    cosets + len(range(depth + 2, radius, 2)) * level_cosets)
        ends, words = level, sum(level)
    return elements, cosets


def _at_least(value, name: str, low: int) -> None:
    """Refuse a radius, vertex cap or budget that is not exactly an int, then one below low."""
    if type(value) is not int:
        raise ValueError(f"{name}: {wrong_type(value, int)}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


class TreeBall(Record):
    """Ball of given radius around the identity vertex, implicit in the words; any radius
    >= 0 is accepted, since only ball() applies the vertex cap.

    Membership, distance and degree are read off the words.  The vertex
    table is built when it is first read: vertices level by level, and
    each edge as (nearer, farther).
    """

    spec: FreeProductSpec
    radius: int

    def __post_init__(self) -> None:
        _at_least(self.radius, "radius", 0)

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
            return self.__dict__[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def degree(self, v: Vertex) -> int:
        """The neighbours of a vertex of the ball (KeyError outside it): below the radius all
        of them, m for an element vertex and n_i for a coset w<i>, and at it the parent alone."""
        if v not in self:
            raise KeyError(v)
        if _depth(v) < self.radius:
            return self.spec.num_factors if v.factor is None else self.spec.factor_orders[v.factor]
        return int(v != BASE_VERTEX)

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
    _at_least(max_vertices, "max_vertices", 1)
    if sum(_ball_size(spec, radius, max_vertices)) > max_vertices:
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


def _typed(v: Vertex) -> bool:
    """Whether a vertex is made of exact ints: its factor None or an int, its word int pairs."""
    try:
        return (v.factor is None or type(v.factor) is int) and all(
            type(f) is type(e) is int for f, e in v.word)
    except (TypeError, ValueError):
        return False


def _geodesic(spec_ball: TreeBall, axis: Sequence[Vertex]) -> Tuple[Vertex, ...]:
    """The axis as a tuple; ValueError unless it is a geodesic path of vertices in the ball.

    The axis must be a sequence, and each item is typed as it is reached.  A vertex that is
    the parent or a child of the ball vertex before it is checked in O(1), any other in full,
    so a vertex outside the ball is reported before a gap in the path.
    """
    if not isinstance(axis, Sequence):
        raise ValueError(f"axis: expected a sequence of vertices, got {axis!r}")
    axis, spec, gap = tuple(axis), spec_ball.spec, None
    for t, (u, v) in enumerate(zip((None,) + axis, axis)):
        if not isinstance(v, Vertex):
            raise ValueError(f"axis[{t}]: expected a Vertex, got {v!r}")
        if u is not None and _adjacent(spec, u, v):
            inside = _depth(v) <= spec_ball.radius
        else:
            inside, gap = v in spec_ball, gap or (u is not None and (u, v))
        if not inside:
            if not _typed(v):
                raise ValueError(f"axis[{t}]: expected a Vertex of integers, got {v!r}")
            raise ValueError(f"axis vertex {v.label()} lies outside the ball")
    if gap:
        raise ValueError(f"axis vertices {gap[0].label()} and {gap[1].label()} are not adjacent")
    if axis and _distance(axis[0], axis[-1]) != len(axis) - 1:
        raise ValueError(f"the axis from {axis[0].label()} to {axis[-1].label()} "
                         "is not a geodesic")
    return axis


def _axis_labels(spec: FreeProductSpec,
                 axis: Tuple[Vertex, ...]) -> Tuple[List[Optional[Syllable]], ...]:
    """The labels of a geodesic axis read forwards and backwards, one per vertex.

    A coset v_t = c<f> strictly inside the axis is labelled by the syllable (f, e) with
    v_{t+1} = v_{t-1} (f, e), read backwards (f, -e); every other vertex by None.  Each
    element of c Z_f is c or c (f, k), so e is a difference of last exponents.  Left
    translation keeps the labels, since it keeps v_{t-1}^-1 v_{t+1}.
    """
    orders, n = spec.factor_orders, len(axis)
    ahead: List[Optional[Syllable]] = [None] * n
    back: List[Optional[Syllable]] = [None] * n
    for t in range(1 + (axis[0].factor is not None), n - 1, 2):
        coset, f = axis[t]
        before, after = axis[t - 1].word, axis[t + 1].word
        e = ((after[-1][1] if len(after) > len(coset) else 0)
             - (before[-1][1] if len(before) > len(coset) else 0))
        ahead[t], back[t] = (f, e % orders[f]), (f, -e % orders[f])
    return ahead, back


def _axis_position(axis: Tuple[Vertex, ...], v: Vertex) -> Optional[int]:
    """The index of a canonical vertex on a geodesic axis (so in the ball), else None."""
    t = _distance(axis[0], v)
    return t if t < len(axis) and axis[t] == v else None


def setwise_axis_stabilizer(spec_ball: TreeBall, axis: Sequence[Vertex],
                            budget: int = 6) -> AxisStabilizerReport:
    """Words of syllable length <= budget preserving a geodesic axis v_0 ... v_{n-1}.

    A kept word g carries the axis vertices whose images lie in the ball, at least two,
    onto the axis: v_t to v_{t+d} (a shift d) or to v_{s-t} (a mirror sum s).  Those v_t
    are then exactly the overlap v_a ... v_b of the axis with its shifted or mirrored
    copy.  Labels are invariant (_axis_labels), so g exists for d or s exactly when
    the overlap has an edge, the factors of v_a and v_b and the labels strictly between
    them agree with those of their images (read backwards for a mirror), and each end of
    the overlap that is not an axis end maps onto an axis end at depth radius.  From
    there the image path climbs out of the ball at the next vertex; from a shallower end
    it would stay inside and leave the axis.  That g is w_j w_i^-1 for any element vertex
    v_i of the overlap and its image v_j, and it is the one word formed for d or s.  A
    mirror fixes its middle vertex v_{s/2}, which must be a coset, since element vertices
    have trivial stabilisers.

    Only d and s from the element vertices within 2 * budget + 1 steps of the axis vertex
    v_p nearest the identity vertex are tried, because a word of syllable length <= budget
    moves the identity vertex by at most 2 * budget and projecting onto the axis shrinks
    no distance.  The depth along a geodesic is |t - p| + its least value, so p comes from
    the depths of the two ends.
    """
    _at_least(budget, "budget", 0)
    axis, spec = _geodesic(spec_ball, axis), spec_ball.spec
    n, found, kept = len(axis), [], []   # found: (i, j, reflection, d or s)
    if n >= 2:
        ahead, back = _axis_labels(spec, axis)
        outer = [_depth(v) == spec_ball.radius for v in (axis[0], axis[-1])]
        p = (_depth(axis[0]) - _depth(axis[-1]) + n - 1) // 2
        lo, hi = max(0, p - 2 * budget - 1), min(n - 1, p + 2 * budget + 1)
        odd = axis[0].factor is not None   # the parity of the element vertices' indices
        first, last = lo + (lo % 2 != odd), hi - (hi % 2 != odd)
        for d in range(first - last, last - first + 1, 2):
            a, b = max(0, -d), min(n - 1, n - 1 - d)
            if (b > a and (d == 0 or outer[d > 0]) and axis[a].factor == axis[a + d].factor
                    and axis[b].factor == axis[b + d].factor
                    and ahead[a + 1:b] == ahead[a + 1 + d:b + d]):
                i = first if d >= 0 else last
                found.append((i, i + d, False, d))
        for s in range(2 * first + 2, 2 * last, 4):   # about each coset between first and last
            a, b = max(0, s - n + 1), min(n - 1, s)
            if ((a == 0 or outer[1]) and (b == n - 1 or outer[0])
                    and axis[a].factor == axis[b].factor and ahead[a + 1:b] == back[b - 1:a:-1]):
                i = max(first, s - last)
                found.append((i, s - i, True, s))
    for i, j, reflection, value in found:
        g = _join(spec, axis[j].word, inverse(spec, axis[i].word))
        if len(g) <= budget:
            kept.append((g, reflection, value))
    kept.sort(key=lambda item: (len(item[0]), item[0]))
    return AxisStabilizerReport(
        elements=tuple(g for g, _, _ in kept),
        translations=tuple((g, value) for g, reflection, value in kept if not reflection),
        reflections=tuple((g, value) for g, reflection, value in kept if reflection),
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
        vertices = sum(_ball_size(self.tree.spec, self.tree.radius))
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
    _at_least(budget, "budget", 0)
    if not isinstance(axes, Sequence):
        raise ValueError(f"axes: expected a sequence of axes, got {axes!r}")
    for k, axis in enumerate(axes):
        if not isinstance(axis, Sequence):
            raise ValueError(f"axes[{k}]: expected a sequence of vertices, got {axis!r}")
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


#: The largest |l| that normalizer_probe accepts: at |l| = 10^5 with A = [[2, 1], [1, 1]] A^l
#: has about 42,000 digits and the probe takes a fraction of a second; at 10^6 it takes seconds.
PROBE_EXPONENT_CAP = 100_000


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

    The cost grows with |l|, since A^l has about |l| log10(lambda) digits, so
    an |l| above PROBE_EXPONENT_CAP is refused before any power is taken.
    """
    if not isinstance(spec, SemidirectSpec):
        raise ValueError(f"spec: unknown spec type {type(spec).__name__}")
    matrix = spec.monodromy
    if not isinstance(matrix, Mat2Z):
        raise ValueError(f"monodromy: unknown monodromy type {type(matrix).__name__}")
    try:
        (x, y), l = c
    except (TypeError, ValueError):
        raise ValueError(f"element: expected ((x, y), l), got {c!r}") from None
    for name, value in (("x", x), ("y", y), ("l", l)):
        if type(value) is not int:
            raise ValueError(f"element {name}: {wrong_type(value, int)}")
    if abs(l) > PROBE_EXPONENT_CAP:
        raise ValueError(f"element l: |l| = {abs(l)} is above the probe's cap of "
                         f"{PROBE_EXPONENT_CAP} (A^l has a number of digits proportional to |l|)")
    if classify(matrix).kind is not MatKind.HYPERBOLIC:
        raise NotHyperbolic(f"monodromy {matrix} is {classify(matrix)}")
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
