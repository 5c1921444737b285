"""Seeded manifold descriptions whose expected values are written by hand.

Every piece template below carries its (k = 2, k >= 3) value from the
README rule table.  Only properties that cannot change that value are
randomised: monodromies are conjugated, Seifert invariants beta are any
coprime residue, the obstruction b is free on non-flat bases, and cusp
counts and chain lengths vary.  The value of a description then follows
from the three connected-sum cases of Thm 1.1, computed here and never
by the engine.  Descriptions are encoded with the package's own
description_to_json, so a change of wire schema does not break them.

Inputs are chosen to stay valid across the planned fixes: finite-group
Seifert spellings and Geometric(S3) appear only as single-piece
descriptions, no JSJ vertex is a solid torus, and every field is an
integer.  Invalid documents break a rule that holds under any schema.
"""
from __future__ import annotations

import json
import random
from math import gcd
from typing import Callable, List, NamedTuple, Optional, Tuple

from gdim3.geometry import Geometry
from gdim3.gl2z import Mat2Z
from gdim3.model import (
    Geometric,
    HyperbolicCusped,
    JsjGraph,
    KleinDouble,
    ManifoldDescription,
    SeifertBounded,
    SeifertClosed,
    SeifertData,
    Spherical,
    TorusBundle,
    description_to_json,
)
from gdim3.orbifold2 import OrbifoldBase

Value = Tuple[int, int]          # (gd at k = 2, gd at k >= 3)
ZERO, FLAT, THREE, TWO = (0, 0), (5, 0), (3, 3), (2, 2)


class Piece(NamedTuple):
    piece: object
    value: Value
    tag: str = ""                # "trivial" (S^3 summand) or "order2" (RP^3)


class Case(NamedTuple):
    """One document and what the engine must make of it."""

    text: str
    expected: Optional[Value]    # None: the document must be refused
    kind: str                    # "valid" or the violation it carries


# ---------------------------------------------------------------------------
# piece templates

ELLIPTIC = [Mat2Z(1, 0, 0, 1), Mat2Z(-1, 0, 0, -1), Mat2Z(0, -1, 1, 0),
            Mat2Z(0, -1, 1, 1), Mat2Z(0, -1, 1, -1)]            # orders 1, 2, 4, 6, 3
PARABOLIC = [Mat2Z(1, 1, 0, 1), Mat2Z(1, -3, 0, 1), Mat2Z(-1, 2, 0, -1), Mat2Z(1, 0, 4, 1)]
ANOSOV = [Mat2Z(2, 1, 1, 1), Mat2Z(3, 2, 1, 1), Mat2Z(2, 3, 1, 2), Mat2Z(-2, 1, 1, -1),
          Mat2Z(5, 2, 2, 1)]
CONJUGATORS = [Mat2Z(1, 1, 0, 1), Mat2Z(1, 0, 1, 1), Mat2Z(0, 1, 1, 0), Mat2Z(0, -1, 1, 0)]

GEOMETRIES = [(Geometry.H3, THREE), (Geometry.E3, FLAT), (Geometry.NIL, THREE),
              (Geometry.SOL, TWO), (Geometry.H2xE, TWO), (Geometry.PSL2R, TWO),
              (Geometry.S2xE, ZERO)]
SPHERICAL_ORDERS = [1, 2, 2, 3, 5, 8, 12, 24, 120]   # order 2 twice: RP^3 pairs occur

# closed bases with negative orbifold Euler characteristic: (genus, orientable, cones)
HYPERBOLIC_CLOSED = [(0, True, (2, 3, 7)), (0, True, (2, 4, 5)), (0, True, (3, 3, 4)),
                     (0, True, (2, 2, 2, 3)), (1, True, (2,)), (2, True, ()),
                     (1, False, (2, 3)), (2, False, (2,)), (2, True, (3,))]
# flat closed bases with invariants giving Euler number 0: (genus, orientable, pairs, b)
FLAT_EULER_ZERO = [
    (1, True, (), 0), (2, False, (), 0),
    (0, True, ((2, 1),) * 4, -2),
    (0, True, ((3, 1),) * 3, -1), (0, True, ((3, 2),) * 3, -2),
    (0, True, ((2, 1), (4, 1), (4, 1)), -1), (0, True, ((2, 1), (4, 3), (4, 3)), -2),
    (0, True, ((2, 1), (3, 1), (6, 1)), -1), (0, True, ((2, 1), (3, 2), (6, 5)), -2),
    (1, False, ((2, 1), (2, 1)), -1),
]
# bounded bases, hyperbolic, by boundary count 1 and 2: (genus, orientable, cones)
HYPERBOLIC_BOUNDED = {
    1: [(0, True, (2, 3)), (0, True, (3, 3)), (0, True, (2, 2, 2)), (0, True, (2, 5)),
        (1, True, ())],
    2: [(0, True, (2,)), (0, True, (3,)), (0, True, (2, 2))],
}
# bounded flat bases with one boundary circle: D2(2,2) and the Mobius band
FLAT_BOUNDED = [(0, True, ((2, 1), (2, 1))), (1, False, ())]


def _beta(rng: random.Random, alpha: int) -> int:
    return rng.choice([b for b in range(1, alpha) if gcd(alpha, b) == 1])


def _pairs(rng: random.Random, cones) -> Tuple[Tuple[int, int], ...]:
    return tuple((alpha, _beta(rng, alpha)) for alpha in cones)


def _seifert(genus, orientable, boundary, pairs, b) -> SeifertData:
    base = OrbifoldBase(genus, orientable, boundary, tuple(a for a, _ in pairs))
    return SeifertData(base=base, cone_pairs=pairs, b=b)


def conjugate(rng: random.Random, m: Mat2Z) -> Mat2Z:
    p = Mat2Z(1, 0, 0, 1)
    for _ in range(rng.randrange(4)):
        p = p * rng.choice(CONJUGATORS)
    return p * m * p.inverse()


def spherical(rng):
    order = rng.choice(SPHERICAL_ORDERS)
    tag = {1: "trivial", 2: "order2"}.get(order, "")
    return Piece(Spherical(order), ZERO, tag)


def geometric(rng):
    geometry, value = rng.choice(GEOMETRIES)
    return Piece(Geometric(geometry), value)


def torus_bundle(rng):
    pool, value = rng.choice([(ELLIPTIC, FLAT), (PARABOLIC, THREE), (ANOSOV, TWO)])
    return Piece(TorusBundle(conjugate(rng, rng.choice(pool))), value)


def klein_double(rng):
    return Piece(KleinDouble(), TWO)


def seifert_hyperbolic(rng):
    genus, orientable, cones = rng.choice(HYPERBOLIC_CLOSED)
    data = _seifert(genus, orientable, 0, _pairs(rng, cones), rng.randint(-3, 3))
    return Piece(SeifertClosed(data), TWO)


def seifert_flat(rng):
    """Flat base: Euler number 0 is flat geometry (5 / 0), anything else is Nil (3 / 3)."""
    genus, orientable, pairs, b = rng.choice(FLAT_EULER_ZERO)
    shift = rng.choice([0, 0, 0, -2, -1, 1, 2])
    value = FLAT if shift == 0 else THREE
    return Piece(SeifertClosed(_seifert(genus, orientable, 0, pairs, b + shift)), value)


def _chain_length(rng: random.Random) -> int:
    """Mostly short chains; one in ten has 25 to 64 vertices, so large graphs set the tail."""
    r = rng.random()
    if r < 0.7:
        return rng.randint(1, 6)
    if r < 0.9:
        return rng.randint(7, 24)
    return rng.randint(25, 64)


def jsj_chain(rng):
    """A chain of vertices, some with self-glued tori; the value is the vertex maximum."""
    n = _chain_length(rng)
    loops = [rng.random() < 0.2 for _ in range(n)]
    if n == 1:
        loops = [True]
    edges = [(i, i + 1) for i in range(n - 1)] + [(i, i) for i in range(n) if loops[i]]
    vertices, values = [], []
    flat_used = False
    for i in range(n):
        degree = (i > 0) + (i < n - 1) + 2 * loops[i]
        # a flat vertex has one boundary torus; two of them glued are a Klein double
        flat_ok = degree == 1 and not (n == 2 and flat_used)
        r = rng.random()
        if flat_ok and r < 0.25:
            genus, orientable, pairs = rng.choice(FLAT_BOUNDED)
            vertices.append(SeifertBounded(_seifert(genus, orientable, 1, pairs, None)))
            values.append(0)
            flat_used = True
        elif r < 0.6:
            vertices.append(HyperbolicCusped(degree))
            values.append(3)
        else:
            if degree in HYPERBOLIC_BOUNDED:
                genus, orientable, cones = rng.choice(HYPERBOLIC_BOUNDED[degree])
            else:   # a sphere with >= 3 holes is hyperbolic with or without a cone point
                genus, orientable, cones = 0, True, rng.choice([(), (2,)])
            data = _seifert(genus, orientable, degree, _pairs(rng, cones), None)
            vertices.append(SeifertBounded(data))
            values.append(2)
    value = max(values)
    return Piece(JsjGraph(vertices=tuple(vertices), edges=tuple(edges)), (value, value))


# Synthetic mix (no usage data exists): about one in seven per family, more
# for torus bundles (three rule-table rows) and less for the Klein double
# (one fixed piece).  perfbench/README.md gives the basis of every weight.
SUMMANDS: List[Tuple[Callable, int]] = [
    (spherical, 15), (geometric, 15), (torus_bundle, 18), (klein_double, 4),
    (seifert_hyperbolic, 14), (seifert_flat, 16), (jsj_chain, 15),
]


def single_only(rng):
    """Finite-group spellings, allowed only as the whole description."""
    r = rng.randrange(5)
    if r == 0:
        return Piece(Geometric(Geometry.S3), ZERO)
    if r == 1:   # lens space L(b, 1) over S2 without cone points
        b = rng.choice([-7, -3, -2, -1, 1, 2, 5, 9])
        return Piece(SeifertClosed(_seifert(0, True, 0, (), b)), ZERO)
    if r == 2:   # bad base S2(n) or S2(p, q) with p != q: never Euler number 0
        cones = rng.choice([(3,), (5,), (2, 3), (2, 5), (3, 4), (3, 5)])
        pairs = _pairs(rng, cones)
        return Piece(SeifertClosed(_seifert(0, True, 0, pairs, rng.randint(-3, 3))), ZERO)
    if r == 3:   # spherical bases whose cone terms never sum to an integer
        cones = rng.choice([(2, 2, 3), (2, 2, 5), (2, 3, 3), (2, 3, 4), (2, 3, 5)])
        pairs = _pairs(rng, cones)
        return Piece(SeifertClosed(_seifert(0, True, 0, pairs, rng.randint(-3, 3))), ZERO)
    n = rng.randint(2, 6)   # S2(n, n): skip the one b that gives Euler number 0
    pairs = _pairs(rng, (n, n))
    total = pairs[0][1] + pairs[1][1]
    choices = [b for b in range(-3, 4) if b * n != -total]
    return Piece(SeifertClosed(_seifert(0, True, 0, pairs, rng.choice(choices))), ZERO)


def _pick(rng: random.Random):
    templates, weights = zip(*SUMMANDS)
    return rng.choices(templates, weights)[0](rng)


def sum_value(parts: List[Piece]) -> Value:
    """Thm 1.1: the dihedral sum is 0, a sum of family members is 2, else the maximum."""
    kept = [p for p in parts if p.tag != "trivial"] or parts[:1]
    if len(kept) == 1:
        return kept[0].value
    if len(kept) == 2 and all(p.tag == "order2" for p in kept):
        return ZERO
    return tuple(
        2 if all(p.value[c] == 0 for p in kept) else max(p.value[c] for p in kept)
        for c in (0, 1)
    )


PIECE_COUNT_WEIGHTS = [25, 20, 15, 12, 10, 8, 6, 4]     # sums of 1 to 8 pieces, falling


def description(rng: random.Random) -> List[Piece]:
    r = rng.random()
    if r < 0.06:
        return [single_only(rng)]
    if r < 0.09:   # RP^3 # RP^3, possibly with S^3 summands
        parts = [Piece(Spherical(2), ZERO, "order2")] * 2
        parts += [Piece(Spherical(1), ZERO, "trivial")] * rng.randrange(3)
        rng.shuffle(parts)
        return parts
    count = rng.choices(range(1, 9), PIECE_COUNT_WEIGHTS)[0]
    return [_pick(rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# invalid documents

def _bad_piece(kind: str, rng: random.Random):
    if kind == "determinant":
        return TorusBundle(rng.choice([Mat2Z(2, 1, 1, 2), Mat2Z(1, 2, 3, 4), Mat2Z(3, 0, 0, 1)]))
    if kind == "gcd":
        return SeifertClosed(_seifert(0, True, 0, ((2, 1), (4, 2), (5, 1)), 0))
    if kind == "cone_mismatch":
        base = OrbifoldBase(0, True, 0, (2, 3, 7))
        return SeifertClosed(SeifertData(base=base, cone_pairs=((2, 1), (3, 1), (5, 2)), b=0))
    if kind == "disconnected":
        return JsjGraph(vertices=(HyperbolicCusped(2), HyperbolicCusped(2)),
                        edges=((0, 0), (1, 1)))
    if kind == "bookkeeping":
        return JsjGraph(vertices=(HyperbolicCusped(3), HyperbolicCusped(1)), edges=((0, 1),))
    raise ValueError(kind)


VIOLATIONS = ["determinant", "gcd", "cone_mismatch", "disconnected", "bookkeeping",
              "unknown_kind", "empty"]


def invalid(rng: random.Random, name: str) -> Case:
    kind = rng.choice(VIOLATIONS)
    pieces = [p.piece for p in description(rng)][:4]
    if kind == "empty":
        pieces = []
    elif kind != "unknown_kind":
        pieces.insert(rng.randrange(len(pieces) + 1), _bad_piece(kind, rng))
    obj = description_to_json(ManifoldDescription(name=name, pieces=tuple(pieces)))
    if kind == "unknown_kind":
        obj["pieces"].insert(rng.randrange(len(obj["pieces"]) + 1),
                             {"kind": "lens_space", "p": 7, "q": 2})
    return Case(json.dumps(obj), None, kind)


def valid(rng: random.Random, name: str) -> Case:
    parts = description(rng)
    desc = ManifoldDescription(name=name, pieces=tuple(p.piece for p in parts))
    return Case(json.dumps(description_to_json(desc)), sum_value(parts), "valid")


CHUNK = 1000            # census documents per seeded chunk
INVALID_SHARE = 0.1     # of each chunk, refused by design


def census(seed: int, chunk: int) -> List[Case]:
    """CHUNK documents, exactly INVALID_SHARE of them refused by design."""
    rng = random.Random(f"census:{seed}:{chunk}")
    bad = set(rng.sample(range(CHUNK), round(CHUNK * INVALID_SHARE)))
    return [
        (invalid if i in bad else valid)(rng, f"c{seed}-{chunk}-{i}")
        for i in range(CHUNK)
    ]
