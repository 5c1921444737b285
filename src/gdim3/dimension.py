"""The dimension engine.

For the fundamental group G of a closed oriented 3-manifold and k >= 2,
the value is the minimal dimension of a classifying space for G relative
to the family of virtually Z^r subgroups, r <= k: 0, 2, 3 or 5.  G has no
Z^4, so the families stabilise at k = 3 and a report has two columns.

Each geometric piece is one lookup in `TABLE`, which holds its value in
both columns; a graph piece takes the maximum over its vertices.  A
connected sum is combined per column by Thm 1.1: the infinite dihedral
sum is virtually cyclic (0); any other free product of family members
acts on its Bass-Serre tree with family stabilisers (2); else the maximum.
"""
from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ._record import Record
from .geometry import Geometry
from .gl2z import classify
from .model import (Geometric, HyperbolicCusped, JsjGraph, KleinDouble, ManifoldDescription,
                    PrimePiece, SeifertBounded, SeifertClosed, Spherical, TorusBundle, normalize)
from .orbifold2 import OrbifoldClass, classify_base


class UnsupportedPiece(ValueError):
    """The piece cannot be evaluated by this operation."""


ALLOWED_VALUES = frozenset({0, 2, 3, 5})


def _column(k: int) -> int:
    """The column of family index k: 0 for k = 2, 1 for every k >= 3."""
    if k < 2:
        raise ValueError(f"family index must be >= 2, got {k}")
    return min(k, 3) - 2


class TraceStep(Record):
    path: str
    rule: str
    inputs: str
    value: int


class GdResult(Record):
    value: int
    trace: Tuple[TraceStep, ...]

    def __post_init__(self) -> None:
        if self.value not in ALLOWED_VALUES:
            raise AssertionError(f"value {self.value} outside {{0, 2, 3, 5}}")
        if not self.trace or self.trace[-1].value != self.value:
            raise AssertionError("trace must end in the step producing the value")


#: The rule table: rule id -> (value at k = 2, value at k >= 3, text), in the
#: order of the README rule table; RULES is its id -> text view.  Combination
#: rows (Thm1.2, Thm1.1) have equal columns; MAX is the maximum of their parts.
MAX = None
TABLE: Dict[str, Tuple[Optional[int], Optional[int], str]] = {
    "Table1-row1": (3, 3, "closed hyperbolic piece: value 3 in both columns"),
    "Table1-row2": (3, 3, "finite-volume hyperbolic piece with cusps: value 3 in both columns"),
    "Table1-row3": (0, 0, "piece with finite or virtually cyclic group (spherical space form, "
                          "S2xE, or a Seifert fibration over a bad or spherical base): "
                          "value 0 in both columns"),
    "Table1-row4": (2, 2, "Seifert piece over a hyperbolic base, closed or bounded: "
                          "value 2 in both columns"),
    "Table1-row5": (5, 0, "closed Seifert piece over a flat base with Euler number 0 "
                          "(flat geometry): value 5 at k = 2 and 0 at k >= 3"),
    "Table1-row6": (3, 3, "closed Seifert piece over a flat base with nonzero Euler number "
                          "(Nil geometry): value 3 in both columns"),
    "Table1-row7": (0, 0, "bounded Seifert piece over a flat base: value 0 in both columns"),
    "Elementary-piece": (0, 0, "bounded Seifert piece over an elementary base "
                               "(virtually cyclic group): value 0 in both columns"),
    "Thm4.5-elliptic": (5, 0, "torus bundle with elliptic monodromy (flat geometry): "
                              "value 5 at k = 2 and 0 at k >= 3"),
    "Thm4.5-parabolic": (3, 3, "torus bundle with parabolic monodromy (Nil geometry): "
                               "value 3 in both columns"),
    "Thm4.5-hyperbolic": (2, 2, "torus bundle with hyperbolic monodromy (Sol geometry): "
                                "value 2 in both columns"),
    "Prop5.1-sol": (2, 2, "Sol-geometric piece (Anosov mapping torus or Klein bottle double): "
                          "value 2 in both columns"),
    "Thm1.2-max": (MAX, MAX, "prime piece with a torus decomposition graph: "
                             "maximum of the vertex values"),
    "Thm1.1-case1": (0, 0, "connected sum of two order-2 spherical pieces "
                           "(infinite dihedral group): value 0"),
    "Thm1.1-case2": (2, 2, "connected sum with every factor in the family and the total "
                           "group not virtually cyclic: value 2"),
    "Thm1.1-case3": (MAX, MAX, "connected sum, remaining case: maximum of the factor values"),
}

RULES = {rule: text for rule, (_, _, text) in TABLE.items()}

_GEOMETRY_RULES = {
    Geometry.S3: "Table1-row3", Geometry.S2xE: "Table1-row3", Geometry.H3: "Table1-row1",
    Geometry.E3: "Table1-row5", Geometry.NIL: "Table1-row6", Geometry.H2xE: "Table1-row4",
    Geometry.PSL2R: "Table1-row4", Geometry.SOL: "Prop5.1-sol",
}


def piece_rule(piece: PrimePiece) -> Tuple[str, str]:
    """The table row of a geometric piece or graph vertex, and the inputs that chose it."""
    if isinstance(piece, HyperbolicCusped):
        return "Table1-row2", f"finite-volume hyperbolic piece with {piece.cusps} cusp(s)"
    if isinstance(piece, Spherical):
        return "Table1-row3", f"spherical space form, group of order {piece.pi1_order}"
    if isinstance(piece, Geometric):
        rule = _GEOMETRY_RULES[piece.geometry]
        note = " (Seifert over a hyperbolic base)" if rule == "Table1-row4" else ""
        return rule, f"closed piece with geometry {piece.geometry}{note}"
    if isinstance(piece, KleinDouble):
        return "Prop5.1-sol", "double of the twisted I-bundle over the Klein bottle (Sol)"
    if isinstance(piece, TorusBundle):
        cls = classify(piece.monodromy)
        return f"Thm4.5-{cls.kind}", f"monodromy {piece.monodromy} is {cls}"
    if not isinstance(piece, (SeifertClosed, SeifertBounded)):
        raise UnsupportedPiece(f"unknown piece type {type(piece).__name__}")
    base, base_class = piece.data.base, classify_base(piece.data.base)
    seifert = f"Seifert piece, {base_class} base {base.label()}"
    if base_class in (OrbifoldClass.BAD, OrbifoldClass.SPHERICAL):
        return "Table1-row3", seifert
    if base_class is OrbifoldClass.HYPERBOLIC:
        return "Table1-row4", seifert
    if base_class is OrbifoldClass.ELEMENTARY:
        return "Elementary-piece", f"bounded {seifert}"
    if base.boundary_count > 0:
        return "Table1-row7", f"bounded {seifert}"
    e = piece.data.euler_number()
    return ("Table1-row6" if e else "Table1-row5"), f"closed {seifert}, Euler number {e}"


def _combine(parts: Sequence[GdResult], path: str, rule: str, inputs: str) -> GdResult:
    """Append a combination step, valued from the table, to the traces of the parts."""
    value = TABLE[rule][0] if TABLE[rule][0] is not MAX else max(p.value for p in parts)
    steps = tuple(step for part in parts for step in part.trace)
    return GdResult(value, steps + (TraceStep(path, rule, inputs, value),))


def _prime(piece: PrimePiece, path: str) -> Tuple[GdResult, GdResult]:
    """Both columns of one prime piece, classifying each geometric piece once."""
    if isinstance(piece, JsjGraph):
        vertices = [_prime(v, f"{path}.vertices[{i}]") for i, v in enumerate(piece.vertices)]
        return tuple(_combine(col, path, "Thm1.2-max", f"vertex values {[p.value for p in col]}")
                     for col in zip(*vertices))
    rule, inputs = piece_rule(piece)
    return tuple(GdResult(v, (TraceStep(path, rule, inputs, v),)) for v in TABLE[rule][:2])


def _sum(pieces: Sequence[PrimePiece], parts: Sequence[GdResult], k: int, path: str) -> GdResult:
    """Thm 1.1 on the column of k (2 or 3), which the case-2 inputs name."""
    values = [part.value for part in parts]
    if len(parts) == 1:
        return _combine(parts, path, "Thm1.1-case3", "single prime piece")
    # a free product of nontrivial groups is virtually cyclic only when both
    # factors have order two; spherical pieces are detected by their pi1_order
    if len(pieces) == 2 and all(p == Spherical(2) for p in pieces):
        inputs = "two order-2 spherical factors, infinite dihedral group"
        return _combine(parts, path, "Thm1.1-case1", inputs)
    if all(v == 0 for v in values):
        inputs = f"all {len(parts)} factors lie in the family at k={k}"
        return _combine(parts, path, "Thm1.1-case2", inputs)
    return _combine(parts, path, "Thm1.1-case3", f"factor values {values}")


def evaluate_piece(piece: PrimePiece, k: int, path: str = "piece") -> GdResult:
    """Value of one prime piece or graph vertex in the column of k."""
    return _prime(piece, path)[_column(k)]


class DimensionReport(Record):
    """Both family columns for one description, plus the Z^n rank indicator."""

    name: str
    description: ManifoldDescription
    k2: GdResult
    k3plus: GdResult
    rank_cap: int

    def value(self, k: int) -> int:
        return (self.k2, self.k3plus)[_column(k)].value


def compute(desc: ManifoldDescription) -> DimensionReport:
    """Validate, normalize, and evaluate both family columns in one pass."""
    normalized = normalize(desc)
    parts = [_prime(p, f"pieces[{i}]") for i, p in enumerate(normalized.pieces)]
    k2, k3plus = (_sum(normalized.pieces, column, k, "pieces")
                  for k, column in zip((2, 3), zip(*parts)))
    # only the flat rows differ between the columns, and only flat pieces contain Z^3
    rank_cap = 3 if any(two.value != three.value for two, three in parts) else 2
    return DimensionReport(normalized.name, normalized, k2, k3plus, rank_cap)
