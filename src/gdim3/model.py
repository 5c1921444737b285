"""Structured descriptions of closed oriented 3-manifolds.

A manifold is described by its prime decomposition: a list of prime
pieces.  Each piece is either recognisably geometric (a spherical space
form, a single model geometry, a torus bundle with explicit monodromy,
the double of the twisted I-bundle over the Klein bottle, or a closed
Seifert fibration given by unnormalised Seifert invariants), or a
nontrivial torus decomposition recorded as a graph whose vertices are
finite-volume hyperbolic pieces or bounded Seifert pieces and whose
edges are the gluing tori.

Records keep their fields as written.  validate() reports every violated
well-formedness condition, field types included, with a path into the
description as written instead of raising on the first one.  normalize()
validates the description as written, once, and only then removes
trivial summands and rewrites the two torus-decomposition shapes that
are secretly geometric (a doubled twisted I-bundle is Sol, a torus times
interval glued to itself is a torus bundle), read off the key (boundary
circles, underlying Euler characteristic, cone orders) of a vertex's
base, which is never classified; it raises when a rewrite needs data the
description lacks.  normalize_piece() does both for one piece or vertex.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import List, NamedTuple, Optional, Tuple, Union

from ._record import Record, wrong_type
from .geometry import Geometry
from .gl2z import Mat2Z
from .orbifold2 import SURFACES, OrbifoldBase


class DescriptionFormatError(ValueError):
    """The JSON object cannot be decoded into a description at all."""


class NormalizationAmbiguous(ValueError):
    """A normalization rewrite needs data the description lacks."""


class Violation(NamedTuple):
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class InvalidDescription(ValueError):
    """Raised by normalize, and so by compute, when the description as written has violations."""

    def __init__(self, report: List[Violation]):
        self.report = list(report)
        super().__init__("; ".join(str(v) for v in self.report))


# ---------------------------------------------------------------------------
# types

class SeifertData(Record):
    """Unnormalised Seifert invariants over a cone-point base.

    cone_pairs lists (alpha, beta) for the exceptional fibres, with
    alpha >= 2 and gcd(alpha, beta) = 1; the multiset of alphas must
    agree with base.cone_orders.  The integer b is the obstruction term
    and is present exactly when the base is closed.  The pairs are kept
    in the order given.
    """

    base: OrbifoldBase
    cone_pairs: Tuple[Tuple[int, int], ...] = ()
    b: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cone_pairs", tuple(tuple(p) for p in self.cone_pairs))

    def euler_number(self) -> Fraction:
        """e = -(b + sum beta_i / alpha_i); defined for closed bases only."""
        if self.base.boundary_count != 0 or self.b is None:
            raise ValueError("Euler number is defined for closed Seifert data with b")
        total = Fraction(self.b)
        for alpha, beta in self.cone_pairs:
            total += Fraction(beta, alpha)
        return -total


class Spherical(Record):
    """Spherical space form, recorded by the order of its fundamental group."""

    pi1_order: int


class Geometric(Record):
    """Closed piece carrying a single model geometry."""

    geometry: Geometry


class TorusBundle(Record):
    """Torus bundle over the circle with explicit monodromy."""

    monodromy: Mat2Z


class KleinDouble(Record):
    """Double of the twisted I-bundle over the Klein bottle (a Sol manifold)."""


class SeifertClosed(Record):
    """Closed Seifert fibration."""

    data: SeifertData


class HyperbolicCusped(Record):
    """Finite-volume hyperbolic piece with cusps >= 1."""

    cusps: int


class SeifertBounded(Record):
    """Seifert fibration over a base with boundary (no obstruction term)."""

    data: SeifertData


JsjVertex = Union[HyperbolicCusped, SeifertBounded]


class JsjGraph(Record):
    """Torus decomposition graph: vertices are pieces, edges are gluing tori.

    Edges are unordered index pairs with multiplicity, each kept as given.
    The optional monodromy is consumed only by the normalization rewrite of
    a single torus-times-interval vertex with a self-edge into a TorusBundle.
    """

    vertices: Tuple[JsjVertex, ...]
    edges: Tuple[Tuple[int, int], ...] = ()
    monodromy: Optional[Mat2Z] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))


PrimePiece = Union[Spherical, Geometric, TorusBundle, KleinDouble, SeifertClosed, JsjGraph]


class ManifoldDescription(Record):
    name: str
    pieces: Tuple[PrimePiece, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", tuple(self.pieces))


# ---------------------------------------------------------------------------
# validation

#: The keys of the bases of the twisted I-bundle over the Klein bottle (the Mobius band, D2(2,2))
#: and of T^2 x I (the annulus): Scott, The geometries of 3-manifolds (1983).
_TWISTED_I_BUNDLE = frozenset({(1, 0, ()), (1, 1, (2, 2))})
_T2_TIMES_I = frozenset({(2, 0, ())})


def _is_shape(vertex: JsjVertex, shape: frozenset) -> bool:
    """Whether `vertex` is a Seifert vertex whose typed base has its key in `shape`."""
    if not isinstance(vertex, SeifertBounded):
        return False
    base = vertex.data.base
    return (base.boundary_count, base.underlying_euler, base.cone_orders) in shape


def _is_product_loop(graph: JsjGraph) -> bool:
    """One T^2 x I vertex: the only graph that consumes a monodromy."""
    return len(graph.vertices) == 1 and _is_shape(graph.vertices[0], _T2_TIMES_I)


def _refuse_type(value, kind: type, report: List[Violation], path: str, *keys) -> None:
    """Report a field that does not hold exactly a `kind`, in the words of `wrong_type`, at
    `path` followed by `keys` (names and indices)."""
    if type(value) is not kind:
        path += "".join(f"[{key}]" if type(key) is int else f".{key}" for key in keys)
        report.append(Violation(path, wrong_type(value, kind)))


def _unknown(value, what: str, path: str) -> Violation:
    """The refusal of a piece, vertex, data, base or monodromy of another type."""
    return Violation(path, f"unknown {what} type {type(value).__name__}")


def _row_refusal(row, width: int) -> str:
    """The refusal of a cone pair, edge or matrix row without `width` entries."""
    return f"expected a list of {width} integers, got {row!r}"


def _validate_seifert(data: SeifertData, path: str, report: List[Violation], closed: bool) -> bool:
    """Report the violations of Seifert data at `path`; return whether its base is well typed,
    as the counts that a graph compares need."""
    if not isinstance(data, SeifertData):
        report.append(_unknown(data, "data", path))
        return False
    base = data.base
    known = isinstance(base, OrbifoldBase)
    if not known:
        report.append(_unknown(base, "base", f"{path}.base"))
    for field, message in base.violations() if known else ():
        report.append(Violation(f"{path}.base.{field}", message))
    typed = well_typed = known and base.well_typed   # `typed` asks it of the pairs too
    for i, pair in enumerate(data.cone_pairs):
        if len(pair) != 2:
            report.append(Violation(f"{path}.cone_pairs[{i}]", _row_refusal(pair, 2)))
            typed = False
            continue
        alpha, beta = pair
        if type(alpha) is not int or type(beta) is not int:   # only a bad pair pays for paths
            _refuse_type(alpha, int, report, path, "cone_pairs", i, 0)
            _refuse_type(beta, int, report, path, "cone_pairs", i, 1)
            typed = False
        elif alpha < 2:
            report.append(Violation(f"{path}.cone_pairs[{i}]", "alpha must be >= 2"))
        elif gcd(alpha, beta) != 1:
            report.append(Violation(f"{path}.cone_pairs[{i}]", f"gcd({alpha}, {beta}) != 1"))
    if typed:   # the multisets compare, as sorted lists, once pairs and base have their types
        alphas = sorted(alpha for alpha, _ in data.cone_pairs)
        orders = sorted(base.cone_orders)
        if alphas != orders:
            report.append(Violation(f"{path}.cone_pairs", "cone order mismatch: pairs carry "
                                    f"orders {alphas} but the base carries {orders}"))
    if closed:
        if known and base.boundary_count != 0:
            report.append(Violation(f"{path}.base", "closed Seifert piece over a bounded base"))
        if data.b is None:
            report.append(Violation(f"{path}.b", "closed Seifert data needs the obstruction term b"))
        else:
            _refuse_type(data.b, int, report, path, "b")
    else:
        if known and type(base.boundary_count) is int and base.boundary_count < 1:
            report.append(Violation(f"{path}.base", "bounded Seifert piece over a closed base"))
        if data.b is not None:
            report.append(Violation(f"{path}.b", "bounded Seifert data must not carry b"))
    return well_typed


def _validate_vertex(vertex: JsjVertex, path: str, report: List[Violation]) -> Optional[int]:
    """Report the violations of a graph vertex at `path`; return its boundary tori, or None
    while a count lacks its type."""
    if isinstance(vertex, HyperbolicCusped):
        cusps = vertex.cusps
        if type(cusps) is not int:
            _refuse_type(cusps, int, report, path, "cusps")
            return None
        if cusps < 1:
            report.append(Violation(f"{path}.cusps", "cusps must be >= 1"))
        return cusps
    if isinstance(vertex, SeifertBounded):
        typed = _validate_seifert(vertex.data, path, report, closed=False)
        return vertex.data.base.boundary_count if typed else None
    report.append(_unknown(vertex, "vertex", path))
    return None


def _validate_jsj(graph: JsjGraph, path: str, report: List[Violation]) -> None:
    found: List[Violation] = []   # the vertices' violations, which follow the monodromy's
    tori = [_validate_vertex(vertex, f"{path}.vertices[{i}]", found)
            for i, vertex in enumerate(graph.vertices)]
    edges_ok = None not in tori   # the counts compare once they have their types
    if graph.monodromy is not None and edges_ok and not _is_product_loop(graph):
        report.append(Violation(f"{path}.monodromy", "only a single torus-times-interval "
                                "vertex glued to itself takes a monodromy"))
    n = len(tori)
    if n == 0:
        report.append(Violation(f"{path}.vertices", "graph needs at least one vertex"))
        return
    report += found

    degree = [0] * n
    for j, edge in enumerate(graph.edges):
        if len(edge) != 2:
            report.append(Violation(f"{path}.edges[{j}]", _row_refusal(edge, 2)))
            edges_ok = False
            continue
        u, v = edge
        if type(u) is not int or type(v) is not int:   # only a bad edge pays for paths
            _refuse_type(u, int, report, path, "edges", j, 0)
            _refuse_type(v, int, report, path, "edges", j, 1)
            edges_ok = False
        elif not (0 <= u < n and 0 <= v < n):
            report.append(Violation(f"{path}.edges[{j}]", f"vertex index out of range: ({u}, {v})"))
            edges_ok = False
        else:
            degree[u] += 1
            degree[v] += 1
    if not edges_ok:
        return

    for i, count in enumerate(tori):
        if count >= 1 and degree[i] != count:
            report.append(Violation(f"{path}.vertices[{i}]", "boundary bookkeeping: "
                                    f"{count} tori but {degree[i]} edge ends"))

    # connectivity (a description stands for one connected manifold)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in graph.edges:
        parent[find(u)] = find(v)
    if len({find(i) for i in range(n)}) > 1:
        report.append(Violation(f"{path}.edges", "graph is not connected"))

    # minimality rejection: this shape is geometric, not a torus decomposition
    for i, vertex in enumerate(graph.vertices):
        if n >= 2 and _is_shape(vertex, _T2_TIMES_I):
            report.append(Violation(f"{path}.vertices[{i}]", "non-minimal: "
                                    "torus-times-interval vertex in a multi-vertex graph"))


def _validate_piece(piece: PrimePiece, path: str, report: List[Violation]) -> None:
    """Report the violations of one prime piece at `path`."""
    if isinstance(piece, Spherical):
        if type(piece.pi1_order) is not int:
            _refuse_type(piece.pi1_order, int, report, path, "pi1_order")
        elif piece.pi1_order < 1:
            report.append(Violation(f"{path}.pi1_order", "group order must be >= 1"))
    elif isinstance(piece, Geometric):
        if not isinstance(piece.geometry, Geometry):
            report.append(Violation(f"{path}.geometry", "unknown geometry"))
    elif isinstance(piece, SeifertClosed):
        _validate_seifert(piece.data, path, report, closed=True)
    elif isinstance(piece, JsjGraph):
        _validate_jsj(piece, path, report)
    elif not isinstance(piece, (TorusBundle, KleinDouble)):
        report.append(_unknown(piece, "piece", path))
    monodromy = getattr(piece, "monodromy", None)   # of a torus bundle, or of a graph
    if monodromy is None and not isinstance(piece, TorusBundle):
        return
    if not isinstance(monodromy, Mat2Z):
        report.append(_unknown(monodromy, "monodromy", f"{path}.monodromy"))
    elif type(monodromy.a) is type(monodromy.b) is type(monodromy.c) is type(monodromy.d) is int:
        if monodromy.det() not in (1, -1):
            report.append(Violation(f"{path}.monodromy", "monodromy determinant must be +1 or -1"))
    else:   # only a bad matrix pays for paths
        for r, row in enumerate(monodromy.rows()):
            for c, entry in enumerate(row):
                _refuse_type(entry, int, report, path, "monodromy", r, c)


def validate(desc: ManifoldDescription) -> List[Violation]:
    """Every violated well-formedness condition, with a path into the description.  Anything
    but a ManifoldDescription has no fields to report on and raises InvalidDescription."""
    if not isinstance(desc, ManifoldDescription):
        raise InvalidDescription([_unknown(desc, "description", "description")])
    report: List[Violation] = []
    _refuse_type(desc.name, str, report, "name")
    if not desc.pieces:
        report.append(Violation("pieces", "a description needs at least one piece"))
    for i, piece in enumerate(desc.pieces):
        _validate_piece(piece, f"pieces[{i}]", report)
    return report


# ---------------------------------------------------------------------------
# normalization

_TRIVIAL = Spherical(1)


def _rewrite_jsj(piece: PrimePiece, path: str) -> PrimePiece:
    """A valid piece, or the geometric piece a valid graph spells, each vertex known by its
    base's key: (0, 1) between two twisted I-bundles, or (0, 0) on one T^2 x I."""
    if not isinstance(piece, JsjGraph):
        return piece
    if len(piece.vertices) == 2 and all(_is_shape(v, _TWISTED_I_BUNDLE) for v in piece.vertices):
        return KleinDouble()
    if _is_product_loop(piece):
        if piece.monodromy is None:
            raise NormalizationAmbiguous(
                f"{path}: a torus-times-interval vertex glued to itself is a "
                "torus bundle; supply the gluing monodromy on the graph piece"
            )
        return TorusBundle(piece.monodromy)
    return piece


def normalize(desc: ManifoldDescription) -> ManifoldDescription:
    """Canonical form: no trivial summands, no geometric shapes hiding in graphs.

    Idempotent.  Raises InvalidDescription, with paths into `desc` as
    written, before any rewrite; the rewrites build valid pieces from valid
    ones.  Raises NormalizationAmbiguous when the torus-bundle rewrite lacks
    its monodromy.
    """
    report = validate(desc)
    if report:
        raise InvalidDescription(report)
    pieces = [_rewrite_jsj(piece, f"pieces[{i}]") for i, piece in enumerate(desc.pieces)]
    nontrivial = tuple(p for p in pieces if p != _TRIVIAL)
    return ManifoldDescription(desc.name, nontrivial or pieces[:1])


def normalize_piece(piece: Union[PrimePiece, JsjVertex], path: str = "piece"):
    """One prime piece or graph vertex, checked and rewritten as normalize checks and rewrites
    a piece; InvalidDescription and NormalizationAmbiguous name paths that start at `path`."""
    report: List[Violation] = []
    vertex = isinstance(piece, (HyperbolicCusped, SeifertBounded))
    (_validate_vertex if vertex else _validate_piece)(piece, path, report)
    if report:
        raise InvalidDescription(report)
    return _rewrite_jsj(piece, path)


# ---------------------------------------------------------------------------
# JSON wire format

def _known_fields(obj: dict, known: frozenset, path: str) -> None:
    """Refuse the first field of `obj` that is not in `known`, naming its path."""
    if not known.issuperset(obj):   # only a failing check builds a message
        key = next(key for key in obj if key not in known)
        where = f"{path}.{key}" if path else key
        raise DescriptionFormatError(f"{where}: unknown field, expected one of {sorted(known)}")


def _kind(obj, kinds: dict, path: str, what: str) -> str:
    """The kind of a piece or vertex object, whose fields must all belong to that kind."""
    if not isinstance(obj, dict):
        raise DescriptionFormatError(f"{path}: {what} must be an object, got {obj!r}")
    kind = obj.get("kind")
    if type(kind) is not str or kind not in kinds:
        raise DescriptionFormatError(f"{path}.kind: unknown {what} kind {kind!r}")
    _known_fields(obj, kinds[kind], path)
    return kind


def _required(obj: dict, key: str, path: str):
    """The value of a field that the description must give."""
    if key not in obj:
        raise DescriptionFormatError(f"{path}.{key}: missing")
    return obj[key]


def _listed(value, path: str, key: str):
    """A JSON list, as written; validate judges its entries."""
    if not isinstance(value, (list, tuple)):
        raise DescriptionFormatError(f"{path}.{key}: expected a list, got {value!r}")
    return value


def _rows(value, path: str, key: str, width: int):
    """A list of rows of `width` entries (cone pairs, edges, matrix rows), as written."""
    for i, row in enumerate(_listed(value, path, key)):
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise DescriptionFormatError(f"{path}.{key}[{i}]: {_row_refusal(row, width)}")
    return value


# A description names only the closed surfaces: its boundary count is a separate field.
_NAMED_SURFACES = {name: make() for name, make in SURFACES.items() if make().closed}
_BASE_QUANTITIES = {   # base field -> (OrbifoldBase field it sets, type)
    "genus": ("genus", int),
    "orientable": ("orientable", bool),
    "nonorientable": ("orientable", bool),   # read negated
    "boundary": ("boundary_count", int),
    "boundary_count": ("boundary_count", int),
}
_BASE_FIELDS = frozenset(_BASE_QUANTITIES) | {"surface", "cone_orders"}
_SEIFERT_FIELDS = frozenset({"kind", "base", "cone_pairs", "b"})
_PIECE_FIELDS = {   # piece kind -> the fields it may carry
    "spherical": frozenset({"kind", "pi1_order"}), "geometric": frozenset({"kind", "geometry"}),
    "torus_bundle": frozenset({"kind", "monodromy"}), "klein_double": frozenset({"kind"}),
    "seifert_closed": _SEIFERT_FIELDS, "jsj": frozenset({"kind", "vertices", "edges", "monodromy"}),
}
_VERTEX_FIELDS = {   # vertex kind -> fields; a vertex's b is read for validation to refuse
    "hyperbolic_cusped": frozenset({"kind", "cusps"}), "seifert_bounded": _SEIFERT_FIELDS,
}
_DESCRIPTION_FIELDS = frozenset({"name", "pieces"})


def _base_from_json(obj: dict, cone_pairs: list, path: str) -> OrbifoldBase:
    """Read a base given by `surface` or by `genus` / `nonorientable` / `boundary`.

    `orientable` and `boundary_count` (the spelling of `description_to_json`)
    are read as well.  Unknown fields are refused, and so are fields that
    give the same quantity different values; since they are merged, they are
    typed here, under the spelling in the file.  Missing cone orders are those
    of the pairs that validate will not refuse, so no refusal names them.
    """
    if not isinstance(obj, dict):
        raise DescriptionFormatError(f"{path}: base must be an object, got {obj!r}")
    _known_fields(obj, _BASE_FIELDS, path)
    found = {}   # OrbifoldBase field -> (base field, value)
    if "surface" in obj:
        surface = obj["surface"]
        if not isinstance(surface, str) or surface not in _NAMED_SURFACES:
            raise DescriptionFormatError(
                f"{path}.surface: unknown surface {surface!r}, "
                f"expected one of {sorted(_NAMED_SURFACES)}"
            )
        named = _NAMED_SURFACES[surface]
        found = {"genus": ("surface", named.genus), "orientable": ("surface", named.orientable)}
    for key, (quantity, kind) in _BASE_QUANTITIES.items():
        if key in obj:
            value = obj[key]
            if type(value) is not kind:
                raise DescriptionFormatError(f"{path}.{key}: {wrong_type(value, kind)}")
            if key == "nonorientable":
                value = not value
            earlier = found.setdefault(quantity, (key, value))
            if earlier[1] != value:
                raise DescriptionFormatError(
                    f"{path}: base fields {earlier[0]!r} and {key!r} disagree on {quantity} "
                    f"in {obj!r}"
                )
    if "cone_orders" in obj:
        orders = _listed(obj["cone_orders"], path, "cone_orders")
    else:
        orders = [alpha for alpha, _ in cone_pairs if type(alpha) is int and alpha >= 2]
    return OrbifoldBase(
        genus=found.get("genus", (None, 0))[1],
        orientable=found.get("orientable", (None, True))[1],
        boundary_count=found.get("boundary_count", (None, 0))[1],
        cone_orders=orders,
    )


def _matrix_from_json(obj, path: str) -> Mat2Z:
    rows = _rows(obj, path, "monodromy", 2)
    if len(rows) != 2:
        raise DescriptionFormatError(
            f"{path}.monodromy: monodromy must be [[a, b], [c, d]], got {obj!r}"
        )
    return Mat2Z.from_rows(rows)


def _seifert_from_json(obj: dict, path: str) -> SeifertData:
    pairs = _rows(obj.get("cone_pairs", []), path, "cone_pairs", 2)
    base = _base_from_json(_required(obj, "base", path), pairs, f"{path}.base")
    return SeifertData(base=base, cone_pairs=pairs, b=obj.get("b"))


def _vertex_from_json(obj: dict, path: str) -> JsjVertex:
    if _kind(obj, _VERTEX_FIELDS, path, "vertex") == "hyperbolic_cusped":
        return HyperbolicCusped(cusps=_required(obj, "cusps", path))
    return SeifertBounded(_seifert_from_json(obj, path))


def piece_from_json(obj: dict, path: str = "piece") -> PrimePiece:
    """Decode one prime piece; errors name the JSON path, starting at `path`."""
    kind = _kind(obj, _PIECE_FIELDS, path, "piece")
    if kind == "spherical":
        return Spherical(pi1_order=_required(obj, "pi1_order", path))
    if kind == "geometric":
        try:
            return Geometric(Geometry(obj["geometry"]))
        except (KeyError, ValueError) as exc:
            raise DescriptionFormatError(f"{path}.geometry: unknown geometry in {obj!r}") from exc
    if kind == "torus_bundle":
        return TorusBundle(_matrix_from_json(obj.get("monodromy"), path))
    if kind == "klein_double":
        return KleinDouble()
    if kind == "seifert_closed":
        return SeifertClosed(_seifert_from_json(obj, path))
    vertices = _listed(_required(obj, "vertices", path), path, "vertices")   # kind == "jsj"
    monodromy = obj.get("monodromy")
    return JsjGraph(
        vertices=tuple(
            _vertex_from_json(v, f"{path}.vertices[{i}]") for i, v in enumerate(vertices)
        ),
        edges=_rows(_required(obj, "edges", path), path, "edges", 2),
        monodromy=None if monodromy is None else _matrix_from_json(monodromy, path),
    )


def piece_to_json(piece: PrimePiece) -> dict:
    if isinstance(piece, Spherical):
        return {"kind": "spherical", "pi1_order": piece.pi1_order}
    if isinstance(piece, Geometric):
        return {"kind": "geometric", "geometry": piece.geometry.value}
    if isinstance(piece, TorusBundle):
        return {"kind": "torus_bundle", "monodromy": [list(r) for r in piece.monodromy.rows()]}
    if isinstance(piece, KleinDouble):
        return {"kind": "klein_double"}
    if isinstance(piece, SeifertClosed):
        return {**_seifert_to_json("seifert_closed", piece.data), "b": piece.data.b}
    if isinstance(piece, JsjGraph):
        obj = {
            "kind": "jsj",
            "vertices": [_vertex_to_json(v) for v in piece.vertices],
            "edges": [sorted((u, v)) for u, v in piece.edges],
        }
        if piece.monodromy is not None:
            obj["monodromy"] = [list(r) for r in piece.monodromy.rows()]
        return obj
    raise TypeError(f"unknown piece type {type(piece).__name__}")


def _vertex_to_json(vertex: JsjVertex) -> dict:
    if isinstance(vertex, HyperbolicCusped):
        return {"kind": "hyperbolic_cusped", "cusps": vertex.cusps}
    if isinstance(vertex, SeifertBounded):
        return _seifert_to_json("seifert_bounded", vertex.data)
    raise TypeError(f"unknown vertex type {type(vertex).__name__}")


def _seifert_to_json(kind: str, data: SeifertData) -> dict:
    """The fields a closed Seifert piece shares with a bounded vertex, in wire order, with
    cone orders and pairs ascending."""
    base = data.base
    obj = {"genus": base.genus, "orientable": base.orientable,
           "boundary_count": base.boundary_count}
    if base.cone_orders:
        obj["cone_orders"] = sorted(base.cone_orders)
    return {"kind": kind, "base": obj, "cone_pairs": [[a, b] for a, b in sorted(data.cone_pairs)]}


def description_to_json(desc: ManifoldDescription) -> dict:
    """The wire form of `desc`.  A description that cannot be encoded because
    validate refuses it raises InvalidDescription."""
    try:
        return {"name": desc.name, "pieces": [piece_to_json(p) for p in desc.pieces]}
    except (AttributeError, TypeError, ValueError):
        report = validate(desc)
        if report:
            raise InvalidDescription(report) from None
        raise


def description_from_json(obj: dict) -> ManifoldDescription:
    if not isinstance(obj, dict):
        raise DescriptionFormatError(f"description must be an object, got {obj!r}")
    pieces = obj.get("pieces")
    if not isinstance(pieces, list):
        raise DescriptionFormatError("description needs a 'pieces' list")
    _known_fields(obj, _DESCRIPTION_FIELDS, "")
    return ManifoldDescription(
        name=obj.get("name", ""),
        pieces=tuple(piece_from_json(p, f"pieces[{i}]") for i, p in enumerate(pieces)),
    )


def _unique_keys(pairs: list) -> dict:
    """The JSON object of `pairs`, refused if a key repeats (the last would silently win)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def read_json(path: str):
    """The JSON document in the file at `path`.

    A missing file raises FileNotFoundError.  Any other file that cannot
    be read or decoded (not UTF-8, not JSON, a key repeated in one object,
    nested too deeply, or holding an integer too long to convert) raises
    DescriptionFormatError naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise DescriptionFormatError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise DescriptionFormatError(f"{path}: {exc}") from exc


def load_description(path: str) -> ManifoldDescription:
    return description_from_json(read_json(path))
