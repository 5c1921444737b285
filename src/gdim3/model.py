"""Structured descriptions of closed oriented 3-manifolds.

A manifold is described by its prime decomposition: a list of prime
pieces.  Each piece is either recognisably geometric (a spherical space
form, a single model geometry, a torus bundle with explicit monodromy,
the double of the twisted I-bundle over the Klein bottle, or a closed
Seifert fibration given by unnormalised Seifert invariants), or a
nontrivial torus decomposition recorded as a graph whose vertices are
finite-volume hyperbolic pieces or bounded Seifert pieces and whose
edges are the gluing tori.

validate() reports every violated well-formedness condition with a path
into the description instead of raising on the first one.  normalize()
removes trivial summands and rewrites the two torus-decomposition shapes
that are secretly geometric (a doubled twisted I-bundle is Sol, a torus
times interval glued to itself is a torus bundle); it raises when a
rewrite needs data the description does not carry.  Descriptions whose
only defects are those two rewritable shapes are accepted by normalize
and repaired; everything else must validate cleanly.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import List, NamedTuple, Optional, Tuple, Union

from ._record import Record
from .geometry import Geometry
from .gl2z import Mat2Z
from .orbifold2 import SURFACES, OrbifoldBase, OrbifoldClass, classify_base


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
    """Raised by normalize/compute when hard violations remain."""

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
    and is present exactly when the base is closed.
    """

    base: OrbifoldBase
    cone_pairs: Tuple[Tuple[int, int], ...] = ()
    b: Optional[int] = None

    def __post_init__(self) -> None:
        pairs = tuple(sorted(tuple(p) for p in self.cone_pairs))
        object.__setattr__(self, "cone_pairs", pairs)

    @property
    def boundary_count(self) -> int:
        return self.base.boundary_count

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

    Edges are unordered index pairs with multiplicity.  The optional
    monodromy is consumed only by the normalization rewrite of a single
    torus-times-interval vertex with a self-edge into a TorusBundle.
    """

    vertices: Tuple[JsjVertex, ...]
    edges: Tuple[Tuple[int, int], ...] = ()
    monodromy: Optional[Mat2Z] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        normalised = tuple(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", normalised)


PrimePiece = Union[Spherical, Geometric, TorusBundle, KleinDouble, SeifertClosed, JsjGraph]


class ManifoldDescription(Record):
    name: str
    pieces: Tuple[PrimePiece, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", tuple(self.pieces))


def boundary_tori(vertex: JsjVertex) -> int:
    if isinstance(vertex, HyperbolicCusped):
        return vertex.cusps
    return vertex.data.boundary_count


# ---------------------------------------------------------------------------
# validation

def _is_flat_bounded(vertex: JsjVertex, boundary_count: int) -> bool:
    """A Seifert vertex over a flat base with boundary_count boundary circles.

    One circle is the twisted-I-bundle shape, two the T^2 x I shape (the
    bare annulus).
    """
    if not isinstance(vertex, SeifertBounded):
        return False
    base = vertex.data.base
    if base.boundary_count != boundary_count or any(a < 2 for a in base.cone_orders):
        return False
    return classify_base(base) is OrbifoldClass.FLAT


def _twisted_halves(graph: JsjGraph) -> bool:
    """Two vertices, both twisted-I-bundle shapes: glued once, a Klein double."""
    return len(graph.vertices) == 2 and all(_is_flat_bounded(v, 1) for v in graph.vertices)


def _validate_base(base: OrbifoldBase, path: str, report: List[Violation]) -> None:
    if base.genus < 0:
        report.append(Violation(f"{path}.genus", "genus must be >= 0"))
    if not base.orientable and base.genus == 0:
        report.append(Violation(f"{path}.genus", "nonorientable surfaces have genus >= 1"))
    if base.boundary_count < 0:
        report.append(Violation(f"{path}.boundary_count", "boundary_count must be >= 0"))
    for i, alpha in enumerate(base.cone_orders):
        if alpha < 2:
            report.append(Violation(f"{path}.cone_orders[{i}]", "cone orders must be >= 2"))


def _validate_seifert(data: SeifertData, path: str, report: List[Violation], closed: bool) -> None:
    _validate_base(data.base, f"{path}.base", report)
    for i, (alpha, beta) in enumerate(data.cone_pairs):
        if alpha < 2:
            report.append(Violation(f"{path}.cone_pairs[{i}]", "alpha must be >= 2"))
        elif gcd(alpha, beta) != 1:
            report.append(
                Violation(f"{path}.cone_pairs[{i}]", f"gcd({alpha}, {beta}) != 1")
            )
    alphas = tuple(sorted(alpha for alpha, _ in data.cone_pairs))
    if alphas != data.base.cone_orders:
        report.append(
            Violation(
                f"{path}.cone_pairs",
                "cone order mismatch: pairs carry orders "
                f"{list(alphas)} but the base carries {list(data.base.cone_orders)}",
            )
        )
    if closed:
        if data.base.boundary_count != 0:
            report.append(Violation(f"{path}.base", "closed Seifert piece over a bounded base"))
        if data.b is None:
            report.append(Violation(f"{path}.b", "closed Seifert data needs the obstruction term b"))
    else:
        if data.base.boundary_count < 1:
            report.append(Violation(f"{path}.base", "bounded Seifert piece over a closed base"))
        if data.b is not None:
            report.append(Violation(f"{path}.b", "bounded Seifert data must not carry b"))


def _validate_jsj(graph: JsjGraph, path: str, report: List[Violation]) -> None:
    n = len(graph.vertices)
    if n == 0:
        report.append(Violation(f"{path}.vertices", "graph needs at least one vertex"))
        return
    for i, vertex in enumerate(graph.vertices):
        vpath = f"{path}.vertices[{i}]"
        if isinstance(vertex, HyperbolicCusped):
            if vertex.cusps < 1:
                report.append(Violation(f"{vpath}.cusps", "cusps must be >= 1"))
        else:
            _validate_seifert(vertex.data, vpath, report, closed=False)

    degree = [0] * n
    edges_ok = True
    for j, (u, v) in enumerate(graph.edges):
        if not (0 <= u < n and 0 <= v < n):
            report.append(Violation(f"{path}.edges[{j}]", f"vertex index out of range: ({u}, {v})"))
            edges_ok = False
            continue
        degree[u] += 1
        degree[v] += 1
    if not edges_ok:
        return

    for i, vertex in enumerate(graph.vertices):
        tori = boundary_tori(vertex)
        if tori >= 1 and degree[i] != tori:
            report.append(
                Violation(
                    f"{path}.vertices[{i}]",
                    f"boundary bookkeeping: {tori} tori but {degree[i]} edge ends",
                )
            )

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

    # minimality rejections: these shapes are geometric, not torus decompositions
    if _twisted_halves(graph) and len(graph.edges) == 1:
        report.append(
            Violation(
                path,
                "non-minimal/geometric: Klein double, use KleinDouble",
            )
        )
    if n >= 2:
        for i, vertex in enumerate(graph.vertices):
            if _is_flat_bounded(vertex, 2):
                report.append(
                    Violation(
                        f"{path}.vertices[{i}]",
                        "non-minimal: torus-times-interval vertex in a multi-vertex graph",
                    )
                )


def validate(desc: ManifoldDescription) -> List[Violation]:
    """Every violated well-formedness condition, with a path into the description."""
    report: List[Violation] = []
    if not desc.pieces:
        report.append(Violation("pieces", "a description needs at least one piece"))
    for i, piece in enumerate(desc.pieces):
        path = f"pieces[{i}]"
        if isinstance(piece, Spherical):
            if piece.pi1_order < 1:
                report.append(Violation(f"{path}.pi1_order", "group order must be >= 1"))
        elif isinstance(piece, Geometric):
            if not isinstance(piece.geometry, Geometry):
                report.append(Violation(f"{path}.geometry", "unknown geometry"))
        elif isinstance(piece, TorusBundle):
            if piece.monodromy.det() not in (1, -1):
                report.append(
                    Violation(f"{path}.monodromy", "monodromy determinant must be +1 or -1")
                )
        elif isinstance(piece, KleinDouble):
            pass
        elif isinstance(piece, SeifertClosed):
            _validate_seifert(piece.data, path, report, closed=True)
        elif isinstance(piece, JsjGraph):
            if piece.monodromy is not None and piece.monodromy.det() not in (1, -1):
                report.append(
                    Violation(f"{path}.monodromy", "monodromy determinant must be +1 or -1")
                )
            _validate_jsj(piece, path, report)
        else:
            report.append(Violation(path, f"unknown piece type {type(piece).__name__}"))
    return report


# ---------------------------------------------------------------------------
# normalization

def _rewrite_jsj(graph: JsjGraph) -> PrimePiece:
    if _twisted_halves(graph) and graph.edges == ((0, 1),):
        return KleinDouble()
    if len(graph.vertices) == 1 and graph.edges == ((0, 0),):
        if _is_flat_bounded(graph.vertices[0], 2):
            if graph.monodromy is None:
                raise NormalizationAmbiguous(
                    "a torus-times-interval vertex glued to itself is a torus bundle; "
                    "supply the gluing monodromy on the graph piece"
                )
            return TorusBundle(graph.monodromy)
    return graph


def normalize(desc: ManifoldDescription) -> ManifoldDescription:
    """Canonical form: no trivial summands, no geometric shapes hiding in graphs.

    Idempotent.  Raises InvalidDescription when violations other than the
    rewritable graph shapes are present, and NormalizationAmbiguous when
    the torus-bundle rewrite lacks its monodromy.
    """
    rewritten: List[PrimePiece] = []
    for piece in desc.pieces:
        if isinstance(piece, JsjGraph):
            rewritten.append(_rewrite_jsj(piece))
        else:
            rewritten.append(piece)
    nontrivial = [p for p in rewritten if p != Spherical(1)]
    if not nontrivial:
        nontrivial = [Spherical(1)] if rewritten else []
    result = ManifoldDescription(desc.name, tuple(nontrivial))
    report = validate(result)
    if report:
        raise InvalidDescription(report)
    return result


# ---------------------------------------------------------------------------
# JSON wire format

def _base_to_json(base: OrbifoldBase) -> dict:
    obj = {
        "genus": base.genus,
        "orientable": base.orientable,
        "boundary_count": base.boundary_count,
    }
    if base.cone_orders:
        obj["cone_orders"] = list(base.cone_orders)
    return obj


def _at(path: str, keys: tuple) -> str:
    """The JSON path of a field: `path` followed by keys (names) and indices (ints)."""
    return path + "".join(f"[{key}]" if type(key) is int else f".{key}" for key in keys)


def _integer(value, path: str, *keys) -> int:
    """An integer field: a JSON integer, never a boolean, a float or a string."""
    if type(value) is not int:
        raise DescriptionFormatError(f"{_at(path, keys)}: expected an integer, got {value!r}")
    return value


def _boolean(value, path: str, *keys) -> bool:
    """A boolean field: JSON true or false, never 0, 1 or a string."""
    if type(value) is not bool:
        raise DescriptionFormatError(f"{_at(path, keys)}: expected true or false, got {value!r}")
    return value


def _integers(value, path: str, key: str) -> Tuple[int, ...]:
    """A list of integers, each read by _integer."""
    if not isinstance(value, (list, tuple)):
        raise DescriptionFormatError(f"{path}.{key}: expected a list, got {value!r}")
    for i, entry in enumerate(value):
        if type(entry) is not int:   # only a bad entry pays for building its path
            _integer(entry, path, key, i)
    return tuple(value)


def _integer_rows(value, path: str, key: str, width: int) -> Tuple[Tuple[int, ...], ...]:
    """A list of rows of `width` integers (cone pairs, edges, matrix rows), read by _integer."""
    if not isinstance(value, (list, tuple)):
        raise DescriptionFormatError(f"{path}.{key}: expected a list, got {value!r}")
    for i, row in enumerate(value):
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise DescriptionFormatError(
                f"{path}.{key}[{i}]: expected a list of {width} integers, got {row!r}"
            )
        for j, entry in enumerate(row):
            if type(entry) is not int:   # only a bad entry pays for building its path
                _integer(entry, path, key, i, j)
    return tuple(tuple(row) for row in value)


# A description names only the closed surfaces: its boundary count is a separate field.
_NAMED_SURFACES = {name: make() for name, make in SURFACES.items() if make().closed}
_BASE_QUANTITIES = {   # base field -> (OrbifoldBase field it sets, reader)
    "genus": ("genus", _integer),
    "orientable": ("orientable", _boolean),
    "nonorientable": ("orientable", lambda value, path, key: not _boolean(value, path, key)),
    "boundary": ("boundary_count", _integer),
    "boundary_count": ("boundary_count", _integer),
}
_BASE_FIELDS = frozenset(_BASE_QUANTITIES) | {"surface", "cone_orders"}


def _base_from_json(obj: dict, cone_pairs: Tuple[Tuple[int, int], ...],
                    path: str) -> OrbifoldBase:
    """Read a base given by `surface` or by `genus` / `nonorientable` / `boundary`.

    `orientable` and `boundary_count` (the spelling of `description_to_json`)
    are read as well.  Unknown fields are refused, and so are fields that
    give the same quantity different values.
    """
    if not isinstance(obj, dict):
        raise DescriptionFormatError(f"{path}: base must be an object, got {obj!r}")
    unknown = obj.keys() - _BASE_FIELDS
    if unknown:
        raise DescriptionFormatError(f"{path}: unknown base field(s) {sorted(unknown)} in {obj!r}")
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
    for key, (quantity, read) in _BASE_QUANTITIES.items():
        if key in obj:
            value = read(obj[key], path, key)
            earlier = found.setdefault(quantity, (key, value))
            if earlier[1] != value:
                raise DescriptionFormatError(
                    f"{path}: base fields {earlier[0]!r} and {key!r} disagree on {quantity} "
                    f"in {obj!r}"
                )
    default_orders = sorted(alpha for alpha, _ in cone_pairs)
    return OrbifoldBase(
        genus=found.get("genus", (None, 0))[1],
        orientable=found.get("orientable", (None, True))[1],
        boundary_count=found.get("boundary_count", (None, 0))[1],
        cone_orders=_integers(obj.get("cone_orders", default_orders), path, "cone_orders"),
    )


def _matrix_from_json(obj, path: str) -> Mat2Z:
    rows = _integer_rows(obj, path, "monodromy", 2)
    if len(rows) != 2:
        raise DescriptionFormatError(
            f"{path}.monodromy: monodromy must be [[a, b], [c, d]], got {obj!r}"
        )
    return Mat2Z.from_rows(rows)


def _seifert_from_json(obj: dict, path: str) -> SeifertData:
    pairs = _integer_rows(obj.get("cone_pairs", []), path, "cone_pairs", 2)
    base = _base_from_json(obj.get("base", {}), pairs, f"{path}.base")
    b = obj.get("b")
    if b is not None:
        b = _integer(b, path, "b")
    return SeifertData(base=base, cone_pairs=pairs, b=b)


def _vertex_from_json(obj: dict, path: str) -> JsjVertex:
    if not isinstance(obj, dict):
        raise DescriptionFormatError(f"{path}: vertex must be an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "hyperbolic_cusped":
        return HyperbolicCusped(cusps=_integer(obj.get("cusps", 0), path, "cusps"))
    if kind == "seifert_bounded":
        return SeifertBounded(_seifert_from_json(obj, path))
    raise DescriptionFormatError(f"{path}.kind: unknown vertex kind {kind!r}")


def piece_from_json(obj: dict, path: str = "piece") -> PrimePiece:
    """Decode one prime piece; errors name the JSON path, starting at `path`."""
    if not isinstance(obj, dict):
        raise DescriptionFormatError(f"{path}: piece must be an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "spherical":
        if "pi1_order" not in obj:
            raise DescriptionFormatError(f"{path}.pi1_order: missing")
        return Spherical(pi1_order=_integer(obj["pi1_order"], path, "pi1_order"))
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
    if kind == "jsj":
        vertices = obj.get("vertices", [])
        if not isinstance(vertices, list):
            raise DescriptionFormatError(f"{path}.vertices: expected a list, got {vertices!r}")
        monodromy = obj.get("monodromy")
        return JsjGraph(
            vertices=tuple(
                _vertex_from_json(v, f"{path}.vertices[{i}]") for i, v in enumerate(vertices)
            ),
            edges=_integer_rows(obj.get("edges", []), path, "edges", 2),
            monodromy=None if monodromy is None else _matrix_from_json(monodromy, path),
        )
    raise DescriptionFormatError(f"{path}.kind: unknown piece kind {kind!r}")


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
        data = piece.data
        return {
            "kind": "seifert_closed",
            "base": _base_to_json(data.base),
            "cone_pairs": [list(p) for p in data.cone_pairs],
            "b": data.b,
        }
    if isinstance(piece, JsjGraph):
        obj = {
            "kind": "jsj",
            "vertices": [_vertex_to_json(v) for v in piece.vertices],
            "edges": [list(e) for e in piece.edges],
        }
        if piece.monodromy is not None:
            obj["monodromy"] = [list(r) for r in piece.monodromy.rows()]
        return obj
    raise TypeError(f"unknown piece type {type(piece).__name__}")


def _vertex_to_json(vertex: JsjVertex) -> dict:
    if isinstance(vertex, HyperbolicCusped):
        return {"kind": "hyperbolic_cusped", "cusps": vertex.cusps}
    data = vertex.data
    return {
        "kind": "seifert_bounded",
        "base": _base_to_json(data.base),
        "cone_pairs": [list(p) for p in data.cone_pairs],
    }


def description_to_json(desc: ManifoldDescription) -> dict:
    return {"name": desc.name, "pieces": [piece_to_json(p) for p in desc.pieces]}


def description_from_json(obj: dict) -> ManifoldDescription:
    if not isinstance(obj, dict):
        raise DescriptionFormatError(f"description must be an object, got {obj!r}")
    pieces = obj.get("pieces")
    if not isinstance(pieces, list):
        raise DescriptionFormatError("description needs a 'pieces' list")
    name = obj.get("name", "")
    if type(name) is not str:
        raise DescriptionFormatError(f"name: expected a string, got {name!r}")
    return ManifoldDescription(
        name=name,
        pieces=tuple(piece_from_json(p, f"pieces[{i}]") for i, p in enumerate(pieces)),
    )


def read_json(path: str):
    """The JSON document in the file at `path`.

    A missing file raises FileNotFoundError.  Any other file that cannot
    be read or decoded (not UTF-8, not JSON, nested too deeply, or holding
    an integer too long to convert) raises DescriptionFormatError naming
    the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise DescriptionFormatError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise DescriptionFormatError(f"{path}: {exc}") from exc


def load_description(path: str) -> ManifoldDescription:
    return description_from_json(read_json(path))
