"""Exact algebra and dynamical classification in GL(2, Z).

A matrix A with determinant +1 or -1 acts on the integer lattice Z^2 by
column vectors.  The mapping torus of the induced torus homeomorphism is
a closed 3-manifold whose geometry is read off from the dynamical type
of A:

* elliptic   (finite order, necessarily dividing 12)           -> E^3,
* parabolic  (infinite order, both eigenvalues +1 or both -1)  -> Nil,
* hyperbolic (an eigenvalue off the unit circle)               -> Sol.

The classification here extends the textbook one in a single spot: a
matrix with trace -2 that is not -I is called parabolic even though it
is not conjugate to a shear [[1, s], [0, 1]].  Its square is an honest
shear, and the trichotomy must be stable under powers for the geometry
assignment to be well defined, so the negative shears have to sit in the
parabolic class.

All arithmetic is plain Python integer arithmetic, hence exact and
unbounded.
"""
from __future__ import annotations

from enum import Enum
from math import gcd
from typing import Optional, Tuple

from ._record import Record, wrong_type
from .geometry import Geometry


class InvalidDeterminant(ValueError):
    """The matrix is not in GL(2, Z): determinant is neither +1 nor -1."""


class NotParabolic(ValueError):
    """The operation is defined for parabolic matrices only."""


class Mat2Z(Record):
    """Row-major integer matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def __mul__(self, other: "Mat2Z") -> "Mat2Z":
        return Mat2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2Z":
        return Mat2Z(-self.a, -self.b, -self.c, -self.d)

    def apply(self, v: Tuple[int, int]) -> Tuple[int, int]:
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def inverse(self) -> "Mat2Z":
        _require_unimodular(self)
        det = self.det()   # 1/det = det for det in {1, -1}
        return Mat2Z(det * self.d, -det * self.b, -det * self.c, det * self.a)

    def pow(self, n: int) -> "Mat2Z":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = IDENTITY
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def rows(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    @classmethod
    def from_rows(cls, rows) -> "Mat2Z":
        (a, b), (c, d) = rows
        return cls(a, b, c, d)

    @classmethod
    def parse(cls, text: str) -> "Mat2Z":
        """Parse the command-line syntax ``a,b;c,d``."""
        rows = text.strip().split(";")
        if len(rows) != 2:
            raise ValueError(f"expected two rows separated by ';', got {text!r}")
        entries = []
        for row in rows:
            cols = row.split(",")
            if len(cols) != 2:
                raise ValueError(f"expected two entries in row {row!r}")
            entries.append([int(c) for c in cols])
        return cls.from_rows(entries)

    def __str__(self) -> str:
        return f"{self.a},{self.b};{self.c},{self.d}"


IDENTITY = Mat2Z(1, 0, 0, 1)


class MatKind(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"

    def __str__(self) -> str:
        return self.value


class MatClass(Record):
    """Dynamical type of a GL(2, Z) matrix; elliptic classes carry the order."""

    kind: MatKind
    order: Optional[int] = None

    def __str__(self) -> str:
        if self.kind is MatKind.ELLIPTIC:
            return f"elliptic (order {self.order})"
        return self.kind.value


PARABOLIC = MatClass(MatKind.PARABOLIC)
HYPERBOLIC = MatClass(MatKind.HYPERBOLIC)


def _elliptic(order: int) -> MatClass:
    return MatClass(MatKind.ELLIPTIC, order)


def _require_unimodular(m: Mat2Z) -> None:
    """Refuse an entry that is not exactly an int (a bool too), in `wrong_type`'s words, then
    a determinant other than +-1."""
    if not (type(m.a) is type(m.b) is type(m.c) is type(m.d) is int):
        entry, value = next((e, v) for e, v in zip("abcd", (m.a, m.b, m.c, m.d))
                            if type(v) is not int)
        raise ValueError(f"matrix entry {entry}: {wrong_type(value, int)}")
    if m.det() not in (1, -1):
        raise InvalidDeterminant(f"determinant of {m} is {m.det()}, must be +1 or -1")


def classify(m: Mat2Z) -> MatClass:
    """Elliptic/parabolic/hyperbolic trichotomy, decided by trace and determinant.

    With determinant -1 the characteristic polynomial is x^2 - t*x - 1,
    whose roots are real of product -1; trace 0 gives an involution and
    any other trace gives an eigenvalue off the unit circle.  With
    determinant +1 the finite orders are pinned down by |t| < 2, the
    boundary traces +2 and -2 give +-I or a (possibly negated) shear,
    and |t| > 2 is the Anosov regime.
    """
    _require_unimodular(m)
    t = m.trace()
    if m.det() == -1:
        if t == 0:
            return _elliptic(2)
        return HYPERBOLIC
    if t == 1:
        return _elliptic(6)
    if t == 0:
        return _elliptic(4)
    if t == -1:
        return _elliptic(3)
    if t == 2:
        return _elliptic(1) if m == IDENTITY else PARABOLIC
    if t == -2:
        return _elliptic(2) if m == -IDENTITY else PARABOLIC
    return HYPERBOLIC


def _primitive(v: Tuple[int, int]) -> Tuple[int, int]:
    x, y = v
    g = gcd(x, y)
    x, y = x // g, y // g
    # sign convention: first nonzero entry positive
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return (x, y)


def invariant_eigenvector(m: Mat2Z) -> Tuple[Tuple[int, int], int]:
    """Primitive v with m.v = lam*v for a parabolic m, plus the eigenvalue lam.

    lam is +1 for trace 2 and -1 for trace -2.  The kernel of m - lam*I
    has rank one, so v is unique up to sign; the sign is normalised so
    the first nonzero entry of v is positive.
    """
    if classify(m).kind is not MatKind.PARABOLIC:
        raise NotParabolic(f"{m} is not parabolic")
    lam = 1 if m.trace() == 2 else -1
    # rows of m - lam*I; at least one is nonzero since m != lam*I
    r1 = (m.a - lam, m.b)
    r2 = (m.c, m.d - lam)
    if r1 != (0, 0):
        v = (r1[1], -r1[0])
    else:
        v = (r2[1], -r2[0])
    return _primitive(v), lam


class ParabolicQuotient(Enum):
    """Isomorphism type of (Z^2 semidirect Z) / N, N the invariant axis in Z^2."""

    Z2 = "Z2"
    KLEIN_BOTTLE_GROUP = "KleinBottleGroup"

    def __str__(self) -> str:
        return self.value


def parabolic_quotient_type(m: Mat2Z) -> ParabolicQuotient:
    """Quotient of Gamma = Z^2 semidirect_m Z by the invariant axis N = <v>.

    Extend the invariant eigenvector v to a lattice basis {v, w}.  In that
    basis m = [[lam, alpha], [0, beta]], and the stable letter acts on
    Z^2 / N, an infinite cyclic group generated by the image of w, as
    multiplication by beta.  Every parabolic matrix has determinant +1
    (with determinant -1, classify() finds only elliptic and hyperbolic
    classes), so lam * beta = 1 and beta = lam.  Hence Gamma / N is Z^2
    for trace 2 (lam = +1) and the Klein bottle group Z semidirect Z for
    trace -2 (lam = -1).
    """
    _, lam = invariant_eigenvector(m)
    return ParabolicQuotient.Z2 if lam == 1 else ParabolicQuotient.KLEIN_BOTTLE_GROUP


def geometry_of_monodromy(m: Mat2Z) -> Geometry:
    """Geometry of the torus bundle with monodromy m."""
    kind = classify(m).kind
    if kind is MatKind.ELLIPTIC:
        return Geometry.E3
    if kind is MatKind.PARABOLIC:
        return Geometry.NIL
    return Geometry.SOL
