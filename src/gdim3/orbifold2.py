"""Exact classification of compact 2-orbifold bases by orbifold Euler characteristic.

Only cone points are supported, no reflector boundary and no corner
reflectors; the description format has nowhere to write reflector data,
so such orbifolds cannot be expressed in the first place.

Conventions.  Genus of a nonorientable surface counts crosscaps, so the
underlying Euler characteristic is 2 - genus - boundary_count (projective
plane = genus 1, Klein bottle = genus 2); for orientable surfaces it is
2 - 2*genus - boundary_count.  The orbifold Euler characteristic
subtracts 1 - 1/alpha for each cone point of order alpha;
euler_characteristic_orb gives it as an exact rational.

The classification reads only its sign, and reads it in integers: with
k cone points and L the least common multiple of their orders,
L * chi^orb = (chi(underlying surface) - k) * L + sum of L / alpha, an
integer of the same sign, since L > 0.

The classification is the standard one.  A closed orbifold whose
underlying surface is the sphere is bad (admits no geometric structure)
when it has exactly one cone point, or exactly two cone points of
distinct orders.  Otherwise the sign of the orbifold Euler
characteristic decides: positive is spherical, zero is flat, negative is
hyperbolic.  Bounded orbifolds are never bad and never spherical; the
positive ones (discs with at most one cone point) are classified as
"elementary", a bookkeeping class for pieces whose fundamental group is
virtually cyclic.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm
from typing import List, Tuple

from ._record import Record, wrong_type


class OrbifoldBase(Record):
    """Compact 2-orbifold with cone points only.

    cone_orders is kept as given; the multiset is what matters.
    """

    genus: int = 0
    orientable: bool = True
    boundary_count: int = 0
    cone_orders: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "cone_orders", tuple(self.cone_orders))

    @property
    def well_typed(self) -> bool:
        """Whether `orientable` is a bool and every other field an int (never a bool)."""
        return (type(self.genus) is type(self.boundary_count) is int
                and type(self.orientable) is bool
                and all(type(alpha) is int for alpha in self.cone_orders))

    def violations(self) -> List[Tuple[str, str]]:
        """Every violated well-formedness condition, as (field, message) pairs; fields
        of the wrong type are refused alone, since the range checks compare them."""
        if not self.well_typed:
            fields = (("genus", self.genus, int), ("orientable", self.orientable, bool),
                      ("boundary_count", self.boundary_count, int),
                      *((f"cone_orders[{i}]", a, int) for i, a in enumerate(self.cone_orders)))
            return [(field, wrong_type(value, kind)) for field, value, kind in fields
                    if type(value) is not kind]
        found = []
        if self.genus < 0:
            found.append(("genus", "genus must be >= 0"))
        if not self.orientable and self.genus == 0:
            found.append(("genus", "nonorientable surfaces have genus >= 1"))
        if self.boundary_count < 0:
            found.append(("boundary_count", "boundary_count must be >= 0"))
        for i, alpha in enumerate(self.cone_orders):
            if alpha < 2:
                found.append((f"cone_orders[{i}]", "cone orders must be >= 2"))
        return found

    @property
    def closed(self) -> bool:
        return self.boundary_count == 0

    @property
    def underlying_euler(self) -> int:
        if self.orientable:
            return 2 - 2 * self.genus - self.boundary_count
        return 2 - self.genus - self.boundary_count

    def label(self) -> str:
        """Compact human-readable name, e.g. ``S2(2,3,7)`` or ``Mobius band``."""
        g, b = self.genus, self.boundary_count
        if self.orientable:
            if b == 0:
                name = {0: "S2", 1: "T2"}.get(g, f"genus-{g} surface")
            elif (g, b) == (0, 1):
                name = "D2"
            elif (g, b) == (0, 2):
                name = "annulus"
            else:
                name = f"genus-{g} surface with {b} boundary"
        else:
            if b == 0:
                name = {1: "RP2", 2: "Klein bottle"}.get(g, f"crosscap-{g} surface")
            elif (g, b) == (1, 1):
                name = "Mobius band"
            else:
                name = f"crosscap-{g} surface with {b} boundary"
        if self.cone_orders:
            name += "(" + ",".join(str(a) for a in sorted(self.cone_orders)) + ")"
        return name


class OrbifoldClass(Enum):
    BAD = "bad"
    SPHERICAL = "spherical"
    FLAT = "flat"
    HYPERBOLIC = "hyperbolic"
    ELEMENTARY = "elementary"

    def __str__(self) -> str:
        return self.value


def _require_valid(base: OrbifoldBase) -> None:
    """Refuse anything but an OrbifoldBase, or a base with violations(), naming the first."""
    if not isinstance(base, OrbifoldBase):
        raise ValueError(f"base: unknown base type {type(base).__name__}")
    refused = base.violations()
    if refused:
        field, message = refused[0]
        raise ValueError(f"base.{field}: {message}")


def euler_characteristic_orb(base: OrbifoldBase) -> Fraction:
    """chi^orb = chi(underlying surface) - sum over cone points of (1 - 1/alpha); refuses what
    classify_base refuses."""
    _require_valid(base)
    chi = Fraction(base.underlying_euler)
    for alpha in base.cone_orders:
        chi -= 1 - Fraction(1, alpha)
    return chi


def classify_base(base: OrbifoldBase) -> OrbifoldClass:
    """The class of `base`: BAD by its cone data on the sphere, else by the sign of chi^orb,
    read off the integer L * chi^orb with L the lcm of the cone orders (no Fraction).  Anything
    but an OrbifoldBase, or a base with violations(), raises ValueError naming the first."""
    _require_valid(base)
    orders = base.cone_orders
    if base.closed and base.orientable and base.genus == 0:
        if len(orders) == 1:
            return OrbifoldClass.BAD
        if len(orders) == 2 and orders[0] != orders[1]:
            return OrbifoldClass.BAD
    scale = lcm(*orders)
    chi = (base.underlying_euler - len(orders)) * scale
    for alpha in orders:
        chi += scale // alpha
    if chi > 0:
        return OrbifoldClass.SPHERICAL if base.closed else OrbifoldClass.ELEMENTARY
    if chi == 0:
        return OrbifoldClass.FLAT
    return OrbifoldClass.HYPERBOLIC


# surface constructors used all over the tests and the bundled corpus

def sphere(*cone_orders: int) -> OrbifoldBase:
    return OrbifoldBase(0, True, 0, cone_orders)


def disk(*cone_orders: int) -> OrbifoldBase:
    return OrbifoldBase(0, True, 1, cone_orders)


def annulus(*cone_orders: int) -> OrbifoldBase:
    return OrbifoldBase(0, True, 2, cone_orders)


def torus(*cone_orders: int) -> OrbifoldBase:
    return OrbifoldBase(1, True, 0, cone_orders)


def projective_plane(*cone_orders: int) -> OrbifoldBase:
    return OrbifoldBase(1, False, 0, cone_orders)


def klein_bottle(*cone_orders: int) -> OrbifoldBase:
    return OrbifoldBase(2, False, 0, cone_orders)


def mobius_band(*cone_orders: int) -> OrbifoldBase:
    return OrbifoldBase(1, False, 1, cone_orders)


#: The named surfaces, by the spelling that `classify-orbifold --surface`
#: accepts; the description format's `surface` base field takes the closed ones.
SURFACES = {
    "sphere": sphere,
    "disk": disk,
    "annulus": annulus,
    "torus": torus,
    "projective-plane": projective_plane,
    "klein-bottle": klein_bottle,
    "mobius-band": mobius_band,
}
