from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdim3.orbifold2 import (
    OrbifoldBase,
    OrbifoldClass,
    annulus,
    classify_base,
    disk,
    euler_characteristic_orb,
    klein_bottle,
    mobius_band,
    projective_plane,
    sphere,
    torus,
)

chi = euler_characteristic_orb


def test_underlying_surfaces():
    assert chi(sphere()) == 2
    assert chi(torus()) == 0
    assert chi(projective_plane()) == 1
    assert chi(klein_bottle()) == 0
    assert chi(disk()) == 1
    assert chi(annulus()) == 0
    assert chi(mobius_band()) == 0
    assert chi(OrbifoldBase(genus=2, orientable=True)) == -2


def test_cone_points_are_exact_rationals():
    assert chi(sphere(2, 3, 7)) == Fraction(-1, 42)
    assert chi(sphere(2, 3, 5)) == Fraction(1, 30)
    assert chi(sphere(2, 3, 6)) == 0
    assert chi(sphere(2, 4, 4)) == 0
    assert chi(sphere(3, 3, 3)) == 0
    assert chi(sphere(2, 2, 2, 2)) == 0
    assert chi(sphere(2, 2, 3)) == Fraction(1, 3)
    assert chi(disk(2, 2)) == 0
    assert chi(disk(2, 3)) == Fraction(-1, 6)


@given(st.integers(2, 30))
def test_one_cone_point_costs_one_minus_its_reciprocal(alpha):
    base = sphere(alpha)
    assert chi(sphere()) - chi(base) == 1 - Fraction(1, alpha)


@given(st.lists(st.integers(2, 12), max_size=5), st.integers(0, 3), st.integers(0, 2))
def test_chi_decomposes_over_genus_boundary_and_cones(orders, genus, boundary):
    base = OrbifoldBase(
        genus=genus, orientable=True, boundary_count=boundary,
        cone_orders=tuple(orders),
    )
    expected = 2 - 2 * genus - boundary - sum(1 - Fraction(1, a) for a in orders)
    assert chi(base) == expected


def test_bad_orbifolds():
    # the two closed families with no good geometric structure: one cone
    # point, or two of different orders, on the sphere
    assert classify_base(sphere(4)) is OrbifoldClass.BAD
    assert classify_base(sphere(2, 3)) is OrbifoldClass.BAD
    assert classify_base(sphere(2, 2)) is OrbifoldClass.SPHERICAL
    assert classify_base(sphere(7, 7)) is OrbifoldClass.SPHERICAL
    # boundary or nonorientability exempts from the bad list
    assert classify_base(disk(3)) is OrbifoldClass.ELEMENTARY
    assert classify_base(projective_plane(2)) is OrbifoldClass.SPHERICAL


def test_closed_classification_by_sign():
    assert classify_base(sphere()) is OrbifoldClass.SPHERICAL
    assert classify_base(sphere(2, 2, 3)) is OrbifoldClass.SPHERICAL
    assert classify_base(torus()) is OrbifoldClass.FLAT
    assert classify_base(klein_bottle()) is OrbifoldClass.FLAT
    assert classify_base(sphere(2, 4, 4)) is OrbifoldClass.FLAT
    assert classify_base(sphere(2, 3, 6)) is OrbifoldClass.FLAT
    assert classify_base(sphere(3, 3, 3)) is OrbifoldClass.FLAT
    assert classify_base(sphere(2, 2, 2, 2)) is OrbifoldClass.FLAT
    assert classify_base(projective_plane(2, 2)) is OrbifoldClass.FLAT
    assert classify_base(sphere(2, 3, 7)) is OrbifoldClass.HYPERBOLIC
    assert classify_base(OrbifoldBase(genus=2, orientable=True)) is OrbifoldClass.HYPERBOLIC


def test_bounded_classification():
    assert classify_base(disk()) is OrbifoldClass.ELEMENTARY
    assert classify_base(disk(5)) is OrbifoldClass.ELEMENTARY
    # exactly three flat bounded bases
    assert classify_base(annulus()) is OrbifoldClass.FLAT
    assert classify_base(mobius_band()) is OrbifoldClass.FLAT
    assert classify_base(disk(2, 2)) is OrbifoldClass.FLAT
    assert classify_base(disk(2, 3)) is OrbifoldClass.HYPERBOLIC
    assert classify_base(annulus(2)) is OrbifoldClass.HYPERBOLIC
    assert classify_base(mobius_band(2)) is OrbifoldClass.HYPERBOLIC


def oracle_class(base):
    """The class from the exact Fraction chi^orb and the bad list, as in Scott's table."""
    orders = base.cone_orders
    if (base.closed and base.orientable and base.genus == 0
            and (len(orders) == 1 or len(orders) == 2 and orders[0] != orders[1])):
        return OrbifoldClass.BAD
    value = chi(base)
    if value > 0:
        return OrbifoldClass.SPHERICAL if base.closed else OrbifoldClass.ELEMENTARY
    return OrbifoldClass.FLAT if value == 0 else OrbifoldClass.HYPERBOLIC


@given(st.lists(st.integers(2, 60), max_size=8), st.integers(0, 4),
       st.booleans(), st.integers(0, 3))
def test_class_matches_sign_of_chi(orders, genus, orientable, boundary):
    """classify_base reads the sign in integers; the exact Fraction is the oracle."""
    if not orientable and genus == 0:
        genus = 1
    base = OrbifoldBase(genus=genus, orientable=orientable,
                        boundary_count=boundary, cone_orders=tuple(orders))
    value = chi(base)
    cls = classify_base(base)
    assert cls is oracle_class(base)
    if cls in (OrbifoldClass.BAD, OrbifoldClass.SPHERICAL, OrbifoldClass.ELEMENTARY):
        assert value > 0
    elif cls is OrbifoldClass.FLAT:
        assert value == 0
    else:
        assert value < 0
    # bounded bases are never bad or spherical; closed ones never elementary
    if boundary:
        assert cls is not OrbifoldClass.BAD and cls is not OrbifoldClass.SPHERICAL
    else:
        assert cls is not OrbifoldClass.ELEMENTARY


def test_every_small_base_is_classified_as_its_fraction_says():
    """Every base of Euler characteristic 2 - genus - boundary >= 0 with up to four cone
    points of order 2 to 12: the bases whose chi^orb is near zero, where a wrong scale or a
    lost count term shows."""
    surfaces = [OrbifoldBase(g, o, b) for g in range(3) for o in (True, False)
                for b in range(3) if (o or g) and OrbifoldBase(g, o, b).underlying_euler >= 0]
    checked = 0
    for count in range(5):
        for orders in combinations_with_replacement(range(2, 13), count):
            for surface in surfaces:
                base = OrbifoldBase(surface.genus, surface.orientable, surface.boundary_count,
                                    orders)
                assert classify_base(base) is oracle_class(base), base
                checked += 1
    assert len(surfaces) == 7
    assert checked == 7 * sum(comb(10 + count, count) for count in range(5))


@pytest.mark.parametrize("base,cls", [
    (sphere(2, 3, 5), OrbifoldClass.SPHERICAL),       # chi 1/30; lcm 30, max 5
    (sphere(2, 2, 3), OrbifoldClass.SPHERICAL),       # chi 1/3; lcm 6, max 3
    (sphere(4, 6, 12), OrbifoldClass.HYPERBOLIC),     # chi -1/6; lcm 12
    (sphere(3, 4, 4), OrbifoldClass.HYPERBOLIC),      # chi -1/12
    (disk(3, 4), OrbifoldClass.HYPERBOLIC),           # chi -5/12
    (sphere(*[2] * 4), OrbifoldClass.FLAT),
    (sphere(*[2] * 5), OrbifoldClass.HYPERBOLIC),
    (sphere(59, 60), OrbifoldClass.BAD),
    (sphere(59, 59), OrbifoldClass.SPHERICAL),
])
def test_bases_whose_sign_needs_the_lcm_and_every_cone_point(base, cls):
    """Cone orders that do not divide their maximum, and counts of cone points, that move
    the sign if the scale or the count term is wrong."""
    assert classify_base(base) is cls


def test_labels():
    assert sphere().label() == "S2"
    assert sphere(2, 3, 7).label() == "S2(2,3,7)"
    assert torus().label() == "T2"
    assert projective_plane().label() == "RP2"
    assert klein_bottle().label() == "Klein bottle"
    assert disk(2, 2).label() == "D2(2,2)"
    assert annulus().label() == "annulus"
    assert mobius_band().label() == "Mobius band"
    assert OrbifoldBase(3, False, 2).label() == "crosscap-3 surface with 2 boundary"


def test_cone_orders_are_stored_as_written_and_labelled_ascending():
    assert sphere(7, 2, 3).cone_orders == (7, 2, 3)
    assert sphere(7, 2, 3) != sphere(3, 7, 2)
    assert sphere(7, 2, 3).label() == sphere(3, 7, 2).label() == "S2(2,3,7)"
    assert classify_base(sphere(3, 2)) is classify_base(sphere(2, 3)) is OrbifoldClass.BAD
