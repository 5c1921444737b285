import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdim3.bass_serre import SemidirectSpec
from gdim3.geometry import Geometry
from gdim3.gl2z import (
    IDENTITY,
    InvalidDeterminant,
    Mat2Z,
    MatKind,
    NotParabolic,
    ParabolicQuotient,
    classify,
    geometry_of_monodromy,
    invariant_eigenvector,
    parabolic_quotient_type,
)

from oracles import complete_basis, conjugate, order


def unimodular_range(bound: int = 3):
    for a, b, c, d in product(range(-bound, bound + 1), repeat=4):
        m = Mat2Z(a, b, c, d)
        if m.det() in (1, -1):
            yield m


ALL_UNIMODULAR = list(unimodular_range())

matrices = st.sampled_from(ALL_UNIMODULAR)


# --- arithmetic ---

def test_parse_and_str_round_trip():
    m = Mat2Z.parse("-1,1;0,-1")
    assert m == Mat2Z(-1, 1, 0, -1)
    assert Mat2Z.parse(str(m)) == m


def test_from_rows_takes_integer_rows_as_lists_or_tuples():
    assert Mat2Z.from_rows([[2, 1], [1, 1]]) == Mat2Z(2, 1, 1, 1)
    assert Mat2Z.from_rows(((0, -1), (1, 0))) == Mat2Z(0, -1, 1, 0)
    # entries are kept as given; validate refuses a description whose matrix holds a non-integer
    assert Mat2Z.from_rows([[1.5, 0], [True, 1]]).rows() == ((1.5, 0), (True, 1))


def test_parse_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Mat2Z.parse("1,2,3;4,5,6")
    with pytest.raises(ValueError):
        Mat2Z.parse("1,2")
    with pytest.raises(ValueError):
        Mat2Z.parse("a,b;c,d")


@given(matrices, matrices)
def test_det_is_multiplicative(m, n):
    assert (m * n).det() == m.det() * n.det()


@given(matrices)
def test_inverse(m):
    assert m * m.inverse() == IDENTITY
    assert m.inverse() * m == IDENTITY


@given(matrices, st.integers(-6, 6), st.integers(-6, 6))
def test_pow_is_a_homomorphism(m, i, j):
    assert m.pow(i) * m.pow(j) == m.pow(i + j)


def test_inverse_needs_unit_determinant():
    with pytest.raises(InvalidDeterminant):
        Mat2Z(2, 0, 0, 1).inverse()


@pytest.mark.parametrize("m,refusal", [
    (Mat2Z("1", 0, 0, 1), "matrix entry a: expected an integer, got '1'"),
    (Mat2Z(1, 0.0, 0, 1), "matrix entry b: expected an integer, got 0.0"),
    (Mat2Z(1, 0, None, 1), "matrix entry c: expected an integer, got None"),
    (Mat2Z(1, 0, 0, True), "matrix entry d: expected an integer, got True"),
])
def test_an_entry_that_is_no_integer_is_refused(m, refusal):
    """Each call that needs a unimodular matrix types its entries first."""
    for call in (Mat2Z.inverse, classify, lambda m: m.pow(-2)):
        with pytest.raises(ValueError) as info:
            call(m)
        assert str(info.value) == refusal
        assert not isinstance(info.value, InvalidDeterminant)


# --- classification against the brute-force order oracle ---

def test_classify_known_matrices():
    assert classify(IDENTITY).order == 1
    assert classify(Mat2Z(-1, 0, 0, -1)).order == 2
    assert classify(Mat2Z(0, -1, 1, 0)).order == 4
    assert classify(Mat2Z(0, -1, 1, 1)).order == 6
    assert classify(Mat2Z(-1, 1, -1, 0)).order == 3
    assert classify(Mat2Z(0, 1, 1, 0)).order == 2      # det -1, trace 0
    assert classify(Mat2Z(1, 1, 0, 1)).kind is MatKind.PARABOLIC
    assert classify(Mat2Z(1, 3, 0, 1)).kind is MatKind.PARABOLIC
    assert classify(Mat2Z(-1, 1, 0, -1)).kind is MatKind.PARABOLIC
    assert classify(Mat2Z(2, 1, 1, 1)).kind is MatKind.HYPERBOLIC
    assert classify(Mat2Z(1, 1, 1, 0)).kind is MatKind.HYPERBOLIC  # det -1, trace 1


def test_classify_rejects_non_unit_determinant():
    with pytest.raises(InvalidDeterminant):
        classify(Mat2Z(1, 0, 0, 2))
    with pytest.raises(InvalidDeterminant):
        classify(Mat2Z(0, 0, 0, 0))


def test_elliptic_agrees_with_order_oracle_exhaustively():
    # entries in [-3, 3], |det| = 1: finite order <=> elliptic, orders divide 12
    for m in ALL_UNIMODULAR:
        cls = classify(m)
        n = order(m)
        if cls.kind is MatKind.ELLIPTIC:
            assert n == cls.order
            assert 12 % n == 0
        else:
            assert n is None


def test_classification_is_conjugation_invariant():
    rng = random.Random(20260815)
    conjugators = [rng.choice(ALL_UNIMODULAR) for _ in range(100)]
    sample = [rng.choice(ALL_UNIMODULAR) for _ in range(100)]
    for m in sample:
        for p in conjugators:
            assert classify(p * m * p.inverse()) == classify(m)


def test_power_stability_of_the_kind():
    # the trichotomy is stable under powers; elliptic orders divide, so only
    # the kind is compared
    for m in ALL_UNIMODULAR:
        kind = classify(m).kind
        for r in range(2, 7):
            assert classify(m.pow(r)).kind is kind


# --- parabolic structure ---

@given(matrices)
def test_invariant_eigenvector_is_an_eigenvector(m):
    if classify(m).kind is not MatKind.PARABOLIC:
        with pytest.raises(NotParabolic):
            invariant_eigenvector(m)
        return
    v, lam = invariant_eigenvector(m)
    assert lam in (1, -1)
    assert gcd(v[0], v[1]) == 1
    assert m.apply(v) == (lam * v[0], lam * v[1])


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_complete_basis_is_unimodular(x, y):
    if (x, y) == (0, 0) or gcd(x, y) != 1:
        with pytest.raises(ValueError):
            complete_basis((x, y))
        return
    w = complete_basis((x, y))
    assert x * w[1] - y * w[0] == 1


def _quotient_oracle(m: Mat2Z) -> ParabolicQuotient:
    """Project t w t^-1 into Z^2 / <v> and read off the sign directly.

    The quotient of Z^2 x|_m Z by the invariant axis <v> is generated by
    the image of the basis completion w and the stable letter t; the
    group is Z^2 or the Klein bottle group according to whether t w t^-1
    projects to w or w^-1.
    """
    v, _ = invariant_eigenvector(m)
    w = complete_basis(v)
    group = SemidirectSpec(m)
    conj = conjugate(group, ((0, 0), 1), (w, 0))
    (cx, cy), l = conj
    assert l == 0
    # decompose m*w = c*v + d*w in the basis (v, w) with det(v|w) = 1
    d = v[0] * cy - v[1] * cx
    c = cx * w[1] - cy * w[0]
    assert (c * v[0] + d * w[0], c * v[1] + d * w[1]) == (cx, cy)
    assert d in (1, -1)
    return ParabolicQuotient.Z2 if d == 1 else ParabolicQuotient.KLEIN_BOTTLE_GROUP


def test_parabolic_quotient_matches_group_level_oracle():
    parabolics = [m for m in ALL_UNIMODULAR if classify(m).kind is MatKind.PARABOLIC]
    assert len(parabolics) > 20
    for m in parabolics:
        assert parabolic_quotient_type(m) == _quotient_oracle(m)


def test_parabolic_quotient_known_cases():
    # trace +2: the fibre direction is preserved, quotient stays abelian
    assert parabolic_quotient_type(Mat2Z(1, 1, 0, 1)) is ParabolicQuotient.Z2
    assert parabolic_quotient_type(Mat2Z(1, -3, 0, 1)) is ParabolicQuotient.Z2
    # trace -2: the complement direction is reversed, giving the Klein
    # bottle relation t w t^-1 = w^-1
    assert (
        parabolic_quotient_type(Mat2Z(-1, 1, 0, -1))
        is ParabolicQuotient.KLEIN_BOTTLE_GROUP
    )
    assert (
        parabolic_quotient_type(Mat2Z(-1, 0, 4, -1))
        is ParabolicQuotient.KLEIN_BOTTLE_GROUP
    )


def test_parabolic_quotient_rejects_non_parabolic():
    with pytest.raises(NotParabolic):
        parabolic_quotient_type(Mat2Z(2, 1, 1, 1))


# --- geometry dispatch ---

def test_geometry_of_monodromy():
    assert geometry_of_monodromy(Mat2Z(0, -1, 1, 0)) is Geometry.E3
    assert geometry_of_monodromy(IDENTITY) is Geometry.E3
    assert geometry_of_monodromy(Mat2Z(1, 1, 0, 1)) is Geometry.NIL
    assert geometry_of_monodromy(Mat2Z(-1, 1, 0, -1)) is Geometry.NIL
    assert geometry_of_monodromy(Mat2Z(2, 1, 1, 1)) is Geometry.SOL
    assert geometry_of_monodromy(Mat2Z(1, 1, 1, 0)) is Geometry.SOL
