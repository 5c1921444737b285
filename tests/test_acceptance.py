"""Top-level guarantees of the package, one printed PASS/FAIL line each.

Each test re-derives one headline behaviour end to end, using only the
public API plus brute-force oracles local to this file.  The verdict
lines are written straight to the terminal (bypassing capture) so a
full run always shows the ten verdicts.
"""

import random
from contextlib import contextmanager
from itertools import combinations, product

import pytest

from gdim3 import corpus
from gdim3.bass_serre import (
    FreeProductSpec,
    SemidirectSpec,
    axis_of,
    ball,
    cone_off,
    normalizer_probe,
    parse_word,
    pushout_dimension_bound,
)
from gdim3.dimension import compute, evaluate_piece
from gdim3.geometry import Geometry
from gdim3.gl2z import IDENTITY, Mat2Z, MatKind, classify
from gdim3.model import (
    Geometric,
    HyperbolicCusped,
    KleinDouble,
    SeifertBounded,
    SeifertClosed,
    SeifertData,
    Spherical,
    TorusBundle,
    normalize,
)
from gdim3.orbifold2 import disk, mobius_band, sphere

from oracles import path_stabilizer
from randgen import random_description


@pytest.fixture
def criterion(request):
    """Context manager printing one verdict line, past output capture."""
    manager = request.config.pluginmanager.getplugin("capturemanager")

    @contextmanager
    def announce(number, label):
        verdict = "PASS"
        try:
            yield
        except BaseException:
            verdict = "FAIL"
            raise
        finally:
            line = f"ACCEPTANCE {number} [{label}]: {verdict}"
            if manager is not None:
                with manager.global_and_fixture_disabled():
                    print(line, flush=True)
            else:
                print(line, flush=True)

    return announce


def both(piece):
    return (evaluate_piece(piece, 2).value, evaluate_piece(piece, 3).value)


def unimodular_matrices(bound=3):
    return [
        m
        for m in (
            Mat2Z(a, b, c, d)
            for a, b, c, d in product(range(-bound, bound + 1), repeat=4)
        )
        if m.det() in (1, -1)
    ]


def test_01_piece_table(criterion):
    with criterion(1, "piece table"):
        assert both(Geometric(Geometry.H3)) == (3, 3)
        assert both(HyperbolicCusped(1)) == (3, 3)
        spherical_base = SeifertClosed(
            SeifertData(sphere(2, 2, 3), ((2, 1), (2, 1), (3, 1)), b=-1)
        )
        assert both(spherical_base) == (0, 0)
        hyperbolic_base = SeifertClosed(
            SeifertData(sphere(2, 3, 7), ((2, 1), (3, 1), (7, 1)), b=-1)
        )
        assert both(hyperbolic_base) == (2, 2)
        hyperbolic_base_bounded = SeifertBounded(
            SeifertData(disk(2, 3), ((2, 1), (3, 1)))
        )
        assert both(hyperbolic_base_bounded) == (2, 2)
        flat_euler_zero = SeifertClosed(
            SeifertData(sphere(2, 4, 4), ((2, 1), (4, 1), (4, 1)), b=-1)
        )
        assert both(flat_euler_zero) == (5, 0)
        flat_euler_nonzero = SeifertClosed(
            SeifertData(sphere(2, 4, 4), ((2, 1), (4, 1), (4, 1)), b=0)
        )
        assert both(flat_euler_nonzero) == (3, 3)
        flat_base_bounded = SeifertBounded(SeifertData(mobius_band()))
        assert both(flat_base_bounded) == (0, 0)


def test_02_torus_bundles(criterion):
    with criterion(2, "torus bundle trichotomy"):
        elliptic = Mat2Z(0, -1, 1, 0)
        parabolic = Mat2Z(1, 3, 0, 1)
        anosov = Mat2Z(2, 1, 1, 1)
        bundles = [TorusBundle(m) for m in (elliptic, parabolic, anosov)]
        assert [evaluate_piece(b, 2).value for b in bundles] == [5, 3, 2]
        assert [evaluate_piece(b, 3).value for b in bundles] == [0, 3, 2]


def test_03_connected_sums(criterion):
    with criterion(3, "connected sums"):
        expected = {
            "rp3_rp3": (0, 0),
            "rp3_rp3_rp3": (2, 2),
            "h3_rp3": (3, 3),
            "e3_rp3": (5, 2),
        }
        for name, (at2, at3) in expected.items():
            report = compute(corpus.load(name))
            assert (report.value(2), report.value(3)) == (at2, at3), name


def test_04_sol_manifolds_and_graph_pieces(criterion):
    with criterion(4, "Sol pieces stay at 2"):
        sol_pieces = (
            Geometric(Geometry.SOL),
            KleinDouble(),
            TorusBundle(Mat2Z(2, 1, 1, 1)),
        )
        for piece in sol_pieces:
            for k in range(2, 8):
                assert evaluate_piece(piece, k).value == 2, (piece, k)
        mixed = compute(corpus.load("jsj_hyperbolic_plus_seifert"))
        assert (mixed.value(2), mixed.value(3)) == (3, 3)


def test_05_matrix_classifier_against_order_oracle(criterion):
    def order_by_iteration(m, cap=12):
        power = m
        for n in range(1, cap + 1):
            if power == IDENTITY:
                return n
            power = power * m
        return None

    with criterion(5, "matrix classifier vs brute force"):
        mats = unimodular_matrices()
        for m in mats:
            cls = classify(m)
            oracle = order_by_iteration(m)
            if cls.kind is MatKind.ELLIPTIC:
                assert oracle == cls.order and 12 % oracle == 0, m
            else:
                assert oracle is None, m
        rng = random.Random(5)
        for _ in range(100):
            m = rng.choice(mats)
            g = rng.choice(mats)
            conjugate = g * m * g.inverse()
            assert classify(conjugate) == classify(m), (m, g)


def test_06_classification_is_power_stable(criterion):
    with criterion(6, "power stability"):
        for m in unimodular_matrices(2):
            kind = classify(m).kind
            for r in range(2, 7):
                assert classify(m.pow(r)).kind is kind, (m, r)


def test_07_randomised_values_and_sandwich(criterion):
    with criterion(7, "randomised values and sandwich"):
        for seed in range(1000):
            description = normalize(random_description(seed))
            report = compute(description)
            for k in (2, 3):
                value = report.value(k)
                assert value in {0, 2, 3, 5}, (seed, k, value)
                if len(description.pieces) >= 2:
                    piece_values = [
                        evaluate_piece(p, k).value for p in description.pieces
                    ]
                    top = max(piece_values)
                    assert top <= value <= max(2, top), (seed, k)


def test_08_stabilisation_at_k_equals_3(criterion):
    with criterion(8, "stabilisation at k = 3"):
        for name in corpus.names():
            report = compute(corpus.load(name))
            assert report.value(3) == report.value(7), name
            for piece in normalize(corpus.load(name)).pieces:
                assert evaluate_piece(piece, 3) == evaluate_piece(piece, 7), name


def test_09_dihedral_tree_and_coned_complex(criterion):
    with criterion(9, "dihedral tree and coned complex"):
        dihedral = FreeProductSpec((2, 2))
        tree = ball(dihedral, 6)
        assert len(tree.vertices) == 13 and len(tree.edges) == 12
        assert sorted(tree.degree(v) for v in tree.vertices) == [1, 1] + [2] * 11
        for u, v in combinations(tree.vertices, 2):
            assert path_stabilizer(tree, (u, v), budget=6) == [()]
        triple = FreeProductSpec((2, 2, 2))
        tree4 = ball(triple, 4)
        axes = [
            axis_of(tree4, parse_word(triple, text)) for text in ("ab", "bc", "ac")
        ]
        assert all(axes)
        complex_ = cone_off(tree4, axes, budget=4)
        bound = pushout_dimension_bound(
            complex_, {name: 0 for name in complex_.cell_counts()}
        )
        triple_sum = compute(corpus.load("rp3_rp3_rp3"))
        assert bound == 2 == triple_sum.value(2) == triple_sum.value(3)


def test_10_normaliser_probe(criterion):
    with criterion(10, "normaliser probe"):
        reference = SemidirectSpec(Mat2Z(2, 1, 1, 1))
        assert normalizer_probe(reference, ((0, 0), 1)).rank == 1
        assert normalizer_probe(reference, ((1, 0), 0)).rank == 2
        hyperbolics = [
            m for m in unimodular_matrices()
            if classify(m).kind is MatKind.HYPERBOLIC
        ]
        rng = random.Random(10)
        for m in rng.sample(hyperbolics, 10):
            group = SemidirectSpec(m)
            twist = rng.choice([t for t in range(-4, 5) if t])
            assert normalizer_probe(group, ((0, 0), twist)).rank == 1
            fibre = (rng.randint(-3, 3), rng.randint(-3, 3))
            if fibre == (0, 0):
                fibre = (1, 0)
            assert normalizer_probe(group, (fibre, 0)).rank == 2
