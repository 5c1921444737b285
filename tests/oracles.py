"""Brute-force oracles for the Bass-Serre tests.

The package measures tree geometry in closed form; these helpers recompute
the same facts by enumeration so the tests can compare the two.
"""
from __future__ import annotations

from typing import List, Sequence

from gdim3.bass_serre import (
    FreeProductSpec,
    Syllable,
    TreeBall,
    Vertex,
    Word,
    act,
    cyclically_reduce,
    words_up_to,
)


def translation_syllables(spec: FreeProductSpec, w: Sequence[Syllable]) -> int:
    """Translation length in syllable units (half the graph displacement)."""
    return len(cyclically_reduce(spec, w))


def path_stabilizer(spec_ball: TreeBall, path: Sequence[Vertex],
                    budget: int = 6) -> List[Word]:
    """Words of syllable length <= budget fixing every vertex of the path.

    Any path containing an element vertex, in particular any path with
    at least one edge, is fixed by the identity alone; a single coset
    vertex w * Z_n is fixed by the n conjugates w * s * w^-1.
    """
    spec = spec_ball.spec
    return [g for g in words_up_to(spec, budget) if all(act(spec, g, v) == v for v in path)]
