"""certificate-ladder: two Bass-Serre certificate rungs, in process.

A rung is ball -> axes -> cone_off -> setwise_axis_stabilizer per axis ->
pushout_dimension_bound with every cell class at 0.  `big_ball` is
dominated by axis search, `deep_budget` by word enumeration and `act`.
Each certificate is checked against closed forms computed here: the ball
size from counting reduced words, |V| = |E| + 1, 2R + 1 vertices on the
axis of every cyclically reduced word, consistent stabiliser reports and
a push-out bound of 2.  One operation is a climb of both rungs.
"""
from __future__ import annotations

import random
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from harness import NullTracer, median, percentile, self_peak_rss_mb

from gdim3.bass_serre import (
    FreeProductSpec,
    axis_of,
    ball,
    cone_off,
    pushout_dimension_bound,
    setwise_axis_stabilizer,
)

CELL_CLASSES = ("vertex", "cone_vertex", "edge", "cone_edge", "face")


class Rung(NamedTuple):
    factors: Tuple[int, ...]
    radius: int
    axes: Optional[Tuple[str, ...]]     # None: every hyperbolic word of at most 2 syllables
    budget: int


RUNGS = {
    "big_ball": Rung((2, 3), 24, None, 2),
    "deep_budget": Rung((2, 2, 2), 8, ("ab", "bc", "ac"), 6),
}
WARM_UP = Rung((2, 3), 6, None, 2)

SETUP = """
from gdim3.bass_serre import (FreeProductSpec, axis_of, ball, cone_off,
                              pushout_dimension_bound, setwise_axis_stabilizer)
tree = ball(FreeProductSpec((2, 3)), 6)
axis = axis_of(tree, ((0, 1), (1, 1)))
cone = cone_off(tree, [axis], budget=2)
setwise_axis_stabilizer(tree, axis, budget=2)
pushout_dimension_bound(cone, dict.fromkeys(%r, 0))
""" % (CELL_CLASSES,)

LAYER_SPANS = ("ball", "axis_of", "cone_off", "setwise", "pushout_bound")


# ---------------------------------------------------------------------------
# closed forms, independent of the engine

def words_by_length(orders: Tuple[int, ...], longest: int) -> List[List[int]]:
    """For each syllable length L <= longest, reduced words of length L by last factor."""
    table = [[0] * len(orders)]
    for length in range(1, longest + 1):
        previous = table[-1]
        total = sum(previous) + (1 if length == 1 else 0)
        table.append([(n - 1) * (total - previous[i]) for i, n in enumerate(orders)])
    return table


def ball_size(orders: Tuple[int, ...], radius: int) -> int:
    """Elements at distance 2L (words of length L), cosets w<i> at 2L + 1."""
    table = words_by_length(orders, radius // 2)
    size = 0
    for length, by_last in enumerate(table):
        words = sum(by_last) or 1
        if 2 * length <= radius:
            size += words
        if 2 * length + 1 <= radius:
            size += sum(words - last for last in by_last)
    return size


def word_count(orders: Tuple[int, ...], budget: int) -> int:
    return 1 + sum(sum(by_last) for by_last in words_by_length(orders, budget)[1:])


def two_syllable_words(orders: Tuple[int, ...]) -> List[tuple]:
    """Every word of two syllables: all hyperbolic and cyclically reduced."""
    return [((f, e), (g, d))
            for f, n in enumerate(orders) for e in range(1, n)
            for g, m in enumerate(orders) if g != f for d in range(1, m)]


def parse(text: str) -> tuple:
    return tuple((ord(letter) - ord("a"), 1) for letter in text)


# ---------------------------------------------------------------------------

class Cert(NamedTuple):
    rung: str
    seconds: float
    ok: bool


class Ladder:
    name = "certificate-ladder"
    setup_code = SETUP

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"ladder:{seed}")
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.counts: Dict[str, Dict[str, float]] = {}

    def prepare(self) -> None:
        self._certificate("warm_up", WARM_UP, NullTracer())

    def _certificate(self, name: str, rung: Rung, tracer) -> Cert:
        span = tracer.span
        spec = FreeProductSpec(rung.factors)
        words = (two_syllable_words(rung.factors) if rung.axes is None
                 else [parse(text) for text in rung.axes])
        ok, error = False, ""
        start = time.process_time_ns()
        try:
            with span(f"cert.{name}"):
                with span("bass_serre.ball"):
                    tree = ball(spec, rung.radius)
                axes, seen = [], set()
                for w in words:
                    with span("bass_serre.axis_of"):
                        axis = axis_of(tree, w)
                    if axis is not None and frozenset(axis) not in seen:
                        seen.add(frozenset(axis))
                        axes.append(axis)
                with span("bass_serre.cone_off"):
                    cone = cone_off(tree, axes, budget=rung.budget)
                reports = []
                for axis in axes:
                    with span("bass_serre.setwise"):
                        reports.append(setwise_axis_stabilizer(tree, axis, budget=rung.budget))
                with span("bass_serre.pushout_bound"):
                    bound = pushout_dimension_bound(cone, dict.fromkeys(CELL_CLASSES, 0))
                vertices = len(tree.vertices)
                enumerated = word_count(rung.factors, rung.budget)
                counts = {
                    "vertices": vertices,
                    "axis_words": len(words),
                    "axes": len(axes),
                    "words": enumerated,
                    "cells": sum(1 for _ in cone.cells()),
                    "axis_hit_ratio": len(axes) / len(words),
                    "setwise_assessed_ratio":
                        sum(len(r.elements) for r in reports) / (len(axes) * enumerated),
                }
                checks = {
                    "ball size": vertices == ball_size(rung.factors, rung.radius),
                    "|V| = |E| + 1": vertices == len(tree.edges) + 1,
                    "axes": bool(axes) and (rung.axes is None or len(axes) == len(words)),
                    "axis length 2R + 1": all(len(a) == 2 * rung.radius + 1 for a in axes),
                    "consistent stabilisers": all(r.consistent for r in reports),
                    "push-out bound 2": bound == 2,
                    "counts repeat": self.counts.setdefault(name, counts) == counts,
                }
            ok = all(checks.values())
            error = ", ".join(key for key, passed in checks.items() if not passed)
        except Exception as exc:   # an engine crash is a failed certificate, not the end
            error = f"raised {exc!r}"
        elapsed = time.process_time_ns() - start
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{name} certificate failed: {error}")
        return Cert(name, elapsed / 1e9, ok)

    def _climb(self, tracer) -> List[Cert]:
        order = list(RUNGS)
        self.rng.shuffle(order)
        return [self._certificate(name, RUNGS[name], tracer) for name in order]

    def run(self, tracer, seconds: float = 0.0, sweep: bool = False) -> List[List[Cert]]:
        """Climbs until the time is up; a sweep is a single climb."""
        deadline = time.perf_counter() + seconds
        climbs = [self._climb(tracer)]
        while not sweep and time.perf_counter() < deadline:
            climbs.append(self._climb(tracer))
        return climbs

    @staticmethod
    def peak_rss_mb(_climbs) -> float:
        return self_peak_rss_mb()

    def end_to_end(self, climbs):
        times = [sum(c.seconds for c in climb) for climb in climbs]
        p50, p90 = median(times), percentile(times, 90)
        metrics = {"op_p50_ms": 1e3 * p50, "op_tail_ms": 1e3 * p90,
                   "ops_per_s": len(times) / sum(times)}
        lines = [f"cert_{name}_s = {self._rung_median(climbs, name):.4f} s" for name in RUNGS]
        lines.append(f"climb p50 {1e3 * p50:.1f} ms, p90 {1e3 * p90:.1f} ms "
                     f"(n = {len(times)} climbs; fewer than 10 lie beyond p90)")
        return metrics, lines

    @staticmethod
    def _rung_median(climbs, name: str) -> float:
        return median(c.seconds for climb in climbs for c in climb if c.rung == name)

    def layers(self, profile, climbs):
        metrics: Dict[str, float] = {}
        lines = []
        for name in RUNGS:
            whole = self._rung_median(climbs, name)
            for layer in LAYER_SPANS:
                per_cert = profile.per_root(f"bass_serre.{layer}", f"cert.{name}")
                value = median(per_cert) / 1e6
                metrics[f"bass_serre.{layer}_ms.{name}"] = value
                lines.append(f"{name}: bass_serre.{layer} {value:10.3f} ms "
                             f"= {100 * value / (1e3 * whole):5.1f} % of cert_{name}_s")
            for key, value in self.counts[name].items():
                metrics[f"bass_serre.{key}.{name}"] = value
        return metrics, lines

