"""census: seeded descriptions through the whole compute path, in process.

Each document goes JSON decode -> description_from_json -> compute
(validate and normalize inside) -> report_to_json + dumps -> replay
(decode the embedded description, recompute, compare the trace).  About
a tenth of the documents are invalid beyond dispute and must be refused.
Documents come in seeded chunks; the exact counts are taken over chunk 0,
which every run processes first and which the untimed check pass
processed before it, so the two must agree.
"""
from __future__ import annotations

import json
import time
from array import array
from typing import Dict, List

import catalogue
from harness import NullTracer, Tracer, median, percentile, self_peak_rss_mb

from gdim3.cli import report_to_json
from gdim3.dimension import compute, evaluate_piece
from gdim3.gl2z import classify
from gdim3.model import (
    DescriptionFormatError,
    InvalidDescription,
    JsjGraph,
    NormalizationAmbiguous,
    SeifertBounded,
    SeifertClosed,
    TorusBundle,
    description_from_json,
    normalize,
    validate,
)
from gdim3.orbifold2 import classify_base

REFUSALS = (DescriptionFormatError, InvalidDescription, NormalizationAmbiguous)

SETUP = """
import json
from gdim3 import corpus
from gdim3.cli import report_to_json
from gdim3.dimension import compute, evaluate_piece
from gdim3.gl2z import classify
from gdim3.model import description_from_json
report = compute(corpus.load("e3_rp3"))
json.loads(json.dumps(report_to_json(report), indent=2))
"""

SPAN_METRICS = {   # per-layer metric -> span name; mean self time per call, in us
    "model.decode_us": "model.decode",
    "model.validate_us": "model.validate",
    "model.normalize_us": "model.normalize",
    "model.reject_us": "model.reject",
    "dimension.compute_us": "dimension.compute",
    "dimension.evaluate_piece_us": "dimension.evaluate_piece",
    "gl2z.classify_us": "gl2z.classify",
    "orbifold2.classify_base_us": "orbifold2.classify_base",
    "report.encode_us": "report.encode",
    "report.replay_us": "report.replay",
}


def _counts(desc, report) -> Dict[str, int]:
    return {
        "model.pieces": len(desc.pieces),
        "model.jsj_vertices": sum(len(p.vertices) for p in desc.pieces if isinstance(p, JsjGraph)),
        "dimension.trace_steps": len(report.k2.trace) + len(report.k3plus.trace),
    }


def _probe(desc, span) -> None:
    """Direct calls into the single layers, outside the timed document."""
    with span("model.validate"):
        validate(desc)
    with span("model.normalize"):
        normalized = normalize(desc)
    for piece in normalized.pieces:
        for k in (2, 3):
            with span("dimension.evaluate_piece"):
                evaluate_piece(piece, k)
        if isinstance(piece, TorusBundle):
            with span("gl2z.classify"):
                classify(piece.monodromy)
        if isinstance(piece, SeifertClosed):
            bases = [piece.data.base]
        elif isinstance(piece, JsjGraph):
            bases = [v.data.base for v in piece.vertices if isinstance(v, SeifertBounded)]
        else:
            bases = []
        for base in bases:
            with span("orbifold2.classify_base"):
                classify_base(base)


class Census:
    name = "census"
    setup_code = SETUP

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.counts: Dict[str, int] = {}
        self.shares: Dict[str, float] = {}

    def prepare(self) -> None:
        """Untimed check pass over chunk 0: warms up and fixes the exact counts and shares."""
        cases = catalogue.census(self.seed, 0)
        distinct, total, large, many = set(), 0, 0, 0
        for case in cases:
            doc = json.loads(case.text)["pieces"]
            large += sum(len(p["vertices"]) for p in doc if p["kind"] == "jsj") >= 25
            many += len(doc) >= 5
            if case.expected is not None:
                total += len(doc)
                distinct.update(json.dumps(p, sort_keys=True) for p in doc)
        self.shares = {
            "census.repeated_piece_ratio": 1 - len(distinct) / total,
            "census.large_jsj_share": large / len(cases),
            "census.many_pieces_share": many / len(cases),
        }
        self.counts = self._pass(cases, NullTracer(), array("d"), probe=False)

    def _pass(self, cases, tracer, ops: array, probe: bool, deadline=None) -> Dict[str, int]:
        """Process documents in order; returns counts if the whole list was processed."""
        span = tracer.span
        counts = dict.fromkeys(("model.pieces", "model.jsj_vertices", "dimension.trace_steps",
                                "model.rejected"), 0)
        for case in cases:
            if deadline is not None and time.perf_counter() >= deadline:
                return {}
            ok, error, desc, report = False, "", None, None
            start = time.process_time_ns()
            try:
                with span("census.doc"):
                    obj = json.loads(case.text)
                    if case.expected is None:
                        try:
                            with span("model.reject"):
                                compute(description_from_json(obj))
                        except REFUSALS:
                            ok = True
                    else:
                        with span("model.decode"):
                            desc = description_from_json(obj)
                        with span("dimension.compute"):
                            report = compute(desc)
                        with span("report.encode"):
                            stored = json.dumps(report_to_json(report), indent=2)
                        with span("report.replay"):
                            again = json.loads(stored)
                            fresh = report_to_json(
                                compute(description_from_json(again["description"])))
                            replayed = fresh["trace"] == again["trace"]
                elapsed = time.process_time_ns() - start
                if report is not None:
                    ok = replayed and (report.value(2), report.value(3)) == case.expected
            except Exception as exc:   # an engine crash is a failed operation, not the end
                elapsed = time.process_time_ns() - start
                error = f" raised {exc!r}"
            if not ok and len(self.problems) < 20:
                self.problems.append(f"{case.kind} document{error or ' gave a wrong result'}: "
                                     f"{case.text[:160]}")
            self.attempted += 1
            self.failed += not ok
            ops.append(elapsed / 1e9)
            if report is not None:
                for key, value in _counts(desc, report).items():
                    counts[key] += value
                if probe:
                    _probe(desc, span)
            else:
                counts["model.rejected"] += ok
        return counts

    def run(self, tracer, seconds: float = 0.0, sweep: bool = False) -> array:
        """Seconds per document over chunks 0, 1, 2, ... until the time is up; a sweep is chunk 0.

        The times are kept as doubles in an array, 8 bytes per document, so
        the benchmark's own bookkeeping hardly moves peak_rss_mb (about 0.5 MB
        in a 35 s run against a peak near 18 MB), however fast the engine is.
        """
        ops = array("d")
        probe = isinstance(tracer, Tracer)
        deadline = None if sweep else time.perf_counter() + seconds
        chunk = 0
        while True:
            counts = self._pass(catalogue.census(self.seed, chunk), tracer, ops,
                                probe, deadline)
            if chunk == 0 and counts and counts != self.counts:
                self.failed += 1
                self.problems.append(f"chunk 0 counts {counts} != check pass {self.counts}")
            chunk += 1
            if sweep or time.perf_counter() >= deadline:
                return ops

    @staticmethod
    def peak_rss_mb(_ops) -> float:
        return self_peak_rss_mb()

    def end_to_end(self, times: array):
        p50, p99 = median(times), percentile(times, 99)
        rate = len(times) / sum(times)
        metrics = {"op_p50_ms": 1e3 * p50, "op_tail_ms": 1e3 * p99, "ops_per_s": rate}
        lines = [
            f"census_desc_per_s = {rate:.1f} 1/s",
            f"census_p50_us = {1e6 * p50:.1f} us",
            f"census_p99_us = {1e6 * p99:.1f} us  (n = {len(times)} documents)",
        ] + [f"{name} = {value:.4f} ratio  (chunk 0)" for name, value in self.shares.items()]
        return metrics, lines

    def layers(self, profile, _times):
        metrics = {}
        for key, name in SPAN_METRICS.items():
            calls = profile.per_call(name)
            metrics[key] = sum(calls) / len(calls) / 1e3
        metrics.update(self.counts)
        metrics.update(self.shares)
        return metrics, []

