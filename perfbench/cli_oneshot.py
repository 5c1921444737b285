"""cli-oneshot: fresh `python -m gdim3.cli` processes, one after another.

The mix of subcommands is fixed per deck of 20 calls and shuffled by the
seed, so every seed measures the same mix.  Checks read only the
`gd(...) = N` lines of text output, the k2 / k3plus fields of JSON output
and exit codes.  Input files are written to a work directory under
.perfbench-out and removed at the end.
"""
from __future__ import annotations

import json
import random
import re
import shutil
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Tuple

import catalogue
from harness import OUT, median, percentile, run_child

from gdim3.cli import report_to_json
from gdim3.dimension import compute
from gdim3.model import description_from_json

# expected values of the bundled corpus, from the README table
CORPUS = {
    "table1_row1_closed_hyperbolic": (3, 3),
    "table1_row2_cusped_hyperbolic": (3, 3),
    "table1_row3_spherical_base_seifert": (0, 0),
    "table1_row4_hyperbolic_base_seifert": (2, 2),
    "table1_row4b_bounded_hyperbolic_base": (2, 2),
    "table1_row5_flat_euler_zero": (5, 0),
    "table1_row6_flat_euler_nonzero": (3, 3),
    "table1_row7_flat_base_bounded": (3, 3),
    "rp3_rp3": (0, 0),
    "rp3_rp3_rp3": (2, 2),
    "h3_rp3": (3, 3),
    "e3_rp3": (5, 2),
    "jsj_hyperbolic_plus_seifert": (3, 3),
    "torus_bundle_elliptic": (5, 0),
    "torus_bundle_parabolic": (3, 3),
    "torus_bundle_anosov": (2, 2),
    "geometric_sol": (2, 2),
    "klein_double": (2, 2),
}
CONE_OFF = ["cone-off", "--factors", "2,2,2", "--radius", "4", "--axes", "ab,bc,ac",
            "--budget", "4"] + [a for c in ("vertex", "cone_vertex", "edge", "cone_edge", "face")
                                for a in ("--assign", f"{c}=0")]
# subcommand -> calls per deck of 20
DECK = {"compute": 7, "compute_json": 3, "validate": 2, "replay": 2, "corpus": 1, "rules": 1,
        "classify_matrix": 2, "cone_off": 2}

SETUP = """
import contextlib, io
import gdim3.cli
with contextlib.redirect_stdout(io.StringIO()):
    gdim3.cli.run(["rules"])
"""

_GD = {2: re.compile(r"^gd\(k = 2\) = (\d+)\s*$", re.M),
       3: re.compile(r"^gd\(k >= 3\) = (\d+)\s*$", re.M)}


def _gd_lines(out: str) -> Tuple[int, ...]:
    found = [pattern.findall(out) for pattern in _GD.values()]
    return tuple(int(f[0]) for f in found if len(f) == 1)


def _json_values(out: str) -> Tuple[int, ...]:
    report = json.loads(out)
    return (report["k2"], report["k3plus"])


class Call(NamedTuple):
    kind: str
    seconds: float    # CPU time of the process
    wall_s: float
    ok: bool
    maxrss_kb: int


class CliOneshot:
    name = "cli-oneshot"
    setup_code = SETUP

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"cli:{seed}")
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.work = OUT / f"cli-work-{seed}"

    def prepare(self) -> None:
        """Write generated descriptions, invalid documents and stored reports."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.valid: List[Tuple[str, tuple]] = []
        self.invalid: List[str] = []
        self.reports: List[str] = []
        for i in range(16):
            case = catalogue.valid(self.rng, f"cli{self.seed}-{i}")
            path = self.work / f"valid{i}.json"
            path.write_text(case.text)
            self.valid.append((str(path), case.expected))
            if i < 8:
                report = compute(description_from_json(json.loads(case.text)))
                path = self.work / f"report{i}.json"
                path.write_text(json.dumps(report_to_json(report), indent=2))
                self.reports.append(str(path))
        for i in range(8):
            path = self.work / f"invalid{i}.json"
            path.write_text(catalogue.invalid(self.rng, f"bad{i}").text)
            self.invalid.append(str(path))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _call(self, kind: str) -> Tuple[List[str], Callable[[int, str], bool]]:
        """Arguments for one call of this kind and the check of its outcome."""
        rng = self.rng
        if kind in ("compute", "compute_json"):
            if rng.random() < 0.5:
                name = rng.choice(sorted(CORPUS))
                target, expected = f"corpus:{name}", CORPUS[name]
            else:
                target, expected = rng.choice(self.valid)
            if kind == "compute":
                return ["compute", target], lambda code, out: code == 0 and _gd_lines(out) == expected
            return (["compute", target, "--format", "json"],
                    lambda code, out: code == 0 and _json_values(out) == expected)
        if kind == "validate":
            if rng.random() < 0.5:
                return ["validate", rng.choice(self.valid)[0]], lambda code, out: code == 0
            return ["validate", rng.choice(self.invalid)], lambda code, out: code == 2
        if kind == "replay":
            return ["replay", rng.choice(self.reports)], lambda code, out: code == 0
        if kind == "classify_matrix":
            pool = rng.choice([catalogue.ELLIPTIC, catalogue.PARABOLIC, catalogue.ANOSOV])
            m = catalogue.conjugate(rng, rng.choice(pool))
            return ["classify-matrix", "--", f"{m.a},{m.b};{m.c},{m.d}"], lambda code, out: code == 0
        args = {"corpus": ["corpus"], "rules": ["rules"], "cone_off": CONE_OFF}[kind]
        return args, lambda code, out: code == 0

    def _run_call(self, kind: str, tracer) -> Call:
        args, check = self._call(kind)
        result = run_child([sys.executable, "-m", "gdim3.cli", *args])
        tracer.add(f"cli.{kind}", round(result.cpu_s * 1e9))
        try:
            ok = check(result.code, result.output.decode())
        except (ValueError, KeyError):
            ok = False
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"gdim3 {' '.join(args)} exited {result.code}: "
                                     f"{result.output[:200]!r}")
        return Call(kind, result.cpu_s, result.wall_s, ok, result.maxrss_kb)

    def run(self, tracer, seconds: float = 0.0, sweep: bool = False) -> List[Call]:
        """Decks until the time is up, at least one whole; a sweep is one call per subcommand."""
        if sweep:
            return [self._run_call(kind, tracer) for kind in DECK]
        calls: List[Call] = []
        deadline = time.perf_counter() + seconds
        while True:
            deck = [kind for kind, n in DECK.items() for _ in range(n)]
            self.rng.shuffle(deck)
            for kind in deck:
                calls.append(self._run_call(kind, tracer))
                if time.perf_counter() >= deadline and len(calls) >= len(deck):
                    return calls

    @staticmethod
    def peak_rss_mb(calls: List[Call]) -> float:
        return max(c.maxrss_kb for c in calls) / 1024

    def end_to_end(self, calls: List[Call]):
        times = [c.seconds for c in calls]
        p50, p90 = median(times), percentile(times, 90)
        metrics = {"op_p50_ms": 1e3 * p50, "op_tail_ms": 1e3 * p90,
                   "ops_per_s": len(times) / sum(times)}
        lines = [f"cli_p50_ms = {1e3 * p50:.2f} ms",
                 f"cli_p90_ms = {1e3 * p90:.2f} ms  (n = {len(times)} processes, "
                 f"{sum(t > p90 for t in times)} beyond p90)",
                 f"wall time per process: p50 {1e3 * median(c.wall_s for c in calls):.2f} ms, "
                 f"p90 {1e3 * percentile([c.wall_s for c in calls], 90):.2f} ms"]
        return metrics, lines

    def layers(self, profile, calls: List[Call]):
        metrics: Dict[str, float] = {
            f"cli.{kind}_ms": median(profile.per_call(f"cli.{kind}")) / 1e6 for kind in DECK
        }
        return metrics, []
