"""Shared benchmark machinery: spans, percentiles, child processes, environment.

Operations are timed by the CPU clock of the process doing the work: this
process for in-process workloads, the child's user + system time for
child processes.  On a virtual machine that clock excludes time stolen by
the hypervisor, which wall time includes; the steal seen during a run is
recorded beside it.  Everything here acts on the benchmark's own process
and the children it starts.  Nothing pins CPUs, drops caches or touches
cgroups.
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

LIMITS = (
    "nothing pins CPUs, drops caches or touches cgroups; "
    "only the benchmark's own process and the children it starts are measured; "
    "times are CPU time of the process doing the work, which excludes hypervisor steal"
)


# ---------------------------------------------------------------------------
# spans

class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start_ns: int
    end_ns: int


class Tracer:
    """Records spans (name, start, end, parent) in memory; written out at the end.

    Times are this process's CPU clock in ns.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []

    def span(self, name: str) -> "_Open":
        return _Open(self, name)

    def add(self, name: str, ns: int) -> None:
        """A finished span timed elsewhere: a child process's CPU time."""
        end = time.process_time_ns()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(len(self.spans), parent, name, end - ns, end))

    def finished(self) -> List[Span]:
        return [s for s in self.spans if s is not None]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.finished():
                handle.write(json.dumps(s) + "\n")


class _Open:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Open":
        tracer = self.tracer
        self.id = len(tracer.spans)
        tracer.spans.append(None)
        self.parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.id)
        self.start = time.process_time_ns()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.process_time_ns()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans[self.id] = Span(self.id, self.parent, self.name, self.start, end)
        return False


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    _NULL = nullcontext()

    def span(self, name: str):
        return self._NULL

    def add(self, name: str, ns: int) -> None:
        pass


class Profile:
    """Self time of every span (its duration minus its children's), grouped two ways."""

    def __init__(self, spans: Sequence[Span]) -> None:
        child_ns: Dict[int, int] = {}
        root: Dict[int, int] = {}
        for s in spans:   # a parent always has a smaller id than its children
            root[s.id] = s.id if s.parent is None else root[s.parent]
            if s.parent is not None:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + s.end_ns - s.start_ns
        self.calls: Dict[str, List[int]] = {}
        self.roots: Dict[int, Tuple[str, Dict[str, int]]] = {}
        for s in spans:
            ns = s.end_ns - s.start_ns - child_ns.get(s.id, 0)
            self.calls.setdefault(s.name, []).append(ns)
            if s.parent is None:
                self.roots[s.id] = (s.name, {})
            by_name = self.roots[root[s.id]][1]
            by_name[s.name] = by_name.get(s.name, 0) + ns

    def per_call(self, name: str) -> List[int]:
        """Self time (ns) of every span with this name."""
        return self.calls.get(name, [])

    def per_root(self, name: str, root_name: str) -> List[int]:
        """For every root span called root_name, the self time (ns) of its spans called name."""
        return [by_name.get(name, 0) for rname, by_name in self.roots.values() if rname == root_name]

    def layer_lines(self) -> List[str]:
        """Self time per layer (the span name up to its first dot)."""
        totals: Dict[str, int] = {}
        for name, calls in self.calls.items():
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0) + sum(calls)
        whole = sum(totals.values()) or 1
        return [
            f"self time  {layer:<10} {ns / 1e6:12.3f} ms  {100 * ns / whole:6.2f} %"
            for layer, ns in sorted(totals.items(), key=lambda kv: -kv[1])
        ]


# ---------------------------------------------------------------------------
# statistics

def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile (statistics.quantiles' inclusive method)."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# ---------------------------------------------------------------------------
# child processes

def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class ChildResult(NamedTuple):
    code: int
    output: bytes
    cpu_s: float      # the child's user + system time
    wall_s: float
    maxrss_kb: int


def run_child(argv: Sequence[str], capture: str = "stdout") -> ChildResult:
    """Run a child to completion; capture one stream, read its times and peak RSS."""
    out_pipe = subprocess.PIPE if capture == "stdout" else subprocess.DEVNULL
    err_pipe = subprocess.PIPE if capture == "stderr" else subprocess.DEVNULL
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out_pipe,
                            stderr=err_pipe, env=child_env(), cwd=ROOT)
    stream = proc.stdout if capture == "stdout" else proc.stderr
    try:
        output = stream.read()
    finally:
        stream.close()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, output, usage.ru_utime + usage.ru_stime, wall,
                       usage.ru_maxrss)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_seconds(code: str, repeats: int = 5) -> float:
    """Median CPU time of a fresh interpreter running the workload's set-up code."""
    times = []
    for _ in range(repeats):
        result = run_child([sys.executable, "-c", code])
        if result.code != 0:
            raise RuntimeError(f"set-up child exited with {result.code}")
        times.append(result.cpu_s)
    return median(times)


def interpreter_floor(repeats: int = 7) -> Dict[str, float]:
    """`python -c pass` with and without site: the part of a CLI call gdim3 cannot remove."""
    floor = [run_child([sys.executable, "-c", "pass"]).cpu_s for _ in range(repeats)]
    nosite = [run_child([sys.executable, "-S", "-c", "pass"]).cpu_s
              for _ in range(repeats)]
    return {"interp.floor_ms": 1e3 * median(floor),
            "interp.floor_nosite_ms": 1e3 * median(nosite)}


IMPORT_MODULES = {
    "import.gdim3_cli_ms": "gdim3.cli",
    "import.gdim3_ms": "gdim3",
    "import.bass_serre_ms": "gdim3.bass_serre",
    "import.model_ms": "gdim3.model",
    "import.dimension_ms": "gdim3.dimension",
}


def import_times(repeats: int = 5) -> Dict[str, float]:
    """Cumulative `-X importtime` figures within `import gdim3.cli`, median of repeats.

    A module the import does not load reports 0.
    """
    samples: Dict[str, List[float]] = {key: [] for key in IMPORT_MODULES}
    for _ in range(repeats):
        result = run_child([sys.executable, "-X", "importtime", "-c", "import gdim3.cli"],
                           capture="stderr")
        if result.code != 0:
            raise RuntimeError("importtime child failed")
        cumulative: Dict[str, int] = {}
        for line in result.output.decode().splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1])
        for key, module in IMPORT_MODULES.items():
            samples[key].append(cumulative.get(module, 0) / 1e3)
    return {key: median(values) for key, values in samples.items()}


# ---------------------------------------------------------------------------
# environment

def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown (not a git checkout)"


def steal_seconds() -> float:
    """CPU time stolen by the hypervisor so far, summed over CPUs (0 where not reported)."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def environment() -> Dict[str, str]:
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "executable": sys.executable,
        "nproc": str(os.cpu_count()),
        "usable_cpus": str(len(os.sched_getaffinity(0))),
        "loadavg_before": " ".join(f"{x:.2f}" for x in os.getloadavg()),
    }
