"""gdim3 benchmark: run one workload, check every output, print every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from `src/` next to this
directory.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The lines before it record the environment and the workload's own
metrics by their names.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import harness
from harness import OUT, ROOT, SRC, NullTracer, Profile, Tracer, import_times, setup_seconds

TRACED_SHARE = 0.35    # of --seconds, once untraced and once traced; the rest is sweeps


def _workloads():
    import census
    import cli_oneshot
    import ladder
    return {w.name: w for w in (cli_oneshot.CliOneshot, census.Census, ladder.Ladder)}


def _untraced(workload, seconds: float, lines: list) -> dict:
    setup = setup_seconds(workload.setup_code)
    workload.prepare()
    ops = workload.run(NullTracer(), seconds)
    metrics, own = workload.end_to_end(ops)
    metrics["setup_s"] = setup
    metrics["peak_rss_mb"] = workload.peak_rss_mb(ops)
    lines += own
    return metrics


def _traced(workload, others, seconds: float, lines: list) -> dict:
    """Untraced, then traced, then one traced sweep of each other workload."""
    metrics = import_times()
    workload.prepare()
    plain = workload.run(NullTracer(), TRACED_SHARE * seconds)
    tracer = Tracer()
    traced = workload.run(tracer, TRACED_SHARE * seconds)
    plain_metrics, plain_lines = workload.end_to_end(plain)
    plain_p50 = plain_metrics["op_p50_ms"]
    lines += [f"untraced: {line}" for line in plain_lines]
    traced_p50 = workload.end_to_end(traced)[0]["op_p50_ms"]
    metrics["trace.overhead_pct"] = 100 * (traced_p50 / plain_p50 - 1)
    lines.append(f"tracing overhead: op_p50_ms {plain_p50:.4f} untraced, "
                 f"{traced_p50:.4f} traced ({metrics['trace.overhead_pct']:+.2f} %)")
    profile = Profile(tracer.finished())
    own_metrics, own_lines = workload.layers(profile, traced)
    metrics.update(own_metrics)
    lines += own_lines + profile.layer_lines()
    tracer.write(OUT / f"spans-{workload.name}-{workload.seed}.jsonl")
    for other in others:
        other.prepare()
        sweep = Tracer()
        ops = other.run(sweep, sweep=True)
        sweep_metrics, _ = other.layers(Profile(sweep.finished()), ops)
        metrics.update(sweep_metrics)
        lines.append(f"sweep of {other.name}: {len(ops)} operations traced")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gdim3" / "__init__.py").is_file():
        print(f"error: no gdim3 package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gdim3
    if SRC not in Path(gdim3.__file__).resolve().parents:
        print(f"error: gdim3 was imported from {gdim3.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    registry = _workloads()
    if args.workload not in registry:
        parser.error(f"--workload must be one of {', '.join(registry)}")

    env = harness.environment()
    steal_before = harness.steal_seconds()
    floor = harness.interpreter_floor()
    main_workload = registry[args.workload](args.seed)
    others = [cls(args.seed) for name, cls in registry.items() if name != args.workload]
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}"]
    try:
        if args.trace:
            metrics = _traced(main_workload, others, args.seconds, lines)
            metrics.update(floor)
        else:
            metrics = _untraced(main_workload, args.seconds, lines)
    finally:
        for w in [main_workload, *others]:
            getattr(w, "close", lambda: None)()
    env["loadavg_after"] = " ".join(f"{x:.2f}" for x in os.getloadavg())
    env["steal_s_during_run"] = f"{harness.steal_seconds() - steal_before:.2f}"
    env.update({k: f"{v:.3f} ms" for k, v in floor.items()})

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    runs = [main_workload] + (others if args.trace else [])
    attempted = sum(w.attempted for w in runs)
    failed = sum(w.failed for w in runs)
    for key, value in env.items():
        print(f"env {key} = {value}")
    print(f"limits: {harness.LIMITS}")
    for line in lines:
        print(line)
    for w in runs:
        for problem in w.problems:
            print(f"FAILED {w.name}: {problem}")
    print(f"failed_ratio = {failed / max(attempted, 1):.6f} ratio  ({failed} of {attempted})")
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
