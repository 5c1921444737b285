"""Command line interface.

Exit codes: 0 on success, 2 for invalid input (malformed files,
descriptions that fail validation, unsupported probe elements), 3 when a
tree exploration exceeds its resource cap.  The handlers raise; `run` is
the one place that turns an exception into a message and an exit code.

The certificate commands (`ball`, `cone-off`, `probe-normalizer`) import
`bass_serre` inside their handlers, so the compute commands never load it.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from . import corpus
from .dimension import RULES, TABLE, DimensionReport, compute, piece_rule
from .gl2z import (
    Mat2Z,
    MatKind,
    classify,
    geometry_of_monodromy,
    invariant_eigenvector,
    parabolic_quotient_type,
)
from .model import (
    InvalidDescription,
    ManifoldDescription,
    TorusBundle,
    description_from_json,
    description_to_json,
    load_description,
    normalize,
    read_json,
    validate,
)
from .orbifold2 import SURFACES, OrbifoldBase, classify_base, euler_characteristic_orb

EX_OK = 0
EX_DATA = 2
EX_RESOURCE = 3


def _load_target(target: str) -> ManifoldDescription:
    """A description, from a JSON file path or a bundled corpus:NAME."""
    if target.startswith("corpus:"):
        try:
            return corpus.load(target[len("corpus:"):])
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    return load_description(target)


def report_to_json(report: DimensionReport) -> dict:
    trace = []
    for family_name, result in (("k2", report.k2), ("k3plus", report.k3plus)):
        for step in result.trace:
            trace.append(
                {
                    "family": family_name,
                    "path": step.path,
                    "rule": step.rule,
                    "inputs": step.inputs,
                    "value": step.value,
                }
            )
    return {
        "name": report.name,
        "k2": report.k2.value,
        "k3plus": report.k3plus.value,
        "rank_cap": report.rank_cap,
        "trace": trace,
        "description": description_to_json(report.description),
    }


def _parse_k(text: str) -> Optional[int]:
    """--k value: None means both columns."""
    if text == "all":
        return None
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--k must be 'all' or an integer >= 2, got {text!r}")
    if k < 2:
        raise argparse.ArgumentTypeError("--k must be >= 2 (the families start at k = 2)")
    return k


def _print_report_text(report: DimensionReport, k: Optional[int], explain: bool) -> None:
    print(f"name: {report.name}")
    columns = []
    if k is None:
        columns = [("k = 2", report.k2), ("k >= 3", report.k3plus)]
    else:
        if k >= 4:
            print(f"note: the families stabilise at k = 3; k = {k} uses the k >= 3 column",
                  file=sys.stderr)
        label = "k = 2" if k == 2 else ("k >= 3" if k == 3 else f"k = {k} (= k >= 3)")
        columns = [(label, report.k2 if k == 2 else report.k3plus)]
    for label, result in columns:
        print(f"gd({label}) = {result.value}")
    print(f"rank cap: Z^{report.rank_cap} present, no Z^{report.rank_cap + 1}")
    if explain:
        for label, result in columns:
            print(f"derivation ({label}):")
            for step in result.trace:
                print(f"  [{step.path}] {step.rule}: {step.inputs} -> {step.value}")


def _cmd_compute(args: argparse.Namespace) -> int:
    report = compute(_load_target(args.target))
    if args.format == "json":
        print(json.dumps(report_to_json(report), indent=2))
    else:
        _print_report_text(report, args.k, args.explain)
    return EX_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    desc = _load_target(args.target)
    report = validate(desc)
    if report:
        print(f"{desc.name or args.target}: {len(report)} violation(s)")
        for violation in report:
            print(f"  {violation}")
        return EX_DATA
    normalize(desc)   # a rewrite that lacks data refuses here as in compute
    print(f"OK: {desc.name or args.target} ({len(desc.pieces)} piece(s))")
    return EX_OK


def _cmd_classify_matrix(args: argparse.Namespace) -> int:
    matrix = Mat2Z.parse(args.matrix)
    cls = classify(matrix)
    print(f"matrix {matrix}  det {matrix.det():+d}  trace {matrix.trace()}")
    if cls.kind is MatKind.ELLIPTIC:
        print(f"class: elliptic, order {cls.order}")
    else:
        print(f"class: {cls.kind.value}")
    if cls.kind is MatKind.PARABOLIC:
        vector, eigenvalue = invariant_eigenvector(matrix)
        print(f"invariant axis: {vector}, eigenvalue {eigenvalue}")
        print(f"quotient by the axis: {parabolic_quotient_type(matrix).value}")
    print(f"mapping torus geometry: {geometry_of_monodromy(matrix)}")
    at2, at3, _ = TABLE[piece_rule(TorusBundle(matrix))[0]]
    print(f"mapping torus gd: k = 2 -> {at2}, k >= 3 -> {at3}")
    return EX_OK


def _cmd_classify_orbifold(args: argparse.Namespace) -> int:
    cones = tuple(args.cone or ())
    if args.surface is not None:
        if args.genus is not None or args.nonorientable or args.boundary is not None:
            raise ValueError("--surface already fixes genus, orientability and boundary")
        base = SURFACES[args.surface](*cones)
    else:
        base = OrbifoldBase(
            genus=args.genus if args.genus is not None else 0,
            orientable=not args.nonorientable,
            boundary_count=args.boundary if args.boundary is not None else 0,
            cone_orders=cones,
        )
    if any(order < 2 for order in cones):
        raise ValueError("cone orders must be >= 2")
    if base.genus < 0 or (not base.orientable and base.genus == 0):
        raise ValueError("genus must be >= 0, and >= 1 for nonorientable surfaces")
    if base.boundary_count < 0:
        raise ValueError("boundary count must be >= 0")
    print(f"base: {base.label()}")
    print(f"orbifold Euler characteristic: {euler_characteristic_orb(base)}")
    print(f"class: {classify_base(base).value}")
    return EX_OK


def _parse_factors(text: str) -> FreeProductSpec:
    from .bass_serre import FreeProductSpec

    try:
        orders = tuple(int(part) for part in text.split(","))
        return FreeProductSpec(orders)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _count(text: str) -> int:
    """An integer >= 0: a radius or a word budget."""
    return _at_least(text, 0)


def _positive(text: str) -> int:
    """An integer >= 1: a vertex cap or an exponent bound."""
    return _at_least(text, 1)


def _cmd_ball(args: argparse.Namespace) -> int:
    from .bass_serre import ball

    tree = ball(args.factors, args.radius, max_vertices=args.max_vertices)
    if args.format == "json":
        print(json.dumps(
            {
                "factor_orders": list(args.factors.factor_orders),
                "radius": args.radius,
                "vertices": [v.label() for v in tree.vertices],
                "edges": [[u.label(), v.label()] for u, v in tree.edges],
            },
            indent=2,
        ))
        return EX_OK
    element = sum(1 for v in tree.vertices if v.factor is None)
    coset = len(tree.vertices) - element
    orders = " * ".join(f"Z{n}" for n in args.factors.factor_orders)
    print(f"{orders}, ball of radius {args.radius}")
    print(f"vertices: {len(tree.vertices)} ({element} element, {coset} coset)")
    print(f"edges: {len(tree.edges)}")
    if args.list:
        for v in tree.vertices:
            print(f"  {v.label()} (distance {tree.distance(v, tree.vertices[0])},"
                  f" degree {tree.degree(v)})")
    return EX_OK


#: `--axes auto` takes the axes of the hyperbolic words of at most this many syllables.
_AUTO_AXIS_SYLLABLES = 2


def _auto_axes(tree) -> List[tuple]:
    """Axes of all short hyperbolic words, deduplicated by vertex set."""
    from .bass_serre import axis_of, cyclically_reduce, words_up_to

    spec = tree.spec
    axes: List[tuple] = []
    seen = set()
    for w in words_up_to(spec, _AUTO_AXIS_SYLLABLES):
        if len(cyclically_reduce(spec, w)) <= 1:
            continue
        axis = axis_of(tree, w)
        if axis is None:
            continue
        key = frozenset(axis)
        if key not in seen:
            seen.add(key)
            axes.append(axis)
    return axes


def _assignment(items: Sequence[str]) -> Dict[str, int]:
    """--assign class=value items; ValueError names the first bad one."""
    from .bass_serre import _CELL_DIMS

    assignment: Dict[str, int] = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"--assign expects class=value, got {item!r}")
        key, _, value = item.partition("=")
        if key not in _CELL_DIMS:
            raise ValueError(f"--assign names no cell class ({', '.join(_CELL_DIMS)}): {item!r}")
        if key in assignment:
            raise ValueError(f"--assign gives class {key!r} a second value: {item!r}")
        if not (value.isascii() and value.isdigit()):
            raise ValueError(f"--assign value must be a decimal integer >= 0, got {item!r}")
        assignment[key] = int(value)
    return assignment


def _cmd_cone_off(args: argparse.Namespace) -> int:
    from .bass_serre import (
        MissingAssignment,
        axis_of,
        ball,
        cone_off,
        cyclically_reduce,
        parse_word,
        pushout_dimension_bound,
        word_str,
    )

    assignment = _assignment(args.assign)
    tree = ball(args.factors, args.radius, max_vertices=args.max_vertices)
    if args.axes == "auto":
        axes = _auto_axes(tree)
        if not axes:
            raise ValueError("no axis is visible at this radius; increase --radius")
    else:
        axes = []
        for text in args.axes.split(","):
            w = parse_word(args.factors, text)
            axis = axis_of(tree, w)
            if axis is None:
                if len(cyclically_reduce(args.factors, w)) <= 1:
                    raise ValueError(f"{text!r} is elliptic (conjugate into a factor), no axis")
                raise ValueError(f"the axis of {text!r} is not visible at radius {args.radius}")
            axes.append(axis)
    complex_ = cone_off(tree, axes, budget=args.budget)
    bound: Optional[int] = None
    if assignment:
        try:
            bound = pushout_dimension_bound(complex_, assignment)
        except MissingAssignment as exc:
            raise ValueError(f"cell class {exc.args[0]!r} has no assigned value") from None
    reports = complex_.axis_reports
    if args.format == "json":
        cells = []
        for cell in complex_.cells():
            record = complex_.stabilizer_records[cell]
            cells.append(
                {
                    "class": cell.cell_class,
                    "dim": cell.dim,
                    "stabilizer_words": [word_str(w) for w in record],
                }
            )
        obj = {
            "factor_orders": list(args.factors.factor_orders),
            "radius": args.radius,
            "budget": args.budget,
            "axes": [
                {
                    "vertices": [v.label() for v in axis],
                    "consistent": report.consistent,
                    "translations": len(report.translations),
                    "reflections": len(report.reflections),
                }
                for axis, report in zip(axes, reports)
            ],
            "cells": cells,
        }
        if bound is not None:
            obj["pushout_dimension_bound"] = bound
        print(json.dumps(obj, indent=2))
        return EX_OK
    counts: Dict[str, int] = {}
    for cell in complex_.cells():
        counts[cell.cell_class] = counts.get(cell.cell_class, 0) + 1
    print(f"coned complex over {len(axes)} axis/axes, word budget {args.budget}")
    for cell_class in complex_.cell_classes():
        print(f"  {cell_class}: {counts[cell_class]} cell(s)")
    for i, (axis, report) in enumerate(zip(axes, reports)):
        status = "consistent" if report.consistent else "INCONSISTENT"
        print(
            f"axis {i} ({len(axis)} vertices): setwise stabiliser {status}, "
            f"{len(report.translations)} translation(s), "
            f"{len(report.reflections)} reflection(s)"
        )
    if bound is not None:
        print(f"push-out dimension bound: {bound}")
    return EX_OK


def _cmd_probe_normalizer(args: argparse.Namespace) -> int:
    from .bass_serre import SemidirectSpec, normalizer_probe

    matrix = Mat2Z.parse(args.monodromy)
    parts = args.element.split(",")
    if len(parts) != 3:
        raise ValueError(f"--element expects x,y,l, got {args.element!r}")
    try:
        x, y, l = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"--element expects integers x,y,l, got {args.element!r}") from None
    probe = normalizer_probe(SemidirectSpec(matrix), ((x, y), l), bound=args.bound)
    print(f"element (({x}, {y}), {l}) in Z^2 x| Z with monodromy {matrix}")
    print(f"normaliser rank: {probe.rank}")
    for line in probe.certificate:
        print(f"  {line}")
    return EX_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    stored = read_json(args.report)
    if not isinstance(stored, dict) or "description" not in stored:
        raise ValueError("the report carries no embedded description")
    fresh = report_to_json(compute(description_from_json(stored["description"])))
    mismatches = []
    for key in ("name", "k2", "k3plus", "rank_cap", "trace"):
        if stored.get(key) != fresh[key]:
            mismatches.append(key)
    if mismatches:
        print(f"replay MISMATCH in {', '.join(mismatches)}")
        for key in mismatches:
            print(f"  stored {key}: {stored.get(key)!r}")
            print(f"  fresh  {key}: {fresh[key]!r}")
        return EX_DATA
    print(f"replay OK: {fresh['name']} reproduces k2={fresh['k2']}, "
          f"k3plus={fresh['k3plus']}, rank_cap={fresh['rank_cap']} with matching trace")
    return EX_OK


def _cmd_corpus(args: argparse.Namespace) -> int:
    names = corpus.names()
    width = max(len(name) for name in names)
    for name in names:
        report = compute(corpus.load(name))
        print(f"{name:<{width}}  k2={report.k2.value}  k>=3={report.k3plus.value}")
    return EX_OK


def _cmd_rules(args: argparse.Namespace) -> int:
    width = max(len(rule) for rule in RULES)
    for rule, text in RULES.items():
        print(f"{rule:<{width}}  {text}")
    return EX_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdim3",
        description="Exact geometric dimensions of closed oriented 3-manifold groups "
                    "relative to the virtually-abelian families, with finite-scale "
                    "tree and normaliser certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate both family columns for a description")
    p.add_argument("target", help="JSON description file, or corpus:NAME")
    p.add_argument("--k", type=_parse_k, default=None,
                   help="family index to display: 2, 3, 'all' (default), or any k >= 4 "
                        "(reported from the stabilised k >= 3 column)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--explain", action="store_true", help="print the derivation trace")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("validate", help="report well-formedness violations")
    p.add_argument("target", help="JSON description file, or corpus:NAME")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify-matrix", help="classify a GL(2, Z) matrix")
    p.add_argument("matrix", help="matrix as 'a,b;c,d'")
    p.set_defaults(func=_cmd_classify_matrix)

    p = sub.add_parser("classify-orbifold", help="classify a 2-orbifold")
    p.add_argument("--surface", choices=sorted(SURFACES), default=None,
                   help="named underlying surface")
    p.add_argument("--genus", type=int, default=None,
                   help="genus (crosscap count when nonorientable)")
    p.add_argument("--nonorientable", action="store_true")
    p.add_argument("--boundary", type=int, default=None, help="boundary circle count")
    p.add_argument("--cone", type=int, action="append", help="cone point order (repeatable)")
    p.set_defaults(func=_cmd_classify_orbifold)

    p = sub.add_parser("ball", help="explore a Bass-Serre tree ball")
    p.add_argument("--factors", type=_parse_factors, required=True,
                   help="cyclic factor orders, e.g. 2,3")
    p.add_argument("--radius", type=_count, required=True)
    p.add_argument("--max-vertices", type=_positive, default=50000)
    p.add_argument("--list", action="store_true", help="list every vertex")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("cone-off", help="cone the axes in a tree ball and bound the dimension")
    p.add_argument("--factors", type=_parse_factors, required=True)
    p.add_argument("--radius", type=_count, required=True)
    p.add_argument("--max-vertices", type=_positive, default=50000)
    p.add_argument("--axes", default="auto",
                   help="'auto' or comma-separated words like ab,ab2")
    p.add_argument("--budget", type=_count, default=4,
                   help="syllable-length cap for stabiliser words")
    p.add_argument("--assign", action="append", default=[],
                   help="cell-class value, e.g. --assign vertex=0 (once per class)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_cone_off)

    p = sub.add_parser("probe-normalizer",
                       help="normaliser rank of a cyclic subgroup of Z^2 x| Z")
    p.add_argument("--monodromy", required=True, help="hyperbolic matrix as 'a,b;c,d'")
    p.add_argument("--element", required=True, help="generator as x,y,l")
    p.add_argument("--bound", type=_positive, default=8)
    p.set_defaults(func=_cmd_probe_normalizer)

    p = sub.add_parser("replay", help="recompute a stored JSON report and compare")
    p.add_argument("report", help="report produced by compute --format json")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("corpus", help="list the bundled descriptions with their values")
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("rules", help="list the derivation rule identifiers")
    p.set_defaults(func=_cmd_rules)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidDescription as exc:
        print("error: the description does not validate", file=sys.stderr)
        for violation in exc.report:
            print(f"  {violation}", file=sys.stderr)
        return EX_DATA
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA
    except RuntimeError as exc:
        from .bass_serre import BallLimitExceeded

        if not isinstance(exc, BallLimitExceeded):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EX_RESOURCE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
