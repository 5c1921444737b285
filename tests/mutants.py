"""Mutants that the tests must kill, and a runner that shows that they do.

Each row of MUTANTS names a file, an exact snippet that occurs once in it,
the snippet's replacement and the test nodes that must fail once the
snippet is replaced.  Run, from any directory:

    python tests/mutants.py [ID ...]

The runner copies src/, tests/ and pyproject.toml to a temporary
directory.  There it first runs every node once on the unchanged copy,
which must pass.  Then, for each mutant in turn (all of them, or the ids
given), it applies the mutant, runs that mutant's nodes with
`python -m pytest -q -x`, one child at a time, and restores the file.  It
prints killed or survived per id, and exits nonzero when a mutant survives
or a run cannot be judged.  A full run takes a few seconds per mutant, so
it stays out of Tier-1; tests/test_mutants.py checks there that every
snippet still occurs exactly once, so that a refactor which moves the code
has to update its row.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str   # relative to the repository root, as are the nodes
    snippet: str
    replacement: str
    nodes: Tuple[str, ...]


SHAPE_BOX = "tests/test_model.py::test_the_rewritable_shapes_are_the_flat_bounded_bases"
REFUSALS = "tests/test_records.py::test_refusals_keep_their_type_and_message"
QUOTIENT = ("tests/test_gl2z.py::test_parabolic_quotient_matches_group_level_oracle",
            "tests/test_gl2z.py::test_parabolic_quotient_known_cases")
GEOMETRY = ("tests/test_gl2z.py::test_geometry_of_monodromy",
            "tests/test_cli.py::test_classify_matrix_parabolic")
CORPUS = ("tests/test_golden.py::test_corpus_reports_are_byte_identical",
          "tests/test_model.py::test_corpus_round_trips")
ONE_WALK = ("tests/test_cli.py::test_each_tree_command_counts_its_ball_once",
            "tests/test_bass_serre.py::test_a_ball_is_counted_once")
SIGN = ("tests/test_orbifold2.py::test_every_small_base_is_classified_as_its_fraction_says",
        "tests/test_orbifold2.py::test_bases_whose_sign_needs_the_lcm_and_every_cone_point")

MUTANTS = (
    Mutant("twisted-shape-without-d2-2-2", "src/gdim3/model.py",
           "frozenset({(1, 0, ()), (1, 1, (2, 2))})", "frozenset({(1, 0, ())})", (SHAPE_BOX,)),
    Mutant("shape-key-without-underlying-euler", "src/gdim3/model.py",
           "(base.boundary_count, base.underlying_euler, base.cone_orders) in shape",
           "(base.boundary_count, base.cone_orders) in {(b, c) for b, _, c in shape}",
           (SHAPE_BOX,)),
    Mutant("classify-takes-any-type", "src/gdim3/gl2z.py",
           "    if not isinstance(m, Mat2Z):\n"
           "        raise ValueError(f\"matrix: unknown matrix type {type(m).__name__}\")\n",
           "", (REFUSALS,)),
    Mutant("classify-base-takes-any-type", "src/gdim3/orbifold2.py",
           "    if not isinstance(base, OrbifoldBase):\n"
           "        raise ValueError(f\"base: unknown base type {type(base).__name__}\")\n",
           "", (REFUSALS,)),
    Mutant("classify-base-takes-a-bad-base", "src/gdim3/orbifold2.py",
           "    refused = base.violations()\n"
           "    if refused:\n"
           "        field, message = refused[0]\n"
           "        raise ValueError(f\"base.{field}: {message}\")\n",
           "", (REFUSALS,)),
    Mutant("classify-base-scales-by-max", "src/gdim3/orbifold2.py",
           "scale = lcm(*orders)", "scale = max(orders, default=1)", SIGN),
    Mutant("classify-base-drops-the-cone-count", "src/gdim3/orbifold2.py",
           "chi = (base.underlying_euler - len(orders)) * scale",
           "chi = base.underlying_euler * scale", SIGN),
    Mutant("quotient-test-inverted", "src/gdim3/cli.py",
           "'Z2' if eigenvalue == 1 else", "'Z2' if eigenvalue != 1 else", QUOTIENT),
    Mutant("torus-geometries-swapped", "src/gdim3/cli.py",
           '{MatKind.ELLIPTIC: "E3", MatKind.PARABOLIC: "Nil",',
           '{MatKind.ELLIPTIC: "Nil", MatKind.PARABOLIC: "E3",', GEOMETRY),
    Mutant("corpus-lists-every-file", "src/gdim3/corpus/__init__.py",
           ' for entry in os.listdir(_DIR) if entry.endswith(".json"))',
           " for entry in os.listdir(_DIR))", CORPUS),
    Mutant("ball-keeps-no-counts", "src/gdim3/bass_serre.py",
           '    tree.__dict__["counts"] = counts\n', "", ONE_WALK),
    Mutant("pow-takes-any-exponent", "src/gdim3/gl2z.py",
           "        if type(n) is not int:\n"
           "            raise ValueError(f\"exponent: {wrong_type(n, int)}\")\n",
           "", (REFUSALS,)),
    Mutant("euler-characteristic-takes-a-bad-base", "src/gdim3/orbifold2.py",
           "    _require_valid(base)\n    chi = Fraction(base.underlying_euler)",
           "    chi = Fraction(base.underlying_euler)", (REFUSALS,)),
)


def _pytest(workdir: Path, nodes) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
    return subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True)


def _tail(run: subprocess.CompletedProcess) -> str:
    return "\n".join((run.stdout + run.stderr).strip().splitlines()[-5:])


def main(ids) -> int:
    unknown = sorted(set(ids) - {mutant.id for mutant in MUTANTS})
    if unknown:
        print(f"unknown mutant ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not ids or mutant.id in ids]
    with tempfile.TemporaryDirectory(prefix="gdim3-mutants-") as scratch:
        workdir = Path(scratch)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, workdir / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", workdir)
        nodes = sorted({node for mutant in chosen for node in mutant.nodes})
        baseline = _pytest(workdir, nodes)
        if baseline.returncode != 0:
            print(f"the unchanged copy fails its nodes:\n{_tail(baseline)}")
            return 2
        status = 0
        for mutant in chosen:
            path = workdir / mutant.file
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.snippet) != 1:
                print(f"{mutant.id}: error: the snippet does not occur exactly once")
                status = 2
                continue
            path.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
            try:
                run = _pytest(workdir, mutant.nodes)
            finally:
                path.write_text(original, encoding="utf-8")
            if run.returncode == 1:
                print(f"{mutant.id}: killed")
            elif run.returncode == 0:
                print(f"{mutant.id}: survived")
                status = max(status, 1)
            else:
                print(f"{mutant.id}: error (pytest exit {run.returncode}):\n{_tail(run)}")
                status = 2
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
