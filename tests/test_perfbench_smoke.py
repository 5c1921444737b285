"""One untimed pass of each benchmark workload under the test suite.

The ladder checks each certificate against closed forms computed on its
own (ball size from counting reduced words, |V| = |E| + 1, 2R + 1 vertices
on every axis, consistent stabiliser reports, a push-out bound of 2).  The
census check pass decodes, computes, encodes and replays its first chunk
of seeded documents against expected values, and a traced sweep of that
chunk also calls each layer directly.  The CLI sweep runs every
subcommand of the cli-oneshot deck once through `python -m gdim3.cli`.
So the benchmark's checks and import paths keep running with the tests.
Nothing here is timed.
"""
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from census import Census  # noqa: E402
from cli_oneshot import DECK, CliOneshot  # noqa: E402
from harness import NullTracer, Tracer  # noqa: E402
from ladder import Ladder  # noqa: E402


def test_one_ladder_climb_passes_its_closed_form_checks():
    ladder = Ladder(seed=0)
    climbs = ladder.run(NullTracer(), sweep=True)
    assert len(climbs) == 1 and ladder.attempted == 2
    assert ladder.failed == 0, ladder.problems


def test_the_census_check_pass_gets_every_document_right():
    census = Census(seed=0)
    census.prepare()
    assert census.attempted == 1000
    assert census.failed == 0, census.problems


def test_a_traced_census_sweep_probes_every_layer():
    """A traced run also calls each layer directly, evaluate_piece at k = 2 and 3 on each
    normalized piece included, outside the operation's guard: a refusal there ends the run."""
    census = Census(seed=0)
    census.prepare()
    census.run(Tracer(), sweep=True)
    assert census.failed == 0, census.problems


def test_one_cli_sweep_runs_every_subcommand():
    cli = CliOneshot(seed=0)
    try:
        cli.prepare()
        calls = cli.run(NullTracer(), sweep=True)
    finally:
        cli.close()
    assert [call.kind for call in calls] == list(DECK) and cli.attempted == len(DECK)
    assert cli.failed == 0, cli.problems
