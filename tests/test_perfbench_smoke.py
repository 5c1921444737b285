"""One certificate-ladder climb under the test suite.

The ladder checks each certificate against closed forms computed on its
own (ball size from counting reduced words, |V| = |E| + 1, 2R + 1 vertices
on every axis, consistent stabiliser reports, a push-out bound of 2), so
one untimed climb keeps those checks and the benchmark's import paths
running with the tests.  Nothing here is timed.
"""
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from harness import NullTracer  # noqa: E402
from ladder import Ladder  # noqa: E402


def test_one_ladder_climb_passes_its_closed_form_checks():
    ladder = Ladder(seed=0)
    climbs = ladder.run(NullTracer(), sweep=True)
    assert len(climbs) == 1 and ladder.attempted == 2
    assert ladder.failed == 0, ladder.problems
