"""The mutant table stays applicable: `python tests/mutants.py` runs it, outside Tier-1."""
import re

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_ids_are_unique():
    assert len({mutant.id for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.id)
def test_every_snippet_occurs_once_and_every_node_is_a_test(mutant):
    """A refactor that moves a snippet, or renames a test that kills it, must update the row."""
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.nodes
    for node in mutant.nodes:
        path, name = node.split("::")
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(encoding="utf-8"), re.M), node
