"""Checks on the package source itself."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gdim3"


def test_the_package_has_no_assert_statements():
    """Soundness checks must be real exceptions: `python -O` strips every `assert`."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def _names(path: Path) -> set:
    """Every name, attribute, imported name and definition in a module."""
    names: set = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_bass_serre_measures_the_tree_without_breadth_first_search():
    """Distances and axes come from normal forms; the search versions are test oracles."""
    found = _names(PACKAGE / "bass_serre.py") & {
        "deque", "_distance_cache", "_farthest_pair", "_order_path"}
    assert not found, f"breadth-first search machinery in bass_serre.py: {sorted(found)}"


def test_bass_serre_assesses_axes_without_a_vertex_scan():
    """Axis stabilisers come from the endpoint test; the scan is a test oracle."""
    found = _names(PACKAGE / "bass_serre.py") & {"_preserving"}
    assert not found, f"per-vertex axis scan in bass_serre.py: {sorted(found)}"
