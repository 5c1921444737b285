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


def test_axis_stabilisers_do_not_enumerate_words():
    """cone_off and setwise_axis_stabilizer test the products v_j v_i^-1, not every word."""
    tree = ast.parse((PACKAGE / "bass_serre.py").read_text(encoding="utf-8"))
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name in ("cone_off", "setwise_axis_stabilizer")}
    assert len(bodies) == 2
    found = [
        f"{name}:{inner.lineno}"
        for name, body in bodies.items()
        for inner in ast.walk(body)
        if isinstance(inner, ast.Name) and inner.id == "words_up_to"
    ]
    assert not found, f"word enumeration in the axis stabilisers: {found}"


def _import_time_nodes(node: ast.AST):
    """Every node that runs when the module is imported: function bodies are skipped."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield child
        yield from _import_time_nodes(child)


def test_the_cli_and_the_package_import_bass_serre_on_first_use():
    """`compute` and the other engine commands must not pay for the certificate machinery."""
    found = []
    for module in ("cli.py", "__init__.py"):
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        for node in _import_time_nodes(tree):
            if isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [part for a in node.names for part in a.name.split(".")]
            else:
                continue
            if "bass_serre" in names:
                found.append(f"{module}:{node.lineno}")
    assert not found, f"module-level imports of bass_serre: {found}"


def _defined(node: ast.stmt) -> list:
    """The names a statement defines or assigns."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_the_test_oracles_stay_out_of_the_package():
    """The order oracle, basis completion, word product, vertex action and the
    semidirect product, inverse and conjugation live in tests/oracles.py; the
    identity element and `Mat2Z.__pow__` are gone."""
    moved = {"order", "MAX_FINITE_ORDER", "complete_basis", "mul", "act", "IDENTITY_ELEMENT"}
    moved_methods = {"conjugate", "__pow__", "mul", "inv"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            found += [f"{module}:{name}" for name in _defined(node) if name in moved]
            if isinstance(node, ast.ClassDef):
                found += [f"{module}:{node.name}.{name}" for inner in node.body
                          for name in _defined(inner) if name in moved_methods]
    assert not found, f"test-only names defined in the package: {found}"


def test_cli_handlers_raise_and_leave_the_exit_code_to_run():
    """A refusal in a `_cmd_*` handler is a raised exception; only `run` prints it."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert handlers
    found = [
        f"{handler.name}:{inner.lineno}"
        for handler in handlers
        for inner in ast.walk(handler)
        if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)
        and inner.func.id == "_fail"
    ]
    assert not found, f"handlers calling _fail: {found}"


def test_no_module_imports_dataclasses():
    """Value types derive from `_record.Record`; `dataclasses` costs every command its import."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found, f"imports of dataclasses: {found}"
