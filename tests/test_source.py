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
        "deque", "_distance_cache", "_farthest_pair", "_order_path", "_children"}
    assert not found, f"breadth-first search machinery in bass_serre.py: {sorted(found)}"


def test_the_certificate_path_builds_no_vertex_table():
    """The ball, its degrees and distances, its axes, their stabilisers, the coned complex's
    counts and its cell stabilisers read the tree in closed form: none of them reads the
    vertex table."""
    tree = ast.parse((PACKAGE / "bass_serre.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for record in ("TreeBall", "ConedComplex"):
        (body,) = [node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == record]
        functions.update({f"{record}.{node.name}": node for node in body.body
                          if isinstance(node, ast.FunctionDef)})
    names = ("ball", "axis_of", "_geodesic", "_axis_labels", "_axis_position",
             "setwise_axis_stabilizer", "cone_off", "TreeBall.degree", "TreeBall.distance",
             "ConedComplex.cell_counts", "ConedComplex.stabilizer")
    assert set(names) <= set(functions), sorted(set(names) - set(functions))
    found = [
        f"{name}:{inner.lineno}"
        for name in names
        for inner in ast.walk(functions[name])
        if isinstance(inner, ast.Attribute) and inner.attr in ("vertices", "edges")
    ]
    assert not found, f"vertex table read on the certificate path: {found}"


def test_bass_serre_keeps_no_code_that_only_the_tests_read():
    """The action of a word on a vertex and the adjacency lists are test oracles:
    bass_serre.py neither defines nor names `_act` or `adjacency`, not even as a string."""
    path = PACKAGE / "bass_serre.py"
    strings = {node.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    found = (_names(path) | strings) & {"_act", "adjacency"}
    assert not found, f"test-only code in bass_serre.py: {sorted(found)}"


def test_bass_serre_assesses_axes_without_a_vertex_scan():
    """Axis stabilisers are read off the axis labels; the scan is a test oracle."""
    found = _names(PACKAGE / "bass_serre.py") & {"_preserving"}
    assert not found, f"per-vertex axis scan in bass_serre.py: {sorted(found)}"


def test_axis_stabilisers_do_not_enumerate_words():
    """cone_off and setwise_axis_stabilizer read shifts and mirrors off the axis labels and
    form one product v_j v_i^-1 for each kept one, not every word."""
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


def test_cone_off_records_no_cell():
    """cone_off computes the axis reports alone: it walks neither the ball's vertices nor
    its edges and builds no Cell; ConedComplex.stabilizer answers one cell on request."""
    tree = ast.parse((PACKAGE / "bass_serre.py").read_text(encoding="utf-8"))
    (body,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "cone_off"]
    found = [
        f"cone_off:{inner.lineno}"
        for inner in ast.walk(body)
        if isinstance(inner, ast.Attribute) and inner.attr in ("vertices", "edges")
        or isinstance(inner, ast.Name) and inner.id == "Cell"
    ]
    assert not found, f"per-cell work in cone_off: {found}"


def test_the_normaliser_probe_is_a_closed_form():
    """The probe reads the normaliser off the conjugation formula for every power of A at
    once: it takes no exponent bound, and no per-power check is left to fail."""
    tree = ast.parse((PACKAGE / "bass_serre.py").read_text(encoding="utf-8"))
    (probe,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "normalizer_probe"]
    parameters = [arg.arg for arg in probe.args.args + probe.args.kwonlyargs]
    assert "bound" not in parameters, parameters
    found = [
        f"bass_serre.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and any(isinstance(inner, ast.Name) and inner.id == "AssertionError"
                for inner in ast.walk(node.exc))
    ]
    assert not found, f"AssertionError raised in bass_serre.py: {found}"


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


def test_word_enumeration_is_a_test_oracle():
    """`--axes auto` builds its words directly; `words_up_to` lives in tests/oracles.py."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "words_up_to"
    ]
    assert not found, f"words_up_to defined in the package: {found}"


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


def test_only_replay_returns_the_data_exit_code():
    """Every refusal reaches `run` as an exception, so `compute` and `validate` print it the
    same way; `replay` alone returns EX_DATA itself, to report a mismatch."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert "_cmd_replay" in {handler.name for handler in handlers}
    found = [
        f"{handler.name}:{inner.lineno}"
        for handler in handlers if handler.name != "_cmd_replay"
        for inner in ast.walk(handler)
        if isinstance(inner, ast.Return) and isinstance(inner.value, ast.Name)
        and inner.value.id == "EX_DATA"
    ]
    assert not found, f"handlers returning EX_DATA: {found}"


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


def test_no_record_constructor_reorders_its_fields():
    """Records are kept as written: `validate` reports paths into the input as given, and the
    canonical ascending order belongs to the JSON encoder and `OrbifoldBase.label`."""
    found = [
        f"{path.relative_to(PACKAGE)}:{inner.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
        for inner in ast.walk(node)
        if isinstance(inner, ast.Name) and inner.id == "sorted"
        or isinstance(inner, ast.Attribute) and inner.attr == "sort"
    ]
    assert not found, f"constructors that sort: {found}"


def test_model_types_fields_only_in_the_validators_and_the_base_reader():
    """`validate` is the one judge of field types; the reader types only the base fields it
    merges or negates, so that a refusal names the spelling in the file."""
    tree = ast.parse((PACKAGE / "model.py").read_text(encoding="utf-8"))
    callers = {
        node.name
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        for inner in ast.walk(node)
        if isinstance(inner, ast.Name) and inner.id == "wrong_type"
    }
    assert "_base_from_json" in callers and callers <= {
        "validate", "_validate_seifert", "_validate_jsj", "_refuse_type", "_base_from_json"}, callers


def test_the_package_computes_with_exact_integers_only():
    """No float literal, no `float(` call and no true division `/`: every quantity is an
    integer or a Fraction, as the README promises."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert not found, f"floating point in the package: {found}"


def test_validate_checks_each_graph_vertex_in_one_function():
    """A vertex's kind is decided once, by `_validate_vertex`, which also returns its boundary
    tori; no separate count or typedness helper reads the vertex again."""
    tree = ast.parse((PACKAGE / "model.py").read_text(encoding="utf-8"))
    defined = {name for node in tree.body for name in _defined(node)}
    assert "_validate_vertex" in defined
    found = defined & {"_counted", "boundary_tori"}
    assert not found, f"vertex helpers besides _validate_vertex: {sorted(found)}"


def test_evaluate_piece_has_no_check_of_its_own():
    """`model` alone judges what a piece is: evaluate_piece asks it, so no UnsupportedPiece
    is left anywhere in the package and dimension.py defines no exception class."""
    from gdim3 import dimension

    found = [str(path.relative_to(PACKAGE)) for path in sorted(PACKAGE.rglob("*"))
             if path.is_file() and "__pycache__" not in path.parts
             and b"UnsupportedPiece" in path.read_bytes()]
    assert not found, f"UnsupportedPiece in the package: {found}"
    raised = [name for name, value in vars(dimension).items()
              if isinstance(value, type) and issubclass(value, BaseException)
              and value.__module__ == dimension.__name__]
    assert not raised, f"exception classes in dimension.py: {raised}"
