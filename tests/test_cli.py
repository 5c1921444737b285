import copy
import json
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gdim3 import corpus
from gdim3.bass_serre import FreeProductSpec, TreeBall, axis_of, ball
from gdim3.cli import EX_DATA, EX_OK, EX_RESOURCE, _auto_axes, report_to_json, run
from gdim3.dimension import MAX, RULES, TABLE, compute
from gdim3.geometry import Geometry
from gdim3.model import description_to_json
from gdim3.orbifold2 import SURFACES

from oracles import auto_axis_words
from randgen import random_description

README = Path(__file__).resolve().parents[1] / "README.md"


def out(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


# --- compute ---

def test_compute_corpus_text(capsys):
    assert run(["compute", "corpus:rp3_rp3"]) == EX_OK
    stdout, _ = out(capsys)
    assert "gd(k = 2) = 0" in stdout
    assert "gd(k >= 3) = 0" in stdout


def test_compute_single_column_with_clamp_notice(capsys):
    assert run(["compute", "corpus:torus_bundle_elliptic", "--k", "7"]) == EX_OK
    stdout, stderr = out(capsys)
    assert "= 0" in stdout
    assert "stabilise at k = 3" in stderr


def test_compute_explain_prints_rule_ids(capsys):
    assert run(["compute", "corpus:rp3_rp3", "--explain"]) == EX_OK
    stdout, _ = out(capsys)
    assert "Thm1.1-case1" in stdout
    assert "Table1-row3" in stdout


def test_compute_json_report_shape(capsys):
    assert run(["compute", "corpus:e3_rp3", "--format", "json"]) == EX_OK
    stdout, _ = out(capsys)
    report = json.loads(stdout)
    assert set(report) == {"name", "k2", "k3plus", "rank_cap", "trace", "description"}
    assert (report["k2"], report["k3plus"], report["rank_cap"]) == (5, 2, 3)
    for entry in report["trace"]:
        assert set(entry) == {"family", "path", "rule", "inputs", "value"}
        assert entry["family"] in ("k2", "k3plus")
        assert entry["rule"] in RULES


def test_compute_reads_files(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "name": "m",
        "pieces": [{"kind": "geometric", "geometry": "Nil"}],
    }), encoding="utf-8")
    assert run(["compute", str(path)]) == EX_OK
    stdout, _ = out(capsys)
    assert "gd(k = 2) = 3" in stdout


def test_compute_rejects_invalid_descriptions(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad",
        "pieces": [{"kind": "spherical", "pi1_order": 0}],
    }), encoding="utf-8")
    assert run(["compute", str(path)]) == EX_DATA
    _, stderr = out(capsys)
    assert "pi1_order" in stderr


def test_compute_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert run(["compute", str(path)]) == EX_DATA


def test_compute_unknown_corpus_name(capsys):
    assert run(["compute", "corpus:zeta"]) == EX_DATA
    _, stderr = out(capsys)
    assert "zeta" in stderr


# --- validate ---

def test_validate_accepts_corpus(capsys):
    for name in corpus.names():
        assert run(["validate", f"corpus:{name}"]) == EX_OK
    stdout, _ = out(capsys)
    assert stdout.count("OK:") == len(corpus.names())


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad",
        "pieces": [{
            "kind": "jsj",
            "vertices": [{"kind": "hyperbolic_cusped", "cusps": 2}],
            "edges": [],
        }],
    }), encoding="utf-8")
    assert run(["validate", str(path)]) == EX_DATA
    stdout, stderr = out(capsys)
    assert stdout == ""
    assert stderr.startswith("error: the description does not validate\n")
    assert "  pieces[0].vertices[0]: boundary bookkeeping" in stderr


def both(path, capsys):
    """(exit code, stdout, stderr) of `compute` and of `validate` on one file."""
    results = []
    for command in ("compute", "validate"):
        code = run([command, str(path)])
        results.append((code, *out(capsys)))
    return results


def write(tmp_path, *pieces):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"name": "m", "pieces": list(pieces)}), encoding="utf-8")
    return path


MOBIUS = {"kind": "seifert_bounded", "base": {"surface": "projective-plane", "boundary": 1}}
ANNULUS = {"kind": "seifert_bounded", "base": {"genus": 0, "boundary": 2}}


def test_compute_and_validate_name_the_path_in_the_file(tmp_path, capsys):
    """A trivial summand before the bad piece shifts nothing: the path indexes the input."""
    path = write(tmp_path, {"kind": "spherical", "pi1_order": 1},
                 {"kind": "torus_bundle", "monodromy": [[2, 0], [0, 1]]})
    (code, stdout, stderr), validated = both(path, capsys)
    assert (code, stdout) == (EX_DATA, "")
    assert stderr == ("error: the description does not validate\n"
                      "  pieces[1].monodromy: monodromy determinant must be +1 or -1\n")
    assert validated == (code, stdout, stderr)


def test_the_klein_double_graph_is_accepted_by_compute_and_validate(tmp_path, capsys):
    path = write(tmp_path, {"kind": "jsj", "vertices": [MOBIUS, MOBIUS], "edges": [[0, 1]]})
    (code, stdout, stderr), (vcode, vstdout, vstderr) = both(path, capsys)
    assert (code, stderr) == (EX_OK, "")
    assert "gd(k = 2) = 2" in stdout and "gd(k >= 3) = 2" in stdout
    assert (vcode, vstdout, vstderr) == (EX_OK, "OK: m (1 piece(s))\n", "")


@pytest.mark.parametrize("graph,violation", [
    ({"kind": "jsj", "vertices": [dict(MOBIUS, b=7), MOBIUS], "edges": [[0, 1]]},
     "pieces[0].vertices[0].b: bounded Seifert data must not carry b"),
    ({"kind": "jsj", "vertices": [dict(ANNULUS, b=3)], "edges": [[0, 0]],
      "monodromy": [[2, 1], [1, 1]]},
     "pieces[0].vertices[0].b: bounded Seifert data must not carry b"),
    ({"kind": "jsj", "edges": [[0, 0]], "monodromy": [[2, 1], [1, 1]], "vertices": [
        {"kind": "seifert_bounded", "base": {"genus": 0, "nonorientable": True, "boundary": 2}}]},
     "pieces[0].vertices[0].base.genus: nonorientable surfaces have genus >= 1"),
    ({"kind": "jsj", "vertices": [{"kind": "hyperbolic_cusped", "cusps": 2}], "edges": [[0, 0]],
      "monodromy": [[2, 1], [1, 1]]},
     "pieces[0].monodromy: only a single torus-times-interval vertex glued to itself takes a "
     "monodromy"),
    ({"kind": "jsj", "vertices": [MOBIUS, MOBIUS], "edges": [[0, 1]],
      "monodromy": [[1, 0], [0, 1]]},
     "pieces[0].monodromy: only a single torus-times-interval vertex glued to itself takes a "
     "monodromy"),
])
def test_a_rewritable_graph_is_validated_before_it_is_rewritten(graph, violation, tmp_path,
                                                                capsys):
    (code, stdout, stderr), validated = both(write(tmp_path, graph), capsys)
    assert (code, stdout) == (EX_DATA, "")
    assert stderr == f"error: the description does not validate\n  {violation}\n"
    assert validated == (code, stdout, stderr)


# --- replay round-trip ---

def test_replay_reproduces_every_corpus_report(tmp_path, capsys):
    for name in corpus.names():
        path = tmp_path / f"{name}.json"
        path.write_text(
            json.dumps(report_to_json(compute(corpus.load(name)))), encoding="utf-8"
        )
        assert run(["replay", str(path)]) == EX_OK
    stdout, _ = out(capsys)
    assert stdout.count("replay OK") == len(corpus.names())


def test_replay_detects_tampering(tmp_path, capsys):
    report = report_to_json(compute(corpus.load("geometric_sol")))
    report["k3plus"] = 5
    path = tmp_path / "t.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    assert run(["replay", str(path)]) == EX_DATA
    stdout, _ = out(capsys)
    assert "MISMATCH" in stdout


def test_replay_needs_an_embedded_description(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"k2": 0}), encoding="utf-8")
    assert run(["replay", str(path)]) == EX_DATA


# --- matrix and orbifold front ends ---

def test_classify_matrix_parabolic(capsys):
    assert run(["classify-matrix", "1,1;0,1"]) == EX_OK
    stdout, _ = out(capsys)
    assert "parabolic" in stdout
    assert "Nil" in stdout
    assert "k = 2 -> 3" in stdout


def test_classify_matrix_negative_entries(capsys):
    assert run(["classify-matrix", "--", "-1,1;0,-1"]) == EX_OK
    stdout, _ = out(capsys)
    assert "KleinBottleGroup" in stdout


def test_classify_matrix_rejects_non_unimodular(capsys):
    assert run(["classify-matrix", "2,0;0,2"]) == EX_DATA


def test_classify_orbifold(capsys):
    assert run([
        "classify-orbifold", "--surface", "sphere",
        "--cone", "2", "--cone", "3", "--cone", "7",
    ]) == EX_OK
    stdout, _ = out(capsys)
    assert "S2(2,3,7)" in stdout
    assert "-1/42" in stdout
    assert "hyperbolic" in stdout


def test_classify_orbifold_flag_conflict(capsys):
    assert run(["classify-orbifold", "--surface", "torus", "--genus", "2"]) == EX_DATA


def test_classify_orbifold_general_surface(capsys):
    assert run(["classify-orbifold", "--genus", "1", "--nonorientable",
                "--boundary", "1"]) == EX_OK
    stdout, _ = out(capsys)
    assert "Mobius band" in stdout
    assert "flat" in stdout


@pytest.mark.parametrize("flags,base", [
    (["--genus", "-1"], {"genus": -1}),
    (["--nonorientable"], {"genus": 0, "nonorientable": True}),
    (["--boundary", "-1"], {"boundary": -1}),
    (["--cone", "1"], {"cone_orders": [1]}),
], ids=["genus", "nonorientable-genus", "boundary", "cone-order"])
def test_classify_orbifold_and_validate_word_a_bad_base_alike(flags, base, tmp_path, capsys):
    """Both commands refuse the base with the messages of the one base check."""
    assert run(["classify-orbifold", *flags]) == EX_DATA
    stdout, stderr = out(capsys)
    assert stdout == "" and stderr.startswith("error: ")
    refused = stderr[len("error: "):].rstrip("\n").split("; ")
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"name": "b", "pieces": [
        {"kind": "seifert_closed", "base": base, "cone_pairs": [[2, 1]] * 3, "b": 0}]}))
    assert run(["validate", str(path)]) == EX_DATA
    _, stderr = out(capsys)
    lines = re.findall(r"^  pieces\[0\]\.base\.\S+: (.*)$", stderr, re.MULTILINE)
    assert refused == lines and lines


# --- tree front ends ---

def test_ball_text_and_json(capsys):
    assert run(["ball", "--factors", "2,2", "--radius", "6"]) == EX_OK
    stdout, _ = out(capsys)
    assert "vertices: 13" in stdout
    assert run(["ball", "--factors", "2,3", "--radius", "2", "--format", "json"]) == EX_OK
    stdout, _ = out(capsys)
    obj = json.loads(stdout)
    assert len(obj["vertices"]) == 6
    assert len(obj["edges"]) == 5


def test_ball_limit_exit_code(capsys):
    assert run(["ball", "--factors", "2,3,4", "--radius", "9",
                "--max-vertices", "100"]) == EX_RESOURCE


def test_cone_off_with_bound(capsys):
    assert run([
        "cone-off", "--factors", "2,2,2", "--radius", "4", "--axes", "ab,bc,ac",
        "--budget", "4",
        "--assign", "vertex=0", "--assign", "cone_vertex=0", "--assign", "edge=0",
        "--assign", "cone_edge=0", "--assign", "face=0",
    ]) == EX_OK
    stdout, _ = out(capsys)
    assert "push-out dimension bound: 2" in stdout


def unbuilt(tree, name):
    """A TreeBall.__getattr__ that refuses to build the vertex table."""
    if name in ("vertices", "edges"):
        raise AssertionError(f"built the vertex table to read {name}")
    raise AttributeError(name)


def test_text_ball_never_builds_the_vertex_table(capsys, monkeypatch):
    """The text report counts the ball in closed form; only --list and --format json list
    the table."""
    monkeypatch.setattr(TreeBall, "__getattr__", unbuilt)
    argv = ["ball", "--factors", "2,3", "--radius", "40"]
    assert run(argv) == EX_OK
    stdout, _ = out(capsys)
    assert stdout == ("Z2 * Z3, ball of radius 40\n"
                      "vertices: 12277 (7162 element, 5115 coset)\nedges: 12276\n")
    for extra in (["--list"], ["--format", "json"]):
        with pytest.raises(AssertionError, match="built the vertex table to read vertices"):
            run(argv + extra)


def test_text_cone_off_never_builds_the_vertex_table(capsys, monkeypatch):
    """The text report counts the cells in closed form; only --format json walks the ball."""
    monkeypatch.setattr(TreeBall, "__getattr__", unbuilt)
    argv = ["cone-off", "--factors", "2,3", "--radius", "40", "--budget", "2",
            "--assign", "vertex=0", "--assign", "cone_vertex=0", "--assign", "edge=0",
            "--assign", "cone_edge=0", "--assign", "face=0"]
    assert run(argv) == EX_OK
    stdout, _ = out(capsys)
    assert "  vertex: 12277 cell(s)\n  cone_vertex: 2 cell(s)\n  edge: 12276 cell(s)\n" in stdout
    assert "push-out dimension bound: 2" in stdout
    with pytest.raises(AssertionError, match="built the vertex table to read vertices"):
        run(argv + ["--format", "json"])


@pytest.mark.parametrize("argv", [
    ["ball"], ["ball", "--list"], ["ball", "--format", "json"],
    ["cone-off"], ["cone-off", "--format", "json"],
    ["cone-off", "--assign", "vertex=0", "--assign", "cone_vertex=0", "--assign", "edge=0",
     "--assign", "cone_edge=0", "--assign", "face=0"],
], ids=" ".join)
def test_each_tree_command_counts_its_ball_once(argv, capsys, monkeypatch):
    """The counts that ball() compared with the cap are the ones the report reads."""
    from gdim3 import bass_serre

    walks = []
    real = bass_serre._ball_size
    monkeypatch.setattr(bass_serre, "_ball_size", lambda *args: walks.append(args) or real(*args))
    assert run([*argv, "--factors", "2,3", "--radius", "6"]) == EX_OK
    assert len(walks) == 1


def test_cone_off_missing_assignment(capsys):
    assert run([
        "cone-off", "--factors", "2,2", "--radius", "6", "--axes", "ab",
        "--assign", "vertex=0",
    ]) == EX_DATA
    _, stderr = out(capsys)
    assert "no assigned value" in stderr


ALL_ZERO = [f"{cls}=0" for cls in ("vertex", "cone_vertex", "edge", "cone_edge", "face")]


@pytest.mark.parametrize("items,message", [
    (ALL_ZERO + ["fase=9"], "--assign names no cell class "
                            "(vertex, cone_vertex, edge, cone_edge, face): 'fase=9'"),
    (ALL_ZERO + ["vertex=1"], "--assign gives class 'vertex' a second value: 'vertex=1'"),
    (ALL_ZERO[:-1] + ["face=1_0"], "--assign value must be a decimal integer >= 0, got 'face=1_0'"),
    (ALL_ZERO[:-1] + ["face=-1"], "--assign value must be a decimal integer >= 0, got 'face=-1'"),
])
def test_cone_off_refuses_bad_assignments(items, message, capsys):
    argv = ["cone-off", "--factors", "2,2", "--radius", "4", "--axes", "ab"]
    assert run(argv + [arg for item in items for arg in ("--assign", item)]) == EX_DATA
    stdout, stderr = out(capsys)
    assert message in stderr and stdout == ""


def test_cone_off_rejects_elliptic_axis_words(capsys):
    assert run(["cone-off", "--factors", "2,3", "--radius", "4",
                "--axes", "b"]) == EX_DATA
    _, stderr = out(capsys)
    assert "elliptic" in stderr


@pytest.mark.parametrize("orders", [
    (2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 4), (2, 2, 3), (5, 2), (4, 4), (2, 2, 2, 2),
], ids=str)
def test_auto_axes_are_those_of_the_enumerated_hyperbolic_words(orders):
    """`--axes auto` builds the two-syllable words directly; the oracle filters every word of
    at most two syllables.  Both give the same axes, in the same order."""
    spec = FreeProductSpec(orders)
    for radius in range(9):
        tree = ball(spec, radius)
        expected, seen = [], set()
        for word in auto_axis_words(spec):
            axis = axis_of(tree, word)
            if axis is not None and frozenset(axis) not in seen:
                seen.add(frozenset(axis))
                expected.append(axis)
        assert _auto_axes(tree) == expected, radius


def test_cone_off_json(capsys):
    assert run(["cone-off", "--factors", "2,2", "--radius", "4",
                "--axes", "auto", "--format", "json"]) == EX_OK
    stdout, _ = out(capsys)
    obj = json.loads(stdout)
    assert obj["axes"] and all(a["consistent"] for a in obj["axes"])
    assert any(c["class"] == "face" for c in obj["cells"])


@pytest.mark.parametrize("argv,message", [
    (["ball", "--factors", "2,3", "--radius", "-1"], "argument --radius: must be >= 0, got -1"),
    (["cone-off", "--factors", "2,3", "--radius", "-1"], "argument --radius: must be >= 0"),
    (["cone-off", "--factors", "2,3", "--radius", "4", "--budget", "-3"],
     "argument --budget: must be >= 0, got -3"),
    (["ball", "--factors", "2,3", "--radius", "two"], "expected an integer >= 0, got 'two'"),
])
def test_negative_radius_and_budget_are_refused(argv, message, capsys):
    with pytest.raises(SystemExit) as raised:
        run(argv)
    assert raised.value.code == EX_DATA
    stdout, stderr = out(capsys)
    assert message in stderr and stdout == ""


@pytest.mark.parametrize("argv,message", [
    (["ball", "--factors", "2,3", "--radius", "2", "--max-vertices", "-1"],
     "argument --max-vertices: must be >= 1, got -1"),
    (["ball", "--factors", "2,3", "--radius", "0", "--max-vertices", "0"],
     "argument --max-vertices: must be >= 1, got 0"),
    (["cone-off", "--factors", "2,3", "--radius", "4", "--max-vertices", "0"],
     "argument --max-vertices: must be >= 1, got 0"),
    (["ball", "--factors", "2,3", "--radius", "2", "--max-vertices", "1e3"],
     "argument --max-vertices: expected an integer >= 1, got '1e3'"),
    (["probe-normalizer", "--monodromy", "2,1;1,1", "--element", "1,0,0", "--bound", "8"],
     "unrecognized arguments: --bound 8"),
])
def test_vertex_caps_and_probe_bounds_below_one_are_refused(argv, message, capsys):
    with pytest.raises(SystemExit) as raised:
        run(argv)
    assert raised.value.code == EX_DATA
    stdout, stderr = out(capsys)
    assert message in stderr and stdout == ""


def test_a_vertex_cap_of_one_is_accepted(capsys):
    assert run(["ball", "--factors", "2,3", "--radius", "0", "--max-vertices", "1"]) == EX_OK
    assert "vertices: 1 " in out(capsys)[0]
    assert run(["ball", "--factors", "2,3", "--radius", "1", "--max-vertices", "1"]) \
        == EX_RESOURCE
    assert "exceeds 1 vertices" in out(capsys)[1]


def test_zero_radius_and_budget_are_accepted(capsys):
    assert run(["ball", "--factors", "2,3", "--radius", "0"]) == EX_OK
    assert "vertices: 1 " in out(capsys)[0]
    assert run(["cone-off", "--factors", "2,3", "--radius", "6", "--axes", "ab",
                "--budget", "0"]) == EX_OK
    assert "word budget 0" in out(capsys)[0]


def test_probe_normalizer(capsys):
    assert run(["probe-normalizer", "--monodromy", "2,1;1,1",
                "--element", "0,0,1"]) == EX_OK
    stdout, _ = out(capsys)
    assert "rank: 1" in stdout
    assert run(["probe-normalizer", "--monodromy", "2,1;1,1",
                "--element", "1,0,0"]) == EX_OK
    stdout, _ = out(capsys)
    assert "rank: 2" in stdout


def test_probe_normalizer_equals_form_for_negative_entries(capsys):
    assert run(["probe-normalizer", "--monodromy=-2,-1;-1,-1",
                "--element=3,-2,0"]) == EX_OK
    stdout, _ = out(capsys)
    assert "rank: 2" in stdout


def test_probe_normalizer_accepts_mixed_elements(capsys):
    assert run(["probe-normalizer", "--monodromy", "2,1;1,1",
                "--element", "1,2,3"]) == EX_OK
    stdout, _ = out(capsys)
    assert stdout.splitlines()[1:] == [
        "normaliser rank: 1",
        "  det(A^3 - I) = -16 != 0: (u, m) normalises <c> only if (I - A^3)u = (I - A^m)v, "
        "which fixes u given m",
        "  normaliser of <((1, 2), 3)> is <((1, 2), 3)> (rank 1), containing it with index 1",
    ]


def test_probe_normalizer_shows_a_huge_integer_by_its_digit_count(capsys):
    """det(A^12000 - I) has 5016 digits, past Python's cap on printing an integer."""
    assert run(["probe-normalizer", "--monodromy", "2,1;1,1",
                "--element", "0,0,12000"]) == EX_OK
    stdout, stderr = out(capsys)
    assert stderr == "" and stdout.splitlines()[1:] == [
        "normaliser rank: 1",
        "  det(A^12000 - I) = -<5016 digits> != 0: (u, m) normalises <c> only if "
        "(I - A^12000)u = (I - A^m)v, which fixes u given m",
        "  normaliser of <((0, 0), 12000)> is <((0, 0), 1)> (rank 1), "
        "containing it with index 12000",
    ]


def test_probe_normalizer_rejects_elliptic_monodromy(capsys):
    assert run(["probe-normalizer", "--monodromy", "0,-1;1,0",
                "--element", "0,0,1"]) == EX_DATA


# --- corpus and documentation links ---

def test_corpus_listing(capsys):
    assert run(["corpus"]) == EX_OK
    stdout, _ = out(capsys)
    for name in corpus.names():
        assert name in stdout


def test_rules_listing(capsys):
    assert run(["rules"]) == EX_OK
    stdout, _ = out(capsys)
    for rule in RULES:
        assert rule in stdout


def readme_rule_table():
    """Rule id -> (k = 2, k >= 3) value pair, read from the README rule table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| rule id | meaning | value |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rule, _, value = (cell.strip() for cell in line.strip("|").split("|"))
        if value == "max":
            pair = (MAX, MAX)
        elif "/" in value:
            pair = tuple(int(v) for v in value.split("/"))
        else:
            pair = (int(value), int(value))
        table[rule.strip("`")] = pair
    return table


def test_readme_rule_table_matches_the_engine_table():
    readme = readme_rule_table()
    assert list(readme) == list(TABLE)
    for rule, pair in readme.items():
        assert pair == TABLE[rule][:2], rule


def readme_blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"```{language}\n(.*?)```", text, flags=re.S)


def readme_examples():
    """(argv, lines shown before `...`, lines shown after it) per `$ gdim3` example."""
    examples = []
    for block in readme_blocks("sh"):
        for chunk in re.split(r"^\$ ", block.replace("\\\n", " "), flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            lexer = shlex.shlex(command, posix=True, punctuation_chars=True)
            lexer.whitespace_split = True
            argv = list(lexer)
            assert argv[0] == "gdim3", command
            assert not any(set(arg) <= set(lexer.punctuation_chars) for arg in argv), command
            marker = [i for i, line in enumerate(shown) if line.strip() == "..."]
            if marker:
                examples.append((argv[1:], shown[:marker[0]], shown[marker[0] + 1:]))
            else:
                examples.append((argv[1:], shown, None))
    return examples


def test_readme_examples_match_the_cli(capsys):
    examples = readme_examples()
    assert len(examples) == 7
    for argv, head, tail in examples:
        assert run(argv) == EX_OK, argv
        lines = out(capsys)[0].splitlines()
        if tail is None:
            assert lines == head, argv
        else:
            assert lines[:len(head)] == head, argv
            assert lines[len(lines) - len(tail):] == tail, argv
    (python,) = readme_blocks("python")
    exec(python, {})


def test_every_corpus_trace_rule_is_documented():
    text = README.read_text(encoding="utf-8")
    for name in corpus.names():
        report = report_to_json(compute(corpus.load(name)))
        for entry in report["trace"]:
            assert entry["rule"] in text


def test_compute_reads_the_readme_surface_field(tmp_path, capsys):
    path = tmp_path / "t3.json"
    path.write_text(json.dumps({"name": "t3", "pieces": [{
        "kind": "seifert_closed", "base": {"surface": "torus", "cone_orders": []},
        "cone_pairs": [], "b": 0,
    }]}), encoding="utf-8")
    assert run(["compute", str(path)]) == EX_OK
    stdout, _ = out(capsys)
    assert "gd(k = 2) = 5" in stdout and "gd(k >= 3) = 0" in stdout


def test_compute_refuses_conflicting_base_fields(tmp_path, capsys):
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps({"name": "c", "pieces": [{
        "kind": "seifert_closed", "base": {"surface": "torus", "nonorientable": True},
        "cone_pairs": [], "b": 0,
    }]}), encoding="utf-8")
    assert run(["compute", str(path)]) == EX_DATA
    _, stderr = out(capsys)
    assert "disagree on orientable" in stderr


INVALID = "error: the description does not validate\n"


@pytest.mark.parametrize("name", ['{"a": 1}', "null", "3"])
def test_compute_refuses_a_name_that_is_not_a_string(name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": ' + name + ', "pieces": [{"kind": "spherical", "pi1_order": 2}]}',
                    encoding="utf-8")
    for command in ("compute", "validate"):
        assert run([command, str(path)]) == EX_DATA
        stdout, stderr = out(capsys)
        assert stdout == "" and stderr.startswith(INVALID + "  name: expected a string, got ")


@pytest.mark.parametrize("order", ['"x"', "true", "2.7", None])
def test_compute_refuses_a_non_integer_or_missing_group_order(order, tmp_path, capsys):
    """A missing order is the reader's refusal; a wrongly typed one is validate's."""
    piece = '{"kind": "spherical"' + ("" if order is None else f', "pi1_order": {order}') + "}"
    path = tmp_path / "bad.json"
    path.write_text('{"name": "bad", "pieces": [' + piece + "]}", encoding="utf-8")
    for command in ("compute", "validate"):
        assert run([command, str(path)]) == EX_DATA
        stdout, stderr = out(capsys)
        expected = ("error: pieces[0].pi1_order: missing\n" if order is None else INVALID
                    + f"  pieces[0].pi1_order: expected an integer, got {json.loads(order)!r}\n")
        assert stdout == "" and stderr == expected


def test_every_wrongly_typed_field_is_listed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": 7, "pieces": [
        {"kind": "spherical", "pi1_order": 2.0},
        {"kind": "seifert_closed", "base": {"genus": 1}, "cone_pairs": [[2, 1], [3, "1"]],
         "b": True},
        {"kind": "jsj", "vertices": [{"kind": "hyperbolic_cusped", "cusps": 2}],
         "edges": [[0, 0], [0, None]]},
    ]}), encoding="utf-8")
    for command in ("compute", "validate"):
        assert run([command, str(path)]) == EX_DATA
        assert out(capsys) == ("", INVALID + "".join(f"  {line}\n" for line in [
            "name: expected a string, got 7",
            "pieces[0].pi1_order: expected an integer, got 2.0",
            "pieces[1].cone_pairs[1][1]: expected an integer, got '1'",
            "pieces[1].b: expected an integer, got True",
            "pieces[2].edges[1][1]: expected an integer, got None",
        ]))


@pytest.mark.parametrize("command", ["compute", "validate", "replay"])
@pytest.mark.parametrize("text,key", [
    ('{"name": "d", "pieces": [{"kind": "spherical", "pi1_order": 0, "pi1_order": 2}]}',
     "pi1_order"),
    ('{"name": "d", "pieces": [{"kind": "spherical", "pi1_order": 2}], "pieces": []}', "pieces"),
    ('{"k2": 0, "description": {"name": "d", "name": "e", "pieces": []}}', "name"),
], ids=["piece-field", "pieces", "report-description-name"])
def test_a_repeated_key_is_refused(command, text, key, tmp_path, capsys):
    """JSON keeps the last of two equal keys; a description must not lose the first silently."""
    path = tmp_path / "twice.json"
    path.write_text(text, encoding="utf-8")
    assert run([command, str(path)]) == EX_DATA
    assert out(capsys) == ("", f"error: {path}: duplicate key {key!r}\n")


@pytest.mark.parametrize("command", ["compute", "validate", "replay"])
@pytest.mark.parametrize("unreadable", ["directory", "invalid-utf8", "deep-nesting", "huge-integer"])
def test_unreadable_input_is_refused_without_a_traceback(command, unreadable, tmp_path, capsys):
    path = tmp_path
    if unreadable == "invalid-utf8":
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff{}")
    elif unreadable == "deep-nesting":
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
    elif unreadable == "huge-integer":
        path = tmp_path / "huge.json"
        path.write_text('{"name": "huge", "pieces": [{"kind": "spherical", "pi1_order": '
                        + "7" * 5_000 + "}]}", encoding="utf-8")
    assert run([command, str(path)]) == EX_DATA
    stdout, stderr = out(capsys)
    assert stdout == "" and stderr.startswith(f"error: {path}: ")


# --- fuzzing the JSON reader ---

_KINDS = ["spherical", "geometric", "torus_bundle", "klein_double", "seifert_closed",
          "seifert_bounded", "hyperbolic_cusped", "jsj", "lens_space"]
_FIELDS = ["kind", "name", "pieces", "pi1_order", "geometry", "cusps", "monodromy", "base",
           "surface", "genus", "orientable", "nonorientable", "boundary", "boundary_count",
           "cone_orders", "cone_pairs", "b", "vertices", "edges", "description", "k2"]
_SMALL = st.integers(-1, 6)
_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _SMALL, st.integers(), st.floats(), st.text(max_size=4)),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


def _mostly(plausible):
    """The plausible value five times in six, else any JSON value."""
    return st.sampled_from([plausible] * 5 + [_VALUES]).flatmap(lambda strategy: strategy)


def _piece(vertex):
    """A dict shaped like a piece: a known kind, fields that are mostly plausible."""
    row = _mostly(st.lists(_SMALL, min_size=2, max_size=2))
    return st.fixed_dictionaries({"kind": _mostly(st.sampled_from(_KINDS))}, optional={
        "pi1_order": _mostly(_SMALL),
        "geometry": _mostly(st.sampled_from([g.value for g in Geometry])),
        "cusps": _mostly(_SMALL),
        "monodromy": _mostly(st.lists(row, min_size=2, max_size=2)),
        "base": _mostly(st.fixed_dictionaries({}, optional={
            "surface": _mostly(st.sampled_from(sorted(SURFACES))),
            "genus": _SMALL, "orientable": st.booleans(), "nonorientable": st.booleans(),
            "boundary": _SMALL, "boundary_count": _SMALL,
            "cone_orders": _mostly(st.lists(_SMALL, max_size=3)),
        })),
        "cone_pairs": _mostly(st.lists(row, max_size=3)),
        "b": _mostly(_SMALL),
        "vertices": _mostly(st.lists(vertex, max_size=3)),
        "edges": _mostly(st.lists(st.lists(st.integers(-1, 3), min_size=2, max_size=2),
                                  max_size=3)),
    })


_DESCRIPTIONS = st.fixed_dictionaries({
    "name": _mostly(st.text(max_size=4)),
    "pieces": _mostly(st.lists(_piece(_piece(_VALUES)), min_size=1, max_size=3)),
})
_DOCUMENTS = st.one_of(
    _DESCRIPTIONS,
    st.fixed_dictionaries({"description": _DESCRIPTIONS},
                          optional={"k2": _VALUES, "trace": _VALUES}),
    _VALUES,
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=_DOCUMENTS)
def test_any_json_document_exits_0_or_2(document, tmp_path, capsys):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    codes, errors = {}, {}
    for command in ("compute", "validate", "replay"):
        codes[command] = run([command, str(path)])
        errors[command] = capsys.readouterr().err
    assert set(codes.values()) <= {EX_OK, EX_DATA}, (codes, document)
    assert codes["compute"] == codes["validate"], (codes, document)
    assert errors["compute"] == errors["validate"], (errors, document)


def _permuted(obj: dict, data) -> dict:
    """`obj` with its cone pairs, cone orders and edge ends in orders drawn from `data`."""
    for piece in obj["pieces"]:
        for part in [piece, *piece.get("vertices", ())]:
            if "cone_pairs" in part:
                part["cone_pairs"] = data.draw(st.permutations(part["cone_pairs"]))
                if "cone_orders" in part["base"]:
                    part["base"]["cone_orders"] = data.draw(
                        st.permutations(part["base"]["cone_orders"]))
        if "edges" in piece:
            piece["edges"] = [data.draw(st.permutations(edge)) for edge in piece["edges"]]
    return obj


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10_000), data=st.data())
def test_permuting_cone_data_and_edge_ends_keeps_the_json_report(seed, data, tmp_path, capsys):
    """Records keep the order written; the report writes it ascending, byte for byte."""
    written = description_to_json(random_description(seed))
    reports = []
    for obj in (written, _permuted(copy.deepcopy(written), data)):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert run(["compute", str(path), "--format", "json"]) == EX_OK
        reports.append(out(capsys))
    assert reports[0] == reports[1]


def exit_code(argv):
    """What `gdim3 argv` exits with, whether argparse or a handler refuses."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv,message", [
    (["compute", "corpus:e3_rp3", "--k", "1"], "argument --k: --k must be >= 2"),
    (["compute", "corpus:e3_rp3", "--k", "x"],
     "argument --k: --k must be 'all' or an integer >= 2, got 'x'"),
    (["replay", "missing.json"], "error: [Errno 2] No such file or directory: 'missing.json'"),
    (["replay", "broken.json"], "error: broken.json: Expecting property name"),
    (["replay", "invalid.json"],
     "error: the description does not validate\n  pieces[0].pi1_order: group order must be >= 1"),
    (["classify-orbifold", "--cone", "1"], "error: cone orders must be >= 2"),
    (["classify-orbifold", "--genus", "-1"], "error: genus must be >= 0"),
    (["classify-orbifold", "--boundary", "-1"], "error: boundary_count must be >= 0"),
    (["classify-orbifold", "--nonorientable"], "error: nonorientable surfaces have genus >= 1"),
    (["probe-normalizer", "--monodromy", "2,1;1,1", "--element", "1,2"],
     "error: --element expects x,y,l, got '1,2'"),
    (["probe-normalizer", "--monodromy", "2,1;1,1", "--element", "a,b,c"],
     "error: --element expects integers x,y,l, got 'a,b,c'"),
    (["cone-off", "--factors", "2,2", "--radius", "3", "--axes", "abab"],
     "error: the axis of 'abab' is not visible at radius 3"),
    (["cone-off", "--factors", "2,2", "--radius", "1", "--axes", "auto"],
     "error: no axis is visible at this radius; increase --radius"),
    (["cone-off", "--factors", "2,2", "--radius", "3", "--axes", "a!b"],
     "error: bad word syntax at '!b'"),
    (["probe-normalizer", "--monodromy", "1,0;0,2", "--element", "0,0,1"],
     "error: determinant of 1,0;0,2 is 2, must be +1 or -1"),
    (["validate", "ambiguous.json"], "error: pieces[0]: a torus-times-interval vertex glued to "
     "itself is a torus bundle; supply the gluing monodromy on the graph piece"),
    (["compute", "ambiguous.json"], "error: pieces[0]: a torus-times-interval vertex glued to "
     "itself is a torus bundle; supply the gluing monodromy on the graph piece"),
    (["probe-normalizer", "--monodromy", "2,1;1,1", "--element", "0,0,0"],
     "error: the identity generates no infinite cyclic subgroup"),
    (["compute", "corpus:../corpus/rp3_rp3"],
     "error: no bundled description named '../corpus/rp3_rp3'; see `gdim3 corpus`"),
    (["probe-normalizer", "--monodromy", "2,1;1,1", "--element", "1,0,100001"],
     "error: element l: |l| = 100001 is above the probe's cap of 100000 "
     "(A^l has a number of digits proportional to |l|)"),
    (["probe-normalizer", "--monodromy", "2,1;1,1", "--element", "1,0,-100001"],
     "error: element l: |l| = 100001 is above the probe's cap of 100000 "
     "(A^l has a number of digits proportional to |l|)"),
])
def test_bad_arguments_and_inputs_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.json").write_text("{not json", encoding="utf-8")
    (tmp_path / "invalid.json").write_text(json.dumps({"k2": 0, "description": {
        "name": "bad", "pieces": [{"kind": "spherical", "pi1_order": 0}],
    }}), encoding="utf-8")
    (tmp_path / "ambiguous.json").write_text(json.dumps({"name": "a", "pieces": [{
        "kind": "jsj", "edges": [[0, 0]], "vertices": [
            {"kind": "seifert_bounded", "base": {"genus": 0, "boundary": 2}}],
    }]}), encoding="utf-8")
    assert exit_code(argv) == EX_DATA
    stdout, stderr = out(capsys)
    assert stdout == "" and message in stderr
