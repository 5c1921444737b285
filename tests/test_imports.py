"""The compute path never loads the Bass-Serre certificate machinery.

`gdim3.bass_serre` is imported on first use: by the certificate commands
of the CLI and by the package's module `__getattr__`.  The public names
stay importable from `gdim3`.  No command loads `dataclasses` or the
`inspect` module it pulls in: the value types are `_record.Record`s.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gdim3

SRC = Path(__file__).resolve().parents[1] / "src"

COMPUTE_COMMANDS = """
import contextlib, io, sys
from gdim3 import cli

def run(*argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.run(list(argv))
    if code != 0:
        raise SystemExit(f"gdim3 {' '.join(argv)} exited {code}")
    return buffer.getvalue()

report = sys.argv[1]
with open(report, "w", encoding="utf-8") as handle:
    handle.write(run("compute", "corpus:e3_rp3", "--format", "json"))
run("compute", "corpus:e3_rp3")
run("validate", "corpus:e3_rp3")
run("replay", report)
run("corpus")
run("rules")
run("classify-matrix", "2,1;1,1")
run("classify-orbifold", "--surface", "sphere", "--cone", "2", "--cone", "3")
print(" ".join(sorted(name for name in sys.modules if name.startswith("gdim3"))))
print(" ".join(sorted(name for name in ("dataclasses", "inspect") if name in sys.modules)))
"""

CERTIFICATE_COMMAND = """
import contextlib, io, sys
from gdim3 import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
if code != 0:
    raise SystemExit(f"gdim3 {' '.join(sys.argv[1:])} exited {code}")
print(" ".join(sorted(name for name in sys.modules if name.startswith("gdim3"))))
print(" ".join(sorted(name for name in ("dataclasses", "inspect") if name in sys.modules)))
"""


def _fresh_run(code: str, *args: str):
    """The gdim3 modules and the modules of {dataclasses, inspect} a fresh process loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code, *args],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    gdim3_modules, unwanted = result.stdout.split("\n")[:2]
    return set(gdim3_modules.split()), unwanted.split()


def test_the_compute_commands_never_import_bass_serre(tmp_path):
    loaded, unwanted = _fresh_run(COMPUTE_COMMANDS, str(tmp_path / "report.json"))
    assert {"gdim3.cli", "gdim3.dimension", "gdim3.model"} <= loaded
    assert "gdim3.bass_serre" not in loaded
    assert unwanted == []


@pytest.mark.parametrize("argv", [
    ["ball", "--factors", "2,3", "--radius", "3"],
    ["cone-off", "--factors", "2,2,2", "--radius", "4", "--axes", "ab,bc,ac"],
], ids=["ball", "cone-off"])
def test_the_certificate_commands_never_import_dataclasses(argv):
    loaded, unwanted = _fresh_run(CERTIFICATE_COMMAND, *argv)
    assert "gdim3.bass_serre" in loaded
    assert unwanted == []


def test_every_public_name_resolves():
    from gdim3 import bass_serre, cone_off

    assert gdim3.bass_serre is bass_serre and cone_off is bass_serre.cone_off
    for name in gdim3.__all__:
        assert getattr(gdim3, name) is not None, name
    for name in gdim3._BASS_SERRE_NAMES:
        assert getattr(gdim3, name) is getattr(bass_serre, name), name
    assert gdim3._BASS_SERRE_NAMES <= set(gdim3.__all__) <= set(dir(gdim3))
    namespace: dict = {}
    exec("from gdim3 import *", namespace)
    assert set(gdim3.__all__) <= set(namespace)


PUBLIC = {
    # the README-documented calls
    "compute", "ball", "axis_of", "setwise_axis_stabilizer", "cone_off",
    "pushout_dimension_bound", "normalizer_probe",
    # the types needed to make them
    "ManifoldDescription", "DimensionReport", "FreeProductSpec", "SemidirectSpec", "Mat2Z",
    # the exceptions they raise
    "DescriptionFormatError", "InvalidDescription", "NormalizationAmbiguous",
    "UnsupportedPiece", "InvalidDeterminant", "BallLimitExceeded", "MissingAssignment",
    "NotHyperbolic", "UnsupportedElement",
}


def test_the_top_level_names_are_the_documented_api():
    assert len(gdim3.__all__) == len(PUBLIC) == 21
    assert set(gdim3.__all__) == PUBLIC
    assert gdim3._BASS_SERRE_NAMES == PUBLIC - set(vars(gdim3))
    assert len(gdim3._BASS_SERRE_NAMES) == 12


def test_every_top_level_name_in_the_readme_is_public():
    """`gdim3.X` and `from gdim3 import X` in the README, submodules aside, name public API."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\bgdim3\.(\w+)", readme))
    for imported in re.findall(r"^from gdim3 import (.+)$", readme, re.MULTILINE):
        named.update(name.strip() for name in imported.split(","))
    package = SRC / "gdim3"
    named = {name for name in named
             if not (package / f"{name}.py").exists() and not (package / name).is_dir()}
    assert named == PUBLIC


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gdim3.no_such_name
    assert not hasattr(gdim3, "no_such_name")
    with pytest.raises(ImportError):
        from gdim3 import no_such_name  # noqa: F401
