"""The compute path never loads the Bass-Serre certificate machinery.

`gdim3.bass_serre` is imported on first use: by the certificate commands
of the CLI and by the package's module `__getattr__`.  The public names
stay importable from `gdim3`.
"""
import os
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
"""


def test_the_compute_commands_never_import_bass_serre(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", COMPUTE_COMMANDS, str(tmp_path / "report.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert {"gdim3.cli", "gdim3.dimension", "gdim3.model"} <= set(loaded)
    assert "gdim3.bass_serre" not in loaded


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


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gdim3.no_such_name
    assert not hasattr(gdim3, "no_such_name")
    with pytest.raises(ImportError):
        from gdim3 import no_such_name  # noqa: F401
