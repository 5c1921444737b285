"""Golden outputs: stored reports and tree certificates must not change by a byte.

Stored reports are replay certificates, so their exact text is part of
the interface.  `tests/golden/corpus/<name>.json` holds the full stdout
of `gdim3 compute --format json` for every bundled description;
`tests/golden/randgen_sha256.json` maps each `randgen` seed in `SEEDS`
to the sha256 of the stdout for that seed's description, written to a
file and passed to `compute`.  `tests/golden/certificates/<name>.txt`
holds the full stdout of every `ball` and `cone-off` call in
`CERTIFICATES`: tree balls, axes and cell stabiliser records of small
free products at several radii and word budgets.

A deliberate change of the report format rewrites the goldens with
`PYTHONPATH=src python tests/test_golden.py`; any other difference is a
regression.
"""
import hashlib
import json
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from gdim3 import corpus
from gdim3.cli import EX_OK, run
from gdim3.model import description_to_json

from randgen import random_description

GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDS = range(500)

# (factors, radius, explicit axes): the explicit words include conjugates
# whose axes miss the base vertex
CERTIFICATE_BALLS = (
    ("2,2", 6, "ab,abab"),
    ("2,3", 6, "ab,ab2,bab"),
    ("2,3", 10, "ab,ab2,bab,babab"),
    ("3,3", 5, "ab,ab2,a2b,bab"),
    ("2,2,2", 4, "ab,bc,ac,cabc"),
    ("2,2,2", 6, "ab,bc,ac,cabc,abcb"),
)
ASSIGN_ALL = [arg for cls in ("vertex", "cone_vertex", "edge", "cone_edge", "face")
              for arg in ("--assign", f"{cls}=0")]


def certificate_commands():
    """(golden name, argv) for every certificate output under the gate."""
    for factors, radius, axes in CERTIFICATE_BALLS:
        stem = f"{factors.replace(',', '_')}_r{radius}"
        where = ["--factors", factors, "--radius", str(radius)]
        yield f"ball_{stem}_json", ["ball", *where, "--format", "json"]
        yield f"ball_{stem}_list", ["ball", *where, "--list"]
        for budget in range(2, 6):
            cone = ["cone-off", *where, "--budget", str(budget), "--format", "json"]
            yield f"cone_{stem}_b{budget}_explicit", [*cone, "--axes", axes]
            yield f"cone_{stem}_b{budget}_auto", [*cone, "--axes", "auto"]
            yield f"cone_{stem}_b{budget}_assign", [*cone, "--axes", axes, *ASSIGN_ALL]


def cli_stdout(argv) -> bytes:
    buffer = StringIO()
    with redirect_stdout(buffer):
        code = run(list(argv))
    assert code == EX_OK, argv
    return buffer.getvalue().encode("utf-8")


def compute_json(target: str) -> bytes:
    return cli_stdout(["compute", target, "--format", "json"])


def seed_report(seed: int, directory: Path) -> bytes:
    path = directory / f"random_{seed}.json"
    path.write_text(json.dumps(description_to_json(random_description(seed))), encoding="utf-8")
    return compute_json(str(path))


def test_corpus_reports_are_byte_identical():
    stored = sorted(p.stem for p in (GOLDEN / "corpus").glob("*.json"))
    assert stored == corpus.names()
    differing = [
        name for name in stored
        if compute_json(f"corpus:{name}") != (GOLDEN / "corpus" / f"{name}.json").read_bytes()
    ]
    assert not differing, f"corpus reports differ from the goldens: {differing}"


def test_random_reports_match_their_digests(tmp_path):
    digests = json.loads((GOLDEN / "randgen_sha256.json").read_text(encoding="utf-8"))
    assert list(digests) == [str(seed) for seed in SEEDS]
    differing = [
        seed for seed in SEEDS
        if hashlib.sha256(seed_report(seed, tmp_path)).hexdigest() != digests[str(seed)]
    ]
    assert not differing, f"randgen seeds whose reports differ from the goldens: {differing}"


def test_certificate_outputs_are_byte_identical():
    commands = dict(certificate_commands())
    stored = sorted(p.stem for p in (GOLDEN / "certificates").glob("*.txt"))
    assert stored == sorted(commands)
    differing = [
        name for name, argv in commands.items()
        if cli_stdout(argv) != (GOLDEN / "certificates" / f"{name}.txt").read_bytes()
    ]
    assert not differing, f"certificate outputs differ from the goldens: {differing}"


def write_goldens() -> None:
    import tempfile

    (GOLDEN / "corpus").mkdir(parents=True, exist_ok=True)
    for name in corpus.names():
        (GOLDEN / "corpus" / f"{name}.json").write_bytes(compute_json(f"corpus:{name}"))
    (GOLDEN / "certificates").mkdir(parents=True, exist_ok=True)
    for name, argv in certificate_commands():
        (GOLDEN / "certificates" / f"{name}.txt").write_bytes(cli_stdout(argv))
    with tempfile.TemporaryDirectory() as scratch:
        digests = {
            str(seed): hashlib.sha256(seed_report(seed, Path(scratch))).hexdigest()
            for seed in SEEDS
        }
    (GOLDEN / "randgen_sha256.json").write_text(json.dumps(digests, indent=1) + "\n",
                                                 encoding="utf-8")


if __name__ == "__main__":
    write_goldens()
