"""Golden reports: `gdim3 compute --format json` must not change by a byte.

Stored reports are replay certificates, so their exact text is part of
the interface.  `tests/golden/corpus/<name>.json` holds the full stdout
for every bundled description; `tests/golden/randgen_sha256.json` maps
each `randgen` seed in `SEEDS` to the sha256 of the stdout for that
seed's description, written to a file and passed to `compute`.

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


def compute_json(target: str) -> bytes:
    buffer = StringIO()
    with redirect_stdout(buffer):
        code = run(["compute", target, "--format", "json"])
    assert code == EX_OK, target
    return buffer.getvalue().encode("utf-8")


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


def write_goldens() -> None:
    import tempfile

    (GOLDEN / "corpus").mkdir(parents=True, exist_ok=True)
    for name in corpus.names():
        (GOLDEN / "corpus" / f"{name}.json").write_bytes(compute_json(f"corpus:{name}"))
    with tempfile.TemporaryDirectory() as scratch:
        digests = {
            str(seed): hashlib.sha256(seed_report(seed, Path(scratch))).hexdigest()
            for seed in SEEDS
        }
    (GOLDEN / "randgen_sha256.json").write_text(json.dumps(digests, indent=1) + "\n",
                                                 encoding="utf-8")


if __name__ == "__main__":
    write_goldens()
