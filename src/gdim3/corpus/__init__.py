"""Bundled example descriptions, one JSON file per manifold."""
from __future__ import annotations

import json
from importlib import resources
from typing import List

from ..model import ManifoldDescription, description_from_json


def names() -> List[str]:
    out = []
    for entry in resources.files(__package__).iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[: -len(".json")])
    return sorted(out)


def load(name: str) -> ManifoldDescription:
    path = resources.files(__package__).joinpath(f"{name}.json")
    if not path.is_file():
        raise KeyError(f"no bundled description named {name!r}; see `gdim3 corpus`")
    return description_from_json(json.loads(path.read_text(encoding="utf-8")))
