"""Bundled example descriptions, one JSON file per manifold."""
from __future__ import annotations

from importlib import resources
from typing import List

from ..model import ManifoldDescription, load_description


def names() -> List[str]:
    out = []
    for entry in resources.files(__package__).iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[: -len(".json")])
    return sorted(out)


def load(name: str) -> ManifoldDescription:
    """The bundled description of a name that names() lists; KeyError for any other."""
    if name not in names():
        raise KeyError(f"no bundled description named {name!r}; see `gdim3 corpus`")
    return load_description(resources.files(__package__).joinpath(f"{name}.json"))
