"""Bundled example descriptions, one JSON file per manifold, beside this module."""
from __future__ import annotations

import os
from typing import List

from ..model import ManifoldDescription, load_description

_DIR = os.path.dirname(__file__)


def names() -> List[str]:
    return sorted(entry[: -len(".json")] for entry in os.listdir(_DIR) if entry.endswith(".json"))


def load(name: str) -> ManifoldDescription:
    """The bundled description of a name that names() lists; KeyError for any other."""
    if name not in names():
        raise KeyError(f"no bundled description named {name!r}; see `gdim3 corpus`")
    return load_description(os.path.join(_DIR, f"{name}.json"))
