"""Exact geometric dimensions of closed oriented 3-manifold groups.

For the fundamental group of a closed oriented 3-manifold and the family
of subgroups that are virtually Z^r with r <= k (k >= 2), the minimal
dimension of a classifying space relative to that family is computable
from the prime and torus decompositions.  This package computes it
exactly, with a derivation trace per value, and provides finite-scale
certificates for the two group-theoretic mechanisms behind the table:
free products acting on their Bass-Serre trees and cyclic subgroups of
Z^2 x| Z.
"""
from .dimension import DimensionReport, compute
from .gl2z import InvalidDeterminant, Mat2Z
from .model import (
    DescriptionFormatError,
    InvalidDescription,
    ManifoldDescription,
    NormalizationAmbiguous,
)

__version__ = "1.0.0"

# The README-documented calls, the types needed to make them, and the
# exceptions they raise.  Everything else is imported from its submodule.
__all__ = [
    "BallLimitExceeded",
    "DescriptionFormatError",
    "DimensionReport",
    "FreeProductSpec",
    "InvalidDescription",
    "InvalidDeterminant",
    "ManifoldDescription",
    "Mat2Z",
    "MissingAssignment",
    "NormalizationAmbiguous",
    "NotHyperbolic",
    "SemidirectSpec",
    "UnsupportedElement",
    "axis_of",
    "ball",
    "compute",
    "cone_off",
    "normalizer_probe",
    "pushout_dimension_bound",
    "setwise_axis_stabilizer",
]

# The Bass-Serre certificate machinery is loaded on first use (PEP 562), so
# computing a dimension never pays for importing it.
_BASS_SERRE_NAMES = frozenset(__all__) - set(globals())


def __getattr__(name: str):
    if name == "bass_serre" or name in _BASS_SERRE_NAMES:
        from importlib import import_module

        bass_serre = import_module(".bass_serre", __name__)
        return bass_serre if name == "bass_serre" else getattr(bass_serre, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _BASS_SERRE_NAMES | {"bass_serre"})
