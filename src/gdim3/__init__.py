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
from .dimension import (
    ALLOWED_VALUES,
    RULES,
    DimensionReport,
    FamilyIndex,
    GdResult,
    TraceStep,
    UnsupportedPiece,
    compute,
    evaluate_piece,
    prime_combine,
)
from .geometry import Geometry
from .gl2z import (
    InvalidDeterminant,
    Mat2Z,
    MatClass,
    MatKind,
    NotParabolic,
    ParabolicQuotient,
    classify,
    geometry_of_monodromy,
    invariant_eigenvector,
    parabolic_quotient_type,
)
from .model import (
    DescriptionFormatError,
    Geometric,
    HyperbolicCusped,
    InvalidDescription,
    JsjGraph,
    KleinDouble,
    ManifoldDescription,
    NormalizationAmbiguous,
    SeifertBounded,
    SeifertClosed,
    SeifertData,
    Spherical,
    TorusBundle,
    Violation,
    description_from_json,
    description_to_json,
    load_description,
    normalize,
    validate,
)
from .orbifold2 import OrbifoldBase, OrbifoldClass, classify_base, euler_characteristic_orb

__version__ = "1.0.0"

# The Bass-Serre certificate machinery is loaded on first use (PEP 562), so
# computing a dimension never pays for importing it.
_BASS_SERRE_NAMES = frozenset({
    "AxisStabilizerReport",
    "BallLimitExceeded",
    "ConedComplex",
    "FreeProductSpec",
    "MissingAssignment",
    "NormalizerProbe",
    "NotHyperbolic",
    "SemidirectSpec",
    "TreeBall",
    "UnsupportedElement",
    "axis_of",
    "ball",
    "cone_off",
    "normalizer_probe",
    "pushout_dimension_bound",
    "setwise_axis_stabilizer",
})


def __getattr__(name: str):
    if name == "bass_serre" or name in _BASS_SERRE_NAMES:
        from importlib import import_module

        bass_serre = import_module(".bass_serre", __name__)
        return bass_serre if name == "bass_serre" else getattr(bass_serre, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _BASS_SERRE_NAMES | {"bass_serre"})

__all__ = [
    "ALLOWED_VALUES",
    "AxisStabilizerReport",
    "BallLimitExceeded",
    "ConedComplex",
    "DescriptionFormatError",
    "DimensionReport",
    "FamilyIndex",
    "FreeProductSpec",
    "GdResult",
    "Geometric",
    "Geometry",
    "HyperbolicCusped",
    "InvalidDescription",
    "InvalidDeterminant",
    "JsjGraph",
    "KleinDouble",
    "ManifoldDescription",
    "Mat2Z",
    "MatClass",
    "MatKind",
    "MissingAssignment",
    "NormalizationAmbiguous",
    "NormalizerProbe",
    "NotHyperbolic",
    "NotParabolic",
    "OrbifoldBase",
    "OrbifoldClass",
    "ParabolicQuotient",
    "RULES",
    "SeifertBounded",
    "SeifertClosed",
    "SeifertData",
    "SemidirectSpec",
    "Spherical",
    "TorusBundle",
    "TraceStep",
    "TreeBall",
    "UnsupportedElement",
    "UnsupportedPiece",
    "Violation",
    "axis_of",
    "ball",
    "classify",
    "classify_base",
    "compute",
    "cone_off",
    "description_from_json",
    "description_to_json",
    "euler_characteristic_orb",
    "evaluate_piece",
    "geometry_of_monodromy",
    "invariant_eigenvector",
    "load_description",
    "normalize",
    "normalizer_probe",
    "parabolic_quotient_type",
    "prime_combine",
    "pushout_dimension_bound",
    "setwise_axis_stabilizer",
    "validate",
]
