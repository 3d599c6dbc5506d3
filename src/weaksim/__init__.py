"""weaksim: exact analysis of finite semimetric spaces.

Spaces store their distance matrices either as exact rationals or as
tolerance-compared floats.  On top of that sit axiom checks, distance-set
and rank extraction, a deterministic search for weak similarities (point
bijections that preserve the distance order, realized by a forced strictly
increasing scaling table), distance transforms with a generalized
subadditivity checker and subadditive extension, and reproducible example
families.

The public names below are exported lazily (PEP 562): a submodule is
imported the first time one of its names is read, so ``import weaksim``
loads none of the search, the transforms or the families.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "backends": (
        "DEFAULT_EPSILON", "RATIONAL", "Backend", "FloatBackend", "RationalBackend",
        "parse_exact",
    ),
    "errors": (
        "AmbiguousRanking", "BadSequence", "CardinalityMismatch", "DomainGap",
        "DomainMismatch", "DuplicateLabel", "DuplicateValue", "EmptyDomain",
        "FormatError", "InputError", "LabelMismatch", "NonpositiveExponent",
        "NonzeroAtZero", "NoPositiveElement", "NotPositiveDefinite", "NotSemimetric",
        "NotStrictlyIncreasing", "SpaceMismatch", "WeaksimError", "ZeroMissing",
    ),
    "spaces": (
        "DistanceSet", "RankMatrix", "Space", "Verdict", "coincreasing", "distance_set",
        "is_metric", "is_ultrametric", "max_ultrametric_from_set", "new_space",
        "rank_matrix",
    ),
    "morphisms": (
        "Classification", "ScalingFunction", "WeakSimilarity", "build_realization",
        "classify", "classify_scaling", "compose", "enumerate_weak_similarities",
        "factorize", "find_weak_similarity", "increasing_bijection", "invert",
        "pullback", "verify",
    ),
    "transforms": (
        "FunctionTable", "MetricPreservingVerdict", "SubadditiveHull",
        "SubadditivityVerdict", "apply_function", "check_generalized_subadditivity",
        "function_table", "hull", "hull_eval", "is_metric_preserving", "linear_table",
        "power_table", "snowflake",
    ),
    "families": (
        "FamilySpec", "derive_partner", "example_2_6", "example_2_6_star", "harmonic",
        "one_plus_harmonic", "random_metric", "random_ultrametric", "segment_grid",
        "snowflake_segment",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not imported yet
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
