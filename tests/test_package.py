"""The package's public names: the same set, the same objects, loaded lazily."""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import weaksim

PUBLIC = {
    "AmbiguousRanking", "Backend", "BadSequence", "CardinalityMismatch",
    "Classification", "DEFAULT_EPSILON", "DistanceSet", "DomainGap", "DomainMismatch",
    "DuplicateLabel", "DuplicateValue", "EmptyDomain", "FamilySpec", "FloatBackend",
    "FormatError", "FunctionTable", "InputError", "LabelMismatch",
    "MetricPreservingVerdict", "NoPositiveElement", "NonpositiveExponent",
    "NonzeroAtZero", "NotPositiveDefinite", "NotSemimetric", "NotStrictlyIncreasing",
    "RATIONAL", "RankMatrix", "RationalBackend", "ScalingFunction", "Space",
    "SpaceMismatch", "SubadditiveHull", "SubadditivityVerdict", "Verdict",
    "WeakSimilarity", "WeaksimError", "ZeroMissing", "apply_function",
    "build_realization", "check_generalized_subadditivity", "classify",
    "classify_scaling", "coincreasing", "compose", "derive_partner", "distance_set",
    "enumerate_weak_similarities", "example_2_6", "example_2_6_star", "factorize",
    "find_weak_similarity", "function_table", "harmonic", "hull", "hull_eval",
    "increasing_bijection", "invert", "is_metric", "is_metric_preserving",
    "is_ultrametric", "linear_table", "max_ultrametric_from_set", "new_space",
    "one_plus_harmonic", "parse_exact", "power_table", "pullback", "random_metric",
    "random_ultrametric", "rank_matrix", "segment_grid", "snowflake",
    "snowflake_segment", "verify",
}


def test_all_is_the_public_set():
    assert len(weaksim.__all__) == len(PUBLIC)
    assert set(weaksim.__all__) == PUBLIC


def defining_module(obj):
    if inspect.isclass(obj) or inspect.isfunction(obj):
        return importlib.import_module(obj.__module__)
    return importlib.import_module("weaksim.backends")  # DEFAULT_EPSILON, RATIONAL


def test_each_name_is_the_object_its_module_defines():
    exports = {name: getattr(weaksim, name) for name in sorted(PUBLIC)}
    differ = [
        name for name, obj in exports.items() if getattr(defining_module(obj), name) is not obj
    ]
    assert differ == []


def test_star_import_binds_every_name():
    namespace = {}
    exec("from weaksim import *", namespace)
    assert PUBLIC <= namespace.keys()
    assert all(namespace[name] is getattr(weaksim, name) for name in PUBLIC)


def test_dir_lists_every_name():
    assert PUBLIC <= set(dir(weaksim))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'weaksim' has no attribute 'nope'$"):
        weaksim.nope
    assert not hasattr(weaksim, "nope")


BARE_IMPORT = """
import json, sys
import weaksim
loaded = sorted(m for m in sys.modules if m.startswith("weaksim"))
print(json.dumps([loaded, weaksim.spaces.__name__, weaksim.transforms.__name__]))
"""


def test_bare_import_loads_no_search_and_still_reaches_submodules():
    src = os.path.dirname(os.path.dirname(weaksim.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", BARE_IMPORT],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.stderr == ""
    loaded, spaces, transforms = json.loads(proc.stdout)
    assert {"weaksim.morphisms", "weaksim.transforms", "weaksim.families"}.isdisjoint(loaded)
    assert (spaces, transforms) == ("weaksim.spaces", "weaksim.transforms")
