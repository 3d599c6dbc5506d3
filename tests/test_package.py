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


LIBRARY_PATHS = """
import io, json, os, sys, tempfile
from contextlib import redirect_stdout
import weaksim.spaces, weaksim.morphisms, weaksim.transforms, weaksim.families, weaksim.formats
from weaksim.cli import run
path = os.path.join(tempfile.mkdtemp(), "two.json")
with open(path, "w") as fh:
    fh.write('{"labels": ["a", "b"], "backend": "rational", "matrix": [["0", "1"], ["1", "0"]]}')
with redirect_stdout(io.StringIO()):
    codes = [run(["check", "--in", path, "--metric"]), run(["morph", "find", "--x", path, "--y", path])]
print(json.dumps([codes, sorted({"dataclasses", "inspect"} & set(sys.modules))]))
"""


def test_no_command_or_module_imports_dataclasses_or_inspect():
    src = os.path.dirname(os.path.dirname(weaksim.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", LIBRARY_PATHS],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [[0, 0], []]


# For each frozen value type, a factory of fresh equal instances and one
# unequal instance; built on call, so collecting this module imports no
# submodule.
def _records():
    from fractions import Fraction as F

    from weaksim.spaces import RankView

    X = weaksim.new_space(["a", "b"], [[0, "1/2"], ["1/2", 0]])
    Y = weaksim.new_space(["a", "b"], [[0, 1], [1, 0]])
    table = weaksim.function_table([(0, 0), (1, 2)])
    sub = weaksim.SubadditivityVerdict(False, F(3), (F(1), F(2)), F(4), F(5, 2))
    return {
        "Verdict": (lambda: weaksim.Verdict(False, ("a", "b")), weaksim.Verdict(True)),
        "Space": (lambda: weaksim.new_space(["a", "b"], [[0, "1/2"], ["1/2", 0]]), Y),
        "DistanceSet": (lambda: weaksim.distance_set(X), weaksim.distance_set(Y)),
        "RankMatrix": (lambda: weaksim.rank_matrix(X), weaksim.RankMatrix(((0, 2), (2, 0)))),
        "RankView": (lambda: RankView((F(0), F(1, 2)), ((0, 1), (1, 0))), RankView((F(0), F(1)), ((0, 1), (1, 0)))),
        "RationalBackend": (weaksim.RationalBackend, weaksim.FloatBackend()),
        "FloatBackend": (lambda: weaksim.FloatBackend(1e-6), weaksim.FloatBackend()),
        "ScalingFunction": (lambda: weaksim.ScalingFunction(((F(0), F(0)), (F(1), F(1, 2)))), weaksim.ScalingFunction(((0, 0), (1, 1)))),
        "Classification": (lambda: weaksim.Classification.similarity(F(1, 2)), weaksim.Classification.generic()),
        "WeakSimilarity": (lambda: weaksim.find_weak_similarity(X, Y), weaksim.find_weak_similarity(X, X)),
        "FunctionTable": (lambda: weaksim.function_table([(0, 0), (1, 2)]), weaksim.function_table([(0, 0), (1, 3)])),
        "SubadditivityVerdict": (lambda: weaksim.SubadditivityVerdict(False, F(3), (F(1), F(2)), F(4), F(5, 2)), weaksim.SubadditivityVerdict(True)),
        "SubadditiveHull": (lambda: weaksim.hull(table), weaksim.hull(weaksim.function_table([(1, 1)]))),
        "MetricPreservingVerdict": (lambda: weaksim.MetricPreservingVerdict(False, "not subadditive", sub), weaksim.MetricPreservingVerdict(True)),
        "FamilySpec": (lambda: weaksim.FamilySpec("example_2_6", 3), weaksim.FamilySpec("example_2_6", 4)),
    }


# Each type's fields in constructor order, and how many have no default.
RECORD_FIELDS = {
    "Verdict": (("ok", "witness"), 1),
    "Space": (("labels", "matrix", "backend"), 3),
    "DistanceSet": (("values", "backend"), 2),
    "RankMatrix": (("ranks",), 1),
    "RankView": (("values", "ranks"), 2),
    "RationalBackend": ((), 0),
    "FloatBackend": (("epsilon",), 0),
    "ScalingFunction": (("pairs",), 1),
    "Classification": (("kind", "ratio"), 1),
    "WeakSimilarity": (("source", "target", "mapping", "scaling", "classification"), 5),
    "FunctionTable": (("entries",), 1),
    "SubadditivityVerdict": (("ok", "x", "multiset", "lhs", "rhs"), 1),
    "SubadditiveHull": (("base",), 1),
    "MetricPreservingVerdict": (("ok", "reason", "violation"), 1),
    "FamilySpec": (("name", "n", "r", "p"), 2),
}


def _fields(record) -> dict:
    return {k: getattr(record, k) for k in RECORD_FIELDS[type(record).__name__][0]}


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_records_compare_and_hash_as_their_class_and_fields(name):
    make, other = _records()[name]
    a, b = make(), make()
    values = tuple(_fields(a).values())
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b and hash(a) == hash(b) == hash(values)
    assert a != other and len({a, b, other}) == 2
    assert a != values
    assert type(a)(**_fields(a)) == a == type(a)(*values)
    assert type("Sub", (type(a),), {})(*values) != a  # the exact class, as a dataclass compares


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_records_refuse_assignment_and_deletion(name):
    a = _records()[name][0]()
    field = (RECORD_FIELDS[name][0] or ("kind",))[0]
    for attempt in (lambda: setattr(a, field, None), lambda: delattr(a, field), lambda: setattr(a, "extra", 1)):
        with pytest.raises(AttributeError, match="^cannot (assign to|delete) field '(extra|" + field + ")'$"):
            attempt()
    assert a == _records()[name][0]()


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_records_refuse_missing_and_unknown_arguments(name):
    a = _records()[name][0]()
    cls, values = type(a), tuple(_fields(a).values())
    fields, required = RECORD_FIELDS[name]
    where = rf"^{name}\.__init__\(\) "
    with pytest.raises(TypeError, match=where + "got an unexpected keyword argument 'nope'$"):
        cls(*values, nope=1)
    most = len(fields) + 1
    takes = f"from {required + 1} to {most} positional arguments" if required < len(fields) else f"{most} positional argument{'s' * (most > 1)}"
    with pytest.raises(TypeError, match=where + f"takes {takes} but {most + 1} were given$"):
        cls(*values, None)
    if fields:
        with pytest.raises(TypeError, match=where + f"got multiple values for argument '{fields[0]}'$"):
            cls(*values, **{fields[0]: values[0]})
    if required:
        with pytest.raises(TypeError, match=where + f"missing {required} required positional argument"):
            cls()


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_records_show_their_fields_as_their_signature(name):
    cls = type(_records()[name][0]())
    fields, required = RECORD_FIELDS[name]
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == list(fields)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert [p.default for p in params] == [inspect.Parameter.empty] * required + [getattr(cls, k) for k in fields[required:]]
    assert cls.__init__.__qualname__ == f"{name}.__init__" and cls.__init__.__module__ == cls.__module__


def test_missing_arguments_are_listed_as_python_lists_them():
    with pytest.raises(TypeError, match=r"^Space\.__init__\(\) missing 3 required positional arguments: 'labels', 'matrix', and 'backend'$"):
        weaksim.Space()
    with pytest.raises(TypeError, match=r"^Space\.__init__\(\) missing 2 required positional arguments: 'matrix' and 'backend'$"):
        weaksim.Space(labels=("a",))
    with pytest.raises(TypeError, match=r"^Verdict\.__init__\(\) missing 1 required positional argument: 'ok'$"):
        weaksim.Verdict(witness=("a", "b"))


def test_records_print_as_dataclasses_do():
    from fractions import Fraction as F

    X = weaksim.new_space(["a", "b"], [[0, "1/2"], ["1/2", 0]])
    assert repr(X) == (
        "Space(labels=('a', 'b'), matrix=((Fraction(0, 1), Fraction(1, 2)), (Fraction(1, 2), Fraction(0, 1))), "
        "backend=RationalBackend())"
    )
    assert repr(weaksim.FloatBackend()) == "FloatBackend(epsilon=1e-09)"
    assert repr(weaksim.RationalBackend()) == "RationalBackend()"
    assert repr(weaksim.Verdict(False, ("a", "b"))) == "Verdict(ok=False, witness=('a', 'b'))"
    assert repr(weaksim.Verdict(True)) == "Verdict(ok=True, witness=None)"
    assert repr(weaksim.Classification.similarity(F(1, 2))) == "Classification(kind='similarity', ratio=Fraction(1, 2))"
    assert repr(weaksim.SubadditivityVerdict(False, x=F(3), multiset=(F(1), F(2)), lhs=F(4), rhs=F(5, 2))) == (
        "SubadditivityVerdict(ok=False, x=Fraction(3, 1), multiset=(Fraction(1, 1), Fraction(2, 1)), "
        "lhs=Fraction(4, 1), rhs=Fraction(5, 2))"
    )


def test_post_init_checks_raise_as_before():
    cases = [
        (lambda: weaksim.FloatBackend(0), weaksim.InputError, "^epsilon must be finite and positive, not 0$"),
        (lambda: weaksim.FloatBackend(epsilon="1e-6"), weaksim.InputError, "^epsilon must be finite and positive, not '1e-6'$"),
        (lambda: weaksim.FloatBackend(True), weaksim.InputError, "^epsilon must be finite and positive, not True$"),
        (lambda: weaksim.ScalingFunction(()), weaksim.DomainMismatch, "^a scaling table cannot be empty$"),
        (lambda: weaksim.ScalingFunction(((1, 1),)), weaksim.DomainMismatch, "^a scaling table must map 0 to 0$"),
        (lambda: weaksim.ScalingFunction(((0, 0), (2, 1), (1, 2))), weaksim.DomainMismatch, "^scaling table entries must be strictly"),
        (lambda: weaksim.FunctionTable(((1, 1), (0, 0))), weaksim.InputError, "^domain points must be strictly increasing$"),
        (lambda: weaksim.FunctionTable(((0, "-1"),)), weaksim.InputError, "^domain points and values must be nonnegative$"),
    ]
    for build, error, message in cases:
        with pytest.raises(error, match=message):
            build()
    assert weaksim.FloatBackend(1).epsilon == 1.0 and type(weaksim.FloatBackend(1).epsilon) is float
    assert weaksim.FunctionTable((("1/2", 1),)).entries == ((weaksim.parse_exact("1/2"), 1),)


def test_cached_properties_are_computed_once():
    X = weaksim.new_space(["a", "b"], [[0, "1/2"], ["1/2", 0]])
    scaling = weaksim.find_weak_similarity(X, X).scaling
    for record, name in ((X, "_positions"), (X._view, "scaled"), (scaling, "_table")):
        assert name not in vars(record)
        first = getattr(record, name)
        assert vars(record)[name] is first and getattr(record, name) is first


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_records_survive_copy_deepcopy_and_pickle(name):
    import copy
    import pickle

    a = _records()[name][0]()
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and type(twin) is type(a) and repr(twin) == repr(a)
