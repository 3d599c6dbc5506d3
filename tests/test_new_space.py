"""`new_space` parses each distinct entry text once and decides the common
case on whole rows; it must build the same space, or raise the same error,
as coercing every entry and scanning the pairs in label order."""

import json
import re
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import rank_view, scan_new_space
from weaksim import (
    RATIONAL,
    FloatBackend,
    InputError,
    RationalBackend,
    WeaksimError,
    new_space,
    parse_exact,
    random_ultrametric,
)
from weaksim import spaces
from weaksim.formats import load_space, save_space, space_to_json
from weaksim.spaces import RankView

# Spellings of one value each: texts that differ across the triangle but
# parse equal, and numbers as the generators pass them.
RATIONAL_VALUES = [
    ["1/2", "2/4", "0.5", " 1/2 ", F(1, 2), 0.5],
    ["3", " 3 ", "6/2", "3.0", 3],
    ["1e-3", "0.001", "1/1000", F(1, 1000)],
    ["7/3", "14/6", F(7, 3)],
    # closer than 2^-64 to each other: the sort's integer keys tie
    ["1/3", "2/6", F(1, 3)],
    [F(1, 3) + F(1, 10**30), f"{10**30 + 3}/{3 * 10**30}"],
    # far past the float range either way
    ["1e-400", F(1, 10**400)],
    ["1e400", 10**400, F(10**400)],
    ["1e401", f"{10**401}", F(10**401)],
]
FLOAT_VALUES = [
    ["0.5", "5e-1", " 0.5 ", 0.5, F(1, 2)],
    ["3", " 3 ", "3.0", 3],
    ["1e-3", "0.001"],
    ["1", "1.0000000001", 1.0],  # equal within the tolerance only
]
RATIONAL_ZEROS = ["0", "-0", "0/5", "0.0", " 0 ", 0, F(0), 0.0, -0.0]
FLOAT_ZEROS = ["0", "-0", "0.0", " 0 ", "1e-12", 0, 0.0, -0.0, F(0)]
NOT_POSITIVE = ["-1", "0", "-0", "-1/3", "1e-12", -2]  # 1e-12 is 0 within tolerance
STRAY = ["5", "2.5", "1/3", F(5, 7)]  # no spelling above has these values
LABELS = ["b", "e", "a", "f", "c", "d"]
# An unhashable entry, alone, after a bad one, or with a Fraction in the
# first row (which coerces entry by entry): the first bad entry raises.
UNHASHABLE = [
    [[0, [1]], [[1], 0]],
    [[0, "1"], [[1], 0]],
    [["x", [1]], [[1], 0]],
    [[[1], "1"], ["1", 0]],
    [[0, F(1, 2)], [[1], 0]],
]


@st.composite
def matrices(draw, values, zeros):
    n = draw(st.integers(1, 6))
    labels = draw(st.permutations(LABELS))[:n]
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(st.sampled_from(zeros))
        for j in range(i + 1, n):
            spellings = draw(st.sampled_from(values))
            m[i][j] = draw(st.sampled_from(spellings))
            m[j][i] = draw(st.sampled_from(spellings))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["diagonal", "asymmetric", "not_positive", "unhashable"]))
        if kind == "unhashable":
            m[i][j] = [1]
        elif kind == "diagonal":
            m[i][i] = draw(st.sampled_from(STRAY))
        elif i != j and kind == "asymmetric":
            m[i][j] = draw(st.sampled_from(STRAY))
        elif i != j:
            m[i][j] = m[j][i] = draw(st.sampled_from(NOT_POSITIVE))
    return labels, m


def outcome(build, labels, matrix, backend):
    try:
        space = build(labels, matrix, backend)
    except WeaksimError as exc:
        return type(exc), getattr(exc, "witness", None), getattr(exc, "reason", None), str(exc)
    return space, [type(v) for row in space.matrix for v in row]


@given(case=matrices(RATIONAL_VALUES, RATIONAL_ZEROS))
@example(case=(["a", "b"], UNHASHABLE[0]))
@example(case=(["a", "b"], UNHASHABLE[1]))
@example(case=(["a", "b"], UNHASHABLE[2]))
@example(case=(["a", "b"], UNHASHABLE[3]))
@example(case=(["a", "b"], UNHASHABLE[4]))
@settings(max_examples=400, deadline=None)
def test_rational_parity_with_the_scan(case):
    labels, matrix = case
    got = outcome(new_space, labels, matrix, RATIONAL)
    assert got == outcome(scan_new_space, labels, matrix, RATIONAL)
    if not isinstance(got[0], type):  # and the sort ranks values closer than 2^-64 apart
        assert vars(got[0])["_view"] == RankView(*rank_view(got[0].matrix))


# Characters of exact numbers and of near misses: ASCII and Arabic-Indic
# digits, the fraction bar, signs, digit separators, decimal points,
# exponents and spaces.
NUMBER_CHARS = list("0123456789٠١٢٣٤٥٦٧٨٩/+-_.eE ")


def fraction_or_message(text):
    """What ``parse_exact`` must give: ``Fraction`` of the stripped text, or
    the InputError message for a text ``Fraction`` refuses."""
    text = text.strip()
    try:
        return F(text)
    except (ValueError, ZeroDivisionError):
        return f"not an exact number: {text!r}"


@given(text=st.text(st.sampled_from(NUMBER_CHARS), max_size=12))
@example(text="00012/0004")
@example(text="1/0")
@example(text="3/-4")
@example(text="1_000")
@example(text="٣/٤")
@example(text=" -7/21 ")
@example(text="+5")
@example(text="1" * 5000)  # past the 4,300-digit limit of int(), where Python has one
@example(text="7/" + "3" * 5000)
@settings(max_examples=600, deadline=None)
def test_parse_exact_gives_what_fraction_gives(text):
    # an exponent of four digits or more may pass the print limit, which
    # parse_exact refuses before Fraction would build the power
    assume(not re.search(r"[eE][-+]?\d[\d_]{3,}", text))
    try:
        got = parse_exact(text)
    except InputError as exc:
        got = str(exc)
    assert got == fraction_or_message(text)


@given(case=matrices(FLOAT_VALUES, FLOAT_ZEROS))
@example(case=(["a", "b"], UNHASHABLE[0]))
@example(case=(["a", "b"], UNHASHABLE[1]))
@example(case=(["a", "b"], UNHASHABLE[2]))
@example(case=(["a", "b"], UNHASHABLE[3]))
@example(case=(["a", "b"], UNHASHABLE[4]))
@settings(max_examples=400, deadline=None)
def test_float_parity_with_the_scan(case):
    labels, matrix = case
    backend = FloatBackend(epsilon=1e-9)
    assert outcome(new_space, labels, matrix, backend) == outcome(scan_new_space, labels, matrix, backend)


@st.composite
def tolerance_cases(draw):
    """Float matrices at tolerances below, at and above 1, with entries at,
    below and above the tolerance and diagonals zero only within it."""
    eps = draw(st.sampled_from([1e-3, 0.5, 1.0, 2.0]))
    values = [[eps, repr(eps)], [3 * eps, repr(3 * eps)], ["5", 5.0], [eps / 2]]
    zeros = [0.0, "0", -0.0, eps / 2, repr(eps / 4)]
    labels, matrix = draw(matrices(values, zeros))
    return labels, matrix, FloatBackend(epsilon=eps)


@given(case=tolerance_cases())
# 0 is within 0.5 of 0.5, and 0.5 of 5/7, but 0 is not within 0.5 of 5/7:
# the scan passes, and the ranking is refused
@example(case=(["b", "a"], [[0.0, 0.5], [F(5, 7), 0.0]], FloatBackend(epsilon=0.5)))
@settings(max_examples=400, deadline=None)
def test_float_parity_at_any_tolerance(case):
    labels, matrix, backend = case
    assert outcome(new_space, labels, matrix, backend) == outcome(scan_new_space, labels, matrix, backend)


@pytest.mark.parametrize(
    "epsilon, entry, diagonal",
    [
        (0.5, 0.5, 0.0),  # an entry exactly at the tolerance is zero
        (1.0, 5.0, 0.0),  # at a tolerance of 1, every entry is zero
        (2.0, 5.0, 0.0),
        (0.5, 1.0, 0.25),  # a diagonal that is zero within the tolerance
    ],
)
def test_float_boundaries_match_the_scan(epsilon, entry, diagonal):
    matrix = [[diagonal, entry, 1.5], [entry, 0.0, 1.5], [1.5, 1.5, 0.0]]
    backend = FloatBackend(epsilon=epsilon)
    expected = outcome(scan_new_space, ["a", "b", "c"], matrix, backend)
    assert outcome(new_space, ["a", "b", "c"], matrix, backend) == expected


def test_a_plain_float_matrix_is_accepted_without_the_scan(monkeypatch):
    def scan(*args):
        raise AssertionError("scanned pair by pair")

    monkeypatch.setattr(spaces, "_scan_semimetric", scan)
    m = [[0.0, 0.25, 2.5], [0.25, 0.0, 1e-3], [2.5, 1e-3, 0.0]]
    assert new_space(["a", "b", "c"], m, FloatBackend(epsilon=1e-6)).matrix == tuple(map(tuple, m))


# Spellings of distinct values, farther apart than the float tolerance.
VIEW_VALUES = [
    ["1/2", "2/4", "0.5", F(1, 2), 0.5],
    ["3", " 3.0 ", 3, F(3)],
    ["1e-3", "0.001", F(1, 1000)],  # the float 0.001 is not 1/1000
    ["7.25", "29/4", F(29, 4), 7.25],
]
VIEW_ZEROS = ["-0", "0", "0/5", 0, F(0), -0.0, 0.0]


@st.composite
def valid_cases(draw):
    """Valid spaces of rows of text, rows of numbers or mixed rows."""
    backend = draw(st.sampled_from([RATIONAL, FloatBackend(epsilon=1e-9)]))
    kind = draw(st.sampled_from(["text", "number", "mixed"]))

    def usable(v):
        if kind != "mixed" and isinstance(v, str) != (kind == "text"):
            return False
        return backend is RATIONAL or not isinstance(v, str) or "/" not in v

    values = [[v for v in spellings if usable(v)] for spellings in VIEW_VALUES]
    zeros = [v for v in VIEW_ZEROS if usable(v)]
    n = draw(st.integers(1, 6))
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(st.sampled_from(zeros))
        for j in range(i + 1, n):
            spellings = draw(st.sampled_from(values))
            m[i][j], m[j][i] = draw(st.sampled_from(spellings)), draw(st.sampled_from(spellings))
    return LABELS[:n], m, backend


def mixed_zeros(backend):
    """Zeros of every spelling on the diagonal, 0 and -0.0 among them."""
    zeros, half = [0, 0.0, -0.0, F(0), "0", "-0", " 0.0 "], "1/2" if backend is RATIONAL else "0.5"
    return list("abcdefg"), [[zero if i == j else half for j in range(7)] for i, zero in enumerate(zeros)], backend


@given(case=valid_cases())
@example(case=mixed_zeros(RATIONAL))
@example(case=mixed_zeros(FloatBackend(epsilon=1e-9)))
@settings(max_examples=300, deadline=None)
def test_the_cached_view_is_the_sorted_distinct_values(case):
    labels, matrix, backend = case
    space, expected = new_space(labels, matrix, backend), scan_new_space(labels, matrix, backend)
    assert vars(space)["_view"] == RankView(*rank_view(expected.matrix))
    # each entry keeps its own value: a float -0.0 stays -0.0
    assert repr(space.matrix) == repr(expected.matrix)
    assert space_to_json(space) == space_to_json(expected)


@pytest.mark.parametrize("zero", ["0", 0])  # rows of text, or text and numbers
def test_equal_texts_share_one_value(zero):
    s = new_space(["a", "b", "c"], [[zero, "1/2", "3"], ["1/2", zero, "3"], ["3", "3", zero]])
    assert s.matrix[0][1] is s.matrix[1][0]
    assert s.matrix[0][2] is s.matrix[1][2] is s.matrix[2][0]


def test_a_saved_file_parses_each_distinct_text_once(tmp_path, monkeypatch):
    space = random_ultrametric(200, seed=1)
    path = str(tmp_path / "u.json")
    save_space(path, space)
    with open(path) as fh:
        texts = {v for row in json.load(fh)["matrix"] for v in row}
    calls = []
    coerce = RationalBackend.coerce
    monkeypatch.setattr(RationalBackend, "coerce", lambda self, v: calls.append(v) or coerce(self, v))
    assert load_space(path) == space
    assert len(calls) == len(set(calls)) <= len(texts) < 40_000


@pytest.mark.parametrize(
    "epsilon", [float("nan"), float("inf"), 0.0, -1e-9, "1e-9", True, None, 10**400, F(-1, 2)]
)
def test_float_tolerance_must_be_finite_and_positive(epsilon):
    with pytest.raises(InputError):
        FloatBackend(epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [F(1, 10**9), Decimal("1e-9")])
def test_any_finite_positive_tolerance_is_stored_as_a_float(epsilon):
    backend = FloatBackend(epsilon=epsilon)
    assert type(backend.epsilon) is float and backend.epsilon == float(epsilon)
    assert new_space(["a", "b"], [[0, 1], [1, 0]], backend).matrix == ((0.0, 1.0), (1.0, 0.0))


@pytest.mark.parametrize(
    "entry", ["nan", "inf", "-inf", "1e400", float("nan"), float("inf"), 10**400, F(10**400)]
)
def test_float_entries_must_be_finite(entry):
    with pytest.raises(InputError):
        new_space(["a", "b"], [[0, entry], [entry, 0]], FloatBackend())
