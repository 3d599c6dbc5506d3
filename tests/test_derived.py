"""A space derived from another (`snowflake`, `apply_function`, and the
`scaled` and `relabeled` partners of `derive_partner`) must be the space
that `new_space`, and the pair-by-pair scan, build from the written-out
matrix: the same labels, entries, entry types, distance set and ranks, or
the same error with the same message and witness.  Where the derived space
keeps its source's order, it must reuse the source's rank tuples."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import scan_new_space
from weaksim import (
    RATIONAL,
    CardinalityMismatch,
    FloatBackend,
    InputError,
    WeaksimError,
    apply_function,
    derive_partner,
    distance_set,
    function_table,
    new_space,
    random_metric,
    random_ultrametric,
    rank_matrix,
    snowflake,
)
from weaksim import families
from weaksim.transforms import _pow_exact

D = F(15, 10**10)  # 1.5e-9: 1, 1 + D, 1 + 2D chain within 1e-9 once square-rooted
RATIONAL_DISTANCES = [
    F(1), 1 + D, 1 + 2 * D,
    1 + F(1, 10**20),  # its powers round to the float of 1
    F(3, 2), F(2), F(4), F(9, 4),
    F(2, 10**12),  # its power 3/2 is 0 within tolerance
    F(1, 10**400),  # no float but 0 is this close to it
    F(10**400),  # past the float range unless the power is exact
]
FLOAT_DISTANCES = [0.5, 1.0, 1.0000000001, 2.0, 3.0, 1e-6, 1e300]
EXPONENTS = [F(1, 2), F(1, 3), F(3, 2), F(2, 3), F(2), F(3), F(1)]
RATIOS = [F(1, 3), F(2), F(7, 5), F(1, 10**9)]
# Table values: 1 + 1e-18 rounds to the float 1, 1e-20 is 0 within
# tolerance, 1 + 6e-10 and 1 + 1.2e-9 chain from 1, and 10^400 overflows.
TABLE_VALUES = [
    F(1, 10**20), F(1, 2), F(1), 1 + F(1, 10**18), 1 + F(6, 10**10), 1 + F(12, 10**10),
    F(2), F(7, 3), F(5), F(8), F(13), F(21), F(10**400),
]
FLOAT_CHAIN = new_space("abc", [[0, 1, 2], [1, 0, 3], [2, 3, 0]], FloatBackend())


@st.composite
def sources(draw):
    rational = draw(st.booleans())
    backend = RATIONAL if rational else FloatBackend()
    pool = RATIONAL_DISTANCES if rational else FLOAT_DISTANCES
    n = draw(st.integers(2, 5))
    labels = draw(st.permutations("edcba"))[:n]
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(st.sampled_from(pool))
    try:
        return new_space(labels, m, backend)
    except WeaksimError:
        return new_space(labels, [[0 if i == j else pool[0] for j in range(n)] for i in range(n)], backend)


@st.composite
def cases(draw):
    space = draw(sources())
    mode = draw(st.sampled_from(["snowflake", "apply", "scaled", "relabeled"]))
    if mode == "snowflake":
        arg = draw(st.sampled_from(EXPONENTS))
    elif mode == "apply":
        k = len(distance_set(space))
        values = draw(st.lists(st.sampled_from(TABLE_VALUES), min_size=k - 1, max_size=k - 1, unique=True))
        arg = function_table(zip(map(F, distance_set(space).values), [F(0), *sorted(values)]))
    elif mode == "scaled":
        arg = draw(st.sampled_from(RATIOS))
    else:
        arg = draw(st.integers(0, 50))
    return space, mode, arg


def derived(space, mode, arg):
    if mode == "snowflake":
        return snowflake(space, arg)
    if mode == "apply":
        return apply_function(space, arg)
    if mode == "scaled":
        return derive_partner(space, "scaled", ratio=arg)[0]
    return derive_partner(space, "relabeled", seed=arg)[0]


def written_out(space, mode, arg):
    """(matrix, backend) of the derived space, entry by entry."""
    m, backend = space.matrix, space.backend
    if mode == "snowflake":
        exact = [[_pow_exact(v, arg) for v in row] for row in m] if backend is RATIONAL else None
        if exact and all(v is not None for row in exact for v in row):
            return exact, backend
        try:
            return [[float(v) ** float(arg) for v in row] for row in m], FloatBackend()
        except OverflowError:
            raise InputError(f"a distance or its power {arg} does not fit a float") from None
    if mode == "apply":
        values, ranks = distance_set(space).values, rank_matrix(space).ranks
        image = dict(arg.entries)
        out = [[image[F(values[r])] for r in row] for row in ranks]
        if backend is RATIONAL:
            return out, backend
        try:
            return [[float(v) for v in row] for row in out], backend
        except OverflowError:
            raise InputError("a table value does not fit a float") from None
    if mode == "scaled":
        return [[arg * v for v in row] for row in m], backend
    perm = list(range(space.n))
    random.Random(arg).shuffle(perm)
    return [[m[i][j] for j in perm] for i in perm], backend


def outcome(build, *args):
    try:
        s = build(*args)
    except WeaksimError as exc:
        return type(exc), getattr(exc, "witness", None), getattr(exc, "reason", None), str(exc)
    return s.labels, s.matrix, [type(v) for row in s.matrix for v in row], s.backend


def full(s):
    return outcome(lambda: s) + (distance_set(s).values, rank_matrix(s).ranks)


@given(case=cases())
@example(case=(new_space("ab", [[0, 1 + D], [1 + D, 0]]), "snowflake", F(1, 2)))
@example(case=(new_space("abc", [[0, 1, 1 + D], [1, 0, 1 + 2 * D], [1 + D, 1 + 2 * D, 0]]), "snowflake", F(1, 2)))
@example(case=(new_space("abc", [[0, 1, F(2, 10**12)], [1, 0, 2], [F(2, 10**12), 2, 0]]), "snowflake", F(3, 2)))
@example(case=(new_space("ab", [[0, F(10**400)], [F(10**400), 0]]), "snowflake", F(1, 3)))
@example(case=(new_space("abc", [[0, 1, 1 + F(1, 10**20)], [1, 0, 1], [1 + F(1, 10**20), 1, 0]]), "snowflake", F(1, 2)))
@example(case=(FLOAT_CHAIN, "apply", function_table([(0, 0), (1, 1), (2, 1 + F(6, 10**10)), (3, 1 + F(12, 10**10))])))
@example(case=(FLOAT_CHAIN, "apply", function_table([(0, 0), (1, 1), (2, 1 + F(1, 10**18)), (3, 2)])))
@example(case=(new_space("edc", [[0, 1 + 1e-10, 1 + 1e-10], [1 + 1e-10, 0, 2], [1 + 1e-10, 2, 0]], FloatBackend()), "scaled", F(1, 10**9)))
@settings(max_examples=400, deadline=None)
def test_derived_spaces_match_new_space_on_the_written_matrix(case):
    space, mode, arg = case
    try:
        matrix, backend = written_out(space, mode, arg)
    except InputError as exc:
        expected = expected_scan = (InputError, None, None, str(exc))
    else:
        expected = outcome(new_space, space.labels, matrix, backend)
        expected_scan = outcome(scan_new_space, space.labels, matrix, backend)
    got = outcome(derived, space, mode, arg)
    if got[0] is CardinalityMismatch and not isinstance(expected[0], type):
        # a float partner whose scaled distances merge has no realization
        assert mode == "scaled" and len(distance_set(new_space(space.labels, matrix, backend))) < len(distance_set(space))
        assert got[3].startswith(f"ratio {arg} merges the distances ") and got[3].endswith(" within epsilon 1e-09")
        return
    assert got == expected == expected_scan
    if isinstance(got[0], type):
        return
    new = derived(space, mode, arg)
    assert full(new) == full(new_space(space.labels, matrix, backend))
    keeps_order = mode == "apply" or (mode in ("snowflake", "scaled") and space.backend is RATIONAL)
    if keeps_order and len(distance_set(new)) == len(distance_set(space)):
        assert new._view.ranks is space._view.ranks


def test_a_float_partner_whose_scaled_distances_merge_names_them(monkeypatch):
    space = new_space("edc", [[0, 1 + 1e-10, 1 + 1e-10], [1 + 1e-10, 0, 2], [1 + 1e-10, 2, 0]], FloatBackend())

    def realization(*args):
        raise AssertionError("built the realization")

    monkeypatch.setattr(families, "_realization", realization)
    with pytest.raises(CardinalityMismatch) as exc:
        derive_partner(space, "scaled", ratio=F(1, 10**9))
    assert str(exc.value) == "ratio 1/1000000000 merges the distances 1.0000000001 and 2 within epsilon 1e-09"


def test_generators_and_partners_keep_their_views_consistent():
    for space in (random_metric(12, 3), random_ultrametric(12, 3)):
        assert full(space) == full(new_space(space.labels, space.matrix, space.backend))
        for partner in (derive_partner(space, "relabeled", seed=5)[0], derive_partner(space, "scaled", ratio=3)[0]):
            assert full(partner) == full(new_space(partner.labels, partner.matrix, partner.backend))
