"""The integer cover engine behind generalized subadditivity and the hull.

Verdicts (x, multiset, lhs, rhs) and hull values are compared with the
brute-force cover oracle, with the search's memo of answers filled row-wise
before each need and with a fresh memo for every need, and large covers with
a knapsack over exact sums.
Deep, large, wide and near-linear covers run under a recursion limit just
above the current stack depth, with a time bound.
"""

import inspect
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_min_cover, exact_sum_cover_costs
from weaksim import (
    InputError,
    check_generalized_subadditivity,
    function_table,
    hull,
    hull_eval,
    linear_table,
)
from weaksim import transforms

HULL_TABLE = function_table(
    list(zip(["0", "1/40", "3/7", "1", "2"], ["0", "1/30", "2/5", "9/10", "17/10"]))
)


@contextmanager
def shallow_stack_within(seconds):
    """Run the block with the recursion limit 100 frames above the current
    depth, then require that it took less than `seconds`."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    start = time.perf_counter()
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
    assert time.perf_counter() - start < seconds


@contextmanager
def engine(name):
    """Run the block with the memo of answers filled for every need from 1 up
    before each search ("row"), or with an empty memo for each search, so
    that every answer comes from the best-first search alone ("search")."""
    cheapest = transforms._cheapest

    def row(items, star, need, memo):
        for t in range(1, need):
            cheapest(items, star, t, memo)
        return cheapest(items, star, need, memo)

    def search(items, star, need, memo):
        return cheapest(items, star, need, {})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "_cheapest", row if name == "row" else search)
        yield


ENGINES = ["row", "search"]


def oracle_verdict(table):
    """The full verdict from brute-force covers: the first x in domain order
    whose cheapest cover costs less than f(x)."""
    positives = table.positive_entries()
    for x, fx in table.entries:
        if positives:
            cost, multiset = brute_force_min_cover(positives, x)
            if cost < fx:
                return (False, x, multiset, fx, cost)
    return (True, None, None, None, None)


def verdict_fields(v):
    return (v.ok, v.x, v.multiset, v.lhs, v.rhs)


# Denominators up to 6 mix within one table; points stay <= 2 so that the
# oracle's minimal covers stay few.  Values may be 0, and f(0) anything.
points = st.fractions(min_value=0, max_value=2, max_denominator=6)
values = st.fractions(min_value=0, max_value=4, max_denominator=5)
tables = st.lists(st.tuples(points, values), min_size=1, max_size=5, unique_by=lambda e: e[0]).map(
    lambda rows: function_table(sorted(rows))
)


class TestOracleParity:
    @pytest.mark.parametrize("name", ENGINES)
    @given(table=tables)
    @settings(max_examples=150, deadline=None)
    def test_verdict_matches_the_oracle(self, name, table):
        with engine(name):
            verdict = check_generalized_subadditivity(table)
        assert verdict_fields(verdict) == oracle_verdict(table)

    @pytest.mark.parametrize(
        "rows",
        [
            [(0, 3), (F(1, 2), 1), (1, 2)],  # f(0) != 0
            [(0, 0), (F(1, 3), 0), (1, 1), (F(3, 2), 2)],  # a zero-valued point
            [(0, 0), (F(1, 4), 0), (F(1, 2), 0), (1, 1)],  # zero-valued ties
            [(F(5, 6), 1)],  # a single point
            [(0, 0), (F(2, 5), 1), (F(3, 4), F(7, 5)), (F(7, 6), 2), (2, F(13, 5))],
            [(0, 0), (1, 1), (2, F(3, 2)), (3, 4)],
        ],
    )
    @pytest.mark.parametrize("name", ENGINES)
    def test_verdict_matches_the_oracle_on_edge_tables(self, name, rows):
        table = function_table(rows)
        with engine(name):
            verdict = check_generalized_subadditivity(table)
        assert verdict_fields(verdict) == oracle_verdict(table)

    @pytest.mark.parametrize("name", ENGINES)
    @given(table=tables, x=st.fractions(min_value=0, max_value=2, max_denominator=7))
    @settings(max_examples=150, deadline=None)
    def test_hull_matches_the_oracle(self, name, table, x):
        rows = [(0, 0)] + [(a, v + F(1, 5)) for a, v in table.positive_entries()]
        if len(rows) == 1:
            return
        h = hull(function_table(rows))
        expected = brute_force_min_cover(h.base.positive_entries(), x)[0] if x else 0
        with engine(name):
            assert hull_eval(h, x) == expected

    @given(tables, st.lists(st.fractions(min_value=0, max_value=40, max_denominator=7), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_hull_matches_exact_sums_beyond_the_period_start(self, table, xs):
        rows = [(0, 0)] + [(a, v + F(1, 5)) for a, v in table.positive_entries()]
        if len(rows) == 1:
            return
        h = hull(function_table(rows))
        xs = [x for x in xs if x > 0]
        expected = exact_sum_cover_costs(h.base.positive_entries(), xs) if xs else {}
        for x in xs:
            assert hull_eval(h, x) == expected[x]


class TestDeepAndLargeCovers:
    def test_cover_one_thousand_steps_deep(self):
        c = F(7, 3)
        with shallow_stack_within(1.0):
            assert hull_eval(hull(linear_table(["0", "1/1000", "1", "2"], c)), 2) == 2 * c

    def test_subadditivity_one_thousand_steps_deep(self):
        table = linear_table(["0", "1/1000", "1", "2"], 3)
        with shallow_stack_within(1.0):
            assert check_generalized_subadditivity(table).ok

    def test_hull_at_four_thousand_smallest_points(self):
        with shallow_stack_within(2.0):
            assert hull_eval(hull(HULL_TABLE), 100) == 85

    def test_hull_at_a_million_is_periodic(self):
        h = hull(HULL_TABLE)
        with shallow_stack_within(2.0):
            far = hull_eval(h, 10**6)
        assert far == F(850_000)
        assert hull_eval(h, 10**6) == far
        # moderate x on both sides of the period start (x = 1118.0036)
        moderate = [F(1115), F(1118) + F(3, 7), F(1150) + F(1, 3)]
        full = exact_sum_cover_costs(h.base.positive_entries(), moderate)
        for x in moderate:
            assert hull_eval(h, x) == full[x]
            k = (10**6 - x) // 2
            assert hull_eval(h, x + 2 * k) == full[x] + k * F(17, 10)

    def test_period_starts_exactly_at_the_bound(self):
        # In sixths, a* = 6 at cost 1 and a 7 at cost 59/50: five 7s are the
        # cheapest cover of 35 = (a* - 1) * max(A), and best(35) exceeds
        # best(29) + 1, so the period may start no earlier than 36.
        h = hull(function_table([(0, 0), (1, 1), (F(7, 6), F(59, 50))]))
        xs = [F(m, 6) for m in range(1, 80)]
        full = exact_sum_cover_costs(h.base.positive_entries(), xs)
        assert full[F(35, 6)] == 5 * F(59, 50) != full[F(29, 6)] + 1
        assert [hull_eval(h, x) for x in xs] == [full[x] for x in xs]



class TestWideTables:
    """Points with a large common denominator or a wide spread: the search
    visits only the needs it can reach, however wide the points are."""

    @pytest.mark.parametrize(
        "table,expected",
        [
            (function_table([(0, 0), ("0.0000001", 1), (1, 1)]), (True, None, None, None, None)),
            # Python floats are exact binary fractions: denominators 2^55
            (linear_table([0, 0.1, 0.3], 1), (True, None, None, None, None)),
            (function_table([(0, 0), (1, 1), (10**6, 5)]), (True, None, None, None, None)),
            (function_table([(0, 0), ("1/997", 1), ("1/991", 1), (1, 1)]), (True, None, None, None, None)),
            (function_table([(1, 1), ("1e400", 5)]), (True, None, None, None, None)),
            # the violation sits at a small x, far below the widest point
            (function_table([(1, 1), (2, 3), (10**7, 100)]), (False, 2, (1, 1), 3, 2)),
            # the violation sits past the row's limit
            (
                function_table([(1, 1), (10**7, 100), (10**7 + 1, 10**7)]),
                (False, 10**7 + 1, (1, 10**7), 10**7, 101),
            ),
        ],
    )
    def test_verdict(self, table, expected):
        with shallow_stack_within(0.5):
            assert verdict_fields(check_generalized_subadditivity(table)) == expected

    def test_hull(self):
        for rows in ([(0, 0), ("1/997", 1), ("1/991", 1), (1, 1)], [(0, 0), ("0.0000001", 1), (1, 1)]):
            h = hull(function_table(rows))
            with shallow_stack_within(0.5):
                assert [hull_eval(h, x) for x in ("1/995", "5/3", 10)] == [1, 2, 10]


NEAR_LINEAR = function_table(
    [(0, 0), ("31/7", "62/7"), ("39/8", "39/4"), ("123/2", "3076/25"), ("511/2", "12776/25"), ("1469/3", "146903/150")]
)


class TestBlowupRegressions:
    """Wide and near-linear tables that once took seconds, or did not
    finish, each with a bound far above what it takes now."""

    def test_a_wide_subadditive_table(self):
        with shallow_stack_within(0.1):
            assert check_generalized_subadditivity(function_table([(0, 0), (1, 1), (500000, 5)])).ok

    @pytest.mark.parametrize(
        "x,expected", [(10**9, 10**9), (10**9 + F(1, 3), 10**9 + 1), (10**6 + F(1, 997), 10**6 + 1)]
    )
    def test_a_deep_hull(self, x, expected):
        h = hull(function_table([("1/997", 1), ("1/991", 1), (1, 1)]))
        with shallow_stack_within(0.1):
            assert hull_eval(h, x) == expected

    def test_a_near_linear_hull(self):
        # a dense knapsack over every need up to 2^24 units gives the same value
        with shallow_stack_within(0.1):
            assert hull_eval(hull(NEAR_LINEAR), 68563) == 137126

    @pytest.mark.parametrize(
        "rows,x,expected",
        [
            # the cheapest cover of 10^9 is 4 * 10^9 copies of the point 1/4
            ([(0, 0), ("1/4", "1e-400"), (1, 1), ("3/2", "7/5"), ("1e400", "5/2")], 10**9, F(4 * 10**9, 10**400)),
            # 666,666,666 copies of 3/2 and one 1
            ([(0, 0), ("1/4", "1/3"), (1, 1), ("3/2", "7/5"), ("1e400", 10**30)], 10**9, 666_666_666 * F(7, 5) + 1),
        ],
    )
    def test_a_need_below_a_point_of_least_cost_per_unit(self, rows, x, expected):
        # that point is set aside and the cheapest of the others taken in bulk
        with shallow_stack_within(0.1):
            assert hull_eval(hull(function_table(rows)), x) == expected

    @pytest.mark.parametrize("value", ["0", "1e-400"])
    def test_a_witness_of_astronomically_many_points(self, value):
        # f(1/4) = 1/3 > 10^400 / 4 copies of 10^-400, which no list holds
        table = function_table([("1e-400", value), ("1/4", "1/3"), (1, 1), ("3/2", "7/5"), (3, "5/2")])
        with shallow_stack_within(1.0), pytest.raises(InputError, match="more than 10000 points"):
            check_generalized_subadditivity(table)

