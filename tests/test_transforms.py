import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_generalized_subadditivity
from weaksim import (
    DomainGap,
    EmptyDomain,
    FloatBackend,
    InputError,
    NonpositiveExponent,
    NonzeroAtZero,
    NoPositiveElement,
    NotPositiveDefinite,
    NotStrictlyIncreasing,
    apply_function,
    check_generalized_subadditivity,
    distance_set,
    find_weak_similarity,
    function_table,
    hull,
    hull_eval,
    is_metric,
    is_metric_preserving,
    is_ultrametric,
    linear_table,
    new_space,
    power_table,
    random_metric,
    random_ultrametric,
    snowflake,
    verify,
)
from weaksim.backends import RATIONAL
from weaksim.morphisms import ScalingFunction
from weaksim.transforms import _pow_exact


def random_table(seed):
    """|A| <= 6 with domain points and values drawn from {k/4 : 0 <= k <= 12}."""
    rng = random.Random(seed)
    size = rng.randint(1, 6)
    domain = sorted(rng.sample(range(13), size))
    return function_table([(F(k, 4), F(rng.randint(0, 12), 4)) for k in domain])


class TestFunctionTable:
    def test_requires_increasing_domain(self):
        with pytest.raises(ValueError):
            function_table([(1, 1), (1, 2)])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            function_table([(0, 0), (1, -1)])

    def test_value_at_a_missing_point(self):
        table = function_table([(0, 0), (1, 2)])
        assert table.value_at("1") == 2
        with pytest.raises(DomainGap):
            table.value_at(F(1, 2))

    def test_builtin_samplers(self):
        assert linear_table([0, 1, 2], F(3, 2)).entries == (
            (0, 0),
            (1, F(3, 2)),
            (2, 3),
        )
        assert power_table([0, 1, 4, 9], F(1, 2)).entries == (
            (0, 0),
            (1, 1),
            (4, 2),
            (9, 3),
        )
        with pytest.raises(ValueError):
            power_table([0, 2], F(1, 2))


class TestGeneralizedSubadditivity:
    def test_reference_violation(self):
        t = function_table([(0, 0), (1, 1), (2, F(3, 2)), (3, 4)])
        v = check_generalized_subadditivity(t)
        assert not v.ok
        assert (v.x, v.multiset) == (3, (1, 2))
        assert (v.lhs, v.rhs) == (4, F(5, 2))

    def test_linear_is_subadditive(self):
        assert check_generalized_subadditivity(linear_table([0, 1, 2, 3], 7)).ok

    def test_single_positive_point(self):
        assert check_generalized_subadditivity(function_table([(0, 0), (1, 5)])).ok

    def test_zero_point_compares_against_single_elements(self):
        # f(0) above some value: covered by a one-element multiset
        t = function_table([(0, 5), (2, 1)])
        v = check_generalized_subadditivity(t)
        assert not v.ok
        assert (v.x, v.multiset, v.lhs, v.rhs) == (0, (2,), 5, 1)

    def test_empty_table(self):
        with pytest.raises(EmptyDomain):
            check_generalized_subadditivity(function_table([]))

    def test_reported_violation_is_a_real_violation(self):
        for seed in range(200):
            t = random_table(seed)
            v = check_generalized_subadditivity(t)
            if not v.ok:
                assert v.x <= sum(v.multiset) or v.x == 0
                assert v.lhs == t.value_at(v.x)
                assert v.rhs == sum(t.value_at(a) for a in v.multiset)
                assert v.lhs > v.rhs

    def test_matches_naive_oracle(self):
        for seed in range(200):
            t = random_table(seed)
            assert check_generalized_subadditivity(t).ok == (
                naive_generalized_subadditivity(t)
            ), f"disagreement on seed {seed}: {t.entries}"


class TestHull:
    def test_reference_values(self):
        h = hull(function_table([(0, 0), (1, 1), (2, F(3, 2))]))
        assert hull_eval(h, 3) == F(5, 2)
        assert hull_eval(h, 2) == F(3, 2)
        assert hull_eval(h, F(1, 2)) == 1
        assert hull_eval(h, 0) == 0

    def test_restriction_is_exact_iff_subadditive(self):
        good = power_table([0, 1, 4, 9], F(1, 2))
        h = hull(good)
        assert check_generalized_subadditivity(good).ok
        for a, v in good.entries:
            assert hull_eval(h, a) == v
        bad = power_table([0, 1, 2], 2)
        assert not check_generalized_subadditivity(bad).ok
        hb = hull(bad)
        assert any(hull_eval(hb, a) != v for a, v in bad.entries)

    def test_preconditions(self):
        with pytest.raises(NoPositiveElement):
            hull(function_table([(0, 0)]))
        with pytest.raises(NonzeroAtZero):
            hull(function_table([(0, 1), (1, 1)]))
        with pytest.raises(NotPositiveDefinite):
            hull(function_table([(0, 0), (1, 0)]))

    @given(
        st.integers(0, 5_000),
        st.fractions(min_value=0, max_value=8),
        st.fractions(min_value=0, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_subadditive(self, seed, x, y):
        t = random_table(seed)
        positives = [(a, v) for a, v in t.entries if a > 0]
        if not positives:
            return
        rows = [(0, 0)] + [(a, v + F(1, 4)) for a, v in positives]
        h = hull(function_table(rows))
        lo, hi = sorted((x, y))
        assert hull_eval(h, lo) <= hull_eval(h, hi)
        assert hull_eval(h, x + y) <= hull_eval(h, x) + hull_eval(h, y)


class TestMetricPreserving:
    def test_square_root_table(self):
        assert is_metric_preserving(power_table([0, 1, 4, 9], F(1, 2))).ok

    def test_square_table_fails(self):
        v = is_metric_preserving(power_table([0, 1, 2], 2))
        assert not v.ok
        assert v.violation is not None
        assert (v.violation.x, v.violation.multiset) == (2, (1, 1))

    def test_zero_value_fails(self):
        v = is_metric_preserving(function_table([(0, 0), (1, 0), (2, 1)]))
        assert not v.ok
        assert "positive" in v.reason

    def test_empty_table_refused(self):
        with pytest.raises(EmptyDomain):
            is_metric_preserving(function_table([]))

    def test_nonzero_at_zero_fails(self):
        v = is_metric_preserving(function_table([(0, 1), (1, 2)]))
        assert (v.ok, v.reason) == (False, "f(0) is not 0")

    def test_decreasing_table_fails(self):
        v = is_metric_preserving(function_table([(0, 0), (1, 2), (2, 1)]))
        assert (v.ok, v.reason) == (False, "f is not increasing")


class TestApplyFunction:
    def test_doubling_gives_similarity(self):
        s = random_metric(4, 3)
        table = linear_table(distance_set(s).values, 2)
        out = apply_function(s, table)
        assert is_metric(out).ok
        ws = find_weak_similarity(out, s)
        assert ws is not None
        assert ws.classification.kind == "similarity"
        assert ws.classification.ratio == F(1, 2)

    def test_square_breaks_path_space(self):
        path = new_space(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        out = apply_function(path, power_table([0, 1, 2], 2))
        pair_distances = sorted(
            out.matrix[i][j] for i in range(3) for j in range(i + 1, 3)
        )
        assert pair_distances == [1, 1, 4]
        v = is_metric(out)
        assert not v.ok
        assert v.witness == ("a", "b", "c")

    def test_identity_map_realizes_weak_equivalence(self):
        s = random_metric(5, 11)
        values = distance_set(s).values
        table = function_table(
            [(v, v * v + v) for v in values]  # strictly increasing, positive
        )
        out = apply_function(s, table)
        scaling = ScalingFunction(
            tuple(sorted((fv, a) for a, fv in table.entries))
        )
        assert verify(s, out, {l: l for l in s.labels}, scaling).ok

    def test_domain_gap(self):
        s = new_space(["a", "b"], [[0, 5], [5, 0]])
        with pytest.raises(DomainGap):
            apply_function(s, linear_table([0, 1], 1))

    def test_a_point_too_large_for_a_float_matches_no_float_distance(self):
        s = new_space(["a", "b"], [[0, 1.5], [1.5, 0]], FloatBackend())
        with pytest.raises(DomainGap):
            apply_function(s, function_table([(0, 0), (1, 1), (10**400, 2)]))

    def test_a_value_too_large_for_a_float_is_an_input_error(self):
        s = new_space(["a", "b"], [[0, 1.5], [1.5, 0]], FloatBackend())
        with pytest.raises(InputError):
            apply_function(s, function_table([(0, 0), ("1.5", 10**400)]))

    def test_not_strictly_increasing(self):
        s = new_space(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.raises(NotStrictlyIncreasing):
            apply_function(s, function_table([(0, 0), (1, 1), (2, 1)]))

    def test_zero_image_rejected(self):
        s = new_space(["a", "b"], [[0, 1], [1, 0]])
        with pytest.raises(NotPositiveDefinite):
            apply_function(s, function_table([(0, 0), (1, 0)]))

    def test_zero_distance_sent_elsewhere_rejected(self):
        s = new_space(["a", "b"], [[0, 1], [1, 0]])
        with pytest.raises(NotPositiveDefinite):
            apply_function(s, function_table([(0, 1), (1, 2)]))

    @pytest.mark.parametrize("backend", [FloatBackend(), RATIONAL])
    def test_one_walk_over_a_large_table(self, backend):
        # 100 points with 4,951 distinct distances and one entry for each:
        # a scan of the table per distance took over 20 s on floats
        n = 100
        m = [[0.0] * n for _ in range(n)]
        pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
        for k, (i, j) in enumerate(pairs, 1):
            m[i][j] = m[j][i] = 1 + k / 8192
        s = new_space([f"p{i:02d}" for i in range(n)], m, backend)
        table = function_table([(F(v), 2 * F(v)) for v in distance_set(s).values])
        start = time.perf_counter()
        out = apply_function(s, table)
        assert time.perf_counter() - start < 1.0
        assert out.matrix == tuple(tuple(2 * v for v in row) for row in s.matrix)

    @given(st.integers(0, 3_000), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_metric_preserving_tables_preserve_metrics(self, seed, n):
        s = random_metric(n, seed)
        values = distance_set(s).values
        # t / (1 + t) is increasing, zero at zero, and subadditive
        table = function_table([(v, F(v) / (1 + F(v))) for v in values])
        assert is_metric_preserving(table).ok
        assert is_metric(apply_function(s, table)).ok

    def test_two_element_violations_admit_a_witness_space(self):
        # whenever an increasing table has f(x) > f(a) + f(b) with (x, a, b)
        # a valid metric triple, transforming that triple breaks the
        # triangle inequality
        found = 0
        for seed in range(120):
            rng = random.Random(seed)
            domain = sorted(rng.sample(range(1, 13), rng.randint(2, 6)))
            acc = F(0)
            entries = {F(0): F(0)}
            for k in domain:
                acc += F(rng.randint(1, 12), 4)
                entries[F(k, 4)] = acc
            witness = None
            positive = [a for a in entries if a > 0]
            for x in positive:
                for a in positive:
                    for b in positive:
                        if (
                            x <= a + b
                            and a <= x + b
                            and b <= x + a
                            and entries[x] > entries[a] + entries[b]
                        ):
                            witness = (x, a, b)
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness is None:
                continue
            x, a, b = witness
            space = new_space(["p", "q", "r"], [[0, a, x], [a, 0, b], [x, b, 0]])
            assert is_metric(space).ok
            table = function_table(sorted(entries.items()))
            out = apply_function(space, table)
            assert not is_metric(out).ok
            found += 1
        assert found > 5  # the seed range really exercises the direction


class TestSnowflake:
    def test_exponent_one_is_identity(self):
        s = random_metric(4, 2)
        assert snowflake(s, 1) == s

    def test_nonpositive_exponent_rejected(self):
        s = random_metric(3, 2)
        with pytest.raises(NonpositiveExponent):
            snowflake(s, 0)

    def test_integer_power_stays_rational(self):
        s = new_space(["a", "b"], [[0, F(3, 2)], [F(3, 2), 0]])
        out = snowflake(s, 2)
        assert out.backend.kind == "rational"
        assert out.dist("a", "b") == F(9, 4)

    def test_perfect_square_root_stays_rational(self):
        s = new_space(["a", "b", "c"], [[0, 1, 4], [1, 0, 4], [4, 4, 0]])
        out = snowflake(s, F(1, 2))
        assert out.backend.kind == "rational"
        assert out.dist("a", "c") == 2

    def test_roots_past_the_float_range_are_exact(self):
        root = 10**25 + 12345
        assert _pow_exact(F(root**2), F(1, 2)) == root
        assert _pow_exact(F(root**3, 8), F(2, 3)) == F(root**2, 4)
        assert _pow_exact(F(root**2 + 1), F(1, 2)) is None
        assert power_table([0, 10**400], "1/2").entries[1] == (10**400, 10**200)
        s = new_space(["a", "b"], [[0, root**2], [root**2, 0]])
        assert snowflake(s, F(1, 2)).matrix == ((0, root), (root, 0))

    def test_a_power_too_large_for_a_float_is_an_input_error(self):
        s = new_space(["a", "b"], [[0, 1e300], [1e300, 0]], FloatBackend())
        with pytest.raises(InputError):
            snowflake(s, 2)
        big = new_space(["a", "b"], [[0, 10**400], [10**400, 0]])
        with pytest.raises(InputError):
            snowflake(big, F(1, 3))

    def test_irrational_results_switch_backend(self):
        s = new_space(["a", "b"], [[0, 2], [2, 0]])
        out = snowflake(s, F(1, 2))
        assert isinstance(out.backend, FloatBackend)
        assert abs(out.dist("a", "b") - 2**0.5) < 1e-12

    @given(st.integers(0, 3_000), st.integers(2, 6), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_contractive_exponents_preserve_metric(self, seed, n, denom):
        s = random_metric(n, seed)
        assert is_metric(snowflake(s, F(1, denom))).ok

    @given(st.integers(0, 3_000), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_any_exponent_preserves_ultrametric(self, seed, n):
        s = random_ultrametric(n, seed)
        for p in (F(1, 2), F(3), F(5, 2)):
            assert is_ultrametric(snowflake(s, p)).ok


# denominators stay small so the exhaustive oracle's multiset space stays finite
table_strategy = st.builds(
    lambda points, values: function_table(list(zip(sorted(points), values))),
    st.sets(
        st.fractions(min_value=0, max_value=4, max_denominator=4),
        min_size=1,
        max_size=5,
    ),
    st.lists(
        st.fractions(min_value=0, max_value=4, max_denominator=4),
        min_size=5,
        max_size=5,
    ),
)


class TestCheckerAgainstOracleBeyondTheGrid:
    @given(table_strategy)
    @settings(max_examples=150, deadline=None)
    def test_checker_matches_naive_on_arbitrary_tables(self, t):
        assert check_generalized_subadditivity(t).ok == (
            naive_generalized_subadditivity(t)
        )
