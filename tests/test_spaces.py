from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaksim import (
    AmbiguousRanking,
    DuplicateLabel,
    DuplicateValue,
    FloatBackend,
    InputError,
    LabelMismatch,
    NotSemimetric,
    ZeroMissing,
    coincreasing,
    distance_set,
    is_metric,
    is_ultrametric,
    max_ultrametric_from_set,
    new_space,
    random_metric,
    random_ultrametric,
    rank_matrix,
)


def space3(d_ab, d_ac, d_bc, labels=("a", "b", "c")):
    return new_space(labels, [[0, d_ab, d_ac], [d_ab, 0, d_bc], [d_ac, d_bc, 0]])


class TestNewSpace:
    def test_smallest_nondegenerate(self):
        s = new_space(["a", "b"], [[0, 1], [1, 0]])
        assert s.n == 2
        assert s.dist("a", "b") == 1

    def test_unknown_label_refused(self):
        s = new_space(["a", "b"], [[0, 1], [1, 0]])
        with pytest.raises(LabelMismatch):
            s.index("c")
        with pytest.raises(LabelMismatch):
            s.dist("a", "c")

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(NotSemimetric) as err:
            new_space(["a", "b"], [[0, 1], [2, 0]])
        assert err.value.witness == ("a", "b")

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(NotSemimetric) as err:
            new_space(["a", "b"], [[0, 0], [0, 0]])
        assert err.value.witness == ("a", "b")

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(NotSemimetric) as err:
            new_space(["a", "b"], [[1, 1], [1, 0]])
        assert err.value.witness == ("a", "a")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabel):
            new_space(["a", "a"], [[0, 1], [1, 0]])

    def test_one_point_space_is_valid(self):
        s = new_space(["only"], [[0]])
        assert distance_set(s).values == (0,)

    def test_negative_distance_rejected(self):
        with pytest.raises(NotSemimetric):
            new_space(["a", "b"], [[0, -1], [-1, 0]])


class TestAxiomChecks:
    def test_equilateral_is_metric_and_ultrametric(self):
        s = space3(1, 1, 1)
        assert is_metric(s).ok
        assert is_ultrametric(s).ok

    def test_triangle_violation_witness(self):
        s = space3(1, 1, 3)
        v = is_metric(s)
        assert not v.ok
        assert v.witness == ("b", "a", "c")

    def test_ultrametric_violation_witness(self):
        s = space3(2, 1, 1)
        v = is_ultrametric(s)
        assert not v.ok
        assert v.witness == ("a", "c", "b")

    def test_completed_random_space_is_metric(self):
        # the construction completes by shortest paths, an oracle by design
        for seed in range(10):
            assert is_metric(random_metric(6, seed)).ok

    def test_merge_hierarchy_is_ultrametric(self):
        for seed in range(10):
            assert is_ultrametric(random_ultrametric(6, seed)).ok

    @given(st.integers(0, 10_000), st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_ultrametric_implies_metric(self, seed, n):
        s = random_ultrametric(n, seed)
        assert is_ultrametric(s).ok
        assert is_metric(s).ok


class TestDistanceSetAndRanks:
    def test_equilateral(self):
        s = space3(1, 1, 1)
        assert distance_set(s).values == (0, 1)
        assert rank_matrix(s).ranks == ((0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_three_distinct_distances(self):
        s = space3(1, 2, 3)
        assert distance_set(s).values == (0, 1, 2, 3)
        assert rank_matrix(s).ranks == ((0, 1, 2), (1, 0, 3), (2, 3, 0))

    def test_float_grouping_within_tolerance(self):
        s = new_space(
            ["a", "b", "c"],
            [[0.0, 1.0, 1.0 + 1e-12], [1.0, 0.0, 2.0], [1.0 + 1e-12, 2.0, 0.0]],
            FloatBackend(epsilon=1e-9),
        )
        rk = rank_matrix(s)
        assert rk.ranks[0][1] == rk.ranks[0][2] == 1
        assert len(distance_set(s).values) == 3  # 0, the 1-group, 2

    def test_chained_gaps_raise_ambiguous_ranking(self):
        eps = 1e-9
        vals = [1.0, 1.0 + 0.9e-9, 1.0 + 1.8e-9]  # adjacent within, extremes beyond
        m = [[0.0] * 4 for _ in range(4)]
        labels = ["o", "a", "b", "c"]
        for k, v in enumerate(vals, start=1):
            m[0][k] = m[k][0] = v
        m[1][2] = m[2][1] = 5.0
        m[1][3] = m[3][1] = 5.0
        m[2][3] = m[3][2] = 5.0
        with pytest.raises(AmbiguousRanking):
            new_space(labels, m, FloatBackend(epsilon=eps))

    @given(st.integers(0, 10_000), st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_rank_roundtrip_reconstructs_matrix(self, seed, n):
        s = random_metric(n, seed)
        dset = distance_set(s).values
        rk = rank_matrix(s).ranks
        rebuilt = tuple(
            tuple(dset[rk[i][j]] for j in range(n)) for i in range(n)
        )
        assert rebuilt == s.matrix

    @given(st.integers(0, 10_000), st.integers(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_rank_zero_exactly_on_diagonal(self, seed, n):
        s = random_metric(n, seed)
        rk = rank_matrix(s).ranks
        for i in range(n):
            for j in range(n):
                assert (rk[i][j] == 0) == (i == j)


class TestMaxUltrametric:
    def test_three_values(self):
        s = max_ultrametric_from_set([0, 1, 2])
        assert s.dist("0", "1") == 1
        assert s.dist("0", "2") == 2
        assert s.dist("1", "2") == 2
        assert is_ultrametric(s).ok
        assert distance_set(s).values == (0, 1, 2)

    def test_single_zero(self):
        s = max_ultrametric_from_set([0])
        assert s.n == 1

    def test_rational_values_roundtrip(self):
        vals = [F(0), F(1, 2), F(1), F(7)]
        s = max_ultrametric_from_set(vals)
        assert distance_set(s).values == tuple(vals)

    def test_zero_missing(self):
        with pytest.raises(ZeroMissing):
            max_ultrametric_from_set([1, 2])

    def test_duplicates(self):
        with pytest.raises(DuplicateValue):
            max_ultrametric_from_set([0, 1, 1])

    def test_negative_value(self):
        with pytest.raises(InputError):
            max_ultrametric_from_set([-1, 0, 1])

    @given(st.sets(st.fractions(min_value=F(1, 7), max_value=9), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_always_ultrametric_with_exact_distance_set(self, positives):
        vals = sorted({F(0)} | positives)
        s = max_ultrametric_from_set(vals)
        assert is_ultrametric(s).ok
        assert list(distance_set(s).values) == vals


class TestCoincreasing:
    def test_scaling_preserves_order(self):
        d = space3(1, 2, 3)
        rho = space3(2, 4, 6)
        assert coincreasing(d, rho).ok

    def test_entrywise_square_preserves_order(self):
        d = space3(1, 2, 3)
        rho = space3(1, 4, 9)
        assert coincreasing(d, rho).ok

    def test_swapped_pair_witness(self):
        d = space3(1, 2, 3)
        rho = space3(2, 1, 3)
        v = coincreasing(d, rho)
        assert not v.ok
        # first quadruple in label order where the two pair orders disagree
        assert v.witness == ("a", "b", "a", "c")

    def test_label_mismatch(self):
        d = space3(1, 2, 3)
        rho = space3(1, 2, 3, labels=("x", "y", "z"))
        with pytest.raises(LabelMismatch):
            coincreasing(d, rho)

    @given(st.integers(0, 2_000), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_equivalence_relation(self, seed, n):
        from oracles import random_semimetric

        a = random_semimetric(n, seed)
        b = random_semimetric(n, seed + 1)
        c = random_semimetric(n, seed + 2)
        assert coincreasing(a, a).ok  # reflexive
        assert coincreasing(a, b).ok == coincreasing(b, a).ok  # symmetric
        if coincreasing(a, b).ok and coincreasing(b, c).ok:  # transitive
            assert coincreasing(a, c).ok
