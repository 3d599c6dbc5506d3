import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_weak_similarities, forced_scaling_pairs
from weaksim import (
    CardinalityMismatch,
    DistanceSet,
    DomainMismatch,
    RATIONAL,
    ScalingFunction,
    SpaceMismatch,
    build_realization,
    classify,
    classify_scaling,
    coincreasing,
    compose,
    derive_partner,
    distance_set,
    enumerate_weak_similarities,
    factorize,
    find_weak_similarity,
    increasing_bijection,
    invert,
    is_ultrametric,
    new_space,
    pullback,
    random_metric,
    random_ultrametric,
    segment_grid,
    verify,
)


def space3(d_ab, d_ac, d_bc, labels=("a", "b", "c")):
    return new_space(labels, [[0, d_ab, d_ac], [d_ab, 0, d_bc], [d_ac, d_bc, 0]])


def dset(values):
    return DistanceSet(tuple(F(v) for v in values), RATIONAL)


X123 = space3(1, 2, 3)
Y123_SCALED = space3(10, 20, 30, labels=("p", "q", "r"))


class TestScalingFunction:
    def test_increasing_bijection_pairs_by_rank(self):
        f = increasing_bijection(dset([0, 1, 2]), dset([0, 10, 20]))
        assert f.pairs == ((0, 0), (1, 10), (2, 20))

    def test_cardinality_mismatch(self):
        with pytest.raises(CardinalityMismatch):
            increasing_bijection(dset([0, 1]), dset([0, 1, 2]))

    def test_swapped_entries_rejected(self):
        with pytest.raises(DomainMismatch):
            ScalingFunction(((F(0), F(0)), (F(1), F(2)), (F(2), F(1))))

    def test_zero_pair_required(self):
        with pytest.raises(DomainMismatch):
            ScalingFunction(((F(1), F(1)), (F(2), F(2))))

    def test_inverse_swaps_coordinates(self):
        f = ScalingFunction(((F(0), F(0)), (F(2), F(1)), (F(4), F(3))))
        assert f.inverse().pairs == ((0, 0), (1, 2), (3, 4))


class TestVerify:
    def test_identity_realization(self):
        ident = increasing_bijection(distance_set(X123), distance_set(X123))
        assert verify(X123, X123, {l: l for l in X123.labels}, ident).ok

    def test_wrong_map_yields_witness(self):
        f = increasing_bijection(distance_set(Y123_SCALED), distance_set(X123))
        bad = {"a": "q", "b": "p", "c": "r"}  # a<->b swap scrambles the edges
        v = verify(X123, Y123_SCALED, bad, f)
        assert not v.ok
        # (a,b) still maps to the {p,q} edge; (a,c) is the first broken pair
        assert v.witness == ("a", "c")

    def test_scaling_for_wrong_space_raises(self):
        wrong = ScalingFunction(((F(0), F(0)), (F(5), F(1))))
        with pytest.raises(DomainMismatch):
            verify(X123, Y123_SCALED, {"a": "p", "b": "q", "c": "r"}, wrong)


class TestFindAndEnumerate:
    def test_scaled_pair_found_with_ratio(self):
        ws = find_weak_similarity(X123, Y123_SCALED)
        assert ws is not None
        assert ws.as_map() == {"a": "p", "b": "q", "c": "r"}
        assert ws.classification.kind == "similarity"
        assert ws.classification.ratio == 10
        assert verify(X123, Y123_SCALED, ws.as_map(), ws.scaling).ok

    def test_distance_set_size_mismatch(self):
        X = space3(1, 2, 3)
        Y = space3(1, 1, 1, labels=("p", "q", "r"))
        assert find_weak_similarity(X, Y) is None
        assert enumerate_weak_similarities(X, Y) == []

    def test_reflexive_identity_found_first(self):
        ws = find_weak_similarity(X123, X123)
        assert ws.as_map() == {l: l for l in X123.labels}
        assert ws.classification.kind == "isometry"

    def test_equilateral_enumerates_all_permutations(self):
        E = space3(1, 1, 1)
        found = enumerate_weak_similarities(E, E)
        assert len(found) == 6
        assert all(ws.classification.kind == "isometry" for ws in found)
        maps = [tuple(ws.as_map()[l] for l in sorted(E.labels)) for ws in found]
        assert maps == sorted(maps)  # canonical enumeration order

    def test_limit_truncates(self):
        E = new_space(["a", "b", "c", "d"], [[0 if i == j else 1 for j in range(4)] for i in range(4)])
        found = enumerate_weak_similarities(E, E, limit=5)
        assert len(found) == 5

    @pytest.mark.parametrize("limit", [sys.maxsize, sys.maxsize + 1, 10**100])
    def test_a_limit_no_enumeration_reaches_is_unbounded(self, limit):
        E = new_space(["a", "b", "c", "d"], [[0 if i == j else 1 for j in range(4)] for i in range(4)])
        found = enumerate_weak_similarities(E, E, limit=limit)
        assert [ws.mapping for ws in found] == [
            ws.mapping for ws in enumerate_weak_similarities(E, E, limit=None)
        ]
        assert len(found) == 24

    def test_grid_pair_has_exactly_two_morphisms(self):
        A = segment_grid(5, 1)
        B = segment_grid(5, 2)
        found = enumerate_weak_similarities(A, B)
        assert len(found) == 2
        for ws in found:
            assert ws.classification.kind == "similarity"
            assert ws.classification.ratio == 2
        maps = [ws.as_map() for ws in found]
        assert maps[0] == {f"t{i}": f"t{i}" for i in range(5)}  # order-preserving
        assert maps[1] == {f"t{i}": f"t{4 - i}" for i in range(5)}  # reversal

    @given(st.integers(0, 5_000), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force_oracle(self, seed, n):
        from oracles import random_semimetric

        X = random_semimetric(n, seed)
        Y = random_semimetric(n, seed + 17)
        got = enumerate_weak_similarities(X, Y, limit=None)
        expected = brute_force_weak_similarities(X, Y)
        assert sorted(tuple(sorted(ws.as_map().items())) for ws in got) == sorted(
            tuple(sorted(m.items())) for m in expected
        )
        for ws in got:
            assert verify(X, Y, ws.as_map(), ws.scaling).ok
            assert ws.scaling.pairs == forced_scaling_pairs(X, Y)

    @given(st.integers(0, 5_000), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_symmetry_of_existence(self, seed, n):
        X = random_metric(n, seed)
        Y = random_metric(n, seed + 31)
        assert (find_weak_similarity(X, Y) is None) == (
            find_weak_similarity(Y, X) is None
        )


class TestClassify:
    def test_similarity_table(self):
        f = ScalingFunction(((F(0), F(0)), (F(10), F(1)), (F(20), F(2)), (F(30), F(3))))
        cls = classify_scaling(f, RATIONAL, RATIONAL)
        assert cls.kind == "similarity" and cls.ratio == 10

    def test_identity_table_is_isometry(self):
        f = ScalingFunction(((F(0), F(0)), (F(1), F(1)), (F(2), F(2))))
        assert classify_scaling(f, RATIONAL, RATIONAL).kind == "isometry"

    def test_square_root_pattern_is_generic(self):
        f = ScalingFunction(((F(0), F(0)), (F(1), F(1)), (F(4), F(2))))
        assert classify_scaling(f, RATIONAL, RATIONAL).kind == "generic"

    @given(st.integers(0, 3_000), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_similarity_iff_distance_sets_proportional(self, seed, n):
        X = random_metric(n, seed)
        partner, ws = derive_partner(X, "distorted", seed=seed)
        dx = distance_set(X).values
        dp = distance_set(partner).values
        cls = classify(ws)
        ratios = {F(dp[i]) / F(dx[i]) for i in range(1, len(dx))}
        assert (len(ratios) == 1) == (cls.kind in ("similarity", "isometry"))


class TestAlgebra:
    def test_invert_identity(self):
        ws = find_weak_similarity(X123, X123)
        assert invert(ws) == ws

    def test_invert_similarity_ratio(self):
        ws = find_weak_similarity(X123, Y123_SCALED)
        inv = invert(ws)
        assert inv.classification.kind == "similarity"
        assert inv.classification.ratio == F(1, 10)
        assert verify(Y123_SCALED, X123, inv.as_map(), inv.scaling).ok

    def test_invert_is_involutive(self):
        ws = find_weak_similarity(X123, Y123_SCALED)
        assert invert(invert(ws)) == ws

    def test_compose_with_inverse_is_identity(self):
        ws = find_weak_similarity(X123, Y123_SCALED)
        ident = compose(ws, invert(ws))
        assert ident.as_map() == {l: l for l in X123.labels}
        assert ident.classification.kind == "isometry"

    def test_ratios_multiply_under_composition(self):
        Y, ws1 = derive_partner(X123, "scaled", ratio=2)
        Z, ws2 = derive_partner(Y, "scaled", ratio=3)
        both = compose(ws1, ws2)
        assert both.classification.kind == "similarity"
        assert both.classification.ratio == 6
        assert verify(X123, Z, both.as_map(), both.scaling).ok

    def test_composing_with_isometry_keeps_table_values(self):
        Y, distort = derive_partner(X123, "distorted", seed=5)
        Z, relabel = derive_partner(Y, "relabeled", seed=7)
        both = compose(distort, relabel)
        assert both.classification == distort.classification
        assert both.scaling.values() == distort.scaling.values()

    def test_compose_rejects_mismatched_spaces(self):
        ws = find_weak_similarity(X123, Y123_SCALED)
        with pytest.raises(SpaceMismatch):
            compose(ws, ws)


class TestPullback:
    def test_identity_pullback_is_the_space(self):
        assert pullback(X123, X123, {l: l for l in X123.labels}) == X123

    def test_pullback_along_morphism_is_coincreasing(self):
        ws = find_weak_similarity(X123, Y123_SCALED)
        rho = pullback(X123, Y123_SCALED, ws.as_map())
        assert coincreasing(X123, rho).ok

    def test_scrambled_map_breaks_coincreasing(self):
        Y = space3(1, 3, 2, labels=("p", "q", "r"))
        rho = pullback(X123, Y, {"a": "p", "b": "q", "c": "r"})
        v = coincreasing(X123, rho)
        assert not v.ok
        # d orders (a,c) before (b,c); rho reverses them
        assert v.witness == ("a", "c", "b", "c")


class TestFactorize:
    def test_equal_morphisms_factor_through_identity(self):
        ws = find_weak_similarity(X123, Y123_SCALED)
        f = factorize(ws, ws)
        assert f.as_map() == {l: l for l in X123.labels}
        assert f.classification.kind == "isometry"

    def test_grid_morphisms_factor_through_reversal(self):
        A = segment_grid(5, 1)
        B = segment_grid(5, 2)
        first, second = enumerate_weak_similarities(A, B)
        f = factorize(first, second)
        assert f.as_map() == {f"t{i}": f"t{4 - i}" for i in range(5)}
        assert f.classification.kind == "isometry"
        assert compose(f, first).as_map() == second.as_map()

    @given(st.integers(0, 2_000), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_factor_always_isometry(self, seed, n):
        X = random_metric(n, seed)
        Y, _ = derive_partner(X, "relabeled", seed=seed + 1)
        found = enumerate_weak_similarities(X, Y, limit=6)
        for phi1 in found:
            for phi2 in found:
                f = factorize(phi1, phi2)
                assert classify(f).kind == "isometry"
                assert verify(X, X, f.as_map(), f.scaling).ok


class TestTheoremLevelProperties:
    @given(st.integers(0, 5_000), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_self_morphisms_are_isometries(self, seed, n):
        X = random_metric(n, seed)
        for ws in enumerate_weak_similarities(X, X, limit=24):
            assert ws.classification.kind == "isometry"

    @given(st.integers(0, 5_000), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_equal_distance_sets_force_isometries(self, seed, n):
        X = random_metric(n, seed)
        Y, _ = derive_partner(X, "relabeled", seed=seed + 13)
        assert distance_set(X).values == distance_set(Y).values
        for ws in enumerate_weak_similarities(X, Y, limit=24):
            assert ws.classification.kind == "isometry"

    @given(st.integers(0, 5_000), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_ultrametric_transports(self, seed, n):
        X = random_ultrametric(n, seed)
        partner, ws = derive_partner(X, "distorted", seed=seed + 7)
        assert verify(X, partner, ws.as_map(), ws.scaling).ok
        assert is_ultrametric(partner).ok

    @given(st.integers(0, 2_000), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_transitivity_composes(self, seed, n):
        X = random_metric(n, seed)
        Y, ws1 = derive_partner(X, "scaled", ratio=F(3, 2))
        Z, ws2 = derive_partner(Y, "distorted", seed=seed + 3)
        both = compose(ws1, ws2)
        assert verify(X, Z, both.as_map(), both.scaling).ok


class TestEdgesAndBounds:
    def test_completeness_at_seven_points(self):
        # the stated small-instance bound: solver equals brute force up to n = 7
        for seed in (0, 1):
            X = random_metric(7, seed)
            Y, _ = derive_partner(X, "relabeled", seed=seed + 50)
            got = enumerate_weak_similarities(X, Y, limit=None)
            expected = brute_force_weak_similarities(X, Y)
            assert sorted(tuple(sorted(ws.as_map().items())) for ws in got) == sorted(
                tuple(sorted(m.items())) for m in expected
            )

    def test_single_point_spaces(self):
        X = new_space(["only"], [[0]])
        Y = new_space(["lone"], [[0]])
        ws = find_weak_similarity(X, Y)
        assert ws.as_map() == {"only": "lone"}
        assert ws.classification.kind == "isometry"
        assert verify(X, Y, ws.as_map(), ws.scaling).ok

    def test_float_to_float_search(self):
        from weaksim import snowflake, segment_grid
        from fractions import Fraction

        X = snowflake(segment_grid(4, 1), Fraction(1, 2))
        Y = snowflake(segment_grid(4, 3), Fraction(1, 2))
        found = enumerate_weak_similarities(X, Y)
        assert len(found) == 2
        for ws in found:
            assert verify(X, Y, ws.as_map(), ws.scaling).ok
            assert ws.classification.kind == "similarity"

    def test_witnesses_follow_label_order_not_storage_order(self):
        # labels stored out of order; the reported triple obeys sorted labels
        from weaksim import is_metric

        s = new_space(
            ["z", "a", "m"],
            [[0, 1, 1], [1, 0, 3], [1, 3, 0]],
        )  # d(z,a)=1, d(z,m)=1, d(a,m)=3
        v = is_metric(s)
        assert not v.ok
        assert v.witness == ("a", "z", "m")

    def test_refinement_blind_pair_is_rejected_by_backtracking(self):
        # 6-cycle metric vs two-triangles metric: every point sees two
        # distance-1 neighbors and three distance-2 points, so color
        # refinement cannot split anything; only the search tells them apart
        def ring(labels):
            n = len(labels)
            return new_space(
                labels,
                [
                    [0 if i == j else (1 if min((i - j) % n, (j - i) % n) == 1 else 2)
                     for j in range(n)]
                    for i in range(n)
                ],
            )

        def two_triangles(labels):
            return new_space(
                labels,
                [
                    [0 if i == j else (1 if i // 3 == j // 3 else 2)
                     for j in range(len(labels))]
                    for i in range(len(labels))
                ],
            )

        C6 = ring([f"c{i}" for i in range(6)])
        TT = two_triangles([f"t{i}" for i in range(6)])
        assert find_weak_similarity(C6, TT) is None
        assert enumerate_weak_similarities(C6, TT) == []
        assert brute_force_weak_similarities(C6, TT) == []
        # sanity: each is equivalent to a relabeled copy of itself
        relabeled, _ = derive_partner(TT, "relabeled", seed=1)
        assert find_weak_similarity(TT, relabeled) is not None

    def test_limit_zero_returns_nothing(self):
        E = space3(1, 1, 1)
        assert enumerate_weak_similarities(E, E, limit=0) == []


class TestFloatGroupingEndToEnd:
    @given(st.integers(0, 1_000), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_jittered_float_copy_matches_rational_original(self, seed, n):
        # perturb every distance by well under epsilon: ranks must group back
        # and the identity-shaped morphism must still be found and verify
        import random as _random

        from weaksim import FloatBackend, distance_set, rank_matrix

        X = random_metric(n, seed)
        rng = _random.Random(seed + 99)
        jittered = [
            [
                0.0 if i == j else float(X.matrix[i][j]) * (1 + rng.uniform(-1e-13, 1e-13))
                for j in range(n)
            ]
            for i in range(n)
        ]
        for i in range(n):
            for j in range(i + 1, n):
                jittered[j][i] = jittered[i][j]
        Xf = new_space(X.labels, jittered, FloatBackend(epsilon=1e-9))
        assert len(distance_set(Xf)) == len(distance_set(X))
        assert rank_matrix(Xf).ranks == rank_matrix(X).ranks
        ws = find_weak_similarity(Xf, X)
        assert ws is not None
        assert verify(Xf, X, ws.as_map(), ws.scaling).ok
