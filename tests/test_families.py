import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaksim import (
    BadSequence,
    FamilySpec,
    FloatBackend,
    apply_function,
    classify,
    derive_partner,
    distance_set,
    enumerate_weak_similarities,
    example_2_6,
    example_2_6_star,
    is_metric,
    is_ultrametric,
    new_space,
    random_metric,
    random_ultrametric,
    segment_grid,
    snowflake_segment,
    verify,
)
from weaksim.formats import save_space
from weaksim.transforms import function_table


class TestExample26:
    def test_reference_distances(self):
        X, Y, ws = example_2_6(FamilySpec("2_6", 3))
        assert X.dist("x0", "x2") == F(1, 2)
        assert X.dist("x1", "x3") == 1  # spoke pair: smaller index rules
        assert Y.dist("y0", "y2") == F(3, 2)
        assert distance_set(X).values == (0, F(1, 3), F(1, 2), 1)

    def test_realization_verifies_and_is_generic(self):
        X, Y, ws = example_2_6(FamilySpec("2_6", 3))
        assert verify(X, Y, ws.as_map(), ws.scaling).ok
        assert ws.classification.kind == "generic"

    def test_minimal_truncation(self):
        X, Y, ws = example_2_6(FamilySpec("2_6", 2))
        assert verify(X, Y, ws.as_map(), ws.scaling).ok

    def test_both_spaces_ultrametric(self):
        X, Y, _ = example_2_6(FamilySpec("2_6", 6))
        assert is_ultrametric(X).ok
        assert is_ultrametric(Y).ok

    def test_min_positive_distances_follow_the_sequences(self):
        n = 12
        X, Y, _ = example_2_6(FamilySpec("2_6", n))
        assert min(v for v in distance_set(X).values if v > 0) == F(1, n)
        assert min(v for v in distance_set(Y).values if v > 0) == 1 + F(1, n)

    def test_scaling_table_reproduces_x_from_y(self):
        X, Y, ws = example_2_6(FamilySpec("2_6", 4))
        table = function_table([(t, v) for t, v in ws.scaling.pairs])
        assert apply_function(Y, table).matrix == X.matrix

    def test_realization_scaling_is_the_forced_bijection(self):
        from weaksim import increasing_bijection, invert

        X, Y, ws = example_2_6(FamilySpec("2_6", 5))
        forced = increasing_bijection(distance_set(Y), distance_set(X))
        assert ws.scaling == forced
        inv = invert(ws)
        assert verify(Y, X, inv.as_map(), inv.scaling).ok

    def test_bad_sequence_rejected(self):
        with pytest.raises(BadSequence):
            example_2_6(FamilySpec("2_6", 3, r=lambda k: F(k)))  # increasing
        with pytest.raises(BadSequence):
            example_2_6(FamilySpec("2_6", 3, p=lambda k: F(1 - k)))  # nonpositive

    def test_custom_sequences(self):
        spec = FamilySpec("2_6", 3, r=lambda k: F(1, 2**k), p=lambda k: 2 + F(1, k))
        X, Y, ws = example_2_6(spec)
        assert verify(X, Y, ws.as_map(), ws.scaling).ok
        assert X.dist("x0", "x3") == F(1, 8)


class TestExample26Star:
    def test_reference_distances(self):
        X, Y, _ = example_2_6_star(FamilySpec("2_6_star", 2))
        assert X.dist("x1_1", "x1_2") == 2
        assert X.dist("x2_1", "x2_2") == F(3, 2)
        assert X.dist("x1_1", "x2_2") == 2  # distinct pairs all sit at p_1

    def test_realization_verifies(self):
        X, Y, ws = example_2_6_star(FamilySpec("2_6_star", 5))
        assert verify(X, Y, ws.as_map(), ws.scaling).ok

    def test_distance_set_sizes(self):
        n = 7
        X, Y, _ = example_2_6_star(FamilySpec("2_6_star", n))
        assert len(distance_set(X)) == n + 1
        assert len(distance_set(Y)) == n + 1

    def test_scaling_sends_min_positive_to_last_term(self):
        n = 6
        _, _, ws = example_2_6_star(FamilySpec("2_6_star", n))
        assert ws.scaling.apply(F(1, n)) == 1 + F(1, n)

    def test_both_ultrametric_and_discrete_shadow(self):
        X, Y, _ = example_2_6_star(FamilySpec("2_6_star", 4))
        assert is_ultrametric(X).ok
        assert is_ultrametric(Y).ok

    def test_crossing_pairs_breaks_verify(self):
        X, Y, ws = example_2_6_star(FamilySpec("2_6_star", 3))
        crossed = dict(ws.as_map())
        for j in ("1", "2"):
            crossed[f"x1_{j}"], crossed[f"x2_{j}"] = (
                crossed[f"x2_{j}"],
                crossed[f"x1_{j}"],
            )
        assert not verify(X, Y, crossed, ws.scaling).ok

    def test_swap_within_a_pair_keeps_verify(self):
        X, Y, ws = example_2_6_star(FamilySpec("2_6_star", 3))
        swapped = dict(ws.as_map())
        swapped["x2_1"], swapped["x2_2"] = swapped["x2_2"], swapped["x2_1"]
        assert verify(X, Y, swapped, ws.scaling).ok


class TestGrids:
    def test_three_point_unit_grid(self):
        g = segment_grid(3, 1)
        assert distance_set(g).values == (0, F(1, 2), 1)
        assert is_metric(g).ok

    def test_two_points(self):
        g = segment_grid(2, 5)
        assert g.dist("t0", "t1") == 5

    def test_equal_count_grids_are_similar_with_length_ratio(self):
        A = segment_grid(5, 2)
        B = segment_grid(5, 1)
        for ws in enumerate_weak_similarities(A, B):
            assert ws.classification.kind == "similarity"
            assert ws.classification.ratio in (F(1, 2), F(1, 2))

    def test_snowflake_segment_p_one_is_grid(self):
        assert snowflake_segment(4, 1) == segment_grid(4, 1)

    def test_snowflake_segment_distances(self):
        s = snowflake_segment(3, F(1, 2))
        assert isinstance(s.backend, FloatBackend)
        vals = distance_set(s).values
        assert vals[0] == 0
        assert abs(vals[1] - 0.5**0.5) <= 1e-9
        assert abs(vals[2] - 1.0) <= 1e-9
        assert is_metric(s).ok

    def test_snowflake_segment_identity_realization(self):
        X = snowflake_segment(11, F(1, 2))
        Y = segment_grid(11, 1)
        ws = enumerate_weak_similarities(X, Y)[0]
        ident = {l: l for l in X.labels}
        assert ws.as_map() == ident
        assert verify(X, Y, ws.as_map(), ws.scaling).ok
        assert ws.classification.kind == "generic"
        for t, ft in ws.scaling.pairs:
            assert abs(float(ft) - float(t) ** 0.5) <= 1e-9


class TestRandomFamilies:
    def test_metric_by_construction(self):
        for seed in range(20):
            assert is_metric(random_metric(5, seed)).ok

    def test_ultrametric_by_construction(self):
        for seed in range(20):
            assert is_ultrametric(random_ultrametric(5, seed)).ok

    def test_single_point(self):
        assert random_metric(1, 0).n == 1
        assert random_ultrametric(1, 0).n == 1

    def test_deterministic_per_seed(self):
        assert random_metric(6, 42) == random_metric(6, 42)
        assert random_ultrametric(6, 42) == random_ultrametric(6, 42)
        assert random_metric(6, 42) != random_metric(6, 43)

    @pytest.mark.parametrize(
        "n, seed, digest",
        [
            (1, 0, "d3ea344b617645731cda59881c5064605f17308d810838352678ef934d74129d"),
            (2, 5, "506324d27f6ee279e5689c1d1a38a0a63447960ed9fe02ffd36882dbab94ceac"),
            (7, 3, "1fc52807c5a4418e668ef257e1764dc2c221977aeab4a1fac40b39e99fb285e5"),
            (20, 11, "7cd3755fd28bbe702754d2276960375f9412a7426a3bc63ea7ecf34983208e5b"),
            (45, 2024, "e888b0bed0d91c958202dc1d1947b1606b2b63b6effed32b4905c10a6bb0609f"),
        ],
    )
    def test_random_metric_files_are_pinned(self, tmp_path, n, seed, digest):
        # digests of the Fraction Floyd-Warshall's output: any faster
        # completion must write the same bytes per seed
        path = tmp_path / "m.json"
        save_space(str(path), random_metric(n, seed))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "n, seed, digest",
        [
            (1, 0, "d3ea344b617645731cda59881c5064605f17308d810838352678ef934d74129d"),
            (2, 5, "9ab1cb7af0fd9e51d84173b0b19be3fd0d6a2da57b3b327944f4de60bad93624"),
            (7, 3, "132a0f1987c6d33ed0fe292c6fb6de73e1120de552ec0dbc71822d68e00e7b0a"),
            (20, 11, "a4e66087a2364c6ba8e8639d23298c5f5df437d72339248e5a9d4de5da0d0c20"),
            (48, 2024, "f6d281c816f99079288debe115bc5c771e2ca037625589e9bc29378a68034832"),
        ],
    )
    def test_random_ultrametric_files_are_pinned(self, tmp_path, n, seed, digest):
        # digests of the Fraction merge hierarchy's output: building the
        # space on its merge ranks must write the same bytes per seed
        path = tmp_path / "u.json"
        save_space(str(path), random_ultrametric(n, seed))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestDerivePartner:
    def test_scaled_two_point_reference(self):
        s = new_space(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        partner, ws = derive_partner(s, "scaled", ratio=3)
        assert distance_set(partner).values == (0, 3, 6)
        assert ws.classification.kind == "similarity"
        assert ws.classification.ratio == 3
        assert verify(s, partner, ws.as_map(), ws.scaling).ok

    def test_relabeled_keeps_distances(self):
        s = random_metric(5, 9)
        partner, ws = derive_partner(s, "relabeled", seed=4)
        assert distance_set(partner).values == distance_set(s).values
        assert ws.classification.kind == "isometry"
        assert verify(s, partner, ws.as_map(), ws.scaling).ok

    def test_distorted_changes_distances_but_verifies(self):
        s = random_metric(5, 10)
        partner, ws = derive_partner(s, "distorted", seed=4)
        assert verify(s, partner, ws.as_map(), ws.scaling).ok
        assert distance_set(partner).values != distance_set(s).values

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            derive_partner(random_metric(3, 0), "mirrored")

    @given(st.integers(0, 3_000), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_every_generated_realization_verifies(self, seed, n):
        s = random_metric(n, seed)
        for mode, kwargs in (
            ("scaled", {"ratio": F(2, 3)}),
            ("relabeled", {"seed": seed + 1}),
            ("distorted", {"seed": seed + 2}),
        ):
            partner, ws = derive_partner(s, mode, **kwargs)
            assert verify(s, partner, ws.as_map(), ws.scaling).ok

    @given(st.integers(0, 3_000), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_grid_realizations_verify(self, seed, n):
        X, Y, ws = example_2_6(FamilySpec("2_6", n))
        assert verify(X, Y, ws.as_map(), ws.scaling).ok
        assert classify(ws).kind == "generic"


class TestGridRatios:
    @pytest.mark.parametrize("l1,l2", [(1, 3), (F(1, 2), F(5, 4)), (2, 1)])
    def test_ratio_is_the_length_quotient(self, l1, l2):
        # bounded geodesic shadow: the similarity ratio equals diam Y / diam X
        A = segment_grid(6, l1)
        B = segment_grid(6, l2)
        for ws in enumerate_weak_similarities(A, B):
            assert ws.classification.kind in ("similarity", "isometry")
            assert (ws.classification.ratio or 1) == F(l2) / F(l1)


class TestEquivalenceIsTransitiveAtSolverLevel:
    @pytest.mark.parametrize("seed", range(8))
    def test_found_found_implies_found(self, seed):
        from weaksim import find_weak_similarity

        X = random_metric(4 + seed % 3, seed)
        Y, _ = derive_partner(X, "distorted", seed=seed + 1)
        Z, _ = derive_partner(Y, "scaled", ratio=F(5, 3))
        assert find_weak_similarity(X, Y) is not None
        assert find_weak_similarity(Y, Z) is not None
        assert find_weak_similarity(X, Z) is not None
