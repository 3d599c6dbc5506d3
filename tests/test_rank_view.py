"""The rank-view fast paths against the label-order brute force.

Axiom checks, coincreasing and verify answer from each space's cached rank
view (or its integer-scaled matrix); the oracles compare values through the
backend over every triple, quadruple or pair.  Verdicts and witnesses must
agree exactly.
"""

import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_coincreasing,
    brute_force_is_metric,
    brute_force_is_ultrametric,
    brute_force_verify,
    random_bijection,
    random_semimetric,
    scan_new_space,
)
from weaksim import (
    AmbiguousRanking,
    FloatBackend,
    NotSemimetric,
    Space,
    coincreasing,
    derive_partner,
    distance_set,
    find_weak_similarity,
    is_metric,
    is_ultrametric,
    max_ultrametric_from_set,
    new_space,
    random_metric,
    random_ultrametric,
    rank_matrix,
    snowflake,
    verify,
)
from weaksim import spaces as spaces_module
from weaksim.cli import run
from weaksim.formats import save_space

EPS = 1e-9


def verdict(v):
    return v.ok, v.witness


def assert_axioms_match(space):
    assert verdict(is_metric(space)) == brute_force_is_metric(space)
    assert verdict(is_ultrametric(space)) == brute_force_is_ultrametric(space)


def assert_coincreasing_matches(d, rho):
    assert verdict(coincreasing(d, rho)) == brute_force_coincreasing(d, rho)


def shuffled_labels(space, seed):
    """The same matrix under names whose sorted order is not index order."""
    rng = random.Random(seed)
    names = [f"p{k:02d}" for k in range(space.n)]
    rng.shuffle(names)
    return new_space(names, space.matrix, space.backend)


def late_violation(space, seed):
    """Lengthen one pair near the end of label order past a two-step path."""
    rng = random.Random(seed)
    n = space.n
    m = [list(row) for row in space.matrix]
    i, j = n - 1, n - 2 - rng.randrange(max(n - 2, 1))
    k = rng.choice([c for c in range(n) if c not in (i, j)])
    m[i][j] = m[j][i] = m[i][k] + m[k][j] + F(1, rng.randint(1, 5))
    return new_space(space.labels, m, space.backend)


def jittered_float(space, seed, scale=0.4 * EPS):
    """A float copy whose entries move by less than the tolerance; the
    diagonal may sit just off 0, which still counts as zero."""
    rng = random.Random(seed)
    n = space.n
    m = [[float(v) for v in row] for row in space.matrix]
    for i in range(n):
        m[i][i] = rng.choice((0.0, 1e-12, -1e-12))
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = m[i][j] * (1 + rng.choice((-scale, 0.0, scale)))
    return new_space(space.labels, m, FloatBackend(epsilon=EPS))


def ambiguous_matrix(n, seed):
    """Labels and a float semimetric whose distances chain within tolerance
    from 1 to 1 + 1.8e-9, so that grouping them into ranks is ambiguous."""
    rng = random.Random(seed)
    chain = [1.0, 1.0 + 0.9 * EPS, 1.0 + 1.8 * EPS]
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.choice(chain + [rng.choice((2.0, 3.5))])
    m[0][1] = m[1][0] = chain[0]
    m[0][2] = m[2][0] = chain[2]
    m[1][2] = m[2][1] = chain[1]
    return [f"z{k}" for k in range(n)], m


def passed_over(space, m, combine):
    """The pairs (x, z) whose row comparison the triangle scan skips: x's
    largest entry from the column after x (every column when ``m`` is not
    symmetric) is no more than combine(d(x, z), the least of z's row off
    its diagonal), so no y can give m[x][y] > combine(m[x][z], m[z][y])."""
    n, labels = space.n, space.labels
    order = sorted(range(n), key=labels.__getitem__)
    rows = [[m[i][k] for k in order] for i in order]
    mirrored = all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n))
    least = [min(v for c, v in enumerate(row) if c != b) for b, row in enumerate(rows)]
    skipped = set()
    for a, row in enumerate(rows):
        tail = row[a + 1 :] if mirrored else row
        for b in range(n):
            if tail and b != a and max(tail) <= combine(row[b], least[b]):
                skipped.add((labels[order[a]], labels[order[b]]))
    return skipped


seeds = st.integers(0, 10_000)


class TestAxiomParity:
    @given(seeds, st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_random_semimetrics(self, seed, n):
        assert_axioms_match(random_semimetric(n, seed))

    @given(seeds, st.integers(3, 8))
    @settings(max_examples=40, deadline=None)
    def test_perturbed_metrics_with_late_witnesses(self, seed, n):
        space = late_violation(random_metric(n, seed), seed)
        assert not is_metric(space).ok
        assert_axioms_match(space)

    @given(seeds, st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_labels_out_of_index_order(self, seed, n):
        for base in (random_semimetric(n, seed), random_ultrametric(n, seed)):
            assert_axioms_match(shuffled_labels(base, seed))
        if n >= 3:
            late = late_violation(random_metric(n, seed), seed)
            assert_axioms_match(shuffled_labels(late, seed + 1))

    @given(seeds, st.integers(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_float_values_within_epsilon(self, seed, n):
        for base in (random_ultrametric(n, seed), random_semimetric(n, seed)):
            assert_axioms_match(jittered_float(base, seed))

    def test_float_triangle_equality_within_epsilon(self):
        s = new_space(
            ["a", "b", "c"],
            [[0.0, 1.0, 2.0 + 0.5e-9], [1.0, 0.0, 1.0], [2.0 + 0.5e-9, 1.0, 0.0]],
            FloatBackend(epsilon=EPS),
        )
        assert is_metric(s).ok
        assert_axioms_match(s)

    def test_float_matrix_symmetric_only_within_tolerance(self):
        """99.5 and 100 share a rank, so the matrix loads, but it is not
        exactly symmetric: (b, c, a) offends and its mirror (a, c, b) does
        not, so the witness has y before x."""
        s = new_space(
            ["a", "b", "c"],
            [[0, 99.5, 58.6], [100, 0, 40], [58.6, 40, 0]],
            FloatBackend(epsilon=0.01),
        )
        assert verdict(is_metric(s)) == (False, ("b", "c", "a"))
        assert_axioms_match(s)

    @given(seeds, st.integers(3, 8))
    @settings(max_examples=30, deadline=None)
    def test_broken_ultrametrics(self, seed, n):
        """An ultrametric with one late pair lengthened past a two-step
        path is off the spanning-tree shortcut, and still matches the
        oracles, under shuffled labels too."""
        late = late_violation(random_ultrametric(n, seed), seed)
        assert not is_ultrametric(late).ok and not is_metric(late).ok
        assert_axioms_match(late)
        assert_axioms_match(shuffled_labels(late, seed + 1))

    @given(seeds, st.integers(3, 6))
    @settings(max_examples=30, deadline=None)
    def test_ambiguous_rankings_fall_back_to_values(self, seed, n):
        """No space is built without ranks; a matrix that is not a
        semimetric still fails first, at the witness of the value scan."""
        labels, m = ambiguous_matrix(n, seed)
        backend = FloatBackend(epsilon=EPS)
        with pytest.raises(AmbiguousRanking) as expected:  # a semimetric all the same: the scan passes
            scan_new_space(labels, m, backend)
        with pytest.raises(AmbiguousRanking) as got:
            new_space(labels, m, backend)
        assert str(got.value) == str(expected.value)
        i, j = random.Random(seed).sample(range(n), 2)
        m[i][j] = 4.0  # the chain and 2.0, 3.5 never give 4.0: asymmetric
        with pytest.raises(NotSemimetric) as expected:
            scan_new_space(labels, m, backend)
        with pytest.raises(NotSemimetric) as got:
            new_space(labels, m, backend)
        assert (got.value.witness, got.value.reason) == (expected.value.witness, expected.value.reason)

    @given(seeds, st.integers(3, 9), st.sampled_from([F(1, 2), F(1, 3), F(2, 3)]))
    @settings(max_examples=40, deadline=None)
    def test_row_bound_passes_over_pairs_of_passing_spaces(self, seed, n, p):
        """Compressed distances leave most rows within one step of each
        other: the bound skips pairs, and the verdicts still match."""
        metric = random_metric(n, seed)
        for space in (metric, snowflake(metric, p), shuffled_labels(snowflake(metric, p), seed)):
            assert passed_over(space, space.matrix, lambda a, b: a + b)
            assert_axioms_match(space)
        ultra = snowflake(random_ultrametric(n, seed), p)
        assert passed_over(ultra, rank_matrix(ultra).ranks, max)
        assert_axioms_match(ultra)

    @given(seeds, st.integers(3, 9))
    @settings(max_examples=40, deadline=None)
    def test_row_bound_never_passes_over_a_witness(self, seed, n):
        """On failing spaces the witness's pair (x, z) is one the bound
        keeps, and the first witness is found as before."""
        metric = random_metric(n, seed)
        spaces = (
            late_violation(metric, seed),
            shuffled_labels(late_violation(metric, seed), seed + 1),
            late_violation(random_ultrametric(n, seed), seed),
            jittered_float(late_violation(metric, seed), seed),
            random_semimetric(n, seed),
        )
        for space in spaces:
            assert_axioms_match(space)
            for check, m, combine in (
                (is_metric, space.matrix, lambda a, b: a + b),
                (is_ultrametric, rank_matrix(space).ranks, max),
            ):
                witness = check(space).witness
                assert witness is None or witness[:2] not in passed_over(space, m, combine)

    @pytest.mark.parametrize(
        "diagonal, d_ab",
        [
            # 1.5e-9 compares equal to 9e-10, so it would share rank 0
            ((9e-10, 9e-10, 9e-10), 1.5e-9),
            # both count as 0, but -9e-10 and 9e-10 do not compare equal
            ((-9e-10, 9e-10, 9e-10), 1.0),
        ],
    )
    def test_rank_zero_is_only_the_diagonal(self, diagonal, d_ab):
        a, b, c = diagonal
        m = [[a, d_ab, 1.0], [d_ab, b, 1.0], [1.0, 1.0, c]]
        with pytest.raises(AmbiguousRanking) as expected:  # a semimetric: the scan passes
            scan_new_space(["a", "b", "c"], m, FloatBackend(epsilon=EPS))
        with pytest.raises(AmbiguousRanking) as got:
            new_space(["a", "b", "c"], m, FloatBackend(epsilon=EPS))
        assert str(got.value) == str(expected.value)


class TestUltrametricShortcut:
    """A rational ultrametric is a metric: is_metric passes it on the rank
    view's spanning-tree verdict, which each space computes once."""

    def test_rational_ultrametrics_are_never_scanned(self, monkeypatch):
        def scan(*args):
            raise AssertionError("a rational ultrametric was scanned")

        monkeypatch.setattr(spaces_module, "_first_triple", scan)
        for seed in range(6):
            s = random_ultrametric(48, seed)
            assert verdict(is_metric(s)) == (True, None)
            assert verdict(is_metric(shuffled_labels(s, seed))) == (True, None)
        s = max_ultrametric_from_set([0, 1, F(5, 2), 7, 100])
        assert verdict(is_metric(s)) == verdict(is_ultrametric(s)) == (True, None)

    def test_one_spanning_tree_per_space(self, monkeypatch, tmp_path):
        calls = []
        tree = spaces_module._spanning_tree_agrees

        def counted(ranks):
            calls.append(ranks)
            return tree(ranks)

        monkeypatch.setattr(spaces_module, "_spanning_tree_agrees", counted)
        ultra = random_ultrametric(20, 3)
        for k, s in enumerate((ultra, random_metric(12, 3), jittered_float(ultra, 3))):
            path = str(tmp_path / f"s{k}.json")
            save_space(path, s)
            calls.clear()
            assert run(["check", "--in", path, "--metric", "--ultrametric"]) in (0, 1)
            assert len(calls) == 1

    def test_time_bounds(self):
        ultra, metric = random_ultrametric(400, 1), random_metric(120, 1)
        start = time.perf_counter()
        assert is_metric(ultra).ok and is_ultrametric(ultra).ok
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        assert is_metric(metric).ok
        assert time.perf_counter() - start < 2.0


class TestCoincreasingParity:
    @given(seeds, st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_random_semimetric_pairs(self, seed, n):
        a, b = random_semimetric(n, seed), random_semimetric(n, seed + 1)
        assert_coincreasing_matches(a, b)
        assert_coincreasing_matches(a, a)

    @given(seeds, st.integers(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_late_disagreement(self, seed, n):
        d = random_metric(n, seed)
        rho = new_space(d.labels, [[v + v * v for v in row] for row in d.matrix])
        assert coincreasing(d, rho).ok
        assert_coincreasing_matches(d, late_violation(rho, seed))
        assert_coincreasing_matches(shuffled_labels(d, seed), shuffled_labels(rho, seed))

    @given(seeds, st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_float_within_epsilon(self, seed, n):
        d = random_semimetric(n, seed)
        assert_coincreasing_matches(jittered_float(d, seed), d)
        assert_coincreasing_matches(jittered_float(d, seed), jittered_float(d, seed + 1))
        other = random_semimetric(n, seed + 2)
        assert_coincreasing_matches(jittered_float(d, seed), jittered_float(other, seed))

    @given(seeds, st.integers(3, 5))
    @settings(max_examples=20, deadline=None)
    def test_ambiguous_rankings_fall_back_to_values(self, seed, n):
        """An ambiguous chain never reaches coincreasing: new_space refuses
        it.  Cut to 1, 1 + 0.9e-9, whose ends compare equal, it loads, and
        the verdict on ranks agrees with the oracle's scan of the values."""
        backend = FloatBackend(epsilon=EPS)
        labels, m = ambiguous_matrix(n, seed)
        with pytest.raises(AmbiguousRanking):
            new_space(labels, m, backend)

        def cut(matrix):
            return [[min(v, 1.0 + 0.9 * EPS) if v < 2.0 else v for v in row] for row in matrix]

        s = new_space(labels, cut(m), backend)
        other = new_space(labels, cut(ambiguous_matrix(n, seed + 1)[1]), backend)
        assert_coincreasing_matches(s, s)
        assert_coincreasing_matches(s, other)
        plain = new_space(labels, [[round(v) for v in row] for row in m])
        assert_coincreasing_matches(plain, s)


class TestVerifyParity:
    @given(seeds, st.integers(2, 9))
    @settings(max_examples=40, deadline=None)
    def test_scrambled_mappings_give_the_first_bad_pair(self, seed, n):
        X = random_metric(n, seed)
        Y, _ = derive_partner(X, "distorted", seed=seed + 1)
        scaling = find_weak_similarity(X, Y).scaling
        for k in range(5):
            mapping = random_bijection(X, Y, seed + k)
            expected = brute_force_verify(X, Y, mapping, scaling)
            assert verdict(verify(X, Y, mapping, scaling)) == expected

    @given(seeds, st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_relabeled_targets(self, seed, n):
        X = shuffled_labels(random_ultrametric(n, seed), seed)
        Y, ws = derive_partner(X, "relabeled", seed=seed)
        assert verdict(verify(X, Y, ws.as_map(), ws.scaling)) == (True, None)
        mapping = random_bijection(X, Y, seed)
        expected = brute_force_verify(X, Y, mapping, ws.scaling)
        assert verdict(verify(X, Y, mapping, ws.scaling)) == expected


class TestCachedView:
    def test_populated_cache_keeps_equality_and_hash(self):
        s = random_metric(6, 4)
        fresh = Space(labels=s.labels, matrix=s.matrix, backend=s.backend)
        assert is_metric(s).ok and is_ultrametric(s).ok is False
        distance_set(s), rank_matrix(s), s.index(s.labels[-1])
        assert "_view" in vars(s) and "_view" not in vars(fresh)
        assert s == fresh and hash(s) == hash(fresh)
        assert {s: 1}[fresh] == 1
        assert distance_set(fresh) == distance_set(s)
        assert rank_matrix(fresh) == rank_matrix(s)

    def test_view_is_built_once(self):
        s = random_ultrametric(5, 1)
        assert rank_matrix(s).ranks is rank_matrix(s).ranks
        assert distance_set(s).values is s._view.values
