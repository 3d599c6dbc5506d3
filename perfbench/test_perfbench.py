"""Tests of the benchmark's own inputs and answer checks.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench

The graph facts asserted here (strongly regular parameters, automorphism
counts, non-isomorphism invariants) are known independently of the solver;
at small sizes the checks are also compared with the brute-force oracles in
tests/oracles.py.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import instances as inst  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from weaksim import (  # noqa: E402
    coincreasing,
    enumerate_weak_similarities,
    find_weak_similarity,
    function_table,
    is_metric,
    is_ultrametric,
    new_space,
)
from workloads import WORKLOADS  # noqa: E402


def space(adj, seed=None):
    return new_space(*inst.two_distance_matrix(adj, "v", seed))


# ---------------------------------------------------------- graph facts


def srg_parameters(adj) -> tuple | None:
    """(n, k, lambda, mu) if the graph is strongly regular, else None."""
    n = len(adj)
    nbrs = [{j for j in range(n) if adj[i][j]} for i in range(n)]
    degrees = {len(s) for s in nbrs}
    if len(degrees) != 1:
        return None
    lam, mu = set(), set()
    for i in range(n):
        for j in range(i + 1, n):
            (lam if adj[i][j] else mu).add(len(nbrs[i] & nbrs[j]))
    if len(lam) > 1 or len(mu) > 1:
        return None
    return n, degrees.pop(), lam.pop() if lam else 0, mu.pop() if mu else 0



@pytest.mark.parametrize("q", [5, 13, 17, 29])
def test_paley_graphs_are_strongly_regular(q):
    assert srg_parameters(inst.paley_graph(q)) == (q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)


def test_rook_shrikhande_and_latin_square_parameters():
    assert srg_parameters(inst.rook_graph(4)) == (16, 6, 2, 2)
    assert srg_parameters(inst.shrikhande_graph()) == (16, 6, 2, 2)
    for table in (inst.cyclic_table(6), inst.s3_table()):
        assert srg_parameters(inst.latin_square_graph(table)) == (36, 15, 6, 6)


def test_paley_rejects_composite_or_wrong_residue():
    for q in (9, 7, 21):
        with pytest.raises(ValueError):
            inst.paley_graph(q)


def _neighbourhood_components(adj, v):
    """Connected components of the subgraph induced on v's neighbours."""
    nbrs = [u for u in range(len(adj)) if adj[v][u]]
    seen, parts = set(), 0
    for start in nbrs:
        if start in seen:
            continue
        parts += 1
        stack = [start]
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(w for w in nbrs if adj[u][w] and w not in seen)
    return parts


def _count_k4(adj):
    n = len(adj)
    return sum(
        1
        for a, b, c, d in itertools.combinations(range(n), 4)
        if adj[a][b] and adj[a][c] and adj[a][d] and adj[b][c] and adj[b][d] and adj[c][d]
    )


def test_non_equivalent_pairs_differ_in_a_solver_free_invariant():
    # Rook-graph neighbourhoods are two triangles, Shrikhande's a hexagon.
    rook, shrik = inst.rook_graph(4), inst.shrikhande_graph()
    assert {_neighbourhood_components(rook, v) for v in range(16)} == {2}
    assert {_neighbourhood_components(shrik, v) for v in range(16)} == {1}
    z6 = inst.latin_square_graph(inst.cyclic_table(6))
    s3 = inst.latin_square_graph(inst.s3_table())
    assert _count_k4(z6) != _count_k4(s3)


@pytest.mark.parametrize(
    "adj, count",
    [
        (inst.paley_graph(5), 5 * 4 // 2),
        (inst.paley_graph(13), 13 * 12 // 2),
        (inst.paley_graph(17), 17 * 16 // 2),
        (inst.rook_graph(4), 1152),
        (inst.shrikhande_graph(), 192),
    ],
)
def test_automorphism_counts_match_known_values(adj, count):
    X, Y = space(adj), space(adj, seed=7)
    found = enumerate_weak_similarities(X, Y, limit=None)
    assert len(found) == count
    check = inst.weak_similarity_check(X.labels, X.matrix, Y.labels, Y.matrix)
    assert all(check(ws.as_map()) for ws in found)


def test_symmetric_workload_counts_are_the_known_ones():
    from workloads import SYMMETRIC_GRAPHS

    assert {name: count for name, (_, count) in SYMMETRIC_GRAPHS.items()} == {
        "p13": 78,
        "p29": 29 * 28 // 2,
        "rook": 1152,
        "shrik": 192,
        "latin_z6": None,
        "latin_s3": None,
    }


def test_non_equivalent_pairs_have_no_morphism():
    rook, shrik = space(inst.rook_graph(4), 1), space(inst.shrikhande_graph(), 2)
    assert find_weak_similarity(rook, shrik) is None
    assert find_weak_similarity(shrik, rook) is None


@pytest.mark.parametrize("adj", [inst.paley_graph(5), inst.rook_graph(2), inst.rook_graph(3)])
def test_small_instances_match_the_brute_force_oracle(adj):
    X, Y = space(adj, seed=3), space(adj, seed=4)
    expected = oracles.brute_force_weak_similarities(X, Y)
    assert [ws.as_map() for ws in enumerate_weak_similarities(X, Y, limit=None)] == expected
    check = inst.weak_similarity_check(X.labels, X.matrix, Y.labels, Y.matrix)
    assert all(check(m) for m in expected)


# ------------------------------------------------------------ answer checks


def test_weak_similarity_check_agrees_with_the_oracle_on_random_bijections():
    X = oracles.random_semimetric(5, 1)
    target = new_space([f"t{i}" for i in range(5)], [[2 * v for v in row] for row in X.matrix])
    good = oracles.brute_force_weak_similarities(X, target)
    check = inst.weak_similarity_check(X.labels, X.matrix, target.labels, target.matrix)
    assert good and all(check(m) for m in good)
    for seed in range(40):
        mapping = oracles.random_bijection(X, target, seed)
        assert check(mapping) == (mapping in good)


def test_classify_pairing():
    assert inst.classify_pairing({0: 0, 2: 2, 5: 5}) == ("isometry", 1)
    assert inst.classify_pairing({0: 0, 3: 2, 6: 4}) == ("similarity", Fraction(3, 2))
    assert inst.classify_pairing({0: 0, 1: 2, 3: 4}) == ("generic", None)


@pytest.mark.parametrize("seed", range(6))
def test_axiom_scans_agree_with_the_library(seed):
    S = oracles.random_semimetric(7, seed)
    for scan, check in (
        (inst.first_triangle_violation, is_metric),
        (inst.first_ultrametric_violation, is_ultrametric),
    ):
        verdict = check(S)
        assert scan(S.labels, S.matrix) == (None if verdict.ok else verdict.witness)
    R = oracles.random_semimetric(7, seed + 50)
    verdict = coincreasing(S, new_space(S.labels, R.matrix))
    assert inst.first_order_disagreement(S.labels, S.matrix, R.matrix) == verdict.witness


@pytest.mark.parametrize("seed", range(30))
def test_cover_oracle_agrees_with_naive_subadditivity(seed):
    rng = random.Random(seed)
    domain = sorted({Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(4)})
    rows = [(a, Fraction(rng.randint(1, 20), rng.randint(1, 5))) for a in domain]
    table = function_table(rows)
    violation = inst.first_subadditivity_violation(rows)
    assert (violation is None) == oracles.naive_generalized_subadditivity(table)


def test_cover_costs_closed_forms():
    rows = [(Fraction(1, 40), Fraction(1, 40)), (Fraction(3, 7), Fraction(3, 7)), (1, 1), (2, 2)]
    assert inst.min_cover_costs(rows, [5])[5] == 5
    assert inst.min_cover_costs([(2, 3), (3, 4)], [4])[4] == 6
    assert inst.min_cover_costs([(2, 3), (3, 4)], [5])[5] == 7


# ---------------------------------------------------------------- harness


def test_percentile_is_nearest_rank_with_failures_on_top():
    samples = [float(k) for k in range(1, 51)]
    assert run.percentile(samples, 0.5) == 25
    assert run.percentile(samples, 0.8) == 40
    assert run.percentile(samples[:-10] + [float("inf")] * 10, 0.8) == 40


def test_typical_replaces_each_sample_by_its_kind_central_mean():
    pairs = [("a", 1.0), ("b", 10.0), ("a", 3.0), ("b", 30.0), ("a", 2.0), ("a", 90.0)]
    assert run.typical(pairs) == [2.5, 20.0, 2.5, 20.0, 2.5, 2.5]  # a: mean of 2 and 3
    assert run.percentile(run.typical(pairs), 0.5) == 2.5


def test_bracket_scales_by_the_mean_of_the_neighbouring_references():
    times = iter([0.1, 0.3, 0.2, 0.2])
    bracket = run.Bracket(lambda: next(times), 0.1)
    assert bracket.scale(1.0) == pytest.approx(0.5)  # references 0.1 and 0.3
    bracket.restart()  # 0.2, after untimed work
    assert bracket.scale(1.0) == pytest.approx(0.5)  # references 0.2 and 0.2
    assert bracket.speed() == pytest.approx(0.5)


def test_tracer_self_time_subtracts_children():
    tr = Tracer()
    with tr.question(0):
        tr.call("outer", lambda: tr.call("inner", sum, range(1000)))
    times = tr.self_times()
    assert times["outer"][1] == times["inner"][1] == times["question"][1] == 1
    spans = {s[0]: s for s in tr.spans}
    outer = spans["outer"][2] - spans["outer"][1]
    assert times["outer"][0] == pytest.approx(outer - (spans["inner"][2] - spans["inner"][1]))


def test_tracer_counts_recursion_failures():
    tr = Tracer()

    def deep(k):
        return deep(k + 1)

    with pytest.raises(RecursionError):
        tr.call("transforms.hull_eval", deep, 0)
    assert tr.counts["transforms.recursion_failures"] == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_deterministic_and_answers_check(name, tmp_path):
    workload = WORKLOADS[name]
    digests = []
    for attempt, seed in enumerate((5, 5, 6)):
        wd = tmp_path / str(attempt)
        wd.mkdir()
        instances = workload.setup(seed, str(wd), NullTracer())
        digests.append({f: run._digest(str(wd / f)) for f in sorted(os.listdir(wd))})
    assert digests[0] == digests[1] != digests[2]
    mix = workload.mix(instances, str(wd))
    for q in mix.questions:
        seconds, answer, exc = run.ask(q, NullTracer())
        assert exc is None and q.check(answer), q.kind
    for q in mix.known_defects:  # the recursion-limit defect, until it is fixed
        seconds, answer, exc = run.ask(q, NullTracer())
        assert isinstance(exc, RecursionError) or q.check(answer), q.kind
