"""The iterative search, the coset enumeration and the table algebra.

Enumeration (one first leaf times Aut(X), walked in lexicographic order)
must list exactly the brute-force oracle's mappings in the oracle's
(canonical) order, at any depth the recursion limit would not allow, and
the pairwise-check search's sequence at sizes brute force cannot reach;
realizations found between float spaces must compose, invert and
factorize by exact table lookup.
"""

import inspect
import itertools
import math
import operator
import random
import string
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_weak_similarities, pairwise_search, signature_refinement
from weaksim import (
    RATIONAL,
    DomainMismatch,
    FloatBackend,
    ScalingFunction,
    build_realization,
    classify_scaling,
    compose,
    derive_partner,
    distance_set,
    enumerate_weak_similarities,
    factorize,
    find_weak_similarity,
    increasing_bijection,
    invert,
    new_space,
    random_ultrametric,
    segment_grid,
    snowflake,
    verify,
)
from weaksim.morphisms import _rank_disagreement, _refine_colors, _Search, _solve
from weaksim.spaces import _label_order


def shuffled_labels(n, rng):
    """n distinct labels stored out of sorted order (for n > 1)."""
    labels = rng.sample(string.ascii_lowercase, n)
    while n > 1 and labels == sorted(labels):
        rng.shuffle(labels)
    return labels


def random_space(n, seed, values):
    """Distances drawn from ``values``; {2, 3, 4} always gives a metric."""
    rng = random.Random(seed)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.choice(values)
    return new_space(shuffled_labels(n, rng), m)


def assert_same_order_as_oracle(X, Y):
    got = [ws.as_map() for ws in enumerate_weak_similarities(X, Y, limit=None)]
    assert got == brute_force_weak_similarities(X, Y)


class TestOrderParity:
    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_metrics_with_unsorted_labels(self, seed, n):
        X = random_space(n, seed, [2, 3, 4])
        assert_same_order_as_oracle(X, X)
        assert_same_order_as_oracle(X, random_space(n, seed + 1, [2, 3, 4]))

    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_relabeled_partners(self, seed, n):
        X = random_space(n, seed, [2, 3, 4])
        Y, _ = derive_partner(X, "relabeled", seed=seed + 5)
        assert_same_order_as_oracle(X, Y)
        assert_same_order_as_oracle(Y, X)

    @given(st.integers(0, 10_000), st.integers(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_two_distance_spaces(self, seed, n):
        X = random_space(n, seed, [1, 2])
        Y, _ = derive_partner(X, "relabeled", seed=seed + 3)
        assert_same_order_as_oracle(X, Y)
        assert_same_order_as_oracle(X, random_space(n, seed + 2, [1, 2]))


def paley_graph(q):
    squares = {x * x % q for x in range(1, q)}
    return [[(i - j) % q in squares for j in range(q)] for i in range(q)]


def rook_graph():
    cells = [(r, c) for r in range(4) for c in range(4)]
    return [[u != v and (u[0] == v[0] or u[1] == v[1]) for v in cells] for u in cells]


def shrikhande_graph():
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    cells = [(r, c) for r in range(4) for c in range(4)]
    return [[((u[0] - v[0]) % 4, (u[1] - v[1]) % 4) in steps for v in cells] for u in cells]


def latin_square_graph(order, symbol):
    """Cells of an order x order Latin square, adjacent on a shared row,
    column or symbol."""
    cells = [(r, c) for r in range(order) for c in range(order)]
    return [
        [u != v and (u[0] == v[0] or u[1] == v[1] or symbol(*u) == symbol(*v)) for v in cells]
        for u in cells
    ]


def cyclic(order):
    return lambda r, c: (r + c) % order


def dihedral(m):
    """The multiplication table of D_m, order 2m: element k < m is the
    rotation r^k, element m + k the reflection r^k s."""

    def product(a, b):
        (fa, ka), (fb, kb) = divmod(a, m), divmod(b, m)
        return (fa ^ fb) * m + (ka + (-kb if fa else kb)) % m

    return product


S3 = sorted(itertools.permutations(range(3)))

STRONGLY_REGULAR = {
    "p13": lambda: paley_graph(13),
    "p29": lambda: paley_graph(29),
    "rook": rook_graph,
    "shrik": shrikhande_graph,
    "latin_z6": lambda: latin_square_graph(6, cyclic(6)),
    "latin_s3": lambda: latin_square_graph(6, lambda r, c: tuple(S3[r][k] for k in S3[c])),
    "latin_z4": lambda: latin_square_graph(4, cyclic(4)),
    "latin_z2_2": lambda: latin_square_graph(4, operator.xor),
    "latin_z8": lambda: latin_square_graph(8, cyclic(8)),
    "latin_z2_3": lambda: latin_square_graph(8, operator.xor),
    "latin_z10": lambda: latin_square_graph(10, cyclic(10)),
    "latin_d5": lambda: latin_square_graph(10, dihedral(5)),
}


def two_distance_space(adj, near, far, seed=None):
    """The graph's points at distance ``near`` when adjacent, ``far`` when
    not; with a seed, relabelled by a shuffle."""
    order = list(range(len(adj)))
    if seed is not None:
        random.Random(seed).shuffle(order)
    m = [[0 if i == j else near if adj[i][j] else far for j in order] for i in order]
    return new_space([f"v{k:02d}" for k in range(len(adj))], m)


@pytest.mark.parametrize(
    "x, y, distances, count",
    [
        ("rook", "shrik", (1, 2), 0),
        ("shrik", "rook", (1, 2), 0),
        ("p13", "p13", (3, 6), 78),
        ("shrik", "shrik", (1, 5), 192),
        ("rook", "rook", (1, 2), 1152),
        ("p29", "p29", (2, 4), 406),
        ("latin_z6", "latin_s3", (1, 2), 0),
    ],
)
def test_enumeration_classifies_like_each_result_on_its_own(x, y, distances, count):
    """One classification serves every result: the list equals one
    `build_realization` per mapping, each classifying the table again."""
    X = two_distance_space(STRONGLY_REGULAR[x](), 1, 2)
    Y = two_distance_space(STRONGLY_REGULAR[y](), *distances, seed=7)
    found = enumerate_weak_similarities(X, Y, limit=None)
    assert len(found) == count
    scaling = increasing_bijection(distance_set(Y), distance_set(X))
    assert found == [build_realization(X, Y, ws.mapping, scaling) for ws in found]


def graph_space(n, edges, seed=None):
    """n points, 1 apart along the edges and 2 apart otherwise; with a seed,
    relabelled by a shuffle."""
    adj = [[(i, j) in edges or (j, i) in edges for j in range(n)] for i in range(n)]
    return two_distance_space(adj, 1, 2, seed)


@st.composite
def refinement_pairs(draw):
    """Pairs of generated spaces of one size: partners that refinement
    settles, and independent draws that it mostly tells apart."""
    kind = draw(st.sampled_from(["ultrametric", "metric", "two_distance"]))
    seed = draw(st.integers(0, 10_000))
    if kind == "ultrametric":
        X = random_ultrametric(draw(st.integers(1, 30)), seed)
        other = draw(st.sampled_from(["distorted", "relabeled", "independent"]))
        if other == "independent":
            return X, random_ultrametric(X.n, seed + 1)
        Y, _ = derive_partner(X, other, seed=seed + 1)
        return X, derive_partner(Y, "relabeled", seed=seed + 2)[0]
    values = [2, 3, 4] if kind == "metric" else [1, 2]
    X = random_space(draw(st.integers(1, 12)), seed, values)
    if draw(st.booleans()):
        return X, derive_partner(X, "relabeled", seed=seed + 1)[0]
    return X, random_space(X.n, seed + 1, values)


def cells(colors):
    """The set partition of X ⊔ Y that a pair of colourings makes."""
    colorsX, colorsY = colors
    members: dict = {}
    for side, side_colors in (("x", colorsX), ("y", colorsY)):
        for i, c in enumerate(side_colors):
            members.setdefault(c, set()).add((side, i))
    return {frozenset(m) for m in members.values()}


def assert_refinement_agrees(X, Y):
    """The splitter queue returns None exactly where re-signing every row
    each round does, and otherwise ends with the same cells, and gives X
    the colours that refining X against itself gives: the stabilizer chain
    builds Aut(X) on the X -> Y search's cells, which must not depend on Y."""
    rkX, rkY = X._view.ranks, Y._view.ranks
    expected, got = signature_refinement(rkX, rkY), _refine_colors(rkX, rkY)
    if expected is None:
        assert got is None
        assert enumerate_weak_similarities(X, Y, limit=None) == []
    else:
        assert got is not None and cells(got[:2]) == cells(expected)
        assert got[0] == _refine_colors(rkX, rkX)[0]


def lone_pairs_space(k, ab, ac, ad):
    """A block of k points 10 apart, labelled to sort first, and points a,
    b, c, d at 4, 5, 6 and 7 from every block point: refinement makes
    each of a-d a cell of its own and never splits the block.  ab = cd,
    ac = bd and ad = bc are given."""
    labels = [f"k{i:02d}" for i in range(k)] + ["xa", "xb", "xc", "xd"]
    rows = [[0 if i == j else 10 for j in range(k)] + [4, 5, 6, 7] for i in range(k)]
    among = [[0, ab, ac, ad], [ab, 0, ad, ac], [ac, ad, 0, ab], [ad, ac, ab, 0]]
    rows += [[4 + m] * k + among[m] for m in range(4)]
    return new_space(labels, rows)


@given(pair=refinement_pairs())
@settings(max_examples=300, deadline=None)
def test_refinement_matches_the_signature_oracle(pair):
    assert_refinement_agrees(*pair)


RING = {(i, (i + 1) % 6) for i in range(6)}
TRIANGLES = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
# two pendant points, one next to the point of degree 4 and one next to a
# point of degree 2; the point of degree 4 splits the pendants' cell while
# it waits in the queue, and the pendant that keeps the cell's place is the
# splitter that then tells the points of degree 2 apart
PENDANTS = {(0, 1), (0, 3), (1, 2), (1, 4), (1, 5), (2, 4)}

FIXED_PAIRS = {
    "ring_triangles": lambda: (graph_space(6, RING), graph_space(6, TRIANGLES)),
    "triangles_ring": lambda: (graph_space(6, TRIANGLES), graph_space(6, RING)),
    "pendants": lambda: (graph_space(6, PENDANTS), graph_space(6, PENDANTS)),
    "pendants_relabeled": lambda: (graph_space(6, PENDANTS), graph_space(6, PENDANTS, seed=3)),
    "lone_pairs": lambda: (lone_pairs_space(3, 1, 2, 3), lone_pairs_space(3, 2, 1, 3)),
    "lone_pairs_same": lambda: (lone_pairs_space(3, 1, 2, 3), lone_pairs_space(3, 1, 2, 3)),
    "one_point": lambda: (new_space(["a"], [[0]]), new_space(["b"], [[0]])),
    "two_points": lambda: (new_space(["a", "b"], [[0, 1], [1, 0]]), new_space(["c", "d"], [[0, 3], [3, 0]])),
    **{
        f"{x}_{y}": lambda x=x, y=y: (
            two_distance_space(STRONGLY_REGULAR[x](), 1, 2),
            two_distance_space(STRONGLY_REGULAR[y](), 1, 2, seed=7),
        )
        for x, y in [
            ("rook", "shrik"),
            ("shrik", "rook"),
            ("p13", "p13"),
            ("rook", "rook"),
            ("latin_z6", "latin_s3"),
            ("latin_z4", "latin_z2_2"),
            ("latin_z2_2", "latin_z4"),
        ]
    },
}


@pytest.mark.parametrize("name", sorted(FIXED_PAIRS))
def test_refinement_matches_the_signature_oracle_on_fixed_pairs(name):
    assert_refinement_agrees(*FIXED_PAIRS[name]())


def test_refinement_that_fails_after_a_later_split():
    """A 5-point path against a triangle beside an edge: every row holds the
    same ranks in both (two ends, three middles), so the first split is
    balanced; splitting by the ends then finds ends next to middles in the
    path and next to each other beside the triangle."""
    path = graph_space(5, {(0, 1), (1, 2), (2, 3), (3, 4)})
    apart = graph_space(5, {(0, 1), (0, 2), (1, 2), (3, 4)})
    assert sorted(map(sorted, path._view.ranks)) == sorted(map(sorted, apart._view.ranks))
    assert find_weak_similarity(path, apart) is None
    assert enumerate_weak_similarities(path, apart) == []
    assert brute_force_weak_similarities(path, apart) == []
    assert _refine_colors(path._view.ranks, apart._view.ranks) is None


def test_lone_pairs_that_disagree_are_refused_before_the_search():
    """Every row holds the same ranks in both spaces and every split is
    balanced, but a and b are 1 apart in X and 2 apart in Y.  Placing the
    block first, a search left to find that would try all 12! orders of
    the block."""
    X, Y = lone_pairs_space(12, 1, 2, 3), lone_pairs_space(12, 2, 1, 3)
    assert _refine_colors(X._view.ranks, Y._view.ranks) is None
    start = time.perf_counter()
    assert find_weak_similarity(X, Y) is None
    assert enumerate_weak_similarities(X, Y) == []
    assert time.perf_counter() - start < 1.0


def mappings(X, Y, limit=None):
    return [ws.mapping for ws in enumerate_weak_similarities(X, Y, limit)]


def assert_same_sequence_as_pairwise(X, Y, limit=500):
    """The first ``limit`` mappings of the enumeration and of the oracle,
    order included."""
    assert mappings(X, Y, limit) == list(itertools.islice(pairwise_search(X, Y), limit))


class TestPairwiseSearchParity:
    """Settled lone pairs, candidate bitmasks and the walk of the coset
    change no result and no position in the order, on ultrametrics of up
    to 48 points and on two-distance spaces, where brute force stops at 7
    points."""

    @given(st.integers(0, 10_000), st.integers(1, 48), st.sampled_from(["relabeled", "scaled", "distorted"]))
    @settings(max_examples=30, deadline=None)
    def test_ultrametrics(self, seed, n, mode):
        X = random_ultrametric(n, seed)
        Y, _ = derive_partner(X, mode, ratio=F(3, 2), seed=seed + 1)
        Y, _ = derive_partner(Y, "relabeled", seed=seed + 2)
        assert_same_sequence_as_pairwise(X, X)
        assert_same_sequence_as_pairwise(X, Y)
        assert_same_sequence_as_pairwise(Y, X)

    @given(st.integers(0, 10_000), st.integers(2, 14))
    @settings(max_examples=40, deadline=None)
    def test_two_distance_spaces(self, seed, n):
        X = random_space(n, seed, [1, 2])
        Y, _ = derive_partner(X, "relabeled", seed=seed + 3)
        assert_same_sequence_as_pairwise(X, Y)
        assert_same_sequence_as_pairwise(X, random_space(n, seed + 2, [1, 2]))

    @pytest.mark.parametrize("name", sorted(FIXED_PAIRS))
    def test_fixed_pairs(self, name):
        assert_same_sequence_as_pairwise(*FIXED_PAIRS[name](), limit=None)


@given(pair=refinement_pairs())
@settings(max_examples=100, deadline=None)
def test_every_limit_returns_a_prefix_of_the_full_sequence(pair):
    """A limit of 1 takes the first leaf alone and builds no group; any
    other truncates the walk of the coset, around its end too."""
    full = mappings(*pair)
    for limit in {1, 2, max(len(full) - 1, 0), len(full), len(full) + 1}:
        assert mappings(*pair, limit) == full[:limit]


def test_ultrametric_automorphism_count():
    """`random_ultrametric(48, 0)` has 2^16 automorphisms."""
    X = random_ultrametric(48, 0)
    maps = mappings(X, X)
    assert len(maps) == 2**16
    assert maps[0] == tuple((a, a) for a in sorted(X.labels))  # the identity leads


def elapsed(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


class TestSearchTimeBounds:
    """Two-distance spaces of strongly regular graphs, which colour
    refinement cannot split: the search alone does the work."""

    @staticmethod
    def assert_paley_enumeration_within(q, seconds):
        X = two_distance_space(paley_graph(q), 1, 2)
        Y = two_distance_space(paley_graph(q), 1, 2, seed=11)
        found, took = elapsed(lambda: enumerate_weak_similarities(X, Y, limit=None))
        assert took < seconds
        maps = [ws.mapping for ws in found]
        assert len(maps) == q * (q - 1) // 2  # |Aut(Paley(q))|
        assert maps == sorted(set(maps))  # distinct, in lexicographic order
        assert verify(X, Y, maps[0], found[0].scaling).ok
        assert verify(X, Y, maps[-1], found[-1].scaling).ok

    def test_paley_53_enumeration(self):
        self.assert_paley_enumeration_within(53, 8.0)

    def test_paley_101_enumeration(self):
        self.assert_paley_enumeration_within(101, 5.0)

    @pytest.mark.parametrize(
        "name, seconds", [("latin_z6_latin_s3", 0.5), ("rook_shrik", 0.1), ("shrik_rook", 0.1)]
    )
    def test_no_morphism_found_within(self, name, seconds):
        X, Y = FIXED_PAIRS[name]()
        found, took = elapsed(lambda: find_weak_similarity(X, Y))
        assert found is None and took < seconds


# The first leaf from each Latin-square graph to its copy relabelled by
# seed 7, as the plain bitmask walk finds it without refining at nodes:
# the number of each image's label, in source label order.
FIRST_LEAVES = {
    "latin_z8": """
        0 4 45 48 19 22 51 55 18 21 47 9 11 27 52 49 20 10 29 13 7 50 14 31 58 8 6 33 41
        16 39 46 40 15 34 32 36 17 24 54 30 44 23 61 26 60 12 63 62 38 2 56 25 57 28 1
        35 43 5 3 37 42 53 59
    """,
    "latin_z2_3": """
        0 2 14 36 16 49 61 43 51 62 7 34 33 27 44 59 45 25 20 24 46 21 60 3 19 28 29 40
        8 9 63 42 48 57 10 54 58 47 12 37 4 56 31 17 39 18 26 5 22 1 13 15 6 11 30 53 55
        38 50 32 41 52 23 35
    """,
    "latin_z10": """
        0 14 75 95 72 34 19 43 22 32 42 1 28 89 35 77 79 12 61 60 62 16 68 82 2 59 58 51
        83 17 56 87 65 94 70 5 76 46 78 50 67 74 98 11 37 8 13 88 84 91 23 39 26 9 54 96
        90 30 48 20 63 40 85 21 7 3 64 36 38 25 81 6 92 47 29 80 18 57 52 15 44 10 45 86
        71 49 73 93 33 55 27 53 24 69 66 41 4 31 97 99
    """,
    "latin_d5": """
        0 9 14 32 26 18 35 30 41 33 44 86 10 55 45 4 71 57 77 48 42 21 40 60 85 64 72 31
        49 52 27 11 53 99 24 73 2 36 34 84 81 47 6 17 92 19 66 93 80 38 56 94 87 50 65
        13 70 51 3 22 23 95 39 20 75 58 7 43 8 78 62 82 16 15 68 90 37 46 59 61 67 69 74
        91 98 76 29 12 96 97 63 89 1 25 28 79 54 88 5 83
    """,
}


class TestLatinSquareGraphs:
    """Latin-square graphs of groups of one order are strongly regular
    with the same parameters, so colour refinement splits none of their
    points; the search tells them apart by refining at its nodes."""

    @pytest.mark.parametrize(
        "x, y, seconds",
        [("latin_z8", "latin_z2_3", 2.0), ("latin_z10", "latin_d5", 10.0), ("latin_d5", "latin_z10", 2.0)],
    )
    def test_no_morphism_found_within(self, x, y, seconds):
        X = two_distance_space(STRONGLY_REGULAR[x](), 1, 2)
        Y = two_distance_space(STRONGLY_REGULAR[y](), 1, 2, seed=7)
        colorsX, colorsY, _ = _refine_colors(X._view.ranks, Y._view.ranks)
        assert len(set(colorsX)) == len(set(colorsY)) == 1
        found, took = elapsed(lambda: find_weak_similarity(X, Y))
        assert found is None and took < seconds

    @pytest.mark.parametrize("name", sorted(FIRST_LEAVES))
    def test_first_leaf_against_a_relabelled_copy(self, name):
        adj = STRONGLY_REGULAR[name]()
        X, Y = two_distance_space(adj, 1, 2), two_distance_space(adj, 1, 2, seed=7)
        ws = find_weak_similarity(X, Y)
        assert verify(X, Y, ws.as_map(), ws.scaling).ok
        assert [int(b[1:]) for _, b in ws.mapping] == list(map(int, FIRST_LEAVES[name].split()))


def cfi_graph(base_edges, twisted):
    """The graph of Cai, Fürer and Immerman (1992) over a base graph.

    Each base vertex v has a middle point per subset S of its edges of even
    size, and two end points (e, 0) and (e, 1) per edge e at v; the middle
    point is adjacent to (e, 1) when e is in S and to (e, 0) otherwise.
    The end points that two base vertices have for their edge are joined
    bit to bit, crosswise on the first edge when ``twisted``.  The twisted
    and untwisted graphs are not isomorphic; over a cubic base both are
    cubic, so colour refinement splits neither.
    """
    vertices = sorted({v for edge in base_edges for v in edge})
    at = {v: [e for e in base_edges if v in e] for v in vertices}
    points = [("end", v, e, bit) for v in vertices for e in at[v] for bit in (0, 1)]
    points += [
        ("middle", v, S) for v in vertices for size in range(0, len(at[v]) + 1, 2) for S in itertools.combinations(at[v], size)
    ]
    index = {p: i for i, p in enumerate(points)}
    adj = [[False] * len(points) for _ in points]

    def join(p, q):
        adj[index[p]][index[q]] = adj[index[q]][index[p]] = True

    for kind, v, *rest in points:
        if kind == "middle":
            for e in at[v]:
                join(("middle", v, *rest), ("end", v, e, int(e in rest[0])))
    for k, (u, v) in enumerate(base_edges):
        for bit in (0, 1):
            join(("end", u, (u, v), bit), ("end", v, (u, v), bit ^ (twisted and k == 0)))
    return adj


K4 = list(itertools.combinations(range(4), 2))


def test_cfi_pair_over_k4():
    """40 points of degree 3 in both graphs: refinement splits nothing, and
    individualizing points at search nodes proves them apart.  The
    untwisted graph's isometries are those of K4 times 2^3 (its cycle
    space), all 192 of them verified."""
    X = two_distance_space(cfi_graph(K4, False), 1, 2)
    Y = two_distance_space(cfi_graph(K4, True), 1, 2, seed=7)
    colorsX, colorsY, _ = _refine_colors(X._view.ranks, Y._view.ranks)
    assert len(set(colorsX)) == len(set(colorsY)) == 1
    found, took = elapsed(lambda: find_weak_similarity(X, Y))
    assert found is None and took < 2.0  # about 0.14 s on a 2-vCPU guest
    assert enumerate_weak_similarities(Y, X) == []
    same = two_distance_space(cfi_graph(K4, False), 1, 2, seed=7)
    found = enumerate_weak_similarities(X, same, limit=None)
    assert len(found) == 24 * 2**3
    assert all(verify(X, same, ws.as_map(), ws.scaling).ok for ws in found)


def cycle_union(lengths, seed=None):
    """Disjoint cycles of the given lengths as a graph space."""
    edges, start = set(), 0
    for length in lengths:
        edges |= {(start + i, start + (i + 1) % length) for i in range(length)}
        start += length
    return graph_space(start, edges, seed)


CYCLE_PAIRS = [((6,), (3, 3)), ((8,), (3, 5)), ((4, 4), (8,)), ((9,), (3, 3, 3)), ((3, 8), (3, 3, 5))]


@pytest.mark.parametrize(
    "x, y", list(dict.fromkeys(pair for a, b in CYCLE_PAIRS for pair in ((a, b), (b, a), (a, a), (b, b)))), ids=str
)
def test_cycle_unions_match_the_oracles(x, y):
    """Every point of a union of cycles sees one neighbour pair, so
    refinement splits nothing.  ``find`` and the whole enumeration, to a
    relabelled copy or to another union of as many points, equal the
    pairwise search in sequence and order, and brute force up to 8
    points.  The source is taken in its built labelling and relabelled,
    which changes the images the stabilizer chain tries and sees fail."""
    Y = cycle_union(y, seed=5)
    for X in (cycle_union(x), cycle_union(x, seed=9)):
        expected = list(pairwise_search(X, Y))
        assert mappings(X, Y) == expected
        found = find_weak_similarity(X, Y)
        assert (found.mapping if found else None) == (expected[0] if expected else None)
        if X.n <= 8:
            assert [dict(m) for m in expected] == brute_force_weak_similarities(X, Y)


@pytest.mark.parametrize(
    "x, y", [((5, 6, 7, 8, 9), (3, 4, 4, 5, 6, 6, 7)), ((3, 4, 4, 5, 6, 6, 7), (5, 6, 7, 8, 9))], ids=str
)
def test_cycle_unions_of_35_points_within(x, y):
    """Two unions of 35 points with no map between them: refinement splits
    nothing, and the walk places points in label order across the cycles.
    About 1 s from the five cycles and a millisecond from the seven on a
    2-vCPU guest; 5.5 s before the first level was pruned by Aut(Y)."""
    found, took = elapsed(lambda: find_weak_similarity(cycle_union(x), cycle_union(y, seed=5)))
    assert found is None and took < 10


def test_one_search_per_call(monkeypatch):
    """The stabilizer chain takes its generators from the X -> Y search's
    own leaves, so a call builds that one search and none from X to X; the
    mirror that ``find`` uses to prune by Aut(Y) is a copy of it."""
    built = []
    init = _Search.__init__
    monkeypatch.setattr(_Search, "__init__", lambda self, *args: built.append(args[:2]) or init(self, *args))
    for name, count in (("p13", 78), ("rook", 1152)):
        X = two_distance_space(STRONGLY_REGULAR[name](), 1, 2)
        Y = two_distance_space(STRONGLY_REGULAR[name](), 1, 2, seed=7)
        built.clear()
        assert len(enumerate_weak_similarities(X, Y, None)) == count
        assert len(built) == 1 and built[0][0] is X and built[0][1] is Y
    X, Y = FIXED_PAIRS["latin_z6_latin_s3"]()
    built.clear()
    assert find_weak_similarity(X, Y) is None
    assert len(built) == 1 and built[0][0] is X and built[0][1] is Y


def test_refinement_at_nodes_only_where_dead_ends_cost_one(monkeypatch):
    """A walk without dead ends (an ultrametric against its distorted,
    relabelled partner) and the rook and Shrikhande walks, whose subtrees
    each cost less than a refinement, never refine at a node; the Latin
    squares of Z6 and S3 do, and are told apart."""
    calls = []
    refine_at = _Search._refine_at

    def counted(self, *args):  # at a node of a walk, not where an automorphism search starts
        if sys._getframe(1).f_code is _Search.first_leaf.__code__:
            calls.append(1)
        return refine_at(self, *args)

    monkeypatch.setattr(_Search, "_refine_at", counted)
    X = random_ultrametric(48, 3)
    Y, _ = derive_partner(derive_partner(X, "distorted", seed=4)[0], "relabeled", seed=5)
    assert find_weak_similarity(X, Y) is not None
    for name in ("rook_shrik", "shrik_rook", "p13_p13", "rook_rook"):
        X, Y = FIXED_PAIRS[name]()
        find_weak_similarity(X, Y)
    assert not calls
    X, Y = FIXED_PAIRS["latin_z6_latin_s3"]()
    assert find_weak_similarity(X, Y) is None
    assert calls


def test_a_failed_first_candidate_rules_out_its_orbit(monkeypatch):
    """The Latin-square graphs of Z6 and S3 are vertex-transitive, so once
    the first point's first candidate fails, automorphisms of Y found on
    demand rule out every other one: one first-level subtree is walked.
    C3 + C3 + C5 has two orbits, so a candidate of the one is not carried
    from a failed candidate of the other, and that search for an
    automorphism fails; the answers still equal the oracle's.  Between C8
    and C3 + C5 every failed subtree costs less than a refinement, and no
    automorphism is searched for."""
    walked, attempts = [], []
    carried, automorphism = _Search._carried, _Search._automorphism
    monkeypatch.setattr(_Search, "_carried", lambda self, *args: carried(self, *args) or walked.append(args[1]))
    monkeypatch.setattr(_Search, "_automorphism", lambda self, *args: attempts.append(automorphism(self, *args)) or attempts[-1])
    for x, y in (("latin_z6", "latin_s3"), ("latin_s3", "latin_z6")):
        X = two_distance_space(STRONGLY_REGULAR[x](), 1, 2)
        Y = two_distance_space(STRONGLY_REGULAR[y](), 1, 2, seed=7)
        walked.clear()
        assert find_weak_similarity(X, Y) is None
        assert len(walked) == 1
    attempts.clear()
    assert find_weak_similarity(cycle_union((8,)), cycle_union((3, 5), seed=5)) is None
    assert not attempts  # each failed subtree cost less than a refinement
    X, Y = cycle_union((3, 8)), cycle_union((3, 3, 5), seed=5)
    assert find_weak_similarity(X, Y) is None
    found = [g is not None for g, _ in attempts]
    assert True in found and False in found
    assert mappings(X, Y) == list(pairwise_search(X, Y)) == []


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    X = random_ultrametric(300, 4)
    Y, _ = derive_partner(X, "relabeled", seed=9)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        ws = find_weak_similarity(X, Y)
    finally:
        sys.setrecursionlimit(old)
    assert ws is not None
    assert verify(X, Y, ws.as_map(), ws.scaling).ok


CHAIN_CASES = {
    "rook": (lambda seed=None: two_distance_space(rook_graph(), 1, 2, seed), 1152),
    "p13": (lambda seed=None: two_distance_space(paley_graph(13), 1, 2, seed), 78),
    "latin_z6": (lambda seed=None: two_distance_space(STRONGLY_REGULAR["latin_z6"](), 1, 2, seed), 432),
    "cfi_k4": (lambda seed=None: two_distance_space(cfi_graph(K4, False), 1, 2, seed), 192),
    "c3_c3_c5": (lambda seed=None: cycle_union((3, 3, 5), seed), 720),
    "twins_20": (lambda seed=None: graph_space(40, {(2 * k, 2 * k + 1) for k in range(20)}, seed), 2**20 * math.factorial(20)),
}


@pytest.mark.parametrize("name", list(CHAIN_CASES))
def test_stabilizer_chain_is_a_base_and_strong_generating_set(name):
    """Against a relabelled copy, the chain's trees are rooted at free
    points in label order; every edge c: (g, p) has g[p] == c and comes
    after p; each tree is closed under the generators on its edges and on
    deeper trees' edges; a generator's level is the deepest tree it labels
    an edge of, and it fixes the free points before that tree's root,
    moves the root and is an isometry of X; and the tree sizes multiply to
    |Aut(X)|."""
    build, order = CHAIN_CASES[name]
    X, Y = build(), build(seed=7)
    _, chain, count, _, _ = _solve(X, Y, None)
    assert count == math.prod(map(len, chain)) == order
    src, rkX = _label_order(X), X._view.ranks
    colors = _refine_colors(rkX, Y._view.ranks)[0]
    size = Counter(colors)
    free = [a for a, i in enumerate(src) if size[colors[i]] > 1]
    roots = [next(iter(tree)) for tree in chain]
    assert set(roots) <= set(free) and roots == sorted(set(roots))
    level: dict = {}  # id of each generator: (the deepest tree it labels an edge of, the generator)
    for depth, tree in enumerate(chain):
        assert tree[roots[depth]] is None
        seen = {roots[depth]}
        for c, edge in list(tree.items())[1:]:
            g, p = edge
            assert g[p] == c and p in seen
            seen.add(c)
            level[id(g)] = depth, g
    for depth, tree in enumerate(chain):
        for at, g in level.values():
            if at >= depth:
                assert all(g[c] in tree for c in tree)
    for at, g in level.values():
        assert all(g[a] == a for a in free if a < roots[at]) and g[roots[at]] != roots[at]
        assert _rank_disagreement(rkX, rkX, src, [src[b] for b in g]) is None


def test_coset_walk_depth_and_memory_are_bounded():
    """150 twin pairs (1 apart within a pair, 2 apart otherwise): 300 points
    and 150 base points with a basic orbit of more than one point.  The
    chain, its Schreier trees and the walk are loops, and the transversal
    elements are composed only as the walk needs them: keeping one
    permutation per orbit point would take some 22,000 lists of 300."""
    n = 300
    X = new_space(
        [f"t{k:03d}" for k in range(n)],
        [[0 if i == j else 1 if i // 2 == j // 2 else 2 for j in range(n)] for i in range(n)],
    )
    Y, _ = derive_partner(X, "relabeled", seed=5)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    tracemalloc.start()
    try:
        found, seconds = elapsed(lambda: enumerate_weak_similarities(X, Y, limit=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.setrecursionlimit(old)
    assert seconds < 60  # 5-7.5 s under tracemalloc, 0.4 s without it, on a 2-vCPU guest
    assert peak < 30 * 2**20
    assert len(found) == 3
    assert all(verify(X, Y, ws.as_map(), ws.scaling).ok for ws in found)


class TestFloatAlgebra:
    # square roots and cube roots of grid distances are mostly irrational,
    # so both snowflakes are float-backed; Z stays rational
    X = snowflake(segment_grid(5, 1), F(1, 2))
    Y = snowflake(segment_grid(5, 3), F(1, 3))
    Z = segment_grid(5, 2)

    def test_spaces_are_float_backed(self):
        assert isinstance(self.X.backend, FloatBackend)
        assert isinstance(self.Y.backend, FloatBackend)

    def test_compose_and_invert_verify(self):
        X, Y, Z = self.X, self.Y, self.Z
        xy, yz = find_weak_similarity(X, Y), find_weak_similarity(Y, Z)
        xz = compose(xy, yz)
        assert verify(X, Z, xz.as_map(), xz.scaling).ok
        yx = invert(xy)
        assert verify(Y, X, yx.as_map(), yx.scaling).ok
        ident = compose(xy, yx)
        assert ident.as_map() == {a: a for a in X.labels}
        assert ident.classification.kind == "isometry"

    def test_factorize_verifies(self):
        first, second = enumerate_weak_similarities(self.X, self.Y)
        f = factorize(first, second)
        assert verify(self.X, self.X, f.as_map(), f.scaling).ok
        assert f.classification.kind == "isometry"
        assert compose(f, first).as_map() == second.as_map()

    def test_compose_needs_exact_middle_values(self):
        # a hand-made table whose Y-values only match D(Y) within tolerance
        xy, yz = find_weak_similarity(self.X, self.Y), find_weak_similarity(self.Y, self.Z)
        nudged = ScalingFunction(tuple((u, g * (1 + 1e-12)) for u, g in yz.scaling.pairs))
        near = build_realization(self.Y, self.Z, yz.as_map(), nudged)
        with pytest.raises(DomainMismatch):
            compose(xy, near)


BACKENDS = {"rational": RATIONAL, "float": FloatBackend()}
# (target values t, source values f_t, kind, ratio)
TABLES = {
    "isometry": (["0", "1/10", "3/10"], ["0", "1/10", "3/10"], "isometry", 1),
    "similarity": (["0", "3/10", "6/10"], ["0", "1/10", "1/5"], "similarity", 3),
    "generic": (["0", "1", "4"], ["0", "1", "2"], "generic", None),
}


@pytest.mark.parametrize("source", sorted(BACKENDS))
@pytest.mark.parametrize("target", sorted(BACKENDS))
@pytest.mark.parametrize("table", sorted(TABLES))
def test_classify_scaling_across_backends(source, target, table):
    ts, vs, kind, ratio = TABLES[table]
    sb, tb = BACKENDS[source], BACKENDS[target]
    pairs = tuple((tb.coerce(F(t)), sb.coerce(F(v))) for t, v in zip(ts, vs))
    cls = classify_scaling(ScalingFunction(pairs), sb, tb)
    assert cls.kind == kind
    if ratio is None:
        assert cls.ratio is None
    elif kind == "isometry" or source == target == "rational":
        assert cls.ratio == ratio and isinstance(cls.ratio, F)
    else:
        assert isinstance(cls.ratio, float) and abs(cls.ratio - ratio) <= 1e-9 * ratio
