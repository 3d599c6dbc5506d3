"""Benchmark inputs and answer checks that do not use the weaksim solver.

Two parts live here.

Instance builders for the ``symmetric`` workload: strongly regular graphs
(Paley graphs, the 4x4 rook graph, the Shrikhande graph and Latin-square
graphs) turned into two-distance spaces, with distance 1 between adjacent
points and 2 otherwise.  Colour refinement cannot split such spaces, so a
weak-similarity search on them is all backtracking.

Independent answer checks: each one restates a definition directly on the
distance matrices (plain Python values, never a weaksim object), so a check
never relies on the library call whose answer it judges.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Optional, Sequence

# ---------------------------------------------------------------- graphs


def paley_graph(q: int) -> list[list[bool]]:
    """Paley graph on Z_q (q prime, q = 1 mod 4): adjacent iff the difference
    is a nonzero square.  Its automorphism group has order q(q-1)/2."""
    if q % 4 != 1 or any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
        raise ValueError(f"Paley graphs here need a prime q = 1 mod 4, got {q}")
    squares = {(x * x) % q for x in range(1, q)}
    return [[(i - j) % q in squares for j in range(q)] for i in range(q)]


def rook_graph(k: int) -> list[list[bool]]:
    """k x k rook graph K_k x K_k; 2 (k!)^2 automorphisms (1152 at k = 4)."""
    cells = [(r, c) for r in range(k) for c in range(k)]
    return [[u != v and (u[0] == v[0] or u[1] == v[1]) for v in cells] for u in cells]


def shrikhande_graph() -> list[list[bool]]:
    """Cayley graph of Z_4 x Z_4 on {+-(1,0), +-(0,1), +-(1,1)}: the same
    strongly regular parameters as the 4x4 rook graph, 192 automorphisms."""
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    cells = [(r, c) for r in range(4) for c in range(4)]
    return [
        [((u[0] - v[0]) % 4, (u[1] - v[1]) % 4) in steps for v in cells]
        for u in cells
    ]


def cyclic_table(n: int) -> list[list[int]]:
    """Cayley table of Z_n."""
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def s3_table() -> list[list[int]]:
    """Cayley table of the symmetric group S_3, elements in sorted order."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]


def latin_square_graph(table: Sequence[Sequence[int]]) -> list[list[bool]]:
    """Cells of a Latin square, adjacent when they share a row, a column or
    a symbol."""
    n = len(table)
    cells = [(r, c) for r in range(n) for c in range(n)]
    return [
        [
            u != v
            and (u[0] == v[0] or u[1] == v[1] or table[u[0]][u[1]] == table[v[0]][v[1]])
            for v in cells
        ]
        for u in cells
    ]


def two_distance_matrix(
    adj: Sequence[Sequence[bool]], prefix: str, seed: Optional[int] = None
) -> tuple[list[str], list[list[int]]]:
    """Labels and matrix of the two-distance space of a graph.

    With a seed, the vertices are shuffled before labelling, so the space is
    an isomorphic copy whose canonical search order differs.
    """
    n = len(adj)
    order = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(order)
    width = len(str(n - 1))
    labels = [f"{prefix}{str(i).zfill(width)}" for i in range(n)]
    matrix = [
        [0 if i == j else (1 if adj[order[i]][order[j]] else 2) for j in range(n)]
        for i in range(n)
    ]
    return labels, matrix


# ---------------------------------------------------------- answer checks


def forced_pairing(x_matrix, y_matrix) -> Optional[dict]:
    """The only strictly increasing map D(Y) -> D(X), or None when the two
    distance sets differ in size."""
    dx = sorted({v for row in x_matrix for v in row})
    dy = sorted({v for row in y_matrix for v in row})
    if len(dx) != len(dy):
        return None
    return dict(zip(dy, dx))


def weak_similarity_check(x_labels, x_matrix, y_labels, y_matrix):
    """A predicate on label mappings: is the mapping a bijection with
    d_X(a, b) = f(d_Y(map a, map b)) for every pair, f being the forced
    increasing pairing?  Exact values only."""
    f = forced_pairing(x_matrix, y_matrix)
    y_index = {lab: j for j, lab in enumerate(y_labels)}
    x_sorted, y_sorted = sorted(x_labels), sorted(y_labels)
    n = len(x_labels)
    pulled = [[None if f is None else f.get(v) for v in row] for row in y_matrix]

    def check(mapping: dict) -> bool:
        if f is None or sorted(mapping) != x_sorted or sorted(mapping.values()) != y_sorted:
            return False
        image = [y_index[mapping[lab]] for lab in x_labels]
        return all(
            x_matrix[a][b] == pulled[image[a]][image[b]]
            for a in range(n)
            for b in range(a + 1, n)
        )

    return check


def classify_pairing(pairing: dict) -> tuple[str, Optional[Fraction]]:
    """Isometry, similarity t -> t/r with its ratio r, or generic."""
    positive = [(t, v) for t, v in pairing.items() if t != 0]
    ratios = {Fraction(t) / Fraction(v) for t, v in positive}
    if len(ratios) > 1:
        return "generic", None
    ratio = ratios.pop() if ratios else Fraction(1)
    return ("isometry", ratio) if ratio == 1 else ("similarity", ratio)


def _label_order(labels) -> list[int]:
    return sorted(range(len(labels)), key=lambda k: labels[k])


def first_triangle_violation(labels, matrix) -> Optional[tuple[str, str, str]]:
    """First (x, z, y) in label order with d(x, y) > d(x, z) + d(z, y)."""
    order = _label_order(labels)
    for i, j, k in itertools.permutations(order, 3):
        if matrix[i][j] + matrix[j][k] < matrix[i][k]:
            return labels[i], labels[j], labels[k]
    return None


def first_ultrametric_violation(labels, matrix) -> Optional[tuple[str, str, str]]:
    """First (x, z, y) in label order with d(x, y) > max(d(x, z), d(z, y))."""
    order = _label_order(labels)
    for i, j, k in itertools.permutations(order, 3):
        if max(matrix[i][j], matrix[j][k]) < matrix[i][k]:
            return labels[i], labels[j], labels[k]
    return None


def first_order_disagreement(labels, d, rho) -> Optional[tuple[str, str, str, str]]:
    """First (x, y, z, w) in label order where d(x,y) <= d(z,w) and
    rho(x,y) <= rho(z,w) disagree."""
    order = _label_order(labels)
    for i1, i2, i3, i4 in itertools.product(order, repeat=4):
        if (d[i1][i2] <= d[i3][i4]) != (rho[i1][i2] <= rho[i3][i4]):
            return labels[i1], labels[i2], labels[i3], labels[i4]
    return None


def min_cover_costs(entries, xs) -> dict:
    """Cheapest multiset of positive domain points with sum >= x, for each x.

    Unbounded min-cost knapsack over exact sums, after scaling the domain to
    integers by its common denominator: best[s] is the cheapest multiset
    summing to exactly s.  A minimal cover of x sums to less than
    x + max(A), so sums up to that bound suffice.
    """
    positives = [(Fraction(a), Fraction(v)) for a, v in entries if a > 0]
    scale = math.lcm(*(Fraction(a).denominator for a in [*(a for a, _ in positives), *xs]))
    items = [(int(a * scale), v) for a, v in positives]
    top = max(a for a, _ in items)
    limit = int(max(Fraction(x) for x in xs) * scale) + top
    best: list[Optional[Fraction]] = [None] * (limit + 1)
    best[0] = Fraction(0)
    for s in range(1, limit + 1):
        for a, v in items:
            if a <= s and best[s - a] is not None:
                cand = best[s - a] + v
                if best[s] is None or cand < best[s]:
                    best[s] = cand
    out = {}
    for x in xs:
        lo = int(Fraction(x) * scale)
        out[x] = min(c for c in best[lo : lo + top] if c is not None)
    return out


def first_subadditivity_violation(entries) -> Optional[tuple[Fraction, Fraction, Fraction]]:
    """(x, f(x), cheapest cover cost) at the smallest violating x, or None.

    Covers are drawn from the positive domain points; x = 0 is violated by
    any single point cheaper than f(0).
    """
    entries = [(Fraction(a), Fraction(v)) for a, v in entries]
    positives = [(a, v) for a, v in entries if a > 0]
    if entries[0][0] == 0:
        cheapest = min((v for _, v in positives), default=None)
        if cheapest is not None and cheapest < entries[0][1]:
            return Fraction(0), entries[0][1], cheapest
    costs = min_cover_costs(positives, [a for a, _ in positives])
    for a, v in positives:
        if costs[a] < v:
            return a, v, costs[a]
    return None
