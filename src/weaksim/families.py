"""Deterministic generators for example spaces and random test instances.

The two paired families build weakly equivalent ultrametric spaces from a
pair of strictly decreasing positive sequences, together with their defining
realization; truncation size n is the desk-scale surrogate for the infinite
construction.  Random generators are reproducible per seed and are correct
by construction (shortest-path completion for metrics, merge hierarchies for
ultrametrics), which makes them usable as test oracles.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, repeat
from operator import add
from typing import Callable

from .backends import RATIONAL, RationalBackend, _Record, parse_exact
from .errors import BadSequence, CardinalityMismatch, InputError
from .morphisms import (
    ScalingFunction,
    WeakSimilarity,
    build_realization,
    increasing_bijection,
)
from .spaces import Space, _ranked_space, distance_set, new_space
from .transforms import apply_function, function_table, snowflake


def harmonic(k: int) -> Fraction:
    """Default vanishing sequence 1/k."""
    return Fraction(1, k)


def one_plus_harmonic(k: int) -> Fraction:
    """Default sequence 1 + 1/k with positive limit 1."""
    return 1 + Fraction(1, k)


class FamilySpec(_Record):
    """Parameters for the paired families.

    The sequence callables must be strictly decreasing and positive on
    1..n.
    """

    name: str
    n: int
    r: Callable[[int], Fraction] = harmonic
    p: Callable[[int], Fraction] = one_plus_harmonic


def _sequence(fn: Callable[[int], Fraction], n: int, name: str) -> list[Fraction]:
    values = [parse_exact(fn(k)) for k in range(1, n + 1)]
    for v in values:
        if v <= 0:
            raise BadSequence(f"sequence {name} must stay positive")
    for a, b in zip(values, values[1:]):
        if not b < a:
            raise BadSequence(f"sequence {name} must be strictly decreasing")
    return values


def _sequences(spec: FamilySpec) -> tuple[list[Fraction], list[Fraction]]:
    """Both sequences of a paired family."""
    if spec.n < 2:
        raise InputError("need n >= 2")
    return _sequence(spec.r, spec.n, "r"), _sequence(spec.p, spec.n, "p")


def _labels(prefix: str, count: int) -> list[str]:
    """``prefix`` followed by 0..count - 1, zero-padded to one width."""
    width = len(str(count - 1))
    return [f"{prefix}{str(i).zfill(width)}" for i in range(count)]


def _realization(X: Space, Y: Space, mapping: dict) -> WeakSimilarity:
    """The realization X -> Y of ``mapping`` with the forced scaling, the one
    increasing bijection D(Y) -> D(X)."""
    scaling = increasing_bijection(distance_set(Y), distance_set(X))
    return build_realization(X, Y, mapping, scaling)


def example_2_6(spec: FamilySpec) -> tuple[Space, Space, WeakSimilarity]:
    """Two weakly equivalent ultrametric combs on points 0..n.

    X uses the vanishing sequence, Y the positively-bounded one.  Point 0
    has height 0 and point k the k-th term; two points lie at the larger of
    their heights, so the hub 0 is at the k-th term from point k, and two
    spokes at the smaller-indexed term.  The realization maps points by
    index and pairs the k-th terms of the two sequences.
    """
    rs, ps = _sequences(spec)

    def comb(prefix: str, seq: list[Fraction]) -> Space:
        heights = [Fraction(0), *seq]
        matrix = [
            [Fraction(0) if i == j else max(a, b) for j, b in enumerate(heights)]
            for i, a in enumerate(heights)
        ]
        return new_space(_labels(prefix, len(heights)), matrix, RATIONAL)

    X = comb("x", rs)
    Y = comb("y", ps)
    return X, Y, _realization(X, Y, dict(zip(X.labels, Y.labels)))


def example_2_6_star(spec: FamilySpec) -> tuple[Space, Space, WeakSimilarity]:
    """Two weakly equivalent discrete ultrametric pair-families on 2n points.

    Here X carries the positively-bounded sequence on its matched pairs and Y
    the vanishing one, so the scaling function sends the smallest positive
    target distance to the largest-indexed term.
    """
    rs, ps = _sequences(spec)

    def paired(prefix: str, seq: list[Fraction]) -> Space:
        labels = [f"{lab}_{j}" for lab in _labels(prefix, len(seq) + 1)[1:] for j in (1, 2)]
        # the labels list each pair's two points in turn: point a is in pair a // 2
        matrix = [
            [Fraction(0) if a == b else seq[a // 2] if a // 2 == b // 2 else seq[0] for b in range(len(labels))]
            for a in range(len(labels))
        ]
        return new_space(labels, matrix, RATIONAL)

    X = paired("x", ps)
    Y = paired("y", rs)
    return X, Y, _realization(X, Y, dict(zip(X.labels, Y.labels)))


def segment_grid(n: int, length) -> Space:
    """n evenly spaced points on a segment with the absolute-difference metric."""
    if n < 2:
        raise InputError("need n >= 2")
    length = parse_exact(length)
    if length <= 0:
        raise InputError("length must be positive")
    h = length / (n - 1)
    matrix = [[abs(i - j) * h for j in range(n)] for i in range(n)]
    return new_space(_labels("t", n), matrix, RATIONAL)


def snowflake_segment(n: int, p) -> Space:
    """Unit segment grid with distances raised to the power p in (0, 1]."""
    p = parse_exact(p)
    if not 0 < p <= 1:
        raise InputError("exponent must lie in (0, 1]")
    return snowflake(segment_grid(n, 1), p)


def random_metric(n: int, seed: int) -> Space:
    """Random rational metric space: symmetric positive draws closed under
    shortest-path completion, so the triangle inequality holds by
    construction.  Bit-identical per seed."""
    if n < 1:
        raise InputError("need n >= 1")
    rng = random.Random(seed)
    # draws a/b with b in 1..4 are whole multiples of 1/12: relax in twelfths
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = rng.randint(1, 12), rng.randint(1, 4)
            m[i][j] = m[j][i] = a * (12 // b)
    for k in range(n):
        row_k = m[k]
        for i in range(n):
            m[i] = list(map(min, m[i], map(add, repeat(m[i][k]), row_k)))
    twelfths = sorted({v for row in m for v in row})
    rank = {v: r for r, v in enumerate(twelfths)}
    ranks = tuple(tuple(map(rank.__getitem__, row)) for row in m)
    return _ranked_space(_labels("v", n), ranks, [Fraction(v, 12) for v in twelfths], RATIONAL)


def random_ultrametric(n: int, seed: int) -> Space:
    """Random rational ultrametric from a merge hierarchy: the distance of
    two points is the (strictly increasing) height at which their clusters
    merged.  Bit-identical per seed."""
    if n < 1:
        raise InputError("need n >= 1")
    rng = random.Random(seed)
    ranks = [[0] * n for _ in range(n)]
    clusters = [[i] for i in range(n)]
    heights = [Fraction(0)]
    while len(clusters) > 1:
        heights.append(heights[-1] + Fraction(rng.randint(1, 8), rng.randint(1, 4)))
        a, b = sorted(rng.sample(range(len(clusters)), 2))
        for i in clusters[a]:
            for j in clusters[b]:
                ranks[i][j] = ranks[j][i] = len(heights) - 1
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    return _ranked_space(_labels("v", n), tuple(map(tuple, ranks)), heights, RATIONAL)


def derive_partner(
    space: Space,
    mode: str,
    ratio=None,
    seed: int = 0,
) -> tuple[Space, WeakSimilarity]:
    """A weakly equivalent partner plus its generating realization.

    mode "scaled": multiply every distance by ratio (> 0); the realization
    classifies as a similarity with that ratio.  mode "relabeled": permute
    the points per seed; an isometry.  mode "distorted": push the distances
    through a random strictly increasing table; generically not a similarity.
    """
    mapping = {lab: lab for lab in space.labels}
    if mode == "distorted":
        rng = random.Random(seed)
        values = distance_set(space).values
        rows = [(Fraction(0), Fraction(0))]
        acc = Fraction(0)
        for v in values[1:]:
            acc += Fraction(rng.randint(1, 8), rng.randint(1, 4))
            rows.append((parse_exact(v), acc))
        table = function_table(rows)
        partner = apply_function(space, table)
        # the rows, not the forced table: on a float space they stay exact
        scaling = ScalingFunction(tuple(sorted((fv, a) for a, fv in rows)))
        return partner, build_realization(space, partner, mapping, scaling)
    exact = isinstance(space.backend, RationalBackend)
    # a rational partner is built on its source's view: one value per rank
    rows, values = (space._view.ranks, space._view.values) if exact else (space.matrix, None)
    if mode == "scaled":
        r = parse_exact(ratio)
        if r <= 0:
            raise InputError("ratio must be positive")
        if exact:
            values = [r * v for v in values]
        else:
            rows = [[r * v for v in row] for row in rows]
    elif mode == "relabeled":
        rng = random.Random(seed)
        perm = list(range(space.n))
        rng.shuffle(perm)
        rows = tuple(tuple(map(row.__getitem__, perm)) for row in map(rows.__getitem__, perm))
        mapping = {space.labels[perm[i]]: space.labels[i] for i in range(space.n)}
    else:
        raise InputError(f"unknown mode {mode!r}")
    if exact:
        partner = _ranked_space(space.labels, rows, values, space.backend)
    else:
        partner = new_space(space.labels, rows, space.backend)
        if len(partner._view.values) < len(space._view.values):  # scaled floats merged within tolerance
            rank = dict(zip(chain.from_iterable(space._view.ranks), chain.from_iterable(partner._view.ranks)))
            a = next(a for a in range(1, len(rank)) if rank[a] == rank[a - 1])
            eps, (lo, hi) = space.backend.epsilon, map(space.backend.format, space._view.values[a - 1 : a + 1])
            raise CardinalityMismatch(f"ratio {r} merges the distances {lo} and {hi} within epsilon {eps!r}")
    return partner, _realization(space, partner, mapping)
