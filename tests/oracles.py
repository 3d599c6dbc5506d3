"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's search and pruning machinery: weak
similarities are found by trying every bijection against the defining
identity (or, for larger spaces, by backtracking over the stable colour
classes with a pairwise rank check per candidate), stable colourings by
re-signing every point's whole rank row each round, generalized
subadditivity and cheapest covers by enumerating every candidate multiset
up to the minimality bound (or, for large x, a knapsack over exact sums),
and the axiom checks by comparing values through the backend over every
triple or quadruple in label order.  Space validation coerces every entry
on its own and scans the pairs in label order; the rank view sorts the
distinct values and looks each entry up.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from weaksim import AmbiguousRanking, NotSemimetric, Space, new_space


def brute_force_weak_similarities(X: Space, Y: Space) -> list[dict]:
    """Every weak similarity X -> Y, by definition, over all n! bijections.

    The scaling function is the sorted pairing of the two distance sets
    (the only strictly increasing bijection between finite chains); a
    bijection qualifies iff every pair satisfies d_X = f(d_Y(. , .)).
    Exact-rational spaces only.
    """
    if X.n != Y.n:
        return []
    dx = sorted({v for row in X.matrix for v in row})
    dy = sorted({v for row in Y.matrix for v in row})
    if len(dx) != len(dy):
        return []
    f = dict(zip(dy, dx))
    src = sorted(range(X.n), key=lambda i: X.labels[i])
    tgt = sorted(range(Y.n), key=lambda j: Y.labels[j])
    mx, my = X.matrix, Y.matrix
    found = []
    for perm in itertools.permutations(tgt):
        ok = True
        for a in range(len(src)):
            for b in range(a + 1, len(src)):
                if mx[src[a]][src[b]] != f[my[perm[a]][perm[b]]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(
                {X.labels[src[k]]: Y.labels[perm[k]] for k in range(len(src))}
            )
    return found


def signature_refinement(rkX, rkY):
    """Synchronized color refinement on two edge-colored complete graphs.

    Points start in one cell; each round re-colors every point by the sorted
    multiset of (edge rank, neighbor color) over its rank row, with colors
    drawn from a table shared by both graphs.  The diagonal entry (0, own
    color) leads every signature, so a round only splits cells.  Returns
    None when the stable color class sizes differ, which rules out any
    rank-preserving bijection.
    """
    colorsX, colorsY = [0] * len(rkX), [0] * len(rkY)
    ncolors = 1
    while True:
        sigX = [tuple(sorted(zip(row, colorsX))) for row in rkX]
        sigY = [tuple(sorted(zip(row, colorsY))) for row in rkY]
        palette = {s: c for c, s in enumerate(sorted(set(sigX) | set(sigY)))}
        colorsX = [palette[s] for s in sigX]
        colorsY = [palette[s] for s in sigY]
        if len(palette) == ncolors:
            break
        ncolors = len(palette)
    if sorted(colorsX) != sorted(colorsY):
        return None
    return colorsX, colorsY


def pairwise_search(X: Space, Y: Space):
    """Every rank-preserving bijection X -> Y, in canonical order, by
    backtracking with a pairwise check per candidate.

    Source points are placed in label order, lone ones included.  Each tries
    the targets of its stable colour class (:func:`signature_refinement`)
    in label order, skips those already used, and keeps the first whose
    ranks to every point placed so far equal the source point's.  Yields
    label pairs sorted by source label.  Exact-rational spaces only.
    """
    valuesX, rkX = rank_view(X.matrix)
    valuesY, rkY = rank_view(Y.matrix)
    if X.n != Y.n or len(valuesX) != len(valuesY):
        return
    refined = signature_refinement(rkX, rkY)
    if refined is None:
        return
    colorsX, colorsY = refined
    src, tgt = _label_order(X), _label_order(Y)
    candidates = [[j for j in tgt if colorsY[j] == colorsX[i]] for i in src]
    rows = [[rkX[i][m] for m in src] for i in src]  # X's ranks in label order
    image: list[int] = []  # image[m] is the target of src[m]
    used = [False] * Y.n
    stack = [iter(candidates[0])]
    while stack:
        k = len(stack) - 1
        if len(image) > k:  # back at level k: release its previous image
            used[image.pop()] = False
        row = rows[k]
        for j in stack[-1]:
            if used[j]:
                continue
            target_row = rkY[j]
            for m, prev in enumerate(image):
                if row[m] != target_row[prev]:
                    break
            else:
                image.append(j)
                used[j] = True
                break
        else:
            stack.pop()
            continue
        if len(image) == X.n:
            yield tuple((X.labels[i], Y.labels[j]) for i, j in zip(src, image))
        else:
            stack.append(iter(candidates[k + 1]))


def scan_new_space(labels, matrix, backend) -> Space:
    """``new_space`` by definition, for well-shaped input with distinct labels.

    Every entry goes through ``backend.coerce`` in row order; then the
    diagonal, symmetry and positivity are checked pair by pair, in label
    order, through the backend's comparisons, and the first offence raises.
    A semimetric whose values the backend's tolerance does not split into
    classes is then refused (see ``_check_tolerance_classes``).
    """
    labels = tuple(str(x) for x in labels)
    m = tuple(tuple(backend.coerce(v) for v in row) for row in matrix)
    order = sorted(range(len(labels)), key=lambda k: labels[k])
    for pos, i in enumerate(order):
        if not backend.is_zero(m[i][i]):
            raise NotSemimetric((labels[i], labels[i]), "nonzero diagonal")
        for j in order[pos + 1 :]:
            if not backend.eq(m[i][j], m[j][i]):
                raise NotSemimetric((labels[i], labels[j]), "asymmetric")
            if not backend.lt(0, m[i][j]):
                raise NotSemimetric((labels[i], labels[j]), "off-diagonal distance not positive")
    _check_tolerance_classes(list(dict.fromkeys(v for row in m for v in row)), backend)
    return Space(labels=labels, matrix=m, backend=backend)


def _check_tolerance_classes(values, backend) -> None:
    """Raise AmbiguousRanking unless ``backend.eq`` is transitive on the
    distinct values, and then on them and 0, so that its classes can be the
    ranks and the class of 0 rank 0.

    A class is a connected component of the relation; the first one, by
    least member, in which two values do not compare equal is named by its
    least and greatest members.  Exact equality is always transitive.
    """

    def classes(vals):
        left, found = sorted(vals), []
        while left:
            members = [left.pop(0)]
            for u in members:  # grows while it is read
                near = [v for v in left if backend.eq(u, v)]
                left = [v for v in left if v not in near]
                members += near
            found.append(sorted(members))
        return found

    def transitive(members):
        return all(backend.eq(a, b) for a, b in itertools.combinations(members, 2))

    for members in classes(values):
        if not transitive(members):
            raise AmbiguousRanking(
                f"values {members[0]!r}..{members[-1]!r} chain within tolerance but their extremes do not compare equal"
            )
    zero = backend.coerce(0)
    if not all(map(transitive, classes({*values, zero}))):
        raise AmbiguousRanking("rank 0 must hold exactly the values that compare equal to 0")


def rank_view(matrix) -> tuple:
    """(sorted distinct values, each entry's index in them), by definition.

    Exact for rational matrices, and for float ones whose distinct values
    lie farther apart than the tolerance.
    """
    values = sorted({v for row in matrix for v in row})
    return tuple(values), tuple(tuple(values.index(v) for v in row) for row in matrix)


def _label_order(space: Space) -> list[int]:
    return sorted(range(space.n), key=lambda k: space.labels[k])


def _first_triple(space: Space, offends) -> tuple:
    m = space.matrix
    order = _label_order(space)
    for i in order:
        for j in order:
            if j == i:
                continue
            for k in order:
                if k != i and k != j and offends(m[i][j], m[j][k], m[i][k]):
                    return False, (space.labels[i], space.labels[j], space.labels[k])
    return True, None


def brute_force_is_metric(space: Space) -> tuple:
    """(ok, witness): the first (x, z, y) in label order with
    d(x,y) > d(x,z) + d(z,y), compared through the backend."""
    lt = space.backend.lt
    return _first_triple(space, lambda xz, zy, xy: lt(xz + zy, xy))


def brute_force_is_ultrametric(space: Space) -> tuple:
    """(ok, witness): the first (x, z, y) with d(x,y) > max(d(x,z), d(z,y))."""
    lt = space.backend.lt
    return _first_triple(space, lambda xz, zy, xy: lt(xz if xz >= zy else zy, xy))


def brute_force_coincreasing(d: Space, rho: Space) -> tuple:
    """(ok, witness): the first (x, y, z, w) in label order on which
    d(x,y) <= d(z,w) and rho(x,y) <= rho(z,w) disagree."""
    md, mr = d.matrix, rho.matrix

    def le(backend, a, b):
        return backend.lt(a, b) or backend.eq(a, b)

    order = _label_order(d)
    for i1, i2, i3, i4 in itertools.product(order, repeat=4):
        if le(d.backend, md[i1][i2], md[i3][i4]) != le(rho.backend, mr[i1][i2], mr[i3][i4]):
            return False, tuple(d.labels[i] for i in (i1, i2, i3, i4))
    return True, None


def brute_force_verify(X: Space, Y: Space, mapping: dict, scaling) -> tuple:
    """(ok, witness): the first pair a < b of source labels with
    d_X(a, b) != f(d_Y(map a, map b)), f read from the exact table."""
    f = dict(scaling.pairs)
    ix, iy = X.labels.index, Y.labels.index
    labels = sorted(X.labels)
    for k, a in enumerate(labels):
        for b in labels[k + 1 :]:
            image = Y.matrix[iy(mapping[a])][iy(mapping[b])]
            if X.matrix[ix(a)][ix(b)] != f[image]:
                return False, (a, b)
    return True, None


def forced_scaling_pairs(X: Space, Y: Space) -> tuple:
    """The sorted pairing of D(Y) with D(X) as (t, f_t) pairs."""
    dx = sorted({v for row in X.matrix for v in row})
    dy = sorted({v for row in Y.matrix for v in row})
    return tuple(zip(dy, dx))


def naive_generalized_subadditivity(table) -> bool:
    """Exhaustive generalized-subadditivity oracle on a finite table.

    Enumerates every multiset of positive domain points with sum below
    x + max(A) for each x; single elements are kept regardless of that
    bound because they cannot be reduced further (this only matters for
    x = 0, where any single cheaper point already violates).
    """
    entries = table.entries
    positives = [(a, v) for a, v in entries if a > 0]
    if not positives:
        return True
    max_a = entries[-1][0]
    bound = max_a + max_a  # covers the per-x bound for every x <= max(A)

    multisets: list[tuple[Fraction, Fraction, int]] = []  # (sum, cost, size)

    def extend(start: int, total: Fraction, cost: Fraction, size: int) -> None:
        if size > 0:
            multisets.append((total, cost, size))
        for i in range(start, len(positives)):
            a, v = positives[i]
            if total + a < bound:
                extend(i, total + a, cost + v, size + 1)

    extend(0, Fraction(0), Fraction(0), 0)

    for x, fx in entries:
        for total, cost, size in multisets:
            if x <= total and (total < x + max_a or size == 1) and cost < fx:
                return False
    return True


def random_semimetric(n: int, seed: int) -> Space:
    """Symmetric positive draws with no completion: triangle inequality may fail."""
    rng = random.Random(seed)
    labels = [f"s{i}" for i in range(n)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = Fraction(rng.randint(1, 9), rng.randint(1, 3))
    return new_space(labels, m)


def random_bijection(X: Space, Y: Space, seed: int) -> dict:
    rng = random.Random(seed)
    targets = list(Y.labels)
    rng.shuffle(targets)
    return dict(zip(X.labels, targets))


def brute_force_min_cover(positives, x) -> tuple:
    """(cost, multiset): the cheapest cover of x, smallest multiset on ties.

    A cover is a multiset of the positive points summing to at least x. It
    is minimal when dropping its smallest element leaves less than x; every
    single point counts, which settles x <= 0. Every minimal cover is listed
    as a non-increasing sequence, one point at a time, and the least
    (cost, ascending tuple) wins. Dropping a point never raises the cost, so
    no cheaper cover is missed.
    """
    points = sorted(positives, reverse=True)
    best = None
    stack = [(0, Fraction(0), Fraction(0), ())]
    while stack:
        start, total, cost, chosen = stack.pop()
        for i in range(start, len(points)):
            a, v = points[i]
            if total + a >= x:
                found = (cost + v, (a,) + tuple(reversed(chosen)))
                if best is None or found < best:
                    best = found
            else:
                stack.append((i, total + a, cost + v, chosen + (a,)))
    return best


def exact_sum_cover_costs(positives, xs) -> dict:
    """Cheapest cover cost of each x > 0, from one knapsack over exact sums.

    Points and costs are scaled to integers by their common denominators;
    cheapest[s] is the least cost of a multiset summing to exactly s. A
    minimal cover of x sums to less than x + max(A), so the cost of x is the
    least cheapest[s] over [x, x + max(A)). This is the same oracle as
    perfbench/instances.py:min_cover_costs; one copy goes when that package
    is next edited (ROADMAP item 6).
    """
    den = math.lcm(*(a.denominator for a, _ in positives))
    scale = math.lcm(*(v.denominator for _, v in positives))
    items = [(int(a * den), int(v * scale)) for a, v in positives]
    top = max(a for a, _ in items)
    needs = {x: math.ceil(x * den) for x in xs}
    limit = max(needs.values()) + top
    cheapest = [None] * limit
    cheapest[0] = 0
    for s in range(1, limit):
        options = [cheapest[s - a] + c for a, c in items if a <= s and cheapest[s - a] is not None]
        cheapest[s] = min(options, default=None)
    return {
        x: Fraction(min(c for c in cheapest[n : n + top] if c is not None), scale)
        for x, n in needs.items()
    }
