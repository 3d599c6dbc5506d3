"""Finite semimetric spaces with exact distance matrices.

A space is a finite list of labelled points plus a symmetric, positive
off-diagonal distance matrix.  Axiom checks (triangle / ultrametric
inequality), distance-set extraction and rank matrices all report
deterministic witnesses: the lexicographically first offender in label order.

Every question that depends only on the order of the distances reads one
rank view per space, cached on the space: the sorted distinct distances, the
integer rank matrix, whether those ranks are ultrametric and, for rational
spaces, the matrix scaled to integers by the common denominator.
``new_space`` builds the view with C-level passes over the n^2 entries, one
coercion per distinct entry and one O(k log k) sort on integer keys; it
validates the matrix on its ranks and refuses a float matrix that cannot be
ranked unambiguously: every space has a view.  A transform that keeps the
order of the distances ranks only its values, on its source's view.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat, takewhile
from operator import add, gt, itemgetter, le, lt, ne
from typing import Optional, Sequence

from .backends import RATIONAL, Backend, RationalBackend, Value, _Record
from .errors import (
    AmbiguousRanking,
    DuplicateLabel,
    DuplicateValue,
    InputError,
    LabelMismatch,
    NotSemimetric,
    ZeroMissing,
)


class Verdict(_Record):
    """Outcome of an axiom check; failing verdicts carry a label witness."""

    ok: bool
    witness: Optional[tuple[str, ...]] = None

    def __bool__(self) -> bool:
        return self.ok


TRUE_VERDICT = Verdict(True)


class Space(_Record):
    """A finite semimetric space. Immutable; build via :func:`new_space`."""

    labels: tuple[str, ...]
    matrix: tuple[tuple[Value, ...], ...]
    backend: Backend

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def _positions(self) -> dict:
        return {label: k for k, label in enumerate(self.labels)}

    @cached_property
    def _view(self) -> "RankView":
        return _load(self.labels, self.matrix, self.backend)._view

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise LabelMismatch(f"unknown label {label!r}") from None

    def dist(self, a: str, b: str) -> Value:
        return self.matrix[self.index(a)][self.index(b)]


class DistanceSet(_Record):
    """Strictly increasing distinct distances of a space; 0 comes first."""

    values: tuple[Value, ...]
    backend: Backend

    def __len__(self) -> int:
        return len(self.values)


class RankMatrix(_Record):
    """Each distance replaced by its index in the sorted distance set."""

    ranks: tuple[tuple[int, ...], ...]


class RankView(_Record):
    """The order data of one space, built once by :func:`_ranked`:
    sorted distinct distances (one representative per tolerance group on a
    float space) and the matrix of their indices.  Two distances compare as
    their ranks do."""

    values: tuple[Value, ...]
    ranks: tuple[tuple[int, ...], ...]

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], ...]:
        """The rational matrix times the LCM of its denominators: exact
        integer sums for the triangle inequality."""
        lcm = math.lcm(*(v.denominator for v in self.values))
        ints = [v.numerator * (lcm // v.denominator) for v in self.values]
        return tuple(tuple(ints[r] for r in row) for row in self.ranks)

    @cached_property
    def ultrametric(self) -> bool:
        """Do the ranks satisfy the ultrametric inequality?  One spanning
        tree per view answers both is_ultrametric and is_metric."""
        return _spanning_tree_agrees(self.ranks)


def new_space(labels: Sequence[str], matrix, backend: Backend = RATIONAL) -> Space:
    """Validate and build a space, with its rank view, in one pass.

    The matrix is accepted on its ranks when rank 0 is zero, fills the
    diagonal and appears nowhere else, and the ranks are symmetric; any
    other, and a float one whose ranking is ambiguous, is scanned pair by
    pair.  Raises NotSemimetric with the first offending pair (label order)
    when the diagonal is nonzero, the matrix is asymmetric, or an
    off-diagonal entry is not positive; then AmbiguousRanking when a float
    semimetric cannot be ranked; DuplicateLabel on repeated names.
    """
    labels = tuple(str(x) for x in labels)
    if len(labels) == 0:
        raise InputError("a space needs at least one point")
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"duplicate label {next(b for a, b in enumerate(labels) if b in labels[:a])!r}")
    if len(matrix) != len(labels) or any(len(row) != len(labels) for row in matrix):
        raise InputError("matrix dimensions do not match labels")
    return _load(labels, matrix, backend)


def _ranked_space(labels, ranks, values, backend: Backend) -> Space:
    """The space with ``values[r]`` wherever the rank matrix ``ranks`` holds r,
    for a transform that keeps the order of the distances or a generator
    that knows its ranks.  Only the k values are ranked and checked, as
    ``new_space`` would; the view keeps ``ranks`` unless some values merge."""
    rows = _rows(ranks)
    rank_rows = lambda rank: ranks if rank == list(range(len(rank))) else rows(rank)
    return _ranked(tuple(labels), rows(values), values, backend, rank_rows)


class _Memo(dict):
    """Key -> fn(key), computed on first lookup."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _rows(matrix):
    """``rows(table)``: ``matrix`` with each entry looked up in ``table``, one
    C-level ``itemgetter`` per row (a one-entry row gets a 1-tuple getter)."""
    getters = [itemgetter(*row) if len(row) > 1 else lambda table, key=row[0]: (table[key],) for row in matrix]
    return lambda table: tuple(get(table) for get in getters)


def _load(labels: tuple[str, ...], matrix, backend: Backend) -> Space:
    """The space of ``matrix`` with its rank view.  One pass collects the
    distinct entries in row-major order and each is coerced once, so the
    first bad entry raises first and equal texts share one value; one lookup
    per row writes the values, one the ranks.  A Fraction hashes in Python,
    so a first row holding one (or an unhashable entry) sends the matrix
    through ``coerce`` entry by entry.  0 and -0.0 share a key, so on a float
    space a zero, which only the diagonal holds, is coerced from its entry."""
    coerce, exact = backend.coerce, isinstance(backend, RationalBackend)
    try:
        entries = None if Fraction in map(type, matrix[0]) else dict.fromkeys(chain.from_iterable(matrix))
    except TypeError:  # an unhashable entry
        entries = None
    if entries is None:  # coerce entry by entry, in order; key a rational by its ratio, which hashes in C
        key, coerce = (Fraction.as_integer_ratio, lambda r: Fraction(*r)) if exact else (float, coerce)
        matrix = [list(map(key, map(backend.coerce, row))) for row in matrix]
        entries = dict.fromkeys(chain.from_iterable(matrix))
    values, rows = list(map(coerce, entries)), _rows(matrix)
    m = rows(dict(zip(entries, values)))
    if 0 in entries and not exact:  # a number 0 on the diagonal keeps its own sign
        rows_in = enumerate(zip(m, matrix))
        m = tuple(r if type(d[i]) is str else (*r[:i], coerce(d[i]), *r[i + 1 :]) for i, (r, d) in rows_in)
    return _ranked(labels, m, values, backend, lambda rank: rows(dict(zip(entries, rank))))


def _ranked(labels: tuple[str, ...], m, values, backend: Backend, rank_rows) -> Space:
    """The space of ``m`` with its rank view; ``rank_rows`` writes the rank
    matrix from the ranks of ``values``, sorted once: a rational by floor(v *
    2^64), then by v, which only values closer than 2^-64 compare.  Equal
    values share a rank; floats group where adjacent values compare equal.
    A group whose extremes do not, or a rank 0 that is not exactly the values
    equal to 0, would make the ranks depend on merge order: AmbiguousRanking,
    raised after the NotSemimetric scan, run when the ranks are not semimetric."""
    exact = isinstance(backend, RationalBackend)
    keys = [((v.numerator << 64) // v.denominator, v) for v in values] if exact else values
    order = sorted(range(len(values)), key=keys.__getitem__)
    groups, rank = [[order[0]]], [0] * len(values)
    for i in order[1:]:
        if backend.eq(keys[groups[-1][-1]], keys[i]):
            groups[-1].append(i)
        else:
            groups.append([i])
        rank[i] = len(groups) - 1
    ambiguity = None if exact else _ambiguity(groups, values, order, backend)
    view = RankView(tuple(values[g[0]] for g in groups), rank_rows(rank))
    if ambiguity or not _ranks_semimetric(view, backend):
        _scan_semimetric(labels, m, backend)
    if ambiguity:
        raise AmbiguousRanking(ambiguity)
    space = Space(labels, m, backend)
    space.__dict__["_view"] = view  # fills the cached property
    return space


def _ambiguity(groups, reps, order, backend: Backend) -> Optional[str]:
    """Why a float grouping of ``reps`` (ids sorted by value in ``order``,
    runs of them in ``groups``) would depend on merge order, or None."""
    for lo, hi in ((reps[g[0]], reps[g[-1]]) for g in groups):
        if not backend.eq(lo, hi):
            return f"values {lo!r}..{hi!r} chain within tolerance but their extremes do not compare equal"
    if len(groups[0]) != len(list(takewhile(backend.is_zero, map(reps.__getitem__, order)))):
        return "rank 0 must hold exactly the values that compare equal to 0"
    return None


def _ranks_semimetric(view: RankView, backend: Backend) -> bool:
    """Rank 0 is zero, fills the diagonal and nowhere else, and the ranks are
    symmetric?  Then so are the values, and off the diagonal all are > 0."""
    ranks = view.ranks
    return (
        backend.is_zero(view.values[0])
        and not any(row[i] for i, row in enumerate(ranks))
        and sum(row.count(0) for row in ranks) == len(ranks)
        and ranks == tuple(zip(*ranks))
    )


def _scan_semimetric(labels: tuple[str, ...], m, backend: Backend) -> None:
    """Raise NotSemimetric at the first offending pair in label order."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    for pos, i in enumerate(order):
        if not backend.is_zero(m[i][i]):
            raise NotSemimetric((labels[i], labels[i]), "nonzero diagonal")
        for j in order[pos + 1 :]:
            if not backend.eq(m[i][j], m[j][i]):
                raise NotSemimetric((labels[i], labels[j]), "asymmetric")
            if not backend.lt(0, m[i][j]):
                raise NotSemimetric(
                    (labels[i], labels[j]), "off-diagonal distance not positive"
                )


def _label_order(space: Space) -> list[int]:
    return sorted(range(space.n), key=lambda k: space.labels[k])


def _in_order(m, order: list[int]) -> list[list]:
    """Rows and columns of ``m`` permuted into the given point order."""
    return [[m[i][k] for k in order] for i in order]


def _labelled(space: Space, order: list[int], *positions: int) -> Verdict:
    return Verdict(False, tuple(space.labels[order[p]] for p in positions))


def _first_triple(space: Space, m, combine, offends) -> Verdict:
    """First (x, z, y) of distinct points, in label order, on which
    ``offends(m[x][z], m[z][y], m[x][y])`` holds.

    An offence needs m[x][y] > combine(m[x][z], m[z][y]) in plain
    arithmetic, and m[z][y] is at least the least entry of row z off its
    diagonal (``combine`` is monotone).  So (x, z) is passed over when x's
    largest entry is not above combine(m[x][z], that least entry); else it
    first compares two whole rows at once, and only row pairs where that
    holds somewhere are searched point by point.  When ``m`` is exactly
    symmetric, (x, z, y) offends just when its mirror (y, z, x) does
    (``combine`` commutes), so the first offence has x before y: the rows
    are compared, and searched, only from the column after x.
    """
    order = _label_order(space)
    rows = _in_order(m, order)
    mirrored = m == tuple(zip(*m))
    least = _Memo(lambda z: min(rows[z][:z] + rows[z][z + 1 :]))
    for a, row_a in enumerate(rows):
        start = a + 1 if mirrored else 0
        tail_a = row_a[start:]
        if not tail_a:
            continue
        top = max(tail_a)
        for b, row_b in enumerate(rows):
            xz = row_a[b]
            if a == b or top <= combine(xz, least[b]):
                continue
            tail_b = row_b[start:]
            if not any(map(gt, tail_a, map(combine, repeat(xz), tail_b))):
                continue
            for c, (xy, zy) in enumerate(zip(tail_a, tail_b), start):
                if c != a and c != b and offends(xz, zy, xy):
                    return _labelled(space, order, a, b, c)
    return TRUE_VERDICT


def is_metric(space: Space) -> Verdict:
    """Check the triangle inequality over all ordered triples.

    A failing verdict carries (x, z, y) with d(x,y) > d(x,z) + d(z,y),
    minimal in label order.  A rational ultrametric is a metric, since
    max(d(x,z), d(z,y)) <= d(x,z) + d(z,y): it passes on the rank view's
    spanning-tree verdict, in O(n^2).  Other rational spaces are scanned on
    the integer scaled matrix, float spaces on their values, comparing sums
    within tolerance.
    """
    if isinstance(space.backend, RationalBackend):
        if space._view.ultrametric:
            return TRUE_VERDICT
        m, less = space._view.scaled, lt
    else:
        m, less = space.matrix, space.backend.lt
    return _first_triple(space, m, add, lambda xz, zy, xy: less(xz + zy, xy))


def _spanning_tree_agrees(ranks) -> bool:
    """Does the rank matrix equal its subdominant ultrametric?

    That ultrametric gives two points the largest rank on their path in a
    minimum spanning tree, and it equals the matrix exactly when the matrix
    is ultrametric.  The tree grows by Prim's rule; a point v joined through
    p at rank w must lie at max(w, rank(p, u)) from every earlier point u.
    """
    n = len(ranks)
    tree = [0]
    best, via = list(ranks[0]), [0] * n
    rest = set(range(1, n))
    while rest:
        v = min(rest, key=best.__getitem__)
        rest.remove(v)
        w, row_p, row_v = best[v], ranks[via[v]], ranks[v]
        if any(row_v[u] != max(w, row_p[u]) for u in tree):
            return False
        tree.append(v)
        for u in rest:
            if row_v[u] < best[u]:
                best[u], via[u] = row_v[u], v
    return True


def is_ultrametric(space: Space) -> Verdict:
    """Check d(x,y) <= max(d(x,z), d(z,y)) over all ordered triples.

    Decided on ranks in O(n^2) by the rank view's spanning tree; only a
    failing space is scanned, on its ranks, for its witness.
    """
    view = space._view
    if view.ultrametric:
        return TRUE_VERDICT
    return _first_triple(space, view.ranks, max, lambda xz, zy, xy: max(xz, zy) < xy)


def distance_set(space: Space) -> DistanceSet:
    """All distinct distances of the space, sorted ascending (0 included)."""
    return DistanceSet(space._view.values, space.backend)


def rank_matrix(space: Space) -> RankMatrix:
    """Matrix of distance ranks; rank 0 is the diagonal zero."""
    return RankMatrix(space._view.ranks)


def max_ultrametric_from_set(values, backend: Backend = RATIONAL) -> Space:
    """Ultrametric space on the points of ``values`` with d(x,y) = max(x,y).

    The input must contain 0 and no duplicates; the resulting space has
    exactly ``values`` as its distance set.
    """
    vals = sorted(backend.coerce(v) for v in values)
    if vals and vals[0] < 0:
        raise InputError("values must be nonnegative")
    if not vals or not backend.is_zero(vals[0]):
        raise ZeroMissing("the value set must contain 0")
    for a, b in zip(vals, vals[1:]):
        if backend.eq(a, b):
            raise DuplicateValue(f"values {a!r} and {b!r} coincide")
    labels = [backend.format(v) for v in vals]
    ranks = tuple(tuple(0 if i == j else max(i, j) for j in range(len(vals))) for i in range(len(vals)))
    return _ranked_space(labels, ranks, [backend.coerce(0), *vals[1:]], backend)


def coincreasing(d: Space, rho: Space) -> Verdict:
    """Do two semimetrics on the same points induce the same pair order?

    Checks d(x,y) <= d(z,w) <=> rho(x,y) <= rho(z,w): the pair orders agree
    exactly when the rank matrices are equal.  A failing verdict carries the
    first (x, y, z, w) in label order, found by a scan of all quadruples of
    ranks.
    """
    if d.labels != rho.labels:
        raise LabelMismatch("spaces must share one label list")
    md, mr = d._view.ranks, rho._view.ranks
    if md == mr:
        return TRUE_VERDICT
    order = _label_order(d)
    rows_d, rows_r = _in_order(md, order), _in_order(mr, order)
    for a in range(d.n):
        for b in range(d.n):
            x, y = rows_d[a][b], rows_r[a][b]
            for c, (row_d, row_r) in enumerate(zip(rows_d, rows_r)):
                if any(map(ne, map(le, repeat(x), row_d), map(le, repeat(y), row_r))):
                    e = next(e for e in range(d.n) if (x <= row_d[e]) != (y <= row_r[e]))
                    return _labelled(d, order, a, b, c, e)
    return TRUE_VERDICT
