"""Distance transforms and subadditivity on finite function tables.

A function table is a finite map A -> R+ with exact rational entries.  The
generalized subadditivity test asks, for each x in A, whether some multiset
of positive domain points sums to at least x at a smaller total f-cost; the
increasing subadditive extension evaluates exactly that minimum cover cost
at arbitrary nonnegative rationals.  Both scale points and values to
integers and share two engines, chosen by the scaled need: up to a fixed
size, one ascending knapsack row gives the cheapest cover of every need;
past it, a pruned depth-first search looks for the cheapest cover of that
one need.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import takewhile
from math import ceil, gcd, isqrt, lcm
from typing import Optional, Sequence

from .backends import FloatBackend, RationalBackend, parse_exact
from .errors import (
    DomainGap,
    EmptyDomain,
    InputError,
    NonpositiveExponent,
    NonzeroAtZero,
    NoPositiveElement,
    NotPositiveDefinite,
    NotStrictlyIncreasing,
)
from .spaces import Space, new_space


@dataclass(frozen=True)
class FunctionTable:
    """Finite f: A -> R+ with strictly increasing domain points."""

    entries: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        coerced = tuple(
            (parse_exact(a), parse_exact(v)) for a, v in self.entries
        )
        object.__setattr__(self, "entries", coerced)
        for (a1, _), (a2, _) in zip(coerced, coerced[1:]):
            if not a1 < a2:
                raise InputError("domain points must be strictly increasing")
        for a, v in coerced:
            if a < 0 or v < 0:
                raise InputError("domain points and values must be nonnegative")

    def domain(self) -> tuple[Fraction, ...]:
        return tuple(a for a, _ in self.entries)

    def value_at(self, a) -> Fraction:
        a = parse_exact(a)
        for key, v in self.entries:
            if key == a:
                return v
        raise DomainGap(a)

    def positive_entries(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((a, v) for a, v in self.entries if a > 0)


def function_table(entries) -> FunctionTable:
    return FunctionTable(tuple((a, v) for a, v in entries))


def linear_table(domain: Sequence, c) -> FunctionTable:
    """Sample f(t) = c*t on a finite domain."""
    c = parse_exact(c)
    return function_table([(a, c * parse_exact(a)) for a in domain])


def power_table(domain: Sequence, p) -> FunctionTable:
    """Sample f(t) = t**p on a finite domain; every power must be rational."""
    p = parse_exact(p)
    rows = []
    for a in domain:
        a = parse_exact(a)
        v = _pow_exact(a, p)
        if v is None:
            raise InputError(f"{a}**{p} is irrational; only exact tables are built")
        rows.append((a, v))
    return function_table(rows)


def _iroot_exact(n: int, k: int) -> Optional[int]:
    """Integer k-th root of n, or None when n is not a perfect k-th power.

    Computed in integers, so exact at any size: Newton's iteration from
    above stops at the floor of the root.
    """
    if n < 0:
        return None
    if n in (0, 1) or k == 1:
        return n
    if n.bit_length() <= k:  # 1 < root < 2
        return None
    if k == 2:
        r = isqrt(n)
    else:
        r = 1 << -(-n.bit_length() // k)
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
    return r if r**k == n else None


def _pow_exact(value: Fraction, p: Fraction) -> Optional[Fraction]:
    """value**p as an exact rational, or None when the result is irrational."""
    if value == 0:
        return Fraction(0)
    num, den = p.numerator, p.denominator
    root_n = _iroot_exact(value.numerator, den)
    root_d = _iroot_exact(value.denominator, den)
    if root_n is None or root_d is None:
        return None
    return Fraction(root_n**num, root_d**num)


@dataclass(frozen=True)
class SubadditivityVerdict:
    """True, or a witness x and multiset with f(x) > sum of f over the multiset."""

    ok: bool
    x: Optional[Fraction] = None
    multiset: Optional[tuple[Fraction, ...]] = None
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None

    def __bool__(self) -> bool:
        return self.ok


# Needs up to this many scaled units are read from a dense cover row: at the
# limit it fills in about 0.4 s with two items and 0.7 s with six, in 20 MB,
# whatever the values.  Wider needs go to the pruned depth-first search,
# whose time is set by how many covers tie or nearly tie, not by the sizes
# (on the benchmark's `heavy` tables it takes 2.7 times the row's time).
_DENSE_ROW_LIMIT = 1 << 19


def _integer_items(positives) -> tuple[list[tuple[int, int]], Fraction, int]:
    """(items, per_unit, scale): item j is (a_j * per_unit, f(a_j) * scale).

    per_unit is the points' common denominator over the gcd of the scaled
    points, scale the values' common denominator.  A multiset covers x iff
    its sizes sum to at least ceil(x * per_unit).
    """
    den = lcm(*(a.denominator for a, _ in positives))
    sizes = [a.numerator * (den // a.denominator) for a, _ in positives]
    unit = gcd(*sizes)
    scale = lcm(*(v.denominator for _, v in positives))
    costs = [v.numerator * (scale // v.denominator) for _, v in positives]
    return [(a // unit, c) for a, c in zip(sizes, costs)], Fraction(den, unit), scale


def _cover_row(items, need: int, row: list) -> list:
    """Extend row, where row[t] is the least cost of a multiset whose sizes
    sum to at least t, up to t = need.  row starts as [0]."""
    top = items[-1][0]
    for t in range(len(row), min(need, top) + 1):
        row.append(min([c + row[t - a] if t > a else c for a, c in items]))
    for t in range(len(row), need + 1):
        row.append(min([c + row[t - a] for a, c in items]))
    return row


def _lexmin_cover(items, row: list, need: int) -> list[int]:
    """Indices of the lexicographically smallest (ascending) cheapest cover.

    Its first element is the smallest item that starts a cheapest cover.
    Any cheapest cover of the remainder completes it, and none of their
    items is smaller (each lies in a cheapest cover of need), so the walk
    repeats that choice on the remainder.
    """
    chosen = []
    t = need
    while t > 0:
        j = next(j for j, (a, c) in enumerate(items) if c + row[max(t - a, 0)] == row[t])
        chosen.append(j)
        t -= items[j][0]
    return chosen


def _search_cover(items, need: int) -> tuple[int, list[int]]:
    """(cost, indices): the cheapest cover of need, smallest multiset on ties.

    Depth-first over minimal covers, items taken in non-increasing size with
    an explicit stack.  A branch is cut when its cost, plus the rest of the
    need priced at the least cost per unit among the items still allowed,
    exceeds the incumbent; ties are kept, so the lexicographic tie-break is
    exact.  Its work grows with the number of covers it cannot cut, not with
    the size of the points.
    """
    desc = items[::-1]
    rate, low = [], None  # rate[i]: (cost, size) of least cost per unit in desc[i:]
    for a, c in items:
        if low is None or c * low[1] < low[0] * a:
            low = (c, a)
        rate.append(low)
    rate.reverse()
    best = None  # (cost, ascending indices)
    chosen = []  # indices into desc, non-decreasing
    stack = [(0, 0, 0)]  # (next index, total, cost), one frame per depth
    while stack:
        i, total, cost = stack[-1]
        if i == len(desc):
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        stack[-1] = (i + 1, total, cost)
        a, c = desc[i]
        new_cost = cost + c
        if best is not None and new_cost > best[0]:
            continue
        if total + a >= need:
            found = (new_cost, [len(desc) - 1 - k for k in reversed(chosen + [i])])
            if best is None or found < best:
                best = found
            continue
        rc, ra = rate[i]
        if best is not None and new_cost * ra + (need - total - a) * rc > best[0] * ra:
            continue
        chosen.append(i)
        stack.append((i, total + a, new_cost))
    return best


def check_generalized_subadditivity(f: FunctionTable) -> SubadditivityVerdict:
    """Does x <= sum(x_i) always force f(x) <= sum(f(x_i)) over the domain?

    Violations are reported at the smallest offending x with the cheapest
    covering multiset, the lexicographically smallest one on ties.  Zero
    domain points never help a cover, so covers are drawn from the positive
    domain; for x = 0 single elements already settle the question.  One
    ascending cover row answers every x up to the first violation, and the
    search each x whose need is past the row's limit.
    """
    if not f.entries:
        raise EmptyDomain("the table has no entries")
    positives = f.positive_entries()
    if f.entries[0][0] == 0:
        f0 = f.entries[0][1]
        best = None
        for a, fa in positives:
            if fa < f0 and (best is None or fa < best[1]):
                best = (a, fa)
        if best is not None:
            return SubadditivityVerdict(
                False, x=Fraction(0), multiset=(best[0],), lhs=f0, rhs=best[1]
            )
    if not positives:
        return SubadditivityVerdict(True)
    items, _, scale = _integer_items(positives)
    row = [0]
    for (x, fx), (need, cost) in zip(positives, items):
        if need <= _DENSE_ROW_LIMIT:
            cheapest, cover = _cover_row(items, need, row)[need], None
        else:
            cheapest, cover = _search_cover(items, need)
        if cheapest < cost:
            if cover is None:
                cover = _lexmin_cover(items, row, need)
            multiset = tuple(positives[j][0] for j in cover)
            return SubadditivityVerdict(
                False, x=x, multiset=multiset, lhs=fx, rhs=Fraction(cheapest, scale)
            )
    return SubadditivityVerdict(True)


@dataclass(frozen=True)
class SubadditiveHull:
    """Increasing subadditive extension of a table, by minimum cover cost.

    The cover row filled by `hull_eval` is kept here, so later evaluations
    read it, or extend it once.
    """

    base: FunctionTable
    _row: list = field(default_factory=lambda: [0], init=False, repr=False, compare=False)


def hull(f: FunctionTable) -> SubadditiveHull:
    """Build the extension; exact restriction holds iff f is generalized-subadditive."""
    positives = f.positive_entries()
    if not positives:
        raise NoPositiveElement("the domain has no positive element")
    if f.entries[0][0] == 0 and f.entries[0][1] != 0:
        raise NonzeroAtZero("f(0) must be 0")
    for a, v in positives:
        if v == 0:
            raise NotPositiveDefinite(f"f({a}) must be positive")
    return SubadditiveHull(base=f)


def hull_eval(h: SubadditiveHull, x) -> Fraction:
    """Evaluate the extension at x >= 0: min total cost of a cover of x.

    Let a* be the item of least cost per unit (the smallest on ties).  Any
    a* other items of a cover hold some that sum to a multiple of a*, which
    copies of a* replace at no more cost; so a cheapest cover of t >
    (a* - 1) * max(A) contains a*, and best(t) = best(t - a*) + cost(a*).
    Whole periods are added in closed form, so the need left is at most
    (a* - 1) * max(A), whatever x is (Gilmore and Gomory, "The theory and
    computation of knapsack functions", 1966).  It is read from the hull's
    row, or searched for when it is past the row's limit.
    """
    x = parse_exact(x)
    if x < 0:
        raise InputError("the extension is defined on nonnegative values")
    if x == 0:
        return Fraction(0)
    items, per_unit, scale = _integer_items(h.base.positive_entries())
    need = ceil(x * per_unit)
    a_star, c_star = min(items, key=lambda item: (Fraction(item[1], item[0]), item[0]))
    periodic_from = (a_star - 1) * items[-1][0] + 1
    periods = max(0, (need - periodic_from) // a_star + 1)
    need -= periods * a_star
    if need <= _DENSE_ROW_LIMIT:
        row = h._row
        if len(row) <= need:
            # extend a copy, so a concurrent reader never sees a partial row
            row = _cover_row(items, need, list(row))
            object.__setattr__(h, "_row", row)
        cheapest = row[need]
    else:
        cheapest, _ = _search_cover(items, need)
    return Fraction(cheapest + periods * c_star, scale)


@dataclass(frozen=True)
class MetricPreservingVerdict:
    ok: bool
    reason: Optional[str] = None
    violation: Optional[SubadditivityVerdict] = None

    def __bool__(self) -> bool:
        return self.ok


def is_metric_preserving(f: FunctionTable) -> MetricPreservingVerdict:
    """Finite-domain metric-preserving test: zero at zero, positive, increasing,
    and generalized-subadditive."""
    if not f.entries:
        raise EmptyDomain("the table has no entries")
    if f.entries[0][0] == 0 and f.entries[0][1] != 0:
        return MetricPreservingVerdict(False, reason="f(0) is not 0")
    for a, v in f.positive_entries():
        if v == 0:
            return MetricPreservingVerdict(False, reason=f"f({a}) is not positive")
    values = [v for _, v in f.entries]
    for v1, v2 in zip(values, values[1:]):
        if v2 < v1:
            return MetricPreservingVerdict(False, reason="f is not increasing")
    sub = check_generalized_subadditivity(f)
    if not sub:
        return MetricPreservingVerdict(False, reason="not subadditive", violation=sub)
    return MetricPreservingVerdict(True)


_FLOAT_MAX = Fraction(sys.float_info.max)


def apply_function(space: Space, f: FunctionTable) -> Space:
    """Entrywise transform of the distance matrix by a table.

    The table must cover every distance, send 0 to 0, be positive on the
    positive distances, and be strictly increasing on them, so the output is
    again a semimetric weakly equivalent to the input via the identity map.
    """
    view = space._view
    backend = space.backend
    exact = isinstance(backend, RationalBackend)
    table = dict(f.entries)
    mapped = []
    for v in view.values:
        if exact:
            hit = table.get(v)
        else:  # a point too large for a float matches no float distance
            hit = next(
                (fa for a, fa in f.entries if a <= _FLOAT_MAX and backend.eq(float(a), v)), None
            )
        if hit is None:
            raise DomainGap(v)
        mapped.append(hit)
    if mapped[0] != 0:
        raise NotPositiveDefinite("the zero distance must map to 0")
    for v in mapped[1:]:
        if v == 0:
            raise NotPositiveDefinite("a positive distance maps to 0")
    for v1, v2 in zip(mapped, mapped[1:]):
        if not v1 < v2:
            raise NotStrictlyIncreasing(
                "the table is not strictly increasing on the distance set"
            )
    if not exact:
        try:
            mapped = [float(v) for v in mapped]
        except OverflowError:
            raise InputError("a table value does not fit a float") from None
    matrix = [[mapped[r] for r in row] for row in view.ranks]
    return new_space(space.labels, matrix, backend)


def snowflake(space: Space, p) -> Space:
    """Raise every distance to the power p (> 0).

    Rational spaces stay rational when every power is exactly rational;
    otherwise the result is float-backed, and a distance or power that does
    not fit a float raises InputError.  Metric inputs stay metric for
    p <= 1; ultrametric inputs stay ultrametric for every p > 0.
    """
    p = parse_exact(p)
    if p <= 0:
        raise NonpositiveExponent(f"exponent must be positive, got {p}")
    if p == 1:
        return space
    backend = space.backend
    if isinstance(backend, RationalBackend):
        values = space._view.values
        exact = list(takewhile(lambda pv: pv is not None, (_pow_exact(v, p) for v in values)))
        if len(exact) == len(values):
            matrix = [[exact[r] for r in row] for row in space._view.ranks]
            return new_space(space.labels, matrix, backend)
        backend = FloatBackend()
    try:
        fp = float(p)
        matrix = [[float(v) ** fp for v in row] for row in space.matrix]
    except OverflowError:
        raise InputError(f"a distance or its power {p} does not fit a float") from None
    return new_space(space.labels, matrix, backend)
