"""Distance transforms and subadditivity on finite function tables.

A function table is a finite map A -> R+ with exact rational entries.  The
generalized subadditivity test asks, for each x in A, whether some multiset
of positive domain points sums to at least x at a smaller total f-cost; the
increasing subadditive extension evaluates exactly that minimum cover cost
at arbitrary nonnegative rationals.  Both scale points and values to
integers and share one engine: a best-first search for the cheapest cover
of a need, which visits only the needs that price below the answer.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from heapq import heappop, heappush
from itertools import takewhile
from math import ceil, gcd, isqrt, lcm
from typing import Optional, Sequence

from .backends import FloatBackend, RationalBackend, _Record, parse_exact
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
from .spaces import Space, _ranked_space, new_space


class FunctionTable(_Record):
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


class SubadditivityVerdict(_Record):
    """True, or a witness x and multiset with f(x) > sum of f over the multiset."""

    ok: bool
    x: Optional[Fraction] = None
    multiset: Optional[tuple[Fraction, ...]] = None
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None

    def __bool__(self) -> bool:
        return self.ok


def _least_per_unit(items):
    """The item of least cost per unit, the first on ties: items come in
    size order, so the smallest."""
    best = items[0]
    for item in items[1:]:
        if item[1] * best[0] < best[1] * item[0]:
            best = item
    return best


def _integer_items(positives) -> tuple[list[tuple[int, int]], tuple[int, int], Fraction, int]:
    """(items, star, per_unit, scale): item j is (a_j * per_unit, f(a_j) * scale).

    per_unit is the points' common denominator over the gcd of the scaled
    points, scale the values' common denominator.  A multiset covers x iff
    its sizes sum to at least ceil(x * per_unit).  star is the item of least
    cost per unit, the smallest on ties.
    """
    den = lcm(*(a.denominator for a, _ in positives))
    sizes = [a.numerator * (den // a.denominator) for a, _ in positives]
    unit = gcd(*sizes)
    scale = lcm(*(v.denominator for _, v in positives))
    costs = [v.numerator * (scale // v.denominator) for _, v in positives]
    items = [(a // unit, c) for a, c in zip(sizes, costs)]
    star = _least_per_unit(items)
    return items, star, Fraction(den, unit), scale


def _cheapest(items, star, need: int, memo: dict) -> int:
    """Least cost of a multiset of items whose sizes sum to at least need.

    A best-first (A*) search over the need left.  A node's key is its cost
    plus a lower bound on covering the need left: whole copies of star for
    each multiple of its size, then the rest priced at the least cost per
    unit among the other items, or one more star if that is less.  No step
    lowers the key (the bound is consistent), so the first node popped
    with nothing left is a cheapest cover, and a need popped once is
    closed.  Copies of star keep the key, so they are taken all at once, as
    many as fit.  A need answered before ends its branch with its answer
    in memo, and this answer goes there too.  No node is pushed whose key
    is not below that of a cover already pushed.  The work grows with the
    needs whose key is below the answer, not with the size of the need.

    A need no larger than star is covered by one copy of star or by the
    other items alone, so for it star is set aside, and so in turn is each
    next item of least cost per unit that covers the need alone.  The rest
    are searched with their own star, whose copies are then taken all at
    once too; their answers go to a memo of their own, kept in this one
    under that star.  Otherwise the search would take the small items that
    cover such a need one copy at a time.
    """
    if need <= 0:
        return 0
    if need in memo:
        return memo[need]
    if need <= star[0] and len(items) > 1:
        smaller = [item for item in items if item[0] < need]
        if not smaller:  # each item alone covers the need
            memo[need] = min(c for _, c in items)
            return memo[need]
        low = a, c = _least_per_unit(smaller)
        aside = min(c_i for a_i, c_i in items if c_i * a < c * a_i)
        rest = [item for item in items if not item[1] * a < c * item[0]]
        memo[need] = min(aside, _cheapest(rest, low, need, memo.setdefault(low, {})))
        return memo[need]
    a_star, c_star = star
    others = [item for item in items if item != star]
    a_low, c_low = _least_per_unit(others or [star])

    def key(cost, left):  # times a_low, so that it is an integer
        whole, part = divmod(max(left, 0), a_star)
        return (cost + whole * c_star) * a_low + min(part * c_low, c_star * a_low)

    alone = -(-need // a_star) * c_star  # copies of star alone
    bound = alone * a_low  # the least key of a cover pushed so far
    heap, closed = [(key(0, need), need, 0), (bound, 0, alone)], set()
    while True:
        _, left, cost = heappop(heap)
        if left <= 0:
            memo[need] = cost
            return cost
        if left in closed:
            continue
        closed.add(left)
        if left in memo:
            steps = [(left, memo[left])]
        elif left <= a_star and others:
            steps = [(left, _cheapest(items, star, left, memo))]
        else:
            copies = max(left // a_star, 1)
            steps = others + [(copies * a_star, copies * c_star)]
        for a, c in steps:
            if left - a in closed:
                continue
            k = key(cost + c, left - a)
            if k < bound:
                heappush(heap, (k, left - a, cost + c))
                if left - a <= 0:
                    bound = k


_WITNESS_POINTS = 10_000


def check_generalized_subadditivity(f: FunctionTable) -> SubadditivityVerdict:
    """Does x <= sum(x_i) always force f(x) <= sum(f(x_i)) over the domain?

    Violations are reported at the smallest offending x with the cheapest
    covering multiset, the lexicographically smallest one on ties.  Zero
    domain points never help a cover, so covers are drawn from the positive
    domain; for x = 0 single elements already settle the question.  The
    cheapest cover of each x is searched in ascending order, with one memo
    of answers, which the witness walk shares.  A witness of more than
    10,000 points raises InputError.
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
            return SubadditivityVerdict(False, Fraction(0), (best[0],), f0, best[1])
    if not positives:
        return SubadditivityVerdict(True)
    items, star, _, scale = _integer_items(positives)
    memo: dict = {}
    for (x, fx), (need, cost) in zip(positives, items):
        cheapest = _cheapest(items, star, need, memo)
        if cheapest < cost:
            # The lexicographically smallest cheapest cover: its first item is
            # the smallest that starts a cheapest cover, and any cheapest
            # cover of the rest completes it with no smaller item (one would
            # start a cheapest cover of the whole), so the walk repeats that
            # choice on the rest from the item it took.  Each step adds one
            # point, and a cover of tiny points can need astronomically many
            # (10^400 copies of 10^-400), so the walk has a limit.
            multiset, t, j = [], need, 0
            while t > 0:
                if len(multiset) == _WITNESS_POINTS:
                    raise InputError(
                        f"the cheapest cover of {x} has more than {_WITNESS_POINTS} points, "
                        "too many to list as a witness"
                    )
                best = _cheapest(items, star, t, memo)
                j = next(
                    i for i in range(j, len(items))
                    if items[i][1] + _cheapest(items, star, t - items[i][0], memo) == best
                )
                multiset.append(positives[j][0])
                t -= items[j][0]
            return SubadditivityVerdict(False, x, tuple(multiset), fx, Fraction(cheapest, scale))
    return SubadditivityVerdict(True)


class SubadditiveHull(_Record):
    """Increasing subadditive extension of a table, by minimum cover cost."""

    base: FunctionTable


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
    return SubadditiveHull(f)


def hull_eval(h: SubadditiveHull, x) -> Fraction:
    """Evaluate the extension at x >= 0: min total cost of a cover of x.

    Let a* be the item of least cost per unit (the smallest on ties).  Any
    a* other items of a cover hold some that sum to a multiple of a*, which
    copies of a* replace at no more cost; so a cheapest cover of t >
    (a* - 1) * max(A) contains a*, and best(t) = best(t - a*) + cost(a*).
    Whole periods are added in closed form, so the need left is at most
    (a* - 1) * max(A), whatever x is (Gilmore and Gomory, "The theory and
    computation of knapsack functions", 1966), and one search prices it.
    """
    x = parse_exact(x)
    if x < 0:
        raise InputError("the extension is defined on nonnegative values")
    if x == 0:
        return Fraction(0)
    items, star, per_unit, scale = _integer_items(h.base.positive_entries())
    need = ceil(x * per_unit)
    a_star, c_star = star
    periodic_from = (a_star - 1) * items[-1][0] + 1
    periods = max(0, (need - periodic_from) // a_star + 1)
    cheapest = _cheapest(items, star, need - periods * a_star, {})
    return Fraction(cheapest + periods * c_star, scale)


class MetricPreservingVerdict(_Record):
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
    # a point too large for a float matches no float distance
    entries = [e for e in f.entries if exact or e[0] <= _FLOAT_MAX]
    points = [a if exact else float(a) for a, _ in entries]
    eq, end = backend.eq, len(points)
    # The points and the distances both ascend, so one walk finds every
    # entry: a point a below a distance that it does not match matches no
    # larger distance w either, as w - a - eps * max(1, w) grows with w.
    mapped, i = [], 0
    for v in view.values:
        while i < end and points[i] < v and not eq(points[i], v):
            i += 1
        if i == end or not eq(points[i], v):
            raise DomainGap(v)
        mapped.append(entries[i][1])
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
    return _ranked_space(space.labels, view.ranks, mapped, backend)


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
        # a rational rank holds one value, so only the k values are raised
        view = space._view
        values = list(takewhile(lambda pv: pv is not None, (_pow_exact(v, p) for v in view.values)))
        if len(values) < len(view.values):
            try:
                fp = float(p)
                values = [float(v) ** fp for v in view.values]
            except OverflowError:
                raise InputError(f"a distance or its power {p} does not fit a float") from None
            backend = FloatBackend()
        return _ranked_space(space.labels, view.ranks, values, backend)
    try:
        fp = float(p)
        matrix = [[float(v) ** fp for v in row] for row in space.matrix]
    except OverflowError:
        raise InputError(f"a distance or its power {p} does not fit a float") from None
    return new_space(space.labels, matrix, backend)
