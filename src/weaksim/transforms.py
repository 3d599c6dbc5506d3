"""Distance transforms and subadditivity on finite function tables.

A function table is a finite map A -> R+ with exact rational entries.  The
generalized subadditivity test asks, for each x in A, whether some multiset
of positive domain points sums to at least x at a smaller total f-cost; the
increasing subadditive extension evaluates exactly that minimum cover cost
at arbitrary nonnegative rationals.  Both share one branch-and-bound engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
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
    """Integer k-th root of n, or None when n is not a perfect k-th power."""
    if n < 0:
        return None
    if n in (0, 1) or k == 1:
        return n
    r = round(n ** (1.0 / k))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**k == n:
            return cand
    return None


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


def _min_cover(positives_desc, x: Fraction) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Cheapest multiset of positive domain points with sum >= x (x > 0).

    Elements are chosen in non-increasing order and a branch stops as soon as
    its sum reaches x, so only minimal covers are generated; branches whose
    cost already exceeds the incumbent are cut.  Ties prefer the
    lexicographically smallest multiset (sorted ascending).
    """
    best_cost: Optional[Fraction] = None
    best_ms: Optional[tuple[Fraction, ...]] = None

    def extend(start: int, total: Fraction, cost: Fraction, chosen: list) -> None:
        nonlocal best_cost, best_ms
        for idx in range(start, len(positives_desc)):
            a, fa = positives_desc[idx]
            new_cost = cost + fa
            if best_cost is not None and new_cost > best_cost:
                continue
            chosen.append(a)
            if total + a >= x:
                ms = tuple(sorted(chosen))
                if (
                    best_cost is None
                    or new_cost < best_cost
                    or (new_cost == best_cost and ms < best_ms)
                ):
                    best_cost, best_ms = new_cost, ms
            else:
                extend(idx, total + a, new_cost, chosen)
            chosen.pop()

    extend(0, Fraction(0), Fraction(0), [])
    assert best_cost is not None  # a positive element repeats without bound
    return best_cost, best_ms


def check_generalized_subadditivity(f: FunctionTable) -> SubadditivityVerdict:
    """Does x <= sum(x_i) always force f(x) <= sum(f(x_i)) over the domain?

    Violations are reported at the smallest offending x with the cheapest
    covering multiset.  Zero domain points never help a cover, so covers are
    drawn from the positive domain; for x = 0 single elements already settle
    the question.
    """
    if not f.entries:
        raise EmptyDomain("the table has no entries")
    positives = f.positive_entries()
    positives_desc = tuple(reversed(positives))
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
    for x, fx in positives:
        cost, ms = _min_cover(positives_desc, x)
        if cost < fx:
            return SubadditivityVerdict(False, x=x, multiset=ms, lhs=fx, rhs=cost)
    return SubadditivityVerdict(True)


@dataclass(frozen=True)
class SubadditiveHull:
    """Increasing subadditive extension of a table, by minimum cover cost."""

    base: FunctionTable

    def positive_desc(self):
        return tuple(reversed(self.base.positive_entries()))


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
    """Evaluate the extension at x >= 0: min total cost of a cover of x."""
    x = parse_exact(x)
    if x < 0:
        raise InputError("the extension is defined on nonnegative values")
    if x == 0:
        return Fraction(0)
    cost, _ = _min_cover(h.positive_desc(), x)
    return cost


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
        else:
            hit = next((fa for a, fa in f.entries if backend.eq(float(a), v)), None)
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
        mapped = [float(v) for v in mapped]
    matrix = [[mapped[r] for r in row] for row in view.ranks]
    return new_space(space.labels, matrix, backend)


def snowflake(space: Space, p) -> Space:
    """Raise every distance to the power p (> 0).

    Rational spaces stay rational when every power is exactly rational;
    otherwise the result is float-backed.  Metric inputs stay metric for
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
    fp = float(p)
    matrix = [[float(v) ** fp for v in row] for row in space.matrix]
    return new_space(space.labels, matrix, backend)
