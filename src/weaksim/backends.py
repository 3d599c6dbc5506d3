"""Numeric backends for distance values.

A space stores its distances either as exact rationals (``fractions.Fraction``,
exact comparisons) or as floats with a relative comparison tolerance.  The two
are never mixed inside one space; every order-sensitive operation goes through
the backend so that rank extraction stays deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InputError

Value = Union[Fraction, float]

DEFAULT_EPSILON = 1e-9


def parse_exact(text) -> Fraction:
    """Parse ``"p/q"``, a decimal string, or a number into an exact rational.

    Decimal strings convert exactly (``"0.1"`` becomes 1/10, not the nearest
    binary float).
    """
    if isinstance(text, Fraction):
        return text
    try:
        if isinstance(text, (int, float)):
            return Fraction(text)
        return Fraction(str(text).strip())
    except (ValueError, OverflowError, ZeroDivisionError):
        raise InputError(f"not an exact number: {text!r}") from None


@dataclass(frozen=True)
class RationalBackend:
    """Exact rational values; comparisons are exact."""

    kind = "rational"

    def coerce(self, v) -> Fraction:
        return parse_exact(v)

    def eq(self, a, b) -> bool:
        return a == b

    def lt(self, a, b) -> bool:
        return a < b

    def le(self, a, b) -> bool:
        return a <= b

    def is_zero(self, a) -> bool:
        return a == 0

    def format(self, v) -> str:
        return str(v)


@dataclass(frozen=True)
class FloatBackend:
    """Float values; two values are equal iff |a-b| <= eps*max(1,|a|,|b|)."""

    epsilon: float = DEFAULT_EPSILON

    kind = "float"

    def coerce(self, v) -> float:
        try:
            return float(v)
        except (TypeError, ValueError):
            raise InputError(f"not a number: {v!r}") from None

    def eq(self, a, b) -> bool:
        a = float(a)
        b = float(b)
        return abs(a - b) <= self.epsilon * max(1.0, abs(a), abs(b))

    def lt(self, a, b) -> bool:
        return float(a) < float(b) and not self.eq(a, b)

    def le(self, a, b) -> bool:
        return float(a) <= float(b) or self.eq(a, b)

    def is_zero(self, a) -> bool:
        return self.eq(a, 0.0)

    def format(self, v) -> str:
        return format(float(v), ".17g")


Backend = Union[RationalBackend, FloatBackend]

RATIONAL = RationalBackend()
