"""Numeric backends for distance values.

A space stores its distances either as exact rationals (``fractions.Fraction``,
exact comparisons) or as floats with a relative comparison tolerance.  The two
are never mixed inside one space.  The backend parses, formats and compares
values: its equality groups a space's distances into ranks when the space is
loaded, and its ``lt`` decides positivity in the pair-by-pair semimetric scan
and the triangle inequality on floats.  Every other order question reads the
space's integer ranks.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InputError

Value = Union[Fraction, float]

DEFAULT_EPSILON = 1e-9


def parse_exact(text) -> Fraction:
    """Parse ``"p/q"``, a decimal string, or a number into an exact rational.

    A plain ASCII ``p`` or ``p/q`` is read by ``int``, any other text by
    ``Fraction``: ``"0.1"`` becomes 1/10, not the nearest binary float.  An
    exponent whose power of ten has more digits than Python prints
    (``sys.get_int_max_str_digits()``) is refused before the power is
    computed, which for a short text like ``"1e99999999"`` takes minutes.
    """
    if isinstance(text, Fraction):
        return text
    try:
        if isinstance(text, (int, float)):
            return Fraction(text)
        text = str(text).strip()
        num, slash, den = text.partition("/")
        if text.isascii() and (num[1:] if num[:1] in "+-" else num).isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        exponent = ("e" in text or "E" in text) and re.search(r"[eE]([-+]?\d[\d_]*)$", text)
        limit = exponent and (getattr(sys, "get_int_max_str_digits", lambda: 0)() or math.inf)
        if not exponent or abs(int(exponent[1])) < limit:
            return Fraction(text)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise InputError(f"not an exact number: {text!r}") from None
    raise InputError(f"exponent past the {limit}-digit print limit: {text!r}")


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

    def is_zero(self, a) -> bool:
        return a == 0

    def format(self, v) -> str:
        return str(v)


@dataclass(frozen=True)
class FloatBackend:
    """Float values; two values are equal iff |a-b| <= eps*max(1,|a|,|b|).

    The tolerance must be a finite positive number (any number but a bool;
    it is stored as a float), and so must every value but 0: "nan", "inf"
    and integers too large for a float are input errors, as on the rational
    backend.
    """

    epsilon: float = DEFAULT_EPSILON

    kind = "float"

    def __post_init__(self):
        eps = self.epsilon
        try:
            x = math.nan if isinstance(eps, (str, bool)) else float(eps)
        except (TypeError, ValueError, OverflowError):
            x = math.nan
        if not 0 < x < math.inf:
            raise InputError(f"epsilon must be finite and positive, not {eps!r}")
        object.__setattr__(self, "epsilon", x)

    def coerce(self, v) -> float:
        try:
            x = float(v)
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"not a number: {v!r}") from None
        if not math.isfinite(x):
            raise InputError(f"not a finite number: {v!r}")
        return x

    def eq(self, a, b) -> bool:
        a = float(a)
        b = float(b)
        return abs(a - b) <= self.epsilon * max(1.0, abs(a), abs(b))

    def lt(self, a, b) -> bool:
        return float(a) < float(b) and not self.eq(a, b)

    def is_zero(self, a) -> bool:
        return self.eq(a, 0.0)

    def format(self, v) -> str:
        return format(float(v), ".17g")


Backend = Union[RationalBackend, FloatBackend]

RATIONAL = RationalBackend()
