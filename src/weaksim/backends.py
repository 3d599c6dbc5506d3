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
from fractions import Fraction
from operator import attrgetter
from typing import Union

from .errors import InputError

Value = Union[Fraction, float]

DEFAULT_EPSILON = 1e-9


class _Record:
    """Base of the frozen value types, in place of a frozen dataclass: the
    annotations, bases' first, are the fields and class attributes their
    defaults.  Construction, ``__post_init__``, ``==``, ``hash``, ``repr``
    and refused assignment behave as on the dataclass; ``cached_property``
    keeps its value in the instance ``__dict__``."""

    def __init_subclass__(cls):
        names = tuple(dict.fromkeys(k for c in cls.__mro__[::-1] for k in c.__dict__.get("__annotations__", ())))
        defaults = tuple(getattr(cls, k, _MISSING) for k in names)
        n, fewest = len(names), defaults.count(_MISSING)
        slots, post = tuple(enumerate(names)), getattr(cls, "__post_init__", None)

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != n:
                args = args + defaults[len(args) :] if not kwargs and fewest <= len(args) < n else _bind(cls, args, kwargs)
            if n > 1:  # one dict pass costs less than a call per field
                d = self.__dict__
                for i, k in slots:
                    d[k] = args[i]
            elif n:  # as a dataclass does: the compact layout keeps reads and method calls fast
                _setattr(self, names[0], args[0])
            if post is not None:
                post(self)

        key = attrgetter(*names) if n > 1 else lambda self: tuple(getattr(self, k) for k in names)
        cls.__init__, cls._fields, cls._defaults, cls._key = __init__, names, defaults, staticmethod(key)

    def __eq__(self, other):
        return self._key(self) == other._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(map('{}={!r}'.format, self._fields, self._key(self)))})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_MISSING, _setattr = object(), object.__setattr__


def _bind(cls, args, kwargs) -> tuple:
    """The fields of a call with keywords or missing fields, or Python's TypeError."""
    where, names, defaults = f"{cls.__qualname__}.__init__()", cls._fields, cls._defaults
    values, low, high = dict(zip(names, args)), defaults.count(_MISSING) + 1, len(names) + 1
    if len(args) >= high:
        takes = f"from {low} to {high} positional arguments" if low < high else f"{high} positional argument{'s' * (high > 1)}"
        raise TypeError(f"{where} takes {takes} but {len(args) + 1} were given")
    for key in kwargs:
        if key in values or key not in names:
            raise TypeError(f"{where} got {'multiple values for' if key in values else 'an unexpected keyword'} argument {key!r}")
    if missing := [repr(k) for k, d in zip(names, defaults) if d is _MISSING and k not in values and k not in kwargs]:
        listed = f"{', '.join(missing[:-1])}{',' * (len(missing) > 2)} and {missing[-1]}" if missing[1:] else missing[0]
        raise TypeError(f"{where} missing {len(missing)} required positional argument{'s' * (len(missing) > 1)}: {listed}")
    return tuple(map({**values, **kwargs}.get, names, defaults))


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


class RationalBackend(_Record):
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


class FloatBackend(_Record):
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
