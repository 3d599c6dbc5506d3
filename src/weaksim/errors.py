"""Exception types raised by weaksim operations."""


class WeaksimError(Exception):
    """Base class for all weaksim errors."""


class InputError(WeaksimError, ValueError):
    """User input (a number, a file, a size) is malformed."""


class NotSemimetric(WeaksimError):
    """A matrix violates the semimetric axioms.

    Carries the first offending label pair in label order.
    """

    def __init__(self, witness, reason=""):
        self.witness = tuple(witness)
        self.reason = reason
        msg = f"not a semimetric at pair {self.witness}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class DuplicateLabel(WeaksimError):
    pass


class AmbiguousRanking(WeaksimError):
    """new_space cannot group float values into ranks order-independently."""


class CardinalityMismatch(WeaksimError):
    """Distance sets of different size admit no increasing bijection."""


class LabelMismatch(WeaksimError):
    """A point mapping is not a bijection between the expected label sets."""


class DomainMismatch(WeaksimError):
    """A scaling table does not pair the two distance sets."""


class SpaceMismatch(WeaksimError):
    """Morphisms being combined do not share the required space."""


class ZeroMissing(WeaksimError):
    pass


class DuplicateValue(WeaksimError):
    pass


class EmptyDomain(WeaksimError):
    pass


class NoPositiveElement(WeaksimError):
    pass


class NonzeroAtZero(WeaksimError):
    pass


class DomainGap(WeaksimError):
    """A distance of the space is missing from the table's domain."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"distance {value} not in function domain")


class NotPositiveDefinite(WeaksimError):
    """A transform maps a positive distance to zero (or zero to nonzero)."""


class NotStrictlyIncreasing(WeaksimError):
    pass


class NonpositiveExponent(WeaksimError):
    pass


class BadSequence(WeaksimError):
    """A family's parameter sequence is not strictly decreasing and positive."""


class FormatError(InputError):
    """A space or table file cannot be parsed."""
