"""Exception hierarchy shared across the package, and the `is_count` test."""

from numbers import Integral


class Lim3dError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(Lim3dError, ValueError):
    """A file or byte stream does not match its declared layout."""


class ValidationError(Lim3dError, ValueError):
    """Input data violates a documented invariant (non-finite values, bad rows, ...)."""


class ShapeError(Lim3dError, ValueError):
    """Array shapes or channel counts do not line up."""


class CapacityError(Lim3dError, ValueError):
    """An operation would exceed a configured size guard."""


class DomainError(Lim3dError, ValueError):
    """A scalar argument lies outside its documented domain."""


class LifecycleError(Lim3dError, RuntimeError):
    """An object was used after it was consumed (e.g. a backward graph)."""


class DegenerateEmbeddingError(Lim3dError, ValueError):
    """A zero-norm embedding reached a cosine similarity."""


class DivergenceError(Lim3dError, RuntimeError):
    """Training produced a non-finite loss."""


def is_count(value) -> bool:
    """Whether `value` is an integer >= 1: a Python or numpy int, not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= 1
