"""Exception hierarchy shared across the package, and the `is_count`,
`is_kernel_size` and `is_prob_rows` tests."""

from numbers import Integral

import numpy as np

# How far a probability row's sum may stray from 1.
PROB_ROW_TOL = 1e-5


class Lim3dError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(Lim3dError, ValueError):
    """A file or byte stream does not match its declared layout."""


class ValidationError(Lim3dError, ValueError):
    """Input data violates a documented invariant (non-finite values, bad rows, ...)."""


class ShapeError(Lim3dError, ValueError):
    """Array shapes or channel counts do not line up."""


class DomainError(Lim3dError, ValueError):
    """A scalar argument lies outside its documented domain."""


class LifecycleError(Lim3dError, RuntimeError):
    """An object was used after it was consumed (e.g. a backward graph)."""


class DegenerateEmbeddingError(Lim3dError, ValueError):
    """A zero-norm embedding reached a cosine similarity."""


class DivergenceError(Lim3dError, RuntimeError):
    """Training produced a non-finite loss."""


def is_count(value, minimum: int = 1) -> bool:
    """Whether `value` is an integer >= `minimum`: a Python or numpy int, not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= minimum


def is_kernel_size(value) -> bool:
    """Whether `value` is an odd integer >= 1: a Python or numpy int, not a bool."""
    return is_count(value) and value % 2 == 1


def is_prob_rows(probs: np.ndarray) -> bool:
    """Whether every row of the matrix `probs` is nonnegative and sums to 1
    within `PROB_ROW_TOL`; a NaN fails, and a matrix with no rows passes."""
    return bool(np.all(probs >= 0) and np.all(np.abs(probs.sum(axis=1) - 1.0) <= PROB_ROW_TOL))
