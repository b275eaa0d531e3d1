"""Exception types shared across the package, and the scalar-argument rules."""

import math
import numbers

import numpy as np


class TelegameError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(TelegameError, ValueError):
    """Malformed argument: bad mode index, wrong shape, non-finite data."""


class DomainError(TelegameError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class BracketError(TelegameError, RuntimeError):
    """A root finder could not bracket a sign change."""


def require_int(name: str, value, lo: int, hi: float = math.inf) -> int:
    """`value` as an int; InvalidInputError unless it is an integer in [lo, hi);
    bools are refused, numpy integers accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not lo <= value < hi:
        raise InvalidInputError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")
    return int(value)


def real_float(name: str, value) -> float:
    """`value` as a float, +-inf past the float range; InvalidInputError unless
    it is a real number that is not a bool (numpy reals count)."""
    # A float skips the numbers.Real test, which costs about 0.4 us a call.
    if not (isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool))):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int or Fraction beyond the float range
        return math.inf if value > 0 else -math.inf


def require_real(name: str, value, lo: float = -math.inf, hi: float = math.inf) -> float:
    """`value` as a float; InvalidInputError unless it is a real number (see
    :func:`real_float`) whose float is finite and in [lo, hi]."""
    x = real_float(name, value)
    if not (math.isfinite(x) and lo <= x <= hi):
        raise InvalidInputError(f"{name} must be a finite real in [{lo:g}, {hi:g}], got {value!r}")
    return x
