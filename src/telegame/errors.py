"""Exception types shared across the package, and the integer-argument rule."""

import math

import numpy as np


class TelegameError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(TelegameError, ValueError):
    """Malformed argument: bad mode index, wrong shape, non-finite data."""


class DomainError(TelegameError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class BracketError(TelegameError, RuntimeError):
    """A root finder could not bracket a sign change."""


def require_int(name: str, value, lo: int, hi: float = math.inf) -> None:
    """InvalidInputError unless `value` is an integer in [lo, hi); bools are
    refused, numpy integers accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not lo <= value < hi:
        raise InvalidInputError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")
