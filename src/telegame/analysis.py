"""Parameter sweeps and threshold finding over the channel family."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, InvalidInputError
from .protocols import f_ab_coop, f_ac_coop, f_coop_avg, f_noncoop

_MAX_ITER = 200
_SCAN_STEP = 0.01


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    f_tr: float
    f_ab: float
    f_ac: float
    f_coop: float


@dataclass(frozen=True)
class ThresholdResult:
    alpha_th: float
    f_at_threshold: float
    iterations: int
    residual: float


def sweep(alpha_min: float, alpha_max: float, steps: int) -> list[SweepRow]:
    """Closed-form fidelities on a uniform alpha grid, endpoints included."""
    if not (math.isfinite(alpha_min) and math.isfinite(alpha_max)):
        raise InvalidInputError(f"alpha_min and alpha_max must be finite, got [{alpha_min}, {alpha_max}]")
    if not (0.5 <= alpha_min < alpha_max):
        raise InvalidInputError(f"need 1/2 <= alpha_min < alpha_max, got [{alpha_min}, {alpha_max}]")
    if steps < 2:
        raise InvalidInputError(f"steps must be >= 2, got {steps}")
    rows = []
    for alpha in np.linspace(alpha_min, alpha_max, steps):
        a = float(alpha)
        f_ab = f_ab_coop(a)
        f_ac = f_ac_coop(a)
        rows.append(SweepRow(a, f_noncoop(a), f_ab, f_ac, (f_ab + f_ac) / 2.0))
    return rows


def _bisect(fn, lo: float, hi: float, tol: float) -> tuple[float, int, float]:
    """Bisection until |fn(mid)| <= tol; returns (root, iterations, residual)."""
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo == 0.0:
        return lo, 0, 0.0
    if f_hi == 0.0:
        return hi, 0, 0.0
    if f_lo * f_hi > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]")
    mid, f_mid = lo, f_lo
    for it in range(1, _MAX_ITER + 1):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if abs(f_mid) <= tol:
            return mid, it, abs(f_mid)
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return mid, _MAX_ITER, abs(f_mid)


def _scan_bracket(fn, lo: float, hi: float, step: float) -> tuple[float, float]:
    """First subinterval of [lo, hi] on which fn changes sign."""
    x = lo
    f_prev = fn(x)
    while x < hi:
        x_next = min(x + step, hi)
        f_next = fn(x_next)
        if f_prev == 0.0:
            return x, x
        if f_prev * f_next <= 0.0:
            return x, x_next
        x, f_prev = x_next, f_next
    raise BracketError(f"no sign change located on [{lo}, {hi}] at step {step}")


def find_threshold(tol: float) -> ThresholdResult:
    """Noise level where the cooperative average overtakes the standard protocol.

    Bisection on g(alpha) = f_coop_avg - f_noncoop over [1, 50], after a
    coarse scan isolates the single crossing (g < 0 trivially near the
    no-cloning optimum, so the search starts above alpha = 1).
    """
    if not tol > 0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    gap = lambda a: f_coop_avg(a) - f_noncoop(a)
    lo, hi = _scan_bracket(gap, 1.0, 50.0, _SCAN_STEP)
    root, iterations, residual = _bisect(gap, lo, hi, tol)
    return ThresholdResult(root, f_noncoop(root), iterations, residual)


def find_classical_crossings(tol: float = 1e-12) -> tuple[float, float]:
    """Where each strategy drops to the classical benchmark 1/2.

    Returns (larger root of f_noncoop = 1/2, root of f_coop_avg = 1/2), both
    searched on (2, 200] where the fidelities decay monotonically.
    """
    tr_gap = lambda a: f_noncoop(a) - 0.5
    coop_gap = lambda a: f_coop_avg(a) - 0.5
    lo, hi = _scan_bracket(tr_gap, 2.0 + _SCAN_STEP, 200.0, 0.1)
    alpha_tr, _, _ = _bisect(tr_gap, lo, hi, tol)
    lo, hi = _scan_bracket(coop_gap, 2.0 + _SCAN_STEP, 200.0, 0.1)
    alpha_coop, _, _ = _bisect(coop_gap, lo, hi, tol)
    return alpha_tr, alpha_coop
