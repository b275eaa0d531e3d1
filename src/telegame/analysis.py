"""Parameter sweeps and threshold finding over the channel family."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _checked_alpha
from .errors import BracketError, InvalidInputError, require_int, require_real
from .protocols import f_ab_coop, f_ac_coop, f_coop_avg, f_noncoop

_MAX_ITER = 200
# A root is returned only from a bracket at most this wide, so a loose tol
# cannot stop the bisection early on a far-off point where the gap is small.
_MAX_BRACKET = 0.01
# A sweep row holds about 250 bytes, so the largest grid stays near 250 MB.
_MAX_STEPS = 10**6


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
    bracket_width: float


def sweep(alpha_min: float, alpha_max: float, steps: int) -> list[SweepRow]:
    """Closed-form fidelities on a uniform alpha grid, endpoints included; a
    bound outside the channel's alpha domain raises DomainError before any row."""
    alpha_min, alpha_max = _checked_alpha(alpha_min), _checked_alpha(alpha_max)
    if not alpha_min < alpha_max:
        raise InvalidInputError(f"need 1/2 <= alpha_min < alpha_max, got [{alpha_min}, {alpha_max}]")
    require_int("steps", steps, 2, _MAX_STEPS + 1)
    rows = []
    for alpha in np.linspace(alpha_min, alpha_max, steps):
        a = float(alpha)
        f_ab = f_ab_coop(a)
        f_ac = f_ac_coop(a)
        rows.append(SweepRow(a, f_noncoop(a), f_ab, f_ac, (f_ab + f_ac) / 2.0))
    return rows


def _bisect(fn, lo: float, hi: float, tol: float) -> tuple[float, int, float, float]:
    """Bisection on a sign change of fn; returns (root, iterations, residual, width).

    Stops at the first midpoint with |fn(mid)| <= tol whose bracket is at
    most _MAX_BRACKET wide; root lies within width / 2 of a zero of fn.
    fn is evaluated iterations + 2 times. InvalidInputError unless tol is a
    finite real > 0; BracketError unless fn(lo) * fn(hi) < 0, so a zero or NaN
    endpoint is refused, and if adjacent floats or the iteration cap come first.
    """
    tol = require_real("tol", tol)
    if not tol > 0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    f_lo = fn(lo)
    f_hi = fn(hi)
    if not f_lo * f_hi < 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]")
    f_mid = f_lo
    for it in range(1, _MAX_ITER + 1):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = fn(mid)
        if abs(f_mid) <= tol and hi - lo <= _MAX_BRACKET:
            return mid, it, abs(f_mid), hi - lo
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    raise BracketError(f"bisection stopped on [{lo!r}, {hi!r}] after {it} iterations "
                       f"with |g| = {abs(f_mid):.3e} > tol {tol:.3e}")


def find_threshold(tol: float) -> ThresholdResult:
    """Noise level where the cooperative average overtakes the standard protocol.

    Bisection on g(alpha) = f_coop_avg - f_noncoop over [1, 50], which holds
    its single sign change (g < 0 near the no-cloning optimum, so the search
    starts at alpha = 1). alpha_th lies within bracket_width / 2 of the root,
    and g is evaluated iterations + 2 times.
    """
    gap = lambda a: f_coop_avg(a) - f_noncoop(a)
    root, iterations, residual, width = _bisect(gap, 1.0, 50.0, tol)
    return ThresholdResult(root, f_noncoop(root), iterations, residual, width)


def find_classical_crossings(tol: float = 1e-12) -> tuple[float, float]:
    """Where each strategy drops to the classical benchmark 1/2.

    Returns (larger root of f_noncoop = 1/2, root of f_coop_avg = 1/2). Each
    gap to 1/2 changes sign exactly once on [2, 200], which is bisected whole;
    f_coop_avg is not monotone there (it peaks near alpha = 5.08).
    """
    tr_gap = lambda a: f_noncoop(a) - 0.5
    coop_gap = lambda a: f_coop_avg(a) - 0.5
    alpha_tr = _bisect(tr_gap, 2.0, 200.0, tol)[0]
    alpha_coop = _bisect(coop_gap, 2.0, 200.0, tol)[0]
    return alpha_tr, alpha_coop
