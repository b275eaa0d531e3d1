"""The one-parameter tripartite channel shared by the three players.

The whole family is driven by a single noise parameter alpha >= 1/2; the
remaining coefficients are locked to it so that the channel stays physical
and symmetric under exchange of the two receivers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError, real_float, require_real
from .gaussian import GaussianState, _instance

_SWAP_TOL = 1e-12
# Largest alpha served: the last one at which 2 alpha - 1 is finite.
_ALPHA_MAX = sys.float_info.max / 2.0


@dataclass(frozen=True)
class ChannelParams:
    """Coefficient tuple (alpha, beta, gamma, delta) of the channel family.

    Each field must be a finite real number (not bool) and is stored as a
    float; only :func:`channel_params` ties them to one another.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, require_real(f"ChannelParams.{name}", getattr(self, name)))


def _checked_alpha(alpha: float) -> float:
    """alpha as a float in [1/2, _ALPHA_MAX]; InvalidInputError unless it is a
    real number, DomainError naming the edge otherwise."""
    if type(alpha) is not float:  # the closed forms' float path skips the type test
        alpha = real_float("alpha", alpha)
    if 0.5 <= alpha <= _ALPHA_MAX:
        return alpha
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite (got {alpha})")
    if alpha < 0.5:
        raise DomainError(f"alpha must be >= 1/2 (got {alpha}); below it the channel is unphysical")
    raise DomainError(f"alpha must be <= {_ALPHA_MAX!r} (got {alpha}); above it 2 alpha - 1 overflows")


def channel_params(alpha: float) -> ChannelParams:
    """Coefficients for a given noise parameter.

    beta = (alpha+1)/2, gamma = alpha/2, delta = sqrt((2 alpha - 1)(alpha + 1))/2.
    Below alpha = 1/2 delta would turn imaginary, so that is a hard domain edge.
    delta is evaluated in a form that cannot overflow.
    """
    alpha = _checked_alpha(alpha)
    delta = 0.5 * (alpha + 1.0) * math.sqrt((2.0 * alpha - 1.0) / (alpha + 1.0))
    return ChannelParams(alpha, (alpha + 1.0) / 2.0, alpha / 2.0, delta)


def kappa(alpha: float) -> float:
    """Teleportation noise scalar 1 + alpha + beta - 2 delta; >= 3/2 on the family.

    Rationalised to (alpha + 13)/(6 + 4 sqrt((2 alpha - 1)/(alpha + 1))), which
    neither cancels nor overflows.
    """
    alpha = _checked_alpha(alpha)
    return (alpha + 13.0) / (6.0 + 4.0 * math.sqrt((2.0 * alpha - 1.0) / (alpha + 1.0)))


def build_cm(params: ChannelParams) -> GaussianState:
    """Zero-mean 3-mode channel state (modes: sender a, receivers b and c).

    Covariance blocks: (a,a) = alpha I, (b,b) = (c,c) = beta I,
    (a,b) = (a,c) = delta Z, (b,c) = gamma I with Z = diag(1, -1): in the x
    quadratures and the p quadratures, each a 3x3 block, delta only changes
    sign. Symmetric by construction, and finite since every field is.
    """
    _instance(params, ChannelParams, "params")
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    cov = np.zeros((6, 6))
    cov[0::2, 0::2] = [[a, d, d], [d, b, g], [d, g, b]]
    cov[1::2, 1::2] = [[a, -d, -d], [-d, b, g], [-d, g, b]]
    return GaussianState._trusted(3, np.zeros(6), cov)


def exchange_symmetry_check(state: GaussianState) -> bool:
    """True iff the state is invariant under swapping the two receiver modes."""
    if _instance(state, GaussianState, "state").modes != 3:
        raise InvalidInputError(f"exchange check needs a 3-mode state, got {state.modes}")
    order = [0, 1, 4, 5, 2, 3]  # a, c, b
    cov_ok = np.abs(state.cov[np.ix_(order, order)] - state.cov).max() <= _SWAP_TOL
    mean_ok = np.abs(state.mean[order] - state.mean).max() <= _SWAP_TOL
    return bool(cov_ok and mean_ok)

