"""The one-parameter tripartite channel shared by the three players.

The whole family is driven by a single noise parameter alpha >= 1/2; the
remaining coefficients are locked to it so that the channel stays physical
and symmetric under exchange of the two receivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError
from .gaussian import GaussianState, partial_trace

_SWAP_TOL = 1e-12

Z2 = np.diag([1.0, -1.0])


@dataclass(frozen=True)
class ChannelParams:
    """Coefficient tuple (alpha, beta, gamma, delta) of the channel family."""

    alpha: float
    beta: float
    gamma: float
    delta: float


def channel_params(alpha: float) -> ChannelParams:
    """Coefficients for a given noise parameter.

    beta = (alpha+1)/2, gamma = alpha/2, delta = sqrt((2 alpha - 1)(alpha + 1))/2.
    Below alpha = 1/2 delta would turn imaginary, so that is a hard domain edge.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite (got {alpha})")
    if not alpha >= 0.5:
        raise DomainError(f"alpha must be >= 1/2 (got {alpha}); below it the channel is unphysical")
    beta = (alpha + 1.0) / 2.0
    gamma = alpha / 2.0
    delta = 0.5 * math.sqrt((2.0 * alpha - 1.0) * (alpha + 1.0))
    return ChannelParams(alpha, beta, gamma, delta)


def kappa(alpha: float) -> float:
    """Teleportation noise scalar 1 + alpha + beta - 2 delta; >= 3/2 on the family."""
    p = channel_params(alpha)
    return 1.0 + p.alpha + p.beta - 2.0 * p.delta


def build_cm(params: ChannelParams) -> GaussianState:
    """Zero-mean 3-mode channel state (modes: sender a, receivers b and c).

    Covariance blocks: (a,a) = alpha I, (b,b) = (c,c) = beta I,
    (a,b) = (a,c) = delta Z, (b,c) = gamma I with Z = diag(1, -1).
    """
    I2 = np.eye(2)
    cov = np.zeros((6, 6))
    cov[0:2, 0:2] = params.alpha * I2
    cov[2:4, 2:4] = params.beta * I2
    cov[4:6, 4:6] = params.beta * I2
    cov[0:2, 2:4] = params.delta * Z2
    cov[2:4, 0:2] = params.delta * Z2
    cov[0:2, 4:6] = params.delta * Z2
    cov[4:6, 0:2] = params.delta * Z2
    cov[2:4, 4:6] = params.gamma * I2
    cov[4:6, 2:4] = params.gamma * I2
    return GaussianState(3, np.zeros(6), cov)


def exchange_symmetry_check(state: GaussianState) -> bool:
    """True iff the state is invariant under swapping the two receiver modes."""
    if state.modes != 3:
        raise InvalidInputError(f"exchange check needs a 3-mode state, got {state.modes}")
    perm = np.zeros((6, 6))
    order = [0, 1, 4, 5, 2, 3]  # a, c, b
    for row, col in enumerate(order):
        perm[row, col] = 1.0
    cov_ok = np.abs(perm @ state.cov @ perm.T - state.cov).max() <= _SWAP_TOL
    mean_ok = np.abs(perm @ state.mean - state.mean).max() <= _SWAP_TOL
    return bool(cov_ok and mean_ok)


def reduced_channel(state: GaussianState, receiver: str) -> GaussianState:
    """Two-mode reduction onto the sender and one receiver ('b' or 'c')."""
    if state.modes != 3:
        raise InvalidInputError(f"reduced_channel needs a 3-mode state, got {state.modes}")
    if receiver == "b":
        return partial_trace(state, [0, 1])
    if receiver == "c":
        return partial_trace(state, [0, 2])
    raise InvalidInputError(f"receiver must be 'b' or 'c', got {receiver!r}")
