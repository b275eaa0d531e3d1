"""Stochastic oracle: estimate all game fidelities from sampled trajectories.

Measurement records are drawn from their exact Gaussian laws (legitimate
because every state here has a nonnegative Wigner function), then each shot
is scored against the input with the same overlap the analytic path uses.
All three fidelities come from one conditioning chain built from the Gaussian
primitives (Bell homodynes, displacement, heterodyne conditioning and the
modified shift), never from the pipelines' symplectics or covariances. The
receivers score their record-averaged state, so f_tr and f_ab are exact and
read once per kernel; each shot scores only the measurer's sampled f_ac.

Each shot's six normals come from its own counter-based stream; a chunk of
shots is then mapped and scored as one array operation. Determinism
contract: shot k draws from a stream derived only from (seed, k), and partial
sums are reduced over fixed-size chunks in index order as a fixed window of
chunks arrives, so results are bit-identical for any degree of parallelism
and memory is flat in shots. Only the draws run per shot, at about 410k
shots/s on one core of a shared 2-vCPU host, and their state resets hold
the GIL, so more workers do not run faster yet.

Several alphas that share a seed draw the same normals, so the driver can
score many kernels on one draw (common random numbers): `verify` scores its
four alphas that way. Each kernel's sums are reduced in chunk order from the
values a run on its own scores, so sharing the draw changes no bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import build_cm, channel_params
from .errors import require_int
from .gaussian import (
    _SQRT2,
    ComplexAmplitude,
    GaussianState,
    ZERO_AMPLITUDE,
    _instance,
    beam_splitter_50_50,
    displace,
    heterodyne_outcome_distribution,
    heterodyne_update,
    homodyne_update,
    make_coherent,
    partial_trace,
    tensor,
)
from .protocols import modified_shift

_CHUNK = 4096  # reduction granularity; fixed so thread count cannot reorder sums
_MAX_SHOTS = 10**9  # an input check: 10**9 shots take about 40 minutes at 410k shots/s
# The GIL serializes the draws, so threads beyond a few add nothing; the pool
# starts one per submitted chunk up to this many.
_MAX_WORKERS = 64
_WINDOW = _MAX_WORKERS  # chunks in flight at once: one per thread, memory flat in shots


@dataclass(frozen=True)
class McConfig:
    """Inputs of one estimation run."""

    shots: int
    seed: int
    alpha: float


@dataclass(frozen=True)
class McEstimate:
    """Empirical fidelities with their standard errors.

    A single shot has no sample variance, so with ``shots == 1`` every
    ``stderr_*`` is ``math.inf``: one noisy shot is never read as exact.
    """

    f_tr_hat: float
    f_ab_hat: float
    f_ac_hat: float
    stderr_tr: float
    stderr_ab: float
    stderr_ac: float
    shots: int


class _ShotKernel:
    """Per-alpha trajectory math as one linear map of a shot's normals.

    A shot draws six standard normals z: input amplitude, Bell record,
    heterodyne record. ``w @ z`` is the measurer's mean mismatch y (its
    sampled heterodyne record minus the input), and f_ac's score is
    ``exp(-|y|^2 / 2)``. ``jac`` holds the mismatch rows of the
    non-cooperative receiver, the helped receiver and the measurer, probed
    from the one conditioning chain :meth:`_chain` of ``joint`` (a zero input
    beside the channel of ``params``), which is affine in z. The two receivers
    score their record-averaged state: the record columns R of their mismatch
    fold into its covariance, sigma = cov + I/2 + R R^T, so f_tr and f_ab are
    exact, ``ref[0]`` and ``ref[1]``, and no shot scores them. ``ref[2]`` is
    f_ac's mean.
    """

    def __init__(self, alpha: float):
        self.params = channel_params(alpha)
        self.joint = tensor(make_coherent(ZERO_AMPLITUDE), build_cm(self.params))
        I2 = np.eye(2)
        base, covs = self._chain(np.zeros(6))
        self.jac = np.column_stack([self._chain(e)[0] - base for e in np.eye(6)])

        # The input u = sqrt(2) z[0:2] enters each mismatch through its total
        # gain minus I, probed at unit input and scaled afterwards so that a
        # zero stays zero. f_ac's shots are summed as deviations from ref[2],
        # so that its variance is not lost to cancellation.
        record = np.split(self.jac[:, 2:6], 3)
        sigma = [cov + 0.5 * I2 + r @ r.T for cov, r in zip((*covs, 0.5 * I2), record)]
        self.ref = tuple(1.0 / math.sqrt(np.linalg.det(s)) for s in sigma)
        self.w = np.hstack([self.jac[4:6, 0:2] * _SQRT2, record[2]])

    def _chain(self, z: np.ndarray):
        """One shot of the conditioning chain, for input mean u = z[0:2] and
        record normals z[2:4] (Bell) and z[4:6] (heterodyne).

        Returns the mean mismatches, in w's row order, of the non-cooperative
        receiver, the helped receiver and the measurer's heterodyne record,
        and the two receivers' conditional covariances.
        """
        u = z[0:2]
        st = beam_splitter_50_50(GaussianState(4, np.concatenate([u, np.zeros(6)]), self.joint.cov), 1, 0)
        bell = [2, 1]  # x of mode 1 = X_minus, p of mode 0 = P_plus
        m = st.mean[bell] + np.linalg.cholesky(st.cov[np.ix_(bell, bell)]) @ z[2:4]
        st = homodyne_update(st, 1, "x", m[0])
        st = homodyne_update(st, 0, "p", m[1])  # modes left: 0 = b, 1 = c
        eta = ComplexAmplitude(-m[0], m[1])
        st = displace(displace(st, 0, eta), 1, eta)
        bob, charlie = partial_trace(st, [0]), partial_trace(st, [1])
        mu = charlie.mean + np.linalg.cholesky(heterodyne_outcome_distribution(st, 1)[1]) @ z[4:6]
        mu_amp = ComplexAmplitude.from_mean(mu)
        shift = modified_shift(eta, mu_amp, self.params)
        helped = heterodyne_update(st, 1, mu_amp)
        helped = displace(helped, 0, ComplexAmplitude(shift.re - eta.re, shift.im - eta.im))
        mismatch = np.concatenate([bob.mean - u, helped.mean - u, mu - u])
        return mismatch, (bob.cov, helped.cov)


def _shot_normals(seed: int, lo: int, hi: int) -> np.ndarray:
    """The six normals of each shot k in [lo, hi) as row k - lo: the first six
    of ``Philox(key=seed, counter=[0, k, 0, 0])``, reached by resetting one
    generator's counter instead of building a fresh one. A fresh generator's
    state has an empty buffer, and assigning it back copies it unchanged.
    The state is rebuilt once from plain ints, which the setter converts far
    faster than numpy scalars; per shot only word 1 of its counter changes."""
    bitgen = np.random.Philox(key=seed)
    draw = np.random.Generator(bitgen).standard_normal
    fresh = bitgen.state
    counter = [0, 0, 0, 0]
    state = {
        **fresh,
        "state": {"counter": counter, "key": fresh["state"]["key"].tolist()},
        "buffer": fresh["buffer"].tolist(),
    }
    z = np.empty((hi - lo, 6))
    for shot, row in zip(range(lo, hi), z):
        counter[1] = shot
        bitgen.state = state
        draw(out=row)
    return z


def _chunk_sums(kernels: Sequence[_ShotKernel], seed: int, lo: int, hi: int) -> np.ndarray:
    """One row per kernel, all scored on one draw of the normals of shots
    [lo, hi): the sum of f_ac's per-shot deviations from ``ref[2]``, then of
    their squares. Both are summed as one C-contiguous (n, 2) array over
    axis 0, which adds rows in shot order (a 1-D sum adds pairwise)."""
    z = _shot_normals(seed, lo, hi)
    sums = np.empty((len(kernels), 2))
    for kernel, row in zip(kernels, sums):
        y = z @ kernel.w.T
        d = np.exp(-0.5 * (y[:, 0] ** 2 + y[:, 1] ** 2)) - kernel.ref[2]
        row[:] = np.column_stack([d, d * d]).sum(axis=0)
    return sums


def _estimate(kernels: Sequence[_ShotKernel], shots: int, seed: int, workers: int) -> list[McEstimate]:
    """One estimate per kernel, all from one draw of `shots` shots; each has
    the bits of its kernel run on its own."""
    n = shots
    totals = np.zeros((len(kernels), 2))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for start in range(0, n, _WINDOW * _CHUNK):
            window = range(start, min(start + _WINDOW * _CHUNK, n), _CHUNK)
            for part in pool.map(lambda lo: _chunk_sums(kernels, seed, lo, min(lo + _CHUNK, n)), window):
                totals += part  # chunk order, never completion order
    estimates = []
    for kernel, (s, q) in zip(kernels, totals.tolist()):
        # Every f_ac score lies in [0, 1], so the rounded mean is kept there.
        f_ac = min(max(kernel.ref[2] + s / n, 0.0), 1.0)
        exact = sampled = math.inf
        if n > 1:  # f_tr and f_ab are exact
            exact, sampled = 0.0, math.sqrt(max(q - s * s / n, 0.0) / (n - 1) / n)
        estimates.append(McEstimate(kernel.ref[0], kernel.ref[1], f_ac, exact, exact, sampled, shots=int(n)))
    return estimates


def estimate_fidelities(config: McConfig, workers: int = 1) -> McEstimate:
    """Estimate all three fidelities at config.alpha from config.shots trajectories.

    `workers` only sets the degree of parallelism; the estimate is
    bit-identical for every value of it.
    """
    _instance(config, McConfig, "config")
    require_int("shots", config.shots, 1, _MAX_SHOTS + 1)
    require_int("seed", config.seed, 0, 2**64)
    require_int("workers", workers, 1, _MAX_WORKERS + 1)
    return _estimate([_ShotKernel(config.alpha)], config.shots, config.seed, workers)[0]
