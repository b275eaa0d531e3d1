"""Stochastic oracle: estimate all game fidelities from sampled trajectories.

Measurement records are drawn from their exact Gaussian laws (legitimate
because every state here has a nonnegative Wigner function), then each shot
is scored against the input with the same overlap the analytic path uses.
Only the measuring receiver's fidelity f_ac is sampled through the Bell and
heterodyne conditioning; f_tr and f_ab reuse the pipelines' record-independent
output covariances, so they are not an independent check of the pipeline.

Determinism contract: shot k draws from a counter-based stream derived only
from (seed, k), and partial sums are reduced over fixed-size chunks in index
order, so results are bit-identical for any degree of parallelism.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import build_cm, channel_params
from .errors import InvalidInputError
from .gaussian import (
    ComplexAmplitude,
    GaussianState,
    ZERO_AMPLITUDE,
    beam_splitter_50_50,
    beam_splitter_matrix,
    displace,
    homodyne_update,
    make_coherent,
    tensor,
)
from .protocols import coop_symplectic, noncoop_symplectic, run_coop_pipeline, run_noncoop_pipeline

_SQRT2 = math.sqrt(2.0)
_CHUNK = 4096  # reduction granularity; fixed so thread count cannot reorder sums
# The probed unit input gain is off by one rounding (1.1e-16) at some alphas;
# scaled by sqrt(2) std that is at most 1.6e-6 per unit normal up to here.
_MAX_ENSEMBLE_STD = 1e10


@dataclass(frozen=True)
class McConfig:
    """Inputs of one estimation run."""

    shots: int
    seed: int
    alpha: float
    input_ensemble_std: float = 1.0


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
    """Per-(alpha, std) trajectory math as one linear map of a shot's normals.

    A shot draws six standard normals z: input amplitude, Bell record,
    heterodyne record. Row pairs (0, 1), (2, 3) and (4, 5) of ``w @ z`` are
    the whitened mean mismatches y_k of the non-cooperative receiver, the
    helped receiver and the measurer's reconstruction; fidelity k is the
    Gaussian overlap ``pre[k] * exp(-|y_k|^2 / 2)``. Only f_ac is sampled through the
    conditioning chain (Bell law, conditioned measurer, heterodyne law). The
    f_tr and f_ab rows are the pipelines' symplectic residuals, zero at unit
    gain, whitened by their output covariances: those two estimates repeat
    the pipeline's record-independent values rather than check them.
    """

    def __init__(self, alpha: float, std: float):
        params = channel_params(alpha)
        joint = tensor(make_coherent(ZERO_AMPLITUDE), build_cm(params))
        I2 = np.eye(2)
        bell_idx = [2, 1]  # x of mode 1 = X_minus, p of mode 0 = P_plus
        bell_mean_map = beam_splitter_matrix(4, 1, 0)[bell_idx, 0:2]
        bell_cov = beam_splitter_50_50(joint, 1, 0).cov[np.ix_(bell_idx, bell_idx)]

        # Affine law of the measuring receiver's displaced mode in (u, m),
        # probed from the honest conditioning chain (it is exactly linear).
        base_mean, base_cov = self._conditioned_measurer(joint, np.zeros(2), np.zeros(2))
        cond = np.column_stack(
            [self._conditioned_measurer(joint, e[0:2], e[2:4])[0] - base_mean for e in np.eye(4)]
        )
        cond_u, cond_m = cond[:, 0:2], cond[:, 2:4]

        record = ComplexAmplitude(0.37, -0.81)  # any record; results cannot depend on it
        cov_tr = run_noncoop_pipeline(alpha, ZERO_AMPLITUDE, record).conditional_cov_bob
        cov_ab = run_coop_pipeline(alpha, ZERO_AMPLITUDE, record, record).conditional_cov_bob
        sigma_tr, sigma_ab = cov_tr + 0.5 * I2, cov_ab + 0.5 * I2
        gain_tr = noncoop_symplectic(4)[4:6, 0:2]
        gain_ab = coop_symplectic(params)[4:6, 0:2]

        # The input u = sqrt(2) std z[0:2] enters each mismatch through its
        # total gain minus I, composed before scaling so that a zero stays zero.
        scale = _SQRT2 * std
        self.w = np.zeros((6, 6))
        self.w[0:2, 0:2] = np.linalg.solve(np.linalg.cholesky(sigma_tr), gain_tr - I2) * scale
        self.w[2:4, 0:2] = np.linalg.solve(np.linalg.cholesky(sigma_ab), gain_ab - I2) * scale
        self.w[4:6, 0:2] = (cond_u + cond_m @ bell_mean_map - I2) * scale
        self.w[4:6, 2:4] = cond_m @ np.linalg.cholesky(bell_cov)
        self.w[4:6, 4:6] = np.linalg.cholesky(base_cov + 0.5 * I2)

        # Reference values close to the estimator means; per-shot sums
        # accumulate deviations from them so the variance of the degenerate
        # (record-independent) samples is not lost to float cancellation.
        pre_tr = 1.0 / math.sqrt(np.linalg.det(sigma_tr))
        pre_ab = 1.0 / math.sqrt(np.linalg.det(sigma_ab))
        mu_marginal_cov = cond_m @ bell_cov @ cond_m.T + base_cov + 0.5 * I2
        self.pre = (pre_tr, pre_ab, 1.0)
        self.ref = (pre_tr, pre_ab, 1.0 / math.sqrt(np.linalg.det(I2 + mu_marginal_cov)))

    @staticmethod
    def _conditioned_measurer(joint: GaussianState, u: np.ndarray, m: np.ndarray):
        """Measuring receiver's mode after Bell conditioning on record m and
        the usual displacement by eta = (-m1, m2), for input mean u."""
        st = GaussianState(4, np.concatenate([u, np.zeros(6)]), joint.cov)
        st = beam_splitter_50_50(st, 1, 0)
        st = homodyne_update(st, 1, "x", m[0])   # X_minus port
        st = homodyne_update(st, 0, "p", m[1])   # P_plus port
        st = displace(st, 1, ComplexAmplitude(-m[0], m[1]))
        return st.mode_mean(1).copy(), st.mode_cov(1).copy()


def _shot_normals(seed: int, lo: int, hi: int):
    """Yield, in one reused buffer, the six normals of each shot k in [lo, hi):
    the first six of ``Philox(key=seed, counter=[0, k, 0, 0])``, reached by
    resetting one generator's state instead of building a fresh one."""
    bitgen = np.random.Philox(key=seed)
    rng = np.random.Generator(bitgen)
    template = bitgen.state
    counter = template["state"]["counter"]
    z = np.empty(6)
    for shot in range(lo, hi):
        counter[1] = shot
        template["buffer_pos"] = 4
        template["has_uint32"] = 0
        template["uinteger"] = 0
        bitgen.state = template
        rng.standard_normal(out=z)
        yield z


def _chunk_sums(kernel: _ShotKernel, seed: int, lo: int, hi: int) -> tuple:
    """Sums of per-shot deviations from the references (and their squares)
    over shots [lo, hi)."""
    w = kernel.w
    pre_tr, pre_ab, pre_ac = kernel.pre
    ref_tr, ref_ab, ref_ac = kernel.ref
    s_tr = s_ab = s_ac = q_tr = q_ab = q_ac = 0.0
    for z in _shot_normals(seed, lo, hi):
        y0, y1, y2, y3, y4, y5 = (w @ z).tolist()
        d = pre_tr * math.exp(-0.5 * (y0 * y0 + y1 * y1)) - ref_tr
        s_tr += d
        q_tr += d * d
        d = pre_ab * math.exp(-0.5 * (y2 * y2 + y3 * y3)) - ref_ab
        s_ab += d
        q_ab += d * d
        d = pre_ac * math.exp(-0.5 * (y4 * y4 + y5 * y5)) - ref_ac
        s_ac += d
        q_ac += d * d
    return s_tr, s_ab, s_ac, q_tr, q_ab, q_ac


def _require_int(name: str, value, lo: int, hi: float = math.inf) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not lo <= value < hi:
        raise InvalidInputError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")


def estimate_fidelities(config: McConfig, workers: int = 1) -> McEstimate:
    """Estimate all three fidelities at config.alpha from config.shots trajectories.

    `workers` only sets the degree of parallelism; the estimate is
    bit-identical for every value of it.
    """
    _require_int("shots", config.shots, 1)
    _require_int("seed", config.seed, 0, 2**64)
    _require_int("workers", workers, 1)
    std = config.input_ensemble_std
    if not 0.0 <= std <= _MAX_ENSEMBLE_STD:
        raise InvalidInputError(f"input_ensemble_std must be in [0, {_MAX_ENSEMBLE_STD:g}], got {std}")
    kernel = _ShotKernel(config.alpha, std)

    bounds = [(lo, min(lo + _CHUNK, config.shots)) for lo in range(0, config.shots, _CHUNK)]
    if workers == 1:
        partials = [_chunk_sums(kernel, config.seed, lo, hi) for lo, hi in bounds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(lambda b: _chunk_sums(kernel, config.seed, *b), bounds))

    totals = [0.0] * 6
    for part in partials:  # chunk order, never completion order
        for i in range(6):
            totals[i] += part[i]

    n = config.shots
    means = [kernel.ref[i] + totals[i] / n for i in range(3)]
    stderr = [math.inf, math.inf, math.inf]
    if n > 1:
        for i in range(3):
            var = max(totals[3 + i] - totals[i] * totals[i] / n, 0.0) / (n - 1)
            stderr[i] = math.sqrt(var / n)
    return McEstimate(
        f_tr_hat=means[0],
        f_ab_hat=means[1],
        f_ac_hat=means[2],
        stderr_tr=stderr[0],
        stderr_ab=stderr[1],
        stderr_ac=stderr[2],
        shots=int(n),
    )
