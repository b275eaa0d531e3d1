"""Stochastic oracle: estimate all game fidelities from sampled trajectories.

Measurement records are drawn from their exact Gaussian laws (legitimate
because every state here has a nonnegative Wigner function), then each shot
is scored against the input with the same overlap the analytic path uses.

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


def _shot_rng(seed: int, shot: int) -> np.random.Generator:
    """Independent stream for one shot: same key, counters 2^64 blocks apart."""
    bitgen = np.random.Philox(key=seed, counter=[0, shot, 0, 0])
    return np.random.Generator(bitgen)


class _ShotKernel:
    """Per-alpha compilation of the trajectory math.

    All matrices are extracted once from the same Gaussian primitives the
    pipelines use (beam splitter, homodyne conditioning, displacement); a
    shot is then a handful of scalar operations. Covariances and therefore
    the non-cooperative and helped-receiver fidelities carry no dependence on
    the sampled records, which the per-shot spread assertions verify.
    """

    def __init__(self, alpha: float):
        params = channel_params(alpha)
        joint = tensor(make_coherent(ZERO_AMPLITUDE), build_cm(params))
        post_bs = beam_splitter_50_50(joint, 1, 0)

        bell_idx = [2, 1]  # x of mode 1 = X_minus, p of mode 0 = P_plus
        bell_mean_map = beam_splitter_matrix(4, 1, 0)[bell_idx, 0:2]
        bell_cov = post_bs.cov[np.ix_(bell_idx, bell_idx)]
        bell_chol = np.linalg.cholesky(bell_cov)

        # Affine law of the measuring receiver's displaced mode, probed from
        # the honest conditioning chain (it is exactly linear in (u, m)).
        base_mean, base_cov = self._conditioned_measurer(joint, np.zeros(2), np.zeros(2))
        cond_u = np.column_stack(
            [self._conditioned_measurer(joint, e, np.zeros(2))[0] - base_mean for e in np.eye(2)]
        )
        cond_m = np.column_stack(
            [self._conditioned_measurer(joint, np.zeros(2), e)[0] - base_mean for e in np.eye(2)]
        )
        het_cov = base_cov + 0.5 * np.eye(2)
        het_chol = np.linalg.cholesky(het_cov)

        outcome_probe = ComplexAmplitude(0.37, -0.81)  # any record; results cannot depend on it
        tr = run_noncoop_pipeline(alpha, ZERO_AMPLITUDE, outcome_probe)
        ab = run_coop_pipeline(alpha, ZERO_AMPLITUDE, outcome_probe, outcome_probe)
        resid_tr = noncoop_symplectic(4)[4:6, 0:2] - np.eye(2)
        resid_ab = coop_symplectic(params)[4:6, 0:2] - np.eye(2)
        quad_tr = np.linalg.inv(tr.conditional_cov_bob + 0.5 * np.eye(2))
        quad_ab = np.linalg.inv(ab.conditional_cov_bob + 0.5 * np.eye(2))

        # Reference values close to the estimator means; per-shot sums
        # accumulate deviations from them so the variance of the degenerate
        # (record-independent) samples is not lost to float cancellation.
        self.ref_tr = 1.0 / math.sqrt(np.linalg.det(tr.conditional_cov_bob + 0.5 * np.eye(2)))
        self.ref_ab = 1.0 / math.sqrt(np.linalg.det(ab.conditional_cov_bob + 0.5 * np.eye(2)))
        mu_marginal_cov = cond_m @ bell_cov @ cond_m.T + het_cov
        self.ref_ac = 1.0 / math.sqrt(np.linalg.det(np.eye(2) + mu_marginal_cov))

        # scalar-unrolled copies of everything the per-shot loop touches
        (self._bm00, self._bm01), (self._bm10, self._bm11) = bell_mean_map
        (self._bl00, _), (self._bl10, self._bl11) = bell_chol
        (self._cu00, self._cu01), (self._cu10, self._cu11) = cond_u
        (self._cm00, self._cm01), (self._cm10, self._cm11) = cond_m
        (self._hl00, _), (self._hl10, self._hl11) = het_chol
        (self._rt00, self._rt01), (self._rt10, self._rt11) = resid_tr
        (self._qt00, self._qt01), (_, self._qt11) = quad_tr
        (self._ra00, self._ra01), (self._ra10, self._ra11) = resid_ab
        (self._qa00, self._qa01), (_, self._qa11) = quad_ab

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

    def shot(self, rng: np.random.Generator, std: float) -> tuple[float, float, float]:
        # fixed draw order: input amplitude, Bell record, heterodyne record
        z0, z1, z2, z3, z4, z5 = rng.standard_normal(6).tolist()
        u0 = _SQRT2 * std * z0
        u1 = _SQRT2 * std * z1
        m0 = self._bm00 * u0 + self._bm01 * u1 + self._bl00 * z2
        m1 = self._bm10 * u0 + self._bm11 * u1 + self._bl10 * z2 + self._bl11 * z3
        c0 = self._cu00 * u0 + self._cu01 * u1 + self._cm00 * m0 + self._cm01 * m1
        c1 = self._cu10 * u0 + self._cu11 * u1 + self._cm10 * m0 + self._cm11 * m1
        d0 = c0 + self._hl00 * z4 - u0
        d1 = c1 + self._hl10 * z4 + self._hl11 * z5 - u1

        # overlap of the reconstructed coherent state |mu> with the input;
        # identical to fidelity_vs_coherent(make_coherent(mu), phi)
        f_ac = math.exp(-0.5 * (d0 * d0 + d1 * d1))

        r0 = self._rt00 * u0 + self._rt01 * u1
        r1 = self._rt10 * u0 + self._rt11 * u1
        f_tr = self.ref_tr * math.exp(
            -0.5 * (self._qt00 * r0 * r0 + 2.0 * self._qt01 * r0 * r1 + self._qt11 * r1 * r1)
        )
        r0 = self._ra00 * u0 + self._ra01 * u1
        r1 = self._ra10 * u0 + self._ra11 * u1
        f_ab = self.ref_ab * math.exp(
            -0.5 * (self._qa00 * r0 * r0 + 2.0 * self._qa01 * r0 * r1 + self._qa11 * r1 * r1)
        )
        return f_tr, f_ab, f_ac


def _chunk_sums(kernel: _ShotKernel, config: McConfig, lo: int, hi: int) -> tuple:
    """Sums of per-shot deviations (and their squares) over shots [lo, hi).

    Per-shot state resets on a chunk-local Philox are bit-equivalent to the
    fresh-constructed stream of `_shot_rng(seed, shot)`.
    """
    bitgen = np.random.Philox(key=config.seed)
    rng = np.random.Generator(bitgen)
    template = bitgen.state
    counter = template["state"]["counter"]
    std = config.input_ensemble_std
    ref_tr, ref_ab, ref_ac = kernel.ref_tr, kernel.ref_ab, kernel.ref_ac
    s_tr = s_ab = s_ac = q_tr = q_ab = q_ac = 0.0
    for shot in range(lo, hi):
        counter[1] = shot
        template["buffer_pos"] = 4
        template["has_uint32"] = 0
        template["uinteger"] = 0
        bitgen.state = template
        f_tr, f_ab, f_ac = kernel.shot(rng, std)
        d = f_tr - ref_tr
        s_tr += d
        q_tr += d * d
        d = f_ab - ref_ab
        s_ab += d
        q_ab += d * d
        d = f_ac - ref_ac
        s_ac += d
        q_ac += d * d
    return s_tr, s_ab, s_ac, q_tr, q_ab, q_ac


def _validate(config: McConfig) -> None:
    if not isinstance(config.shots, (int, np.integer)) or config.shots < 1:
        raise InvalidInputError(f"shots must be a positive integer, got {config.shots}")
    if not isinstance(config.seed, (int, np.integer)) or not 0 <= config.seed < 2**64:
        raise InvalidInputError(f"seed must be a 64-bit unsigned integer, got {config.seed}")
    if not (math.isfinite(config.input_ensemble_std) and config.input_ensemble_std >= 0):
        raise InvalidInputError(f"input_ensemble_std must be >= 0, got {config.input_ensemble_std}")


def estimate_fidelities(config: McConfig, workers: int = 1) -> McEstimate:
    """Estimate all three fidelities at config.alpha from config.shots trajectories.

    `workers` only sets the degree of parallelism; the estimate is
    bit-identical for every value of it.
    """
    _validate(config)
    if workers < 1:
        raise InvalidInputError(f"workers must be >= 1, got {workers}")
    kernel = _ShotKernel(config.alpha)

    bounds = [(lo, min(lo + _CHUNK, config.shots)) for lo in range(0, config.shots, _CHUNK)]
    if workers == 1:
        partials = [_chunk_sums(kernel, config, lo, hi) for lo, hi in bounds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(lambda b: _chunk_sums(kernel, config, *b), bounds))

    totals = [0.0] * 6
    for part in partials:  # chunk order, never completion order
        for i in range(6):
            totals[i] += part[i]

    n = config.shots
    refs = (kernel.ref_tr, kernel.ref_ab, kernel.ref_ac)
    means = [refs[i] + totals[i] / n for i in range(3)]
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
