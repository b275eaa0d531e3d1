import math

import numpy as np
import pytest

from telegame import (
    ComplexAmplitude,
    InvalidInputError,
    McConfig,
    estimate_fidelities,
    f_ab_coop,
    f_ac_coop,
    f_noncoop,
    fidelity_vs_coherent,
    make_coherent,
)
from telegame.montecarlo import _ShotKernel, _shot_rng


class TestShotKernel:
    def test_reconstruction_score_matches_fidelity(self):
        """The kernel's inlined overlap must agree with the public fidelity
        of the reconstructed coherent state against the input."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = rng.normal(0, 2, 2)
            m_mu = rng.normal(0, 2, 2)
            inline = math.exp(-0.5 * float((m_mu - u) @ (m_mu - u)))
            via_states = fidelity_vs_coherent(
                make_coherent(ComplexAmplitude.from_mean(m_mu)),
                ComplexAmplitude.from_mean(u),
            )
            assert inline == pytest.approx(via_states, abs=1e-12)

    def test_reference_values_equal_closed_forms(self):
        kernel = _ShotKernel(2.0)
        assert kernel.ref_tr == pytest.approx(f_noncoop(2.0), abs=1e-13)
        assert kernel.ref_ab == pytest.approx(f_ab_coop(2.0), abs=1e-13)
        assert kernel.ref_ac == pytest.approx(f_ac_coop(2.0), abs=1e-13)

    def test_shot_stream_is_counter_based(self):
        """Shot k depends only on (seed, k), not on how many shots ran before."""
        kernel = _ShotKernel(2.0)
        direct = kernel.shot(_shot_rng(99, 1234), 1.0)
        again = kernel.shot(_shot_rng(99, 1234), 1.0)
        assert direct == again


class TestEstimator:
    def test_consistency_at_reference_alpha(self):
        est = estimate_fidelities(McConfig(shots=50_000, seed=42, alpha=2.0))
        assert abs(est.f_tr_hat - 2.0 / 3.0) <= 3 * est.stderr_tr + 1e-12
        assert abs(est.f_ab_hat - 8.0 / 11.0) <= 3 * est.stderr_ab + 1e-12
        assert abs(est.f_ac_hat - 0.4) <= 3 * est.stderr_ac + 1e-12

    def test_fixed_input_ensemble(self):
        est = estimate_fidelities(McConfig(shots=30_000, seed=6, alpha=2.0, input_ensemble_std=0.0))
        assert abs(est.f_ac_hat - 0.4) <= 3 * est.stderr_ac + 1e-12

    def test_strategies_tie_at_threshold(self):
        """Near the crossing noise level the estimated cooperative average
        coincides with the non-cooperative estimate within sampling error."""
        est = estimate_fidelities(McConfig(shots=100_000, seed=42, alpha=5.76))
        combined = math.sqrt(
            (est.stderr_ab / 2) ** 2 + (est.stderr_ac / 2) ** 2 + est.stderr_tr**2
        )
        assert abs((est.f_ab_hat + est.f_ac_hat) / 2 - est.f_tr_hat) < 4 * combined + 1e-4

    def test_deterministic_and_parallel_invariant(self):
        cfg = McConfig(shots=12_000, seed=7, alpha=3.1)
        one = estimate_fidelities(cfg)
        assert one == estimate_fidelities(cfg)
        assert one == estimate_fidelities(cfg, workers=2)
        assert one == estimate_fidelities(cfg, workers=8)

    def test_degenerate_estimators_have_zero_spread(self):
        est = estimate_fidelities(McConfig(shots=20_000, seed=1, alpha=2.0))
        assert est.stderr_tr * math.sqrt(est.shots) < 1e-9
        assert est.stderr_ab * math.sqrt(est.shots) < 1e-9
        assert est.stderr_ac > 1e-5  # all statistical error sits in f_ac

    def test_single_shot_has_infinite_stderr(self):
        """One shot has no sample variance: it must not read as exact."""
        est = estimate_fidelities(McConfig(shots=1, seed=4, alpha=2.0))
        assert (est.stderr_tr, est.stderr_ab, est.stderr_ac) == (math.inf, math.inf, math.inf)
        assert 0.0 < est.f_ac_hat <= 1.0

    def test_stderr_scales_with_shots(self):
        """One doubling should shrink the standard error by about sqrt(2)."""
        small = estimate_fidelities(McConfig(shots=20_000, seed=3, alpha=2.0))
        large = estimate_fidelities(McConfig(shots=40_000, seed=3, alpha=2.0))
        ratio = small.stderr_ac / large.stderr_ac
        assert 1.2 <= ratio <= 1.7

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            estimate_fidelities(McConfig(shots=0, seed=1, alpha=2.0))
        with pytest.raises(InvalidInputError):
            estimate_fidelities(McConfig(shots=10, seed=-1, alpha=2.0))
        with pytest.raises(InvalidInputError):
            estimate_fidelities(McConfig(shots=10, seed=2**64, alpha=2.0))
        with pytest.raises(InvalidInputError):
            estimate_fidelities(McConfig(shots=10, seed=1, alpha=2.0, input_ensemble_std=-0.5))
        with pytest.raises(InvalidInputError):
            estimate_fidelities(McConfig(shots=10, seed=1, alpha=2.0), workers=0)
