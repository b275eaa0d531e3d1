import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from telegame import (
    ZERO_AMPLITUDE,
    ComplexAmplitude,
    GaussianState,
    InvalidInputError,
    McConfig,
    McEstimate,
    beam_splitter_50_50,
    build_cm,
    channel_params,
    displace,
    estimate_fidelities,
    f_ab_coop,
    f_ac_coop,
    f_noncoop,
    fidelity_vs_coherent,
    homodyne_update,
    make_coherent,
    partial_trace,
    run_coop_pipeline,
    run_noncoop_pipeline,
    tensor,
)
from telegame import checks, montecarlo, protocols
from telegame.checks import MC_ALPHAS, compare_to_closed_forms, random_tuples
from telegame.montecarlo import (
    _CHUNK, _MAX_SHOTS, _MAX_WORKERS, _WINDOW, _ShotKernel, _chunk_sums, _estimate, _shot_normals,
)

from oracles import scalar_chunk_sums

EPS = np.finfo(float).eps


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

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 5.76, 10.0, 100.0, 1e3])
    def test_reference_values_equal_closed_forms(self, alpha):
        ref_tr, ref_ab, ref_ac = _ShotKernel(alpha).ref
        assert ref_tr == pytest.approx(f_noncoop(alpha), rel=0, abs=1e-12)
        assert ref_ab == pytest.approx(f_ab_coop(alpha), rel=0, abs=1e-12)
        assert ref_ac == pytest.approx(f_ac_coop(alpha), rel=0, abs=1e-12)

    def test_input_columns_are_exact_zeros(self):
        """Both strategies run at unit gain, so no mismatch depends on the
        input amplitude and the width of the input ensemble cannot move an
        estimate. 0.5248602503498518 is where an earlier build of this map
        probed a unit gain one rounding off 1."""
        for alpha in [*MC_ALPHAS, 0.5248602503498518, *np.geomspace(0.5, 1e7, 61).tolist()]:
            assert not _ShotKernel(alpha).jac[:, 0:2].any(), alpha

    @pytest.mark.parametrize("shot", [0, _CHUNK - 1, _CHUNK, 12345])
    def test_chunk_loop_draws_fresh_shot_stream(self, shot):
        """Shot k's row of its chunk's normals is the first six of a fresh
        Philox stream at counter [0, k, 0, 0]."""
        lo = shot - shot % _CHUNK
        z = _shot_normals(99, lo, lo + _CHUNK)[shot - lo]
        fresh = np.random.Generator(np.random.Philox(key=99, counter=[0, shot, 0, 0]))
        assert z.tobytes() == fresh.standard_normal(6).tobytes()

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("lo, hi", [(0, _CHUNK), (_MAX_SHOTS - _MAX_SHOTS % _CHUNK, _MAX_SHOTS)])
    def test_every_row_is_its_fresh_shot_stream_at_the_edges(self, seed, lo, hi):
        """Every row of the first chunk and of the last chunk below the shot
        cap is its shot's fresh Philox stream, at the ends of the seed range:
        the reset carries the key's full 64 bits and large counters."""
        fresh = np.array([
            np.random.Generator(np.random.Philox(key=seed, counter=[0, shot, 0, 0])).standard_normal(6)
            for shot in range(lo, hi)
        ])
        assert _shot_normals(seed, lo, hi).tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("lo, hi", [(0, _CHUNK), (3 * _CHUNK, 3 * _CHUNK + 1234)])
    def test_chunk_scoring_matches_scalar_loop(self, alpha, lo, hi):
        """The array-scored chunk sums equal a shot-by-shot scalar loop over
        the same normals, on a full and on a partial chunk."""
        kernel = _ShotKernel(alpha)
        assert kernel.w.shape == (2, 6)
        expected = scalar_chunk_sums(kernel.w, kernel.ref[2], _shot_normals(5, lo, hi))
        np.testing.assert_allclose(_chunk_sums([kernel], 5, lo, hi)[0], expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("lo, hi", [(0, _CHUNK), (3 * _CHUNK, 3 * _CHUNK + 1234)])
    def test_kernels_scored_on_one_draw_keep_their_own_sums(self, lo, hi):
        """Two kernels scored on one draw give, row for row, the bytes of
        each kernel scored on its own."""
        kernels = [_ShotKernel(0.5), _ShotKernel(10.0)]
        both = _chunk_sums(kernels, 5, lo, hi)
        assert both.shape == (2, 2)
        for kernel, row in zip(kernels, both):
            assert row.tobytes() == _chunk_sums([kernel], 5, lo, hi)[0].tobytes()

    @pytest.mark.parametrize("alpha", MC_ALPHAS)
    def test_kernel_chain_is_the_chain_of_the_rebuilt_state(self, alpha):
        """The kernel keeps the joint state and channel it probes: its chain
        gives the bytes of a chain on a state rebuilt from channel_params and
        build_cm."""
        kernel = _ShotKernel(alpha)
        params = channel_params(alpha)
        rebuilt = SimpleNamespace(params=params, joint=tensor(make_coherent(ZERO_AMPLITUDE), build_cm(params)))
        for z in np.random.default_rng(3).standard_normal((5, 6)):
            (got, got_covs), (want, want_covs) = kernel._chain(z), _ShotKernel._chain(rebuilt, z)
            assert got.tobytes() == want.tobytes()
            assert [c.tobytes() for c in got_covs] == [c.tobytes() for c in want_covs]

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    def test_linear_map_matches_conditioning_chain(self, alpha):
        """w @ z is the measurer's mismatch mu - u reached step
        by step: Bell record from the beam-split input state, both Bell
        homodynes, the displacement by eta, then the heterodyne draw."""
        w = _ShotKernel(alpha).w
        joint = tensor(make_coherent(ZERO_AMPLITUDE), build_cm(channel_params(alpha)))
        bell = [2, 1]
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = rng.standard_normal(6)
            u = math.sqrt(2.0) * z[0:2]
            st = beam_splitter_50_50(GaussianState(4, np.concatenate([u, np.zeros(6)]), joint.cov), 1, 0)
            m = st.mean[bell] + np.linalg.cholesky(st.cov[np.ix_(bell, bell)]) @ z[2:4]
            st = homodyne_update(homodyne_update(st, 1, "x", m[0]), 0, "p", m[1])
            measurer = partial_trace(displace(st, 1, ComplexAmplitude(-m[0], m[1])), [1])
            mu = measurer.mean + np.linalg.cholesky(measurer.cov + 0.5 * np.eye(2)) @ z[4:6]
            np.testing.assert_allclose(w @ z, mu - u, rtol=0, atol=1e-12)


def _at_scale(scale, fn, *args):
    """fn(*args) with the cooperative shift coefficient times `scale`: one
    patch reaches the circuit's feedforward and the Monte-Carlo chain."""
    coefficient = protocols._shift_coefficient
    protocols._shift_coefficient = lambda params: scale * coefficient(params)
    try:
        return fn(*args)
    finally:
        protocols._shift_coefficient = coefficient
        checks._mc_kernels.cache_clear()  # nothing built under the scale may outlive it
        checks._mc_estimates.cache_clear()


class TestShiftCoefficient:
    """The paper's correction coefficient, scaled by s, on both Gaussian paths.

    Physics. Bob's conditional covariance does not depend on his displacement,
    and his mismatch is affine in s, so its record columns are J + s K per
    quadrature q (the chain is quadrature-separable). If s = 1 is the
    least-squares gain of each quadrature, the record-averaged variance is
    c_q + |K_q|^2 (s - 1)^2, and F(s) = ref[1] = ((c_x + |K_x|^2 (s - 1)^2)
    (c_p + |K_p|^2 (s - 1)^2))^(-1/2) is even in s - 1: its central
    difference has no truncation error at any step h, and its second
    difference is negative. At s = 0 Bob is conditioned on Charlie's record
    and not displaced; averaged over the records that is his unconditioned
    state (the law of total covariance), so ref[1] = ref[0]: Charlie's
    heterodyne alone does not signal.

    Bounds, in eps = 2^-52, set before the differences were looked at. Each
    ref is within E = 4 eps (1 + alpha) of its exact value: the kernel's
    error model is c eps alpha with c at most 1.1 up to alpha = 1e12, and
    (1 + alpha) covers the O(1) steps at small alpha. So with h = 1e-3:
    - |F(1 + h) - F(1 - h)| / 2h <= 2E / 2h = E / h (9.8e-12 at alpha = 10);
    - the second difference rounds by at most 4E / h^2 (5.3e-9 at 0.5), and
      it must be below minus that;
    - |ref[1] - ref[0]| <= 2E at s = 0 (2.0e-14 at alpha = 10).

    The pipeline at s = 0 needs no rounding bound. Each of Bob's four sum
    gates is then the identity, so the circuit is the standard one continued
    by the heterodyne's beam splitter, which leaves Bob's rows as they were:
    his state, hence his fidelity, has the standard pipeline's bits. Those
    rows are exact integers and the channel's mean is zero, so his mean is
    the input's and the residual is exactly 0.

    Measured at MC_ALPHAS: the first difference is at most 5.6e-14, the
    second runs from -0.021 (alpha = 0.5) to -1.12 (alpha = 10), and
    |ref[1] - ref[0]| at s = 0 is at most 1.1e-16.
    """

    H = 1e-3

    @staticmethod
    def error(alpha):
        """E: how far each ref may round from its exact value."""
        return 4.0 * EPS * (1.0 + alpha)

    @pytest.mark.parametrize("alpha", MC_ALPHAS)
    def test_helped_reference_is_a_maximum_at_the_paper_gain(self, alpha):
        error = self.error(alpha)
        scales = (1.0 - self.H, 1.0, 1.0 + self.H)
        lower, centre, upper = (_at_scale(s, _ShotKernel, alpha).ref[1] for s in scales)
        assert centre == _ShotKernel(alpha).ref[1]
        assert abs(upper - lower) / (2.0 * self.H) <= error / self.H
        assert (upper - 2.0 * centre + lower) / self.H**2 < -4.0 * error / self.H**2

    @pytest.mark.parametrize("alpha", MC_ALPHAS)
    def test_a_gain_off_by_1e_9_is_not_stationary(self, alpha):
        """The first difference moves by F'' times the gain's offset, about
        2e-11 at alpha = 0.5 and 1e-9 at 10: past its bound at every alpha."""
        error = self.error(alpha)
        scales = ((1.0 + 1e-9) * (1.0 - self.H), (1.0 + 1e-9) * (1.0 + self.H))
        lower, upper = (_at_scale(s, _ShotKernel, alpha).ref[1] for s in scales)
        assert abs(upper - lower) / (2.0 * self.H) > error / self.H

    @pytest.mark.parametrize("alpha", MC_ALPHAS)
    def test_heterodyne_alone_does_not_signal_to_the_kernel(self, alpha):
        kernel = _at_scale(0.0, _ShotKernel, alpha)
        assert abs(kernel.ref[1] - kernel.ref[0]) <= 2.0 * self.error(alpha)

    def test_heterodyne_alone_does_not_signal_to_the_pipeline(self):
        def bob_both_ways():
            return [(run_coop_pipeline(alpha, amp, eta, mu), run_noncoop_pipeline(alpha, amp, eta))
                    for alpha, amp, eta, mu in random_tuples(100)]

        for coop, standard in _at_scale(0.0, bob_both_ways):
            assert coop.fidelity_bob == standard.fidelity_bob
            assert coop.mean_residual_bob == standard.mean_residual_bob == (0.0, 0.0)


class TestEstimator:
    def test_consistency_at_reference_alpha(self):
        est = estimate_fidelities(McConfig(shots=50_000, seed=42, alpha=2.0))
        assert abs(est.f_tr_hat - 2.0 / 3.0) <= 3 * est.stderr_tr + 1e-12
        assert abs(est.f_ab_hat - 8.0 / 11.0) <= 3 * est.stderr_ab + 1e-12
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
        assert one == estimate_fidelities(cfg, workers=_MAX_WORKERS)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_chunks_are_scored_once_and_reduced_in_order(self, monkeypatch, workers):
        """Over two full windows and a partial chunk, each chunk is scored
        once with its own bounds, and sums that do not add associatively are
        reduced in chunk order."""
        n = 2 * _WINDOW * _CHUNK + 100
        bounds = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]

        def sums(lo, hi):  # magnitudes from 1e-16 to 1, so the order shows in the bits
            rng = np.random.default_rng([lo, hi])
            return rng.random(2) * 10.0 ** rng.integers(-16, 1, 2)

        def f_ac_and_stderr(order):
            totals = np.zeros(2)
            for lo, hi in order:
                totals += sums(lo, hi)
            s, q = totals.tolist()
            return [s / n, math.sqrt(max(q - s * s / n, 0.0) / (n - 1) / n)]

        scored = []

        def fake_chunk_sums(kernels, seed, lo, hi):
            scored.append((seed, lo, hi))
            time.sleep(0.001 if lo // _CHUNK % 3 == 0 else 0.0)  # later chunks may finish first
            return np.array([sums(lo, hi) for _ in kernels])

        monkeypatch.setattr(montecarlo, "_chunk_sums", fake_chunk_sums)
        kernel = SimpleNamespace(ref=(0.25, 0.5, 0.0))  # f_ac's mean is the total / n
        monkeypatch.setattr(montecarlo, "_ShotKernel", lambda alpha: kernel)
        est = estimate_fidelities(McConfig(shots=n, seed=3, alpha=2.0), workers=workers)
        assert sorted(scored) == [(3, lo, hi) for lo, hi in bounds]
        assert [est.f_ac_hat, est.stderr_ac] == f_ac_and_stderr(bounds) != f_ac_and_stderr(bounds[::-1])
        assert (est.f_tr_hat, est.f_ab_hat, est.stderr_tr, est.stderr_ab) == (0.25, 0.5, 0.0, 0.0)

    def test_memory_does_not_grow_with_shots(self, monkeypatch):
        """With scoring stubbed, the peak is the same at 2000 and 8000 chunks:
        chunks go to the pool a window at a time and are reduced as they arrive."""
        monkeypatch.setattr(montecarlo, "_chunk_sums", lambda kernels, seed, lo, hi: np.zeros((len(kernels), 2)))
        peaks = []
        for chunks in (2000, 8000):
            tracemalloc.start()
            try:
                estimate_fidelities(McConfig(shots=chunks * _CHUNK, seed=1, alpha=2.0), workers=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 64 * 1024 and peaks[1] < 1024**2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_draw_keeps_every_estimate(self, monkeypatch, workers):
        """verify's alphas scored on one draw give, field for field, the
        estimate of each alpha run on its own: over 5 full chunks and a
        partial one, with windows of 2 chunks so that three are crossed."""
        monkeypatch.setattr(montecarlo, "_WINDOW", 2)
        shots = 5 * _CHUNK + 777
        shared = _estimate([_ShotKernel(alpha) for alpha in MC_ALPHAS], shots, 13, workers)
        for alpha, est in zip(MC_ALPHAS, shared):
            assert est == estimate_fidelities(McConfig(shots=shots, seed=13, alpha=alpha), workers=workers)

    def test_degenerate_estimators_have_zero_spread(self):
        """f_tr and f_ab are the kernel's exact values, bit for bit, with no
        spread; all statistical error sits in f_ac."""
        est = estimate_fidelities(McConfig(shots=20_000, seed=1, alpha=2.0))
        assert (est.f_tr_hat, est.f_ab_hat) == _ShotKernel(2.0).ref[0:2]
        assert (est.stderr_tr, est.stderr_ab) == (0.0, 0.0)
        assert est.stderr_ac > 1e-5

    def test_estimates_need_no_pipeline(self, monkeypatch):
        """The kernel builds and passes the 3-sigma rule with every pipeline
        run and protocol symplectic replaced by a function that raises, and
        both alpha-free circuit matrices by None, whose use raises."""

        def unavailable(*args, **kwargs):
            raise AssertionError("the Monte-Carlo path must not use the pipeline")

        for name in ("run_noncoop_pipeline", "run_coop_pipeline", "coop_symplectic"):
            monkeypatch.setattr(protocols, name, unavailable)
            monkeypatch.setattr(montecarlo, name, unavailable, raising=False)
        for name in ("_NONCOOP_SYMPLECTIC", "_HETERODYNED_SYMPLECTIC"):
            monkeypatch.setattr(protocols, name, None)
            monkeypatch.setattr(montecarlo, name, None, raising=False)
        for alpha in (0.5, 2.0, 10.0):
            est = estimate_fidelities(McConfig(shots=20_000, seed=8, alpha=alpha))
            assert all(row[-1] for row in compare_to_closed_forms(alpha, est)), alpha

    def test_z_score_is_none_where_stderr_is_zero_or_infinite(self):
        est = McEstimate(0.6, 0.7, 0.41, 0.0, math.inf, 0.01, 100)
        rows = compare_to_closed_forms(2.0, est)
        assert [row[4] for row in rows] == [None, None, (0.41 - f_ac_coop(2.0)) / 0.01]

    def test_single_shot_has_infinite_stderr(self):
        """One shot has no sample variance: it must not read as exact."""
        est = estimate_fidelities(McConfig(shots=1, seed=4, alpha=2.0))
        assert (est.stderr_tr, est.stderr_ab, est.stderr_ac) == (math.inf, math.inf, math.inf)
        assert 0.0 < est.f_ac_hat <= 1.0

    def test_estimates_stay_in_score_range(self):
        """At alpha = 8e6 every measurer shot scores 0. The mean must not
        round below zero, and it still misses the closed form under the
        3-sigma rule."""
        alpha = 8e6
        est = estimate_fidelities(McConfig(shots=2000, seed=0, alpha=alpha))
        assert est.f_ac_hat == 0.0
        assert 0.0 < est.f_tr_hat <= 1.0 and 0.0 < est.f_ab_hat <= 1.0
        f_ac = compare_to_closed_forms(alpha, est)[2]
        assert f_ac[1] == pytest.approx(1.46e-6, rel=1e-2)
        assert not f_ac[-1]

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
            estimate_fidelities(McConfig(shots=10, seed=1, alpha=2.0), workers=0)
        for bad in (True, 2.5, "2", None):
            with pytest.raises(InvalidInputError):
                estimate_fidelities(McConfig(shots=10, seed=1, alpha=2.0), workers=bad)
            with pytest.raises(InvalidInputError):
                estimate_fidelities(McConfig(shots=bad, seed=1, alpha=2.0))
            with pytest.raises(InvalidInputError):
                estimate_fidelities(McConfig(shots=10, seed=bad, alpha=2.0))

    @pytest.mark.parametrize("shots, workers", [
        (_MAX_SHOTS + 1, 1), (10**15, 1), (10, _MAX_WORKERS + 1), (10, 10**5),
    ])
    def test_huge_counts_are_refused_before_any_allocation(self, monkeypatch, shots, workers):
        """A count above its bound raises before the kernel, the chunk list or
        any thread exists."""

        def unavailable(*args, **kwargs):
            raise AssertionError("a refused count must build no kernel and start no thread")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", unavailable)
        monkeypatch.setattr(montecarlo, "_ShotKernel", unavailable)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="shots|workers"):
                estimate_fidelities(McConfig(shots=shots, seed=1, alpha=2.0), workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
