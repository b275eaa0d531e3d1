import math

import numpy as np
import pytest

from telegame import (
    ComplexAmplitude,
    DomainError,
    InvalidInputError,
    average_coherent_fidelity,
    build_cm,
    channel_params,
    f_ab_coop,
    f_ac_coop,
    f_coop_avg,
    f_noncoop,
    kappa,
    modified_shift,
    run_coop_pipeline,
    run_noncoop_pipeline,
    symplectic_form,
)
from telegame.gaussian import beam_splitter_matrix
from telegame.protocols import _ANC, _C, coop_symplectic, noncoop_symplectic, sum_gate_p, sum_gate_x

from conftest import random_amplitude
from oracles import reduced_channel, two_mode_teleport_fidelity

GRID = np.linspace(0.5, 50.0, 500)
ALPHA_EQUAL_COUPLINGS = (math.sqrt(5.0) - 1.0) / 2.0  # where delta = gamma


def random_tuples(count, seed=1234):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        alpha = float(0.5 + 49.5 * rng.random())
        yield (
            alpha,
            ComplexAmplitude(*rng.normal(0, 2, 2)),
            ComplexAmplitude(*rng.normal(0, 2, 2)),
            ComplexAmplitude(*rng.normal(0, 2, 2)),
        )


class TestClosedForms:
    def test_noncoop_reference_values(self):
        assert f_noncoop(2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert f_noncoop(0.5) == pytest.approx(4.0 / 9.0, abs=1e-15)
        assert f_noncoop(5.0 + 2.0 * math.sqrt(5.0)) == pytest.approx(0.5, abs=1e-12)

    def test_measurer_reference_values(self):
        assert f_ac_coop(2.0) == pytest.approx(0.4, abs=1e-15)
        assert f_ac_coop(0.5) == pytest.approx(4.0 / 13.0, abs=1e-15)
        # global maximum sits at the kappa minimum and stays below 1/2
        assert max(f_ac_coop(a) for a in GRID) == pytest.approx(0.4, abs=1e-6)

    def test_helped_reference_values(self):
        assert f_ab_coop(2.0) == pytest.approx(8.0 / 11.0, abs=1e-14)
        assert f_ab_coop(0.5) == pytest.approx(5.0 / 11.0, abs=1e-14)
        assert f_ab_coop(5.76) == pytest.approx(0.8022, abs=1e-4)

    def test_cooperative_average(self):
        assert f_coop_avg(2.0) == pytest.approx(31.0 / 55.0, abs=1e-14)
        assert f_coop_avg(5.76) == pytest.approx(0.5858, abs=5e-4)
        assert f_coop_avg(10.0) > f_noncoop(10.0)
        assert f_coop_avg(2.0) < f_noncoop(2.0)

    @pytest.mark.parametrize("fn", [f_noncoop, f_ab_coop, f_ac_coop, f_coop_avg])
    def test_domain(self, fn):
        with pytest.raises(DomainError):
            fn(0.3)

    def test_ordering_on_grid(self):
        for alpha in GRID:
            f_tr = f_noncoop(alpha)
            assert f_ab_coop(alpha) >= f_tr - 1e-14
            assert f_ac_coop(alpha) < f_tr
            assert f_ac_coop(alpha) <= 0.5

    def test_helped_equality_point(self):
        # the advantage vanishes exactly where the two couplings coincide
        assert f_ab_coop(ALPHA_EQUAL_COUPLINGS) == pytest.approx(
            f_noncoop(ALPHA_EQUAL_COUPLINGS), abs=1e-12
        )
        assert f_ab_coop(2.0) > f_noncoop(2.0) + 1e-3

    def test_noncloning_argmax(self):
        values = [f_noncoop(a) for a in GRID]
        best = GRID[int(np.argmax(values))]
        assert abs(best - 2.0) <= GRID[1] - GRID[0]


class TestTwoModeTeleportFidelity:
    def test_family_blocks_reduce_to_kappa(self):
        for alpha in (0.5, 2.0, 7.3):
            p = channel_params(alpha)
            Z = np.diag([1.0, -1.0])
            got = two_mode_teleport_fidelity(p.alpha * np.eye(2), p.beta * np.eye(2), p.delta * Z)
            assert got == pytest.approx(1.0 / kappa(alpha), abs=1e-13)

    def test_two_vacua_hit_classical_benchmark(self):
        got = two_mode_teleport_fidelity(0.5 * np.eye(2), 0.5 * np.eye(2), np.zeros((2, 2)))
        assert got == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.5, 3.0])
    def test_two_mode_squeezed_resource(self, r):
        A = 0.5 * math.cosh(2 * r) * np.eye(2)
        C = 0.5 * math.sinh(2 * r) * np.diag([1.0, -1.0])
        got = two_mode_teleport_fidelity(A, A, C)
        assert got == pytest.approx(1.0 / (1.0 + math.exp(-2 * r)), abs=1e-12)

    def test_consistency_with_reduced_channel(self):
        p = channel_params(3.3)
        red = reduced_channel(build_cm(p), "c")
        got = two_mode_teleport_fidelity(red.cov[0:2, 0:2], red.cov[2:4, 2:4], red.cov[0:2, 2:4])
        assert got == pytest.approx(f_noncoop(3.3), abs=1e-13)

    def test_unphysical_resource_rejected(self):
        with pytest.raises(DomainError):
            two_mode_teleport_fidelity(0.1 * np.eye(2), 0.1 * np.eye(2), np.zeros((2, 2)))

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidInputError):
            two_mode_teleport_fidelity(np.eye(3), np.eye(2), np.zeros((2, 2)))


class TestModifiedShift:
    def test_matching_results_give_no_correction(self):
        p = channel_params(3.0)
        eta = ComplexAmplitude(1.2, -0.4)
        out = modified_shift(eta, eta, p)
        assert (out.re, out.im) == (eta.re, eta.im)

    def test_equal_couplings_give_no_correction(self):
        p = channel_params(ALPHA_EQUAL_COUPLINGS)
        eta = ComplexAmplitude(0.3, 0.9)
        mu = ComplexAmplitude(-2.0, 1.1)
        out = modified_shift(eta, mu, p)
        assert out.re == pytest.approx(eta.re, abs=1e-12)
        assert out.im == pytest.approx(eta.im, abs=1e-12)

    def test_reference_point(self):
        # (beta + 1/2)^{-1} (delta - gamma) = 1/4 at alpha = 2
        out = modified_shift(ComplexAmplitude(0, 0), ComplexAmplitude(1, 0), channel_params(2.0))
        assert (out.re, out.im) == (0.25, 0.0)


class TestFeedforwardGates:
    def test_sum_gates_are_symplectic(self):
        omega = symplectic_form(4)
        for S in (sum_gate_x(4, 1, 2, -1.7), sum_gate_p(4, 0, 3, 0.9)):
            assert np.abs(S @ omega @ S.T - omega).max() < 1e-12

    def test_noncoop_symplectic_is_shared_and_read_only(self):
        S = noncoop_symplectic(4)
        with pytest.raises(ValueError):
            S[0, 0] = 9.0
        np.testing.assert_array_equal(noncoop_symplectic(4), S)

    def test_protocol_symplectics(self):
        omega4 = symplectic_form(4)
        S = noncoop_symplectic(4)
        assert np.abs(S @ omega4 @ S.T - omega4).max() < 1e-12
        omega5 = symplectic_form(5)
        S = coop_symplectic(channel_params(2.0))
        assert np.abs(S @ omega5 @ S.T - omega5).max() < 1e-12


class TestNoncoopPipeline:
    def test_matches_closed_form_at_reference(self):
        out = run_noncoop_pipeline(2.0, ComplexAmplitude(0.7, -1.1), ComplexAmplitude(2.0, 0.5))
        assert out.fidelity_bob == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert out.fidelity_charlie == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_boundary_alpha(self):
        out = run_noncoop_pipeline(0.5, ComplexAmplitude(0, 0), ComplexAmplitude(0, 0))
        assert out.fidelity_bob == pytest.approx(4.0 / 9.0, abs=1e-10)

    def test_random_tuples_match(self):
        for alpha, amp, eta, _ in random_tuples(50):
            out = run_noncoop_pipeline(alpha, amp, eta)
            assert abs(out.fidelity_bob - f_noncoop(alpha)) < 1e-10
            assert abs(out.fidelity_charlie - f_noncoop(alpha)) < 1e-10
            assert np.abs(out.mean_residual_bob).max() < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            run_noncoop_pipeline(0.2, ComplexAmplitude(0, 0), ComplexAmplitude(0, 0))


class TestCoopPipeline:
    def test_matches_closed_form_at_reference(self):
        out = run_coop_pipeline(
            2.0, ComplexAmplitude(1.0, 0.2), ComplexAmplitude(-0.3, 0.8), ComplexAmplitude(0.1, 0.1)
        )
        assert out.fidelity_bob == pytest.approx(8.0 / 11.0, abs=1e-10)

    def test_random_tuples_match(self):
        for alpha, amp, eta, mu in random_tuples(50, seed=77):
            out = run_coop_pipeline(alpha, amp, eta, mu)
            assert abs(out.fidelity_bob - f_ab_coop(alpha)) < 1e-10
            assert abs(out.fidelity_charlie - f_ac_coop(alpha)) < 1e-10
            assert np.abs(out.mean_residual_bob).max() < 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    def test_feedforward_leaves_heterodyne_ports_alone(self, alpha):
        """Charlie's fidelity is read from x of Charlie's port and p of the
        ancilla's port, so the feedforward to Bob must not touch those rows."""
        before = beam_splitter_matrix(5, _C, _ANC) @ noncoop_symplectic(5)
        rows = [2 * _C, 2 * _ANC + 1]
        np.testing.assert_array_equal(coop_symplectic(channel_params(alpha))[rows], before[rows])


class TestRecordIndependence:
    """At unit gain no record enters either pipeline's output."""

    RECORDS = (
        (ComplexAmplitude(0.0, 0.0), ComplexAmplitude(0.0, 0.0)),
        (ComplexAmplitude(3.1, -0.7), ComplexAmplitude(-2.4, 5.0)),
    )

    @staticmethod
    def _fields(out):
        return out.fidelity_bob, out.fidelity_charlie, out.mean_residual_bob.tolist()

    def test_noncoop(self):
        amp = ComplexAmplitude(0.7, -1.1)
        one, two = (self._fields(run_noncoop_pipeline(3.0, amp, eta)) for eta, _ in self.RECORDS)
        assert one == two

    def test_coop(self):
        amp = ComplexAmplitude(0.7, -1.1)
        one, two = (self._fields(run_coop_pipeline(3.0, amp, eta, mu)) for eta, mu in self.RECORDS)
        assert one == two


class TestMeasurerAverage:
    """Charlie's cooperative fidelity, averaged over the heterodyne law the
    pipeline reads off its own output, against 1/(kappa + 1)."""

    def test_exact_average_matches_closed_form(self):
        zero = ComplexAmplitude(0.0, 0.0)
        for alpha in (0.5, 2.0, 10.0):
            got = run_coop_pipeline(alpha, zero, zero, zero).fidelity_charlie
            assert abs(got - f_ac_coop(alpha)) < 1e-10

    def test_input_independence(self, rng):
        for _ in range(5):
            amp = random_amplitude(rng)
            got = run_coop_pipeline(2.0, amp, random_amplitude(rng), random_amplitude(rng)).fidelity_charlie
            assert abs(got - 0.4) < 1e-10

    @pytest.mark.parametrize("cov", [-np.eye(2), -2.0 * np.eye(2), [[np.nan, 0.0], [0.0, 1.0]],
                                     np.eye(4)])
    def test_invalid_outcome_law_rejected(self, cov):
        zero = ComplexAmplitude(0.0, 0.0)
        with pytest.raises(InvalidInputError):
            average_coherent_fidelity(zero, np.asarray(cov), zero)

    def test_integral_against_quadrature_oracle(self):
        """Brute-force 2D quadrature of the overlap kernel against the
        closed-form Gaussian average."""
        mean = ComplexAmplitude(0.4, -0.2)
        cov = np.array([[1.8, 0.3], [0.3, 2.4]])
        target = ComplexAmplitude(0.1, 0.5)
        grid = np.linspace(-12.0, 12.0, 801)
        dx = grid[1] - grid[0]
        X, Y = np.meshgrid(grid, grid, indexing="ij")
        pts = np.stack([X.ravel() - mean.as_mean()[0], Y.ravel() - mean.as_mean()[1]])
        inv = np.linalg.inv(cov)
        density = np.exp(-0.5 * np.einsum("in,ij,jn->n", pts, inv, pts))
        density /= 2.0 * math.pi * math.sqrt(np.linalg.det(cov))
        kernel = np.exp(
            -0.5 * ((X.ravel() - target.as_mean()[0]) ** 2 + (Y.ravel() - target.as_mean()[1]) ** 2)
        )
        oracle = float((density * kernel).sum() * dx * dx)
        got = average_coherent_fidelity(mean, cov, target)
        assert got == pytest.approx(oracle, abs=1e-6)
