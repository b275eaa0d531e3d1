import math

import numpy as np
import pytest

from telegame import (
    ComplexAmplitude,
    GaussianState,
    InvalidInputError,
    apply_symplectic,
    beam_splitter_50_50,
    displace,
    fidelity_vs_coherent,
    heterodyne_outcome_distribution,
    heterodyne_update,
    homodyne_update,
    make_coherent,
    partial_trace,
    physicality,
    symplectic_form,
    tensor,
    vacuum,
)
from telegame.gaussian import beam_splitter_matrix

from conftest import random_amplitude, random_physical_state
from oracles import pinv_homodyne_update

SQRT2 = math.sqrt(2.0)
ZERO = ComplexAmplitude(0.0, 0.0)


class TestComplexAmplitude:
    def test_mean_map_is_sqrt2(self):
        amp = ComplexAmplitude(1.0, -0.5)
        np.testing.assert_allclose(amp.as_mean(), [SQRT2, -0.5 * SQRT2])

    def test_round_trip(self):
        amp = ComplexAmplitude(0.3, 0.7)
        back = ComplexAmplitude.from_mean(amp.as_mean())
        assert back.re == pytest.approx(amp.re) and back.im == pytest.approx(amp.im)

    @pytest.mark.parametrize("re,im", [(float("nan"), 0.0), (0.0, float("inf")), (float("-inf"), 1.0)])
    def test_non_finite_rejected(self, re, im):
        with pytest.raises(InvalidInputError):
            ComplexAmplitude(re, im)


class TestMakeCoherent:
    def test_vacuum_case(self):
        st = make_coherent(ComplexAmplitude(0.0, 0.0))
        np.testing.assert_array_equal(st.mean, [0.0, 0.0])
        np.testing.assert_array_equal(st.cov, 0.5 * np.eye(2))

    def test_unit_amplitude(self):
        st = make_coherent(ComplexAmplitude(1.0, 0.0))
        np.testing.assert_allclose(st.mean, [SQRT2, 0.0], atol=1e-15)
        np.testing.assert_array_equal(st.cov, 0.5 * np.eye(2))


class TestGaussianStateValidation:
    def test_asymmetric_covariance_rejected(self):
        cov = 0.5 * np.eye(2)
        cov[0, 1] = 1e-3
        with pytest.raises(InvalidInputError):
            GaussianState(1, np.zeros(2), cov)

    def test_small_asymmetry_symmetrized(self):
        cov = 0.6 * np.eye(2)
        cov[0, 1] = 1e-12
        st = GaussianState(1, np.zeros(2), cov)
        assert np.abs(st.cov - st.cov.T).max() == 0.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(InvalidInputError):
            GaussianState(1, np.zeros(3), np.eye(3))

    def test_immutable_arrays(self):
        st = vacuum(1)
        with pytest.raises(ValueError):
            st.cov[0, 0] = 9.0


class TestTensorAndPartialTrace:
    def test_vacuum_tensor_vacuum(self):
        st = tensor(vacuum(1), vacuum(1))
        assert st.modes == 2
        np.testing.assert_array_equal(st.cov, 0.5 * np.eye(4))

    def test_mean_concatenation(self):
        st = tensor(make_coherent(ComplexAmplitude(1.0, 0.0)), make_coherent(ComplexAmplitude(0.0, 1.0)))
        np.testing.assert_allclose(st.mean, [SQRT2, 0.0, 0.0, SQRT2], atol=1e-15)

    def test_round_trip_is_exact(self, rng):
        s1 = random_physical_state(rng, 2)
        s2 = random_physical_state(rng, 1)
        joint = tensor(s1, s2)
        back = partial_trace(joint, [0, 1])
        np.testing.assert_array_equal(back.mean, s1.mean)
        np.testing.assert_array_equal(back.cov, s1.cov)

    def test_keep_all_is_identity(self, rng):
        st = random_physical_state(rng, 3)
        same = partial_trace(st, [0, 1, 2])
        np.testing.assert_array_equal(same.cov, st.cov)

    def test_keep_order_reorders_modes(self, rng):
        st = random_physical_state(rng, 2)
        swapped = partial_trace(st, [1, 0])
        np.testing.assert_array_equal(swapped.mode_mean(0), st.mode_mean(1))

    def test_keep_errors(self, rng):
        st = random_physical_state(rng, 2)
        with pytest.raises(InvalidInputError):
            partial_trace(st, [])
        with pytest.raises(InvalidInputError):
            partial_trace(st, [0, 0])
        with pytest.raises(InvalidInputError):
            partial_trace(st, [2])


class TestBeamSplitter:
    def test_vacuum_invariant(self):
        st = beam_splitter_50_50(vacuum(2), 0, 1)
        np.testing.assert_allclose(st.cov, 0.5 * np.eye(4), atol=1e-15)

    def test_equal_coherent_inputs(self):
        # oracle: apply the 4x4 transformation to (sqrt2, 0, sqrt2, 0) by hand
        amp = ComplexAmplitude(1.0, 0.0)
        st = beam_splitter_50_50(tensor(make_coherent(amp), make_coherent(amp)), 0, 1)
        np.testing.assert_allclose(st.mode_mean(0), [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(st.mode_mean(1), [2.0, 0.0], atol=1e-15)

    def test_reverse_order_inverts(self, rng):
        st = random_physical_state(rng, 3)
        back = beam_splitter_50_50(beam_splitter_50_50(st, 0, 2), 2, 0)
        np.testing.assert_allclose(back.cov, st.cov, atol=1e-12)
        np.testing.assert_allclose(back.mean, st.mean, atol=1e-12)

    def test_matrix_is_symplectic(self):
        omega = symplectic_form(3)
        S = beam_splitter_matrix(3, 0, 2)
        assert np.abs(S @ omega @ S.T - omega).max() < 1e-12

    def test_same_mode_rejected(self):
        with pytest.raises(InvalidInputError):
            beam_splitter_50_50(vacuum(2), 1, 1)
        with pytest.raises(InvalidInputError):
            beam_splitter_50_50(vacuum(2), 0, 5)


class TestDisplace:
    def test_vacuum_to_coherent(self):
        amp = ComplexAmplitude(1.0, 0.0)
        st = displace(vacuum(1), 0, amp)
        target = make_coherent(amp)
        np.testing.assert_array_equal(st.mean, target.mean)
        np.testing.assert_array_equal(st.cov, target.cov)

    def test_inverse_displacement(self, rng):
        st = random_physical_state(rng, 2)
        amp = random_amplitude(rng)
        back = displace(displace(st, 1, amp), 1, ComplexAmplitude(-amp.re, -amp.im))
        np.testing.assert_allclose(back.mean, st.mean, atol=1e-14)

    def test_covariance_untouched(self, rng):
        st = random_physical_state(rng, 2)
        moved = displace(st, 0, random_amplitude(rng))
        np.testing.assert_array_equal(moved.cov, st.cov)

    def test_bad_index(self):
        with pytest.raises(InvalidInputError):
            displace(vacuum(1), 3, ComplexAmplitude(1.0, 0.0))


class TestPhysicality:
    def test_vacuum_saturates(self):
        assert physicality(0.5 * np.eye(2))

    def test_below_vacuum_noise_fails(self):
        assert not physicality(np.diag([0.1, 0.1]))

    def test_thermal_passes(self):
        assert physicality(2.0 * np.eye(4))

    def test_matches_eigenvalue_oracle(self, rng):
        for _ in range(20):
            st = random_physical_state(rng, 2)
            omega = symplectic_form(2)
            oracle = np.linalg.eigvalsh(st.cov - 0.5j * omega).min() >= -1e-9
            assert physicality(st.cov) == oracle

    def test_asymmetric_rejected(self):
        bad = np.eye(2)
        bad[0, 1] = 0.5
        with pytest.raises(InvalidInputError):
            physicality(bad)

    def test_odd_dimension_rejected(self):
        with pytest.raises(InvalidInputError):
            physicality(np.eye(3))


class TestHomodyneUpdate:
    def test_product_state_leaves_rest_alone(self, rng):
        rest = random_physical_state(rng, 2)
        probe = random_physical_state(rng, 1)
        joint = tensor(rest, probe)
        after = homodyne_update(joint, 2, "x", 0.4)
        np.testing.assert_allclose(after.cov, rest.cov, atol=1e-12)
        np.testing.assert_allclose(after.mean, rest.mean, atol=1e-12)

    def test_schur_complement_value(self):
        # two-mode CM [[a I, d Z], [d Z, b I]]; conditional x-variance of the
        # survivor is b - d^2/a = 1.5 - 2.25/2 = 0.375 for (a, b, d) = (2, 1.5, 1.5)
        a, b, d = 2.0, 1.5, 1.5
        cov = np.zeros((4, 4))
        cov[0:2, 0:2] = a * np.eye(2)
        cov[2:4, 2:4] = b * np.eye(2)
        cov[0:2, 2:4] = d * np.diag([1.0, -1.0])
        cov[2:4, 0:2] = d * np.diag([1.0, -1.0])
        st = GaussianState(2, np.zeros(4), cov)
        after = homodyne_update(st, 0, "x", 1.1)
        assert after.cov[0, 0] == pytest.approx(0.375, abs=1e-12)
        # p quadrature was not measured, so its variance keeps the full noise
        assert after.cov[1, 1] == pytest.approx(b, abs=1e-12)

    def test_outcome_independent_covariance(self, rng):
        st = random_physical_state(rng, 3)
        one = homodyne_update(st, 1, "p", 0.3)
        two = homodyne_update(st, 1, "p", -41.0)
        np.testing.assert_allclose(one.cov, two.cov, atol=1e-12)
        assert np.abs(one.mean - two.mean).max() > 1e-6

    def test_single_mode_rejected(self):
        with pytest.raises(InvalidInputError):
            homodyne_update(vacuum(1), 0, "x", 0.0)

    def test_bad_quadrature_rejected(self):
        with pytest.raises(InvalidInputError):
            homodyne_update(vacuum(2), 0, "y", 0.0)

    @pytest.mark.parametrize("quadrature", ["x", "p"])
    def test_zero_variance_quadrature_rejected(self, quadrature):
        """A quadrature without variance carries no information to condition
        on; the outcome must not be silently ignored."""
        cov = np.diag([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(InvalidInputError):
            homodyne_update(GaussianState(2, np.zeros(4), cov), 0, quadrature, 0.7)

    @pytest.mark.parametrize("modes", [2, 3, 4])
    def test_matches_pseudo_inverse_oracle(self, rng, modes):
        """Scalar Schur complement against the projected pseudo-inverse, to a
        few dozen roundings of the largest term each side sums: max|cov| *
        gain for the covariance, and the mean plus gain * |outcome - mean|,
        with gain = max|cov| / B[q, q] bounding the conditioning gain."""
        eps = np.finfo(float).eps
        for _ in range(5):
            st = random_physical_state(rng, modes)
            mode = int(rng.integers(modes))
            for quadrature in ("x", "p"):
                q = 2 * mode + (quadrature == "p")
                gain = np.abs(st.cov).max() / st.cov[q, q]
                for outcome in (-3.0, 0.0, 0.4, 12.5):
                    got = homodyne_update(st, mode, quadrature, outcome)
                    mean, cov = pinv_homodyne_update(st, mode, quadrature, outcome)
                    mean_scale = np.abs(st.mean).max() + gain * (abs(outcome) + np.abs(st.mean).max())
                    assert np.abs(got.cov - cov).max() <= 64 * eps * np.abs(st.cov).max() * gain
                    assert np.abs(got.mean - mean).max() <= 64 * eps * mean_scale


class TestHeterodyneUpdate:
    def test_product_state_leaves_rest_alone(self, rng):
        rest = random_physical_state(rng, 1)
        probe = random_physical_state(rng, 1)
        joint = tensor(probe, rest)
        after = heterodyne_update(joint, 0, random_amplitude(rng))
        np.testing.assert_allclose(after.cov, rest.cov, atol=1e-12)
        np.testing.assert_allclose(after.mean, rest.mean, atol=1e-12)

    def test_symmetric_two_mode_block(self):
        # [[b I, g I], [g I, b I]] with (b, g) = (1.5, 1): survivor covariance
        # is (b - g^2/(b + 1/2)) I = (1.5 - 1/2) I
        b, g = 1.5, 1.0
        cov = np.zeros((4, 4))
        cov[0:2, 0:2] = b * np.eye(2)
        cov[2:4, 2:4] = b * np.eye(2)
        cov[0:2, 2:4] = g * np.eye(2)
        cov[2:4, 0:2] = g * np.eye(2)
        st = GaussianState(2, np.zeros(4), cov)
        after = heterodyne_update(st, 0, ComplexAmplitude(0.2, -0.4))
        np.testing.assert_allclose(after.cov, 1.0 * np.eye(2), atol=1e-12)

    def test_outcome_independent_covariance(self, rng):
        st = random_physical_state(rng, 2)
        one = heterodyne_update(st, 0, ComplexAmplitude(0.0, 0.0))
        two = heterodyne_update(st, 0, ComplexAmplitude(5.0, -2.0))
        np.testing.assert_allclose(one.cov, two.cov, atol=1e-12)

    def test_single_mode_points_to_distribution(self):
        with pytest.raises(InvalidInputError, match="distribution"):
            heterodyne_update(vacuum(1), 0, ComplexAmplitude(0.0, 0.0))

    @pytest.mark.parametrize("variance", [-0.5, -1.0])
    def test_measured_block_not_positive_rejected(self, variance):
        """B + I/2 singular (-0.5) or negative definite (-1) has no outcome
        law to condition on; both must raise the typed error."""
        cov = np.diag([variance, variance, 1.0, 1.0])
        with pytest.raises(InvalidInputError, match="positive definite"):
            heterodyne_update(GaussianState(2, np.zeros(4), cov), 0, ComplexAmplitude(0.3, 0.0))


class TestHeterodyneOutcomeDistribution:
    def test_vacuum(self):
        mean, cov = heterodyne_outcome_distribution(vacuum(1), 0)
        assert (mean.re, mean.im) == (0.0, 0.0)
        np.testing.assert_array_equal(cov, np.eye(2))

    def test_coherent_round_trip(self):
        mean, cov = heterodyne_outcome_distribution(make_coherent(ComplexAmplitude(1.0, 0.0)), 0)
        assert mean.re == pytest.approx(1.0, abs=1e-15)
        assert mean.im == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_array_equal(cov, np.eye(2))

    def test_thermal_adds_povm_noise(self):
        kappa_val = 1.5
        st = GaussianState(1, np.zeros(2), (kappa_val - 0.5) * np.eye(2))
        _, cov = heterodyne_outcome_distribution(st, 0)
        np.testing.assert_allclose(cov, kappa_val * np.eye(2), atol=1e-15)


class TestFidelityVsCoherent:
    def test_identical_states(self, rng):
        amp = random_amplitude(rng)
        assert fidelity_vs_coherent(make_coherent(amp), amp) == pytest.approx(1.0, abs=1e-14)

    def test_vacuum_vs_unit_coherent(self):
        # |<0|1>|^2 = e^{-1}
        got = fidelity_vs_coherent(vacuum(1), ComplexAmplitude(1.0, 0.0))
        assert got == pytest.approx(0.36787944117144233, abs=1e-14)

    def test_thermal_with_matched_mean(self):
        kappa_val = 1.5
        amp = ComplexAmplitude(0.8, -0.3)
        st = GaussianState(1, amp.as_mean(), (kappa_val - 0.5) * np.eye(2))
        assert fidelity_vs_coherent(st, amp) == pytest.approx(1.0 / kappa_val, abs=1e-14)

    def test_multimode_rejected(self):
        with pytest.raises(InvalidInputError):
            fidelity_vs_coherent(vacuum(2), ComplexAmplitude(0.0, 0.0))

    def test_range_and_maximum(self, rng):
        for _ in range(40):
            st = random_physical_state(rng, 1)
            f = fidelity_vs_coherent(st, random_amplitude(rng))
            assert 0.0 < f <= 1.0
        # unity requires vacuum covariance and matched mean; anything else is below
        st = GaussianState(1, np.zeros(2), 0.6 * np.eye(2))
        assert fidelity_vs_coherent(st, ComplexAmplitude(0.0, 0.0)) < 1.0


class TestSymplecticForm:
    def test_shared_and_read_only(self):
        omega = symplectic_form(3)
        with pytest.raises(ValueError):
            omega[0, 1] = 9.0
        np.testing.assert_array_equal(symplectic_form(3), omega)
        np.testing.assert_array_equal(omega, np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]]))


class TestFidelityClosedForm:
    @staticmethod
    def reference(state, amp):
        sigma = state.cov + 0.5 * np.eye(2)
        d = state.mean - amp.as_mean()
        return math.exp(-0.5 * d @ np.linalg.solve(sigma, d)) / math.sqrt(np.linalg.det(sigma))

    def test_matches_solve_reference(self):
        """Thermal scale up to 1e6 with squeezing r <= 1/2 and a mean mismatch
        of order sqrt(scale). Both evaluations lose digits to the 2x2
        determinant as the squeezing grows, so r is kept where that
        conditioning leaves them 1e-13 apart."""
        rng = np.random.default_rng(1312)
        for _ in range(200):
            nu = 10.0 ** rng.uniform(0.0, 6.0)
            r = rng.uniform(0.0, 0.5)
            theta = rng.uniform(0.0, math.pi)
            c, s = math.cos(theta), math.sin(theta)
            rot = np.array([[c, -s], [s, c]])
            cov = 0.5 * nu * rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) @ rot.T
            amp = random_amplitude(rng)
            st = GaussianState(1, amp.as_mean() + math.sqrt(nu) * rng.normal(0.0, 1.0, 2),
                               (cov + cov.T) / 2.0)
            assert physicality(st.cov)
            want = self.reference(st, amp)
            assert fidelity_vs_coherent(st, amp) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("cov", [[[-0.5, 0.0], [0.0, 1.0]], [[0.5, 1.0], [1.0, 0.5]],
                                     [[-1.0, 0.0], [0.0, -1.0]]])
    def test_non_positive_sigma_rejected(self, cov):
        # cov + I/2 has det <= 0 in the first two cases and is negative
        # definite in the third
        with pytest.raises(InvalidInputError):
            fidelity_vs_coherent(GaussianState(1, np.zeros(2), np.array(cov)), ZERO)


class TestInvariants:
    def test_physicality_preserved_by_operations(self, rng):
        """Symplectic ops, displacement, partial trace and conditioning all
        map physical states to physical states."""
        for _ in range(15):
            st = random_physical_state(rng, 3)
            assert physicality(st.cov)
            st = beam_splitter_50_50(st, 0, 2)
            assert physicality(st.cov)
            st = displace(st, 1, random_amplitude(rng))
            assert physicality(st.cov)
            st = homodyne_update(st, 2, "x", rng.normal())
            assert physicality(st.cov)
            st = heterodyne_update(st, 1, random_amplitude(rng))
            assert physicality(st.cov)

    def test_displacement_covariance_of_fidelity(self, rng):
        """Displacing state and target by the same amount keeps the overlap."""
        for _ in range(10):
            st = random_physical_state(rng, 1)
            amp = random_amplitude(rng)
            shift = random_amplitude(rng)
            moved = displace(st, 0, shift)
            target = ComplexAmplitude(amp.re + shift.re, amp.im + shift.im)
            assert fidelity_vs_coherent(moved, target) == pytest.approx(
                fidelity_vs_coherent(st, amp), abs=1e-12
            )

    def test_apply_symplectic_rejects_non_symplectic(self):
        with pytest.raises(InvalidInputError):
            apply_symplectic(vacuum(1), 2.0 * np.eye(2))
        with pytest.raises(InvalidInputError):
            apply_symplectic(vacuum(2), np.eye(2))
