import math

import numpy as np
import pytest

from telegame import (
    DomainError,
    GaussianState,
    InvalidInputError,
    build_cm,
    channel_params,
    exchange_symmetry_check,
    kappa,
    physicality,
    reduced_channel,
    symplectic_form,
)

GRID = np.linspace(0.5, 50.0, 500)


class TestChannelParams:
    def test_reference_point(self):
        p = channel_params(2.0)
        assert (p.beta, p.gamma, p.delta) == (1.5, 1.0, 1.5)

    def test_boundary(self):
        p = channel_params(0.5)
        assert (p.beta, p.gamma, p.delta) == (0.75, 0.25, 0.0)

    @pytest.mark.parametrize("alpha", [0.4, 0.0, -3.0, float("nan")])
    def test_domain_rejected(self, alpha):
        with pytest.raises(DomainError):
            channel_params(alpha)

    @pytest.mark.parametrize("alpha", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_names_the_reason(self, alpha):
        with pytest.raises(DomainError, match="finite"):
            channel_params(alpha)


class TestKappa:
    def test_known_values(self):
        assert kappa(2.0) == pytest.approx(1.5, abs=1e-14)
        assert kappa(0.5) == pytest.approx(2.25, abs=1e-14)
        # algebraic root of kappa = 2: alpha^2 - 10 alpha + 5 = 0
        assert kappa(5.0 + 2.0 * math.sqrt(5.0)) == pytest.approx(2.0, abs=1e-12)

    def test_unique_minimum_at_two(self):
        values = [kappa(a) for a in GRID]
        best = GRID[int(np.argmin(values))]
        step = GRID[1] - GRID[0]
        assert abs(best - 2.0) <= step
        assert min(values) == pytest.approx(1.5, abs=1e-4)
        # decreasing then increasing around the minimum
        k_left, k_min, k_right = kappa(1.0), kappa(2.0), kappa(10.0)
        assert k_left > k_min < k_right

    def test_domain(self):
        with pytest.raises(DomainError):
            kappa(0.49)


class TestBuildCm:
    def test_block_entries(self):
        st = build_cm(channel_params(2.0))
        assert st.cov[0, 2] == pytest.approx(1.5)    # x_a, x_b carries +delta
        assert st.cov[1, 3] == pytest.approx(-1.5)   # p_a, p_b carries -delta
        assert st.cov[2, 4] == pytest.approx(1.0)    # x_b, x_c carries gamma
        np.testing.assert_array_equal(st.mean, np.zeros(6))

    def test_boundary_decouples_sender(self):
        st = build_cm(channel_params(0.5))
        np.testing.assert_array_equal(st.cov[0:2, 2:6], np.zeros((2, 4)))

    def test_physical_on_grid(self):
        for alpha in GRID:
            assert physicality(build_cm(channel_params(alpha)).cov)

    def test_eigen_oracle_at_two(self):
        # independent check of the uncertainty test at one point
        st = build_cm(channel_params(2.0))
        herm = st.cov - 0.5j * symplectic_form(3)
        assert np.linalg.eigvalsh(herm).min() >= -1e-9


class TestExchangeSymmetry:
    def test_family_is_symmetric(self):
        for alpha in GRID[::25]:
            assert exchange_symmetry_check(build_cm(channel_params(alpha)))

    def test_perturbed_entry_detected(self):
        st = build_cm(channel_params(2.0))
        cov = st.cov.copy()
        cov[2, 2] += 1e-3
        assert not exchange_symmetry_check(GaussianState(3, st.mean, cov))

    def test_wrong_mode_count(self):
        with pytest.raises(InvalidInputError):
            exchange_symmetry_check(GaussianState(2, np.zeros(4), np.eye(4)))


class TestReducedChannel:
    def test_receiver_choice_irrelevant(self):
        st = build_cm(channel_params(3.7))
        via_b = reduced_channel(st, "b")
        via_c = reduced_channel(st, "c")
        np.testing.assert_array_equal(via_b.cov, via_c.cov)
        np.testing.assert_array_equal(via_b.mean, via_c.mean)

    def test_block_content(self):
        p = channel_params(2.0)
        red = reduced_channel(build_cm(p), "b")
        Z = np.diag([1.0, -1.0])
        expected = np.block([
            [p.alpha * np.eye(2), p.delta * Z],
            [p.delta * Z, p.beta * np.eye(2)],
        ])
        np.testing.assert_allclose(red.cov, expected, atol=1e-15)

    def test_reduction_is_physical(self):
        for alpha in GRID[::25]:
            st = build_cm(channel_params(alpha))
            assert physicality(reduced_channel(st, "b").cov)

    def test_receiver_pair_block_is_gamma(self):
        # tracing out the sender leaves the receivers coupled through gamma I
        from telegame import partial_trace

        p = channel_params(4.0)
        pair = partial_trace(build_cm(p), [1, 2])
        np.testing.assert_allclose(pair.cov[0:2, 2:4], p.gamma * np.eye(2), atol=1e-15)

    def test_bad_receiver(self):
        st = build_cm(channel_params(1.0))
        with pytest.raises(InvalidInputError):
            reduced_channel(st, "a")
