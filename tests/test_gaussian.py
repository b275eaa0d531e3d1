import json
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import telegame
from telegame import (
    ChannelParams,
    ComplexAmplitude,
    GaussianState,
    InvalidInputError,
    McConfig,
    TelegameError,
    ZERO_AMPLITUDE,
    apply_symplectic,
    beam_splitter_50_50,
    build_cm,
    displace,
    estimate_fidelities,
    exchange_symmetry_check,
    f_ab_coop,
    fidelity_vs_coherent,
    find_threshold,
    heterodyne_outcome_distribution,
    heterodyne_update,
    homodyne_update,
    channel_params,
    kappa,
    make_coherent,
    modified_shift,
    partial_trace,
    physicality,
    run_coop_pipeline,
    run_noncoop_pipeline,
    symplectic_form,
    tensor,
    vacuum,
)
from telegame.gaussian import beam_splitter_matrix
from telegame.protocols import coop_symplectic

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

    @pytest.mark.parametrize("re,im", [(True, 0.0), (0.0, False)])
    def test_bool_rejected(self, re, im):
        with pytest.raises(InvalidInputError):
            ComplexAmplitude(re, im)

    def test_any_finite_real_accepted_as_float(self):
        amp = ComplexAmplitude(np.float32(0.5), Fraction(1, 4))
        assert (amp.re, amp.im) == (0.5, 0.25)
        assert type(amp.re) is float and type(amp.im) is float


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

    @pytest.mark.parametrize("mean,cov", [(np.zeros(2), 0.5j * np.eye(2)), ([0.3j, 0.0], 0.5 * np.eye(2))])
    def test_complex_input_rejected(self, mean, cov):
        """A float cast would keep only the real part, turning 0.5j I into a
        zero covariance; complex input must raise the typed error instead."""
        with pytest.raises(InvalidInputError, match="real"):
            GaussianState(1, mean, cov)

    def test_small_integer_dtypes_are_read_as_floats(self):
        """Symmetrizing in int8 would wrap 100 + 100 to -56."""
        cov = np.array([[100, 0], [0, 100]], dtype=np.int8)
        st = GaussianState(1, np.zeros(2, dtype=np.uint8), cov)
        assert st.cov.dtype == float and st.mean.dtype == float
        np.testing.assert_array_equal(st.cov, 100.0 * np.eye(2))

    def test_symmetrizing_keeps_entries_above_half_float_max(self):
        """Halving before adding: cov + cov.T would overflow to inf."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = GaussianState(1, np.zeros(2), 1e308 * np.eye(2))
            assert physicality(st.cov)
        np.testing.assert_array_equal(st.cov, 1e308 * np.eye(2))


# Each input is refused at the package's boundary by one of its rules: the
# real-array check (arrays), require_real (real scalars), require_int (mode
# counts), or the real-number test of alpha, which keeps DomainError for
# real values outside the channel's domain.
INVALID_INPUTS = {
    "symplectic-complex": (lambda: apply_symplectic(vacuum(1), [[1, 0.5j], [0, 1]]), "symplectic matrix must be real"),
    "symplectic-nan": (lambda: apply_symplectic(vacuum(1), [[math.nan, 0], [0, 1]]), "symplectic matrix contains non-finite"),
    "state-float-modes": (lambda: GaussianState(1.0, np.zeros(2), 0.5 * np.eye(2)), "modes"),
    "state-bool-modes": (lambda: GaussianState(True, np.zeros(2), 0.5 * np.eye(2)), "modes"),
    "state-string-mean": (lambda: GaussianState(1, ["a", "b"], 0.5 * np.eye(2)), "mean vector must be real"),
    "amplitude-string": (lambda: ComplexAmplitude("a", 0), "amplitude"),
    "amplitude-complex": (lambda: ComplexAmplitude(1j, 0), "amplitude"),
    "amplitude-beyond-float-range": (lambda: ComplexAmplitude(0, 10**400), "amplitude"),
    "make-coherent-tuple": (lambda: make_coherent((0.7, -0.1)), "amplitude must be a ComplexAmplitude"),
    "displace-none": (lambda: displace(vacuum(1), 0, None), "amplitude must be a ComplexAmplitude"),
    "heterodyne-tuple-outcome": (lambda: heterodyne_update(vacuum(2), 0, (0.0, 0.0)), "heterodyne outcome"),
    "fidelity-none-amplitude": (lambda: fidelity_vs_coherent(vacuum(1), None), "amplitude must be a ComplexAmplitude"),
    "modified-shift-tuple-eta": (lambda: modified_shift((0, 0), ZERO, channel_params(2.0)), "eta"),
    "modified-shift-none-mu": (lambda: modified_shift(ZERO, None, channel_params(2.0)), "mu"),
    "noncoop-pipeline-tuple-input": (lambda: run_noncoop_pipeline(2.0, (0.7, -0.1), ZERO), "amplitude"),
    "coop-pipeline-none-input": (lambda: run_coop_pipeline(2.0, None, ZERO, ZERO), "amplitude"),
    "homodyne-string-outcome": (lambda: homodyne_update(vacuum(2), 0, "x", "a"), "homodyne outcome"),
    "symplectic-form-fractional": (lambda: symplectic_form(1.5), "n_modes"),
    "symplectic-form-negative": (lambda: symplectic_form(-1), "n_modes"),
    "symplectic-form-bool": (lambda: symplectic_form(True), "n_modes"),
    "vacuum-fractional": (lambda: vacuum(1.5), "n_modes"),
    "beam-splitter-fractional-modes": (lambda: beam_splitter_matrix(1.5, 0, 1), "n_modes"),
    "physicality-non-numeric": (lambda: physicality([["a", "b"], ["c", "d"]]), "covariance must be real"),
    # halving first: cov - cov.T would overflow to inf with a warning
    "state-asymmetry-beyond-float-range": (
        lambda: GaussianState(1, np.zeros(2), [[1, 1e308], [-1e308, 1]]), "asymmetry inf exceeds"
    ),
    "state-ragged-mean": (lambda: GaussianState(1, [0, [1, 2]], 0.5 * np.eye(2)), "mean vector must be a rectangular"),
    "physicality-ragged": (lambda: physicality([[1, 0], [0]]), "covariance must be a rectangular"),
    "partial-trace-int-keep": (lambda: partial_trace(vacuum(2), 5), "keep"),
    "partial-trace-unhashable-keep": (lambda: partial_trace(vacuum(2), [[0]]), "mode index"),
    "threshold-string-tol": (lambda: find_threshold("a"), "tol"),
    "threshold-bool-tol": (lambda: find_threshold(True), "tol"),
    "alpha-numeric-string": (lambda: kappa("2.0"), "alpha must be a real number"),
    "alpha-bool": (lambda: kappa(True), "alpha must be a real number"),
    "alpha-string-closed-form": (lambda: f_ab_coop("2"), "alpha must be a real number"),
    "alpha-string-pipeline": (
        lambda: run_coop_pipeline("2", ZERO_AMPLITUDE, ZERO_AMPLITUDE, ZERO_AMPLITUDE), "alpha must be a real number"
    ),
    "alpha-none-estimator": (
        lambda: estimate_fidelities(McConfig(shots=10, seed=1, alpha=None)), "alpha must be a real number"
    ),
    "partial-trace-none-state": (lambda: partial_trace(None, [0]), "state must be a GaussianState"),
    "tensor-none": (lambda: tensor(vacuum(1), None), "s2 must be a GaussianState"),
    "apply-symplectic-none-state": (lambda: apply_symplectic(None, np.eye(2)), "state must be a GaussianState"),
    "beam-splitter-none-state": (lambda: beam_splitter_50_50(None, 0, 1), "state must be a GaussianState"),
    "displace-none-state": (lambda: displace(None, 0, ZERO), "state must be a GaussianState"),
    "homodyne-none-state": (lambda: homodyne_update(None, 0, "x", 0.0), "state must be a GaussianState"),
    "heterodyne-none-state": (lambda: heterodyne_update(None, 0, ZERO), "state must be a GaussianState"),
    "heterodyne-law-none-state": (
        lambda: heterodyne_outcome_distribution(None, 0), "state must be a GaussianState"
    ),
    "fidelity-none-state": (lambda: fidelity_vs_coherent(None, ZERO), "state must be a GaussianState"),
    "build-cm-none": (lambda: build_cm(None), "params must be a ChannelParams"),
    "build-cm-tuple": (lambda: build_cm((2.0, 1.5, 1.0, 1.0)), "params must be a ChannelParams"),
    "exchange-check-none": (lambda: exchange_symmetry_check(None), "state must be a GaussianState"),
    "modified-shift-none-params": (lambda: modified_shift(ZERO, ZERO, None), "params must be a ChannelParams"),
    "coop-symplectic-none-params": (lambda: coop_symplectic(None), "params must be a ChannelParams"),
    "estimate-none-config": (lambda: estimate_fidelities(None), "config must be a McConfig"),
    # numpy would raise ValueError or OverflowError, or try to allocate 320 GB
    "vacuum-huge-modes": (lambda: vacuum(10**30), "n_modes must be an integer in \\[1, 1001\\)"),
    "vacuum-mid-size-modes": (lambda: vacuum(10**5), "n_modes"),
    "symplectic-form-huge-modes": (lambda: symplectic_form(10**30), "n_modes"),
    "beam-splitter-huge-modes": (lambda: beam_splitter_matrix(10**30, 0, 1), "n_modes"),
    "state-huge-modes": (lambda: GaussianState(1001, np.zeros(2002), 0.5 * np.eye(2002)), "modes"),
    "physicality-beyond-mode-bound": (lambda: physicality(0.5 * np.eye(2002)), "modes"),
}


@pytest.mark.parametrize("call,message", INVALID_INPUTS.values(), ids=INVALID_INPUTS.keys())
def test_invalid_input_raises_typed_error_without_warning(call, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidInputError, match=message):
            call()
    assert not caught, [str(w.message) for w in caught]


# Every real-scalar argument converts through errors.real_float, so a value
# that is not a real number reads the same way at each entry point.
REAL_SCALARS = {
    "alpha": lambda v: kappa(v),
    "amplitude re": lambda v: ComplexAmplitude(v, 0.0),
    "amplitude im": lambda v: ComplexAmplitude(0.0, v),
    **{
        f"ChannelParams.{field}": (lambda v, i=i: ChannelParams(*[v if j == i else 1.0 for j in range(4)]))
        for i, field in enumerate(("alpha", "beta", "gamma", "delta"))
    },
    "homodyne outcome": lambda v: homodyne_update(vacuum(2), 0, "x", v),
    "tol": lambda v: find_threshold(v),
}


@pytest.mark.parametrize("name,call", REAL_SCALARS.items(), ids=REAL_SCALARS.keys())
def test_non_real_scalar_reads_the_same_everywhere(name, call):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(name)} must be a real number, got '2'$"):
        call("2")


def test_largest_mode_count_is_served():
    assert vacuum(1000).modes == 1000
    assert physicality(0.5 * np.eye(2000))


def _estimate_from_fields(*fields):
    """A McConfig stores its fields; estimate_fidelities checks them when it reads the config."""
    return estimate_fidelities(McConfig(*fields))


# Valid positional arguments of every callable in telegame.__all__, and the
# positions that take any value: an exception or a result record stores what
# it is given, and the pipelines do not read their announced records.
CONTRACT = {
    "BracketError": (("message",), {0}),
    "ChannelParams": ((2.0, 1.5, 1.0, 1.0), set()),
    "ComplexAmplitude": ((0.7, -0.1), set()),
    "DomainError": (("message",), {0}),
    "GaussianState": ((1, np.zeros(2), 0.5 * np.eye(2)), set()),
    "InvalidInputError": (("message",), {0}),
    "McConfig": ((10, 1, 2.0), set()),
    "McEstimate": ((0.6, 0.7, 0.4, 0.0, 0.0, 0.01, 10), set(range(7))),
    "StrategyOutcome": ((0.6, 0.6, np.zeros(2)), {0, 1, 2}),
    "SweepRow": ((2.0, 0.6, 0.7, 0.4, 0.55), set(range(5))),
    "TelegameError": (("message",), {0}),
    "ThresholdResult": ((5.76, 0.5, 10, 0.0, 0.01), set(range(5))),
    "apply_symplectic": ((vacuum(1), np.eye(2)), set()),
    "beam_splitter_50_50": ((vacuum(2), 0, 1), set()),
    "build_cm": ((channel_params(2.0),), set()),
    "channel_params": ((2.0,), set()),
    "displace": ((vacuum(1), 0, ZERO), set()),
    "estimate_fidelities": ((McConfig(10, 1, 2.0), 1), set()),
    "exchange_symmetry_check": ((build_cm(channel_params(2.0)),), set()),
    "f_ab_coop": ((2.0,), set()),
    "f_ac_coop": ((2.0,), set()),
    "f_coop_avg": ((2.0,), set()),
    "f_noncoop": ((2.0,), set()),
    "fidelity_vs_coherent": ((vacuum(1), ZERO), set()),
    "find_classical_crossings": ((1e-12,), set()),
    "find_threshold": ((1e-9,), set()),
    "heterodyne_outcome_distribution": ((vacuum(2), 0), set()),
    "heterodyne_update": ((vacuum(2), 0, ZERO), set()),
    "homodyne_update": ((vacuum(2), 0, "x", 0.0), set()),
    "kappa": ((2.0,), set()),
    "make_coherent": ((ZERO,), set()),
    "modified_shift": ((ZERO, ZERO, channel_params(2.0)), set()),
    "partial_trace": ((vacuum(2), [0]), set()),
    "physicality": ((0.5 * np.eye(2),), set()),
    "run_coop_pipeline": ((2.0, ZERO, ZERO, ZERO), {2, 3}),
    "run_noncoop_pipeline": ((2.0, ZERO, ZERO), {2}),
    "sweep": ((0.5, 1.0, 3), set()),
    "symplectic_form": ((1,), set()),
    "tensor": ((vacuum(1), vacuum(1)), set()),
    "vacuum": ((1,), set()),
}
BAD_ARGUMENTS = {
    "bool": True,
    "str": "a",
    "None": None,
    "nan": math.nan,
    "inf": math.inf,
    "ragged": [[1.0, 0.0], [0.0]],
    "huge": 10**400,
    "wrong-type": object(),
}


def test_contract_covers_every_public_name():
    callables = {name for name in telegame.__all__ if callable(getattr(telegame, name))}
    assert set(CONTRACT) == callables
    assert set(telegame.__all__) - callables == {"ZERO_AMPLITUDE"}


@pytest.mark.parametrize("name", CONTRACT)
def test_public_name_refuses_bad_arguments_with_typed_error(name):
    """Each bad value at each position raises a TelegameError under warnings
    as errors, or returns where the position takes any value."""
    call = _estimate_from_fields if name == "McConfig" else getattr(telegame, name)
    valid, takes_any = CONTRACT[name]
    leaks = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(*valid)
        for pos in range(len(valid)):
            for label, bad in BAD_ARGUMENTS.items():
                args = list(valid)
                args[pos] = bad
                try:
                    call(*args)
                except TelegameError:
                    continue
                except Exception as exc:
                    leaks.append(f"argument {pos} {label}: {type(exc).__name__}: {exc}")
                else:
                    if pos not in takes_any:
                        leaks.append(f"argument {pos} {label}: returned")
    assert not leaks, leaks


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
        np.testing.assert_array_equal(swapped.mean, np.roll(st.mean, 2))
        np.testing.assert_array_equal(swapped.cov, np.roll(st.cov, 2, axis=(0, 1)))

    def test_joint_mode_count_is_capped_before_allocating(self):
        """Two states within the bound can exceed it together; unchecked,
        tensor would build the 2002 x 2002 covariance first (32 MB)."""
        s1, s2 = vacuum(1000), vacuum(1)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="modes"):
                tensor(s1, s2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024**2

    def test_keep_errors(self, rng):
        st = random_physical_state(rng, 2)
        with pytest.raises(InvalidInputError):
            partial_trace(st, [])
        with pytest.raises(InvalidInputError):
            partial_trace(st, [0, 0])
        with pytest.raises(InvalidInputError):
            partial_trace(st, [2])

    def test_numpy_integer_mode_count_is_stored_as_int(self):
        assert type(GaussianState(np.int64(1), np.zeros(2), 0.5 * np.eye(2)).modes) is int

    def test_repeated_mode_message_reads_plain_ints(self):
        st = vacuum(2)
        with pytest.raises(InvalidInputError, match=r"^keep list has repeated modes: \[0, 0\]$"):
            partial_trace(st, [np.int64(0), np.int64(0)])


class TestBeamSplitter:
    def test_vacuum_invariant(self):
        st = beam_splitter_50_50(vacuum(2), 0, 1)
        np.testing.assert_allclose(st.cov, 0.5 * np.eye(4), atol=1e-15)

    def test_equal_coherent_inputs(self):
        # oracle: apply the 4x4 transformation to (sqrt2, 0, sqrt2, 0) by hand
        amp = ComplexAmplitude(1.0, 0.0)
        st = beam_splitter_50_50(tensor(make_coherent(amp), make_coherent(amp)), 0, 1)
        np.testing.assert_allclose(st.mean, [0.0, 0.0, 2.0, 0.0], atol=1e-15)

    def test_reverse_order_inverts(self, rng):
        st = random_physical_state(rng, 3)
        back = beam_splitter_50_50(beam_splitter_50_50(st, 0, 2), 2, 0)
        np.testing.assert_allclose(back.cov, st.cov, atol=1e-12)
        np.testing.assert_allclose(back.mean, st.mean, atol=1e-12)

    @pytest.mark.parametrize("i,j", [(1.5, 0), (0, True), (0, 3)])
    def test_mode_indices_must_be_integers_in_range(self, i, j):
        with pytest.raises(InvalidInputError):
            beam_splitter_matrix(3, i, j)

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

    def test_returns_a_python_bool_where_the_relative_slack_wins(self):
        assert physicality(1e6 * np.eye(2)) is True
        assert json.dumps(physicality(1e6 * np.eye(2))) == "true"

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

    @pytest.mark.parametrize("mode", [True, 1.0, -1, 2])
    def test_mode_must_be_an_integer_in_range(self, rng, mode):
        """True is not mode 1, and 1.0 is not an index."""
        with pytest.raises(InvalidInputError):
            homodyne_update(random_physical_state(rng, 2), mode, "x", 0.3)

    def test_numpy_integer_mode_accepted(self, rng):
        st = random_physical_state(rng, 3)
        want = homodyne_update(st, 1, "x", 0.3)
        got = homodyne_update(st, np.int64(1), "x", 0.3)
        np.testing.assert_array_equal(got.cov, want.cov)
        np.testing.assert_array_equal(got.mean, want.mean)

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

    @pytest.mark.parametrize("modes", [2, 3, 4])
    def test_equals_beam_splitter_and_two_homodynes(self, rng, modes):
        """Heterodyne is a balanced beam splitter with a vacuum ancilla, then
        homodyne p on the ancilla's port and homodyne x on the mode's port;
        the outcome amplitude is the pair of readings (x_r, p_r)."""
        for _ in range(4):
            st = random_physical_state(rng, modes)
            x_r, p_r = rng.normal(0.0, 2.0, 2)
            for mode in range(modes):
                split = beam_splitter_50_50(tensor(st, vacuum(1)), mode, modes)
                want = homodyne_update(homodyne_update(split, modes, "p", p_r), mode, "x", x_r)
                got = heterodyne_update(st, mode, ComplexAmplitude(x_r, p_r))
                np.testing.assert_allclose(got.cov, want.cov, rtol=0.0, atol=1e-13)
                np.testing.assert_allclose(got.mean, want.mean, rtol=0.0, atol=1e-13)

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

    @pytest.mark.parametrize("cov", [np.zeros((2, 2)), 0.1 * np.eye(2), np.diag([0.5, 0.2]),
                                     0.5 * (1.0 - 1e-6) * np.eye(2)])
    def test_below_uncertainty_bound_rejected(self, cov):
        """Below det = 1/4 the overlap formula returns values up to 2; such a
        covariance is no state, so it must raise the typed error."""
        with pytest.raises(InvalidInputError, match="uncertainty"):
            fidelity_vs_coherent(GaussianState(1, np.zeros(2), cov), ZERO)

    def test_physical_squeezed_states_accepted(self):
        """Squeezed thermal states, r <= 8 and thermal scale up to 1e6, pure
        ones (scale 1) on the boundary included: physicality accepts every
        one, and so must the scalar bound."""
        rng = np.random.default_rng(5)
        for _ in range(2000):
            nu = 10.0 ** rng.uniform(0.0, 6.0) if rng.random() < 0.5 else 1.0
            r = rng.uniform(0.0, 8.0)
            theta = rng.uniform(0.0, math.pi)
            c, s = math.cos(theta), math.sin(theta)
            rot = np.array([[c, -s], [s, c]])
            cov = 0.5 * nu * rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) @ rot.T
            st = GaussianState(1, np.zeros(2), (cov + cov.T) / 2.0)
            assert physicality(st.cov)
            assert 0.0 < fidelity_vs_coherent(st, ZERO) <= 1.0

    def test_range_and_maximum(self, rng):
        for _ in range(40):
            st = random_physical_state(rng, 1)
            f = fidelity_vs_coherent(st, random_amplitude(rng))
            assert 0.0 < f <= 1.0
        # unity requires vacuum covariance and matched mean; anything else is below
        st = GaussianState(1, np.zeros(2), 0.6 * np.eye(2))
        assert fidelity_vs_coherent(st, ComplexAmplitude(0.0, 0.0)) < 1.0


class TestSymplecticForm:
    def test_each_call_is_fresh_and_writable(self):
        omega = symplectic_form(3)
        omega[0, 1] = 9.0
        assert symplectic_form(3) is not omega
        np.testing.assert_array_equal(symplectic_form(3), np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]]))


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

    @pytest.mark.parametrize("state, amp, want", [
        # the mismatch 8.5e307 + 1.4e308 overflows, then 0 * inf in the cross term
        (make_coherent(ComplexAmplitude(6e307, 0.0)), ComplexAmplitude(-1e308, 0.0), 0.0),
        # the mismatch squared overflows, then inf - inf in the quadratic form
        (GaussianState(1, [1e200, 1e200], [[1.0, 0.1], [0.1, 1.0]]), ZERO, 0.0),
        # d x^2 overflows although the form, x^2 / (1e8 + 1/2), is about 1.96
        (GaussianState(1, [1.4e4, 0.0], [[1e8, 0.0], [0.0, 1e300]]), ZERO,
         math.exp(-0.5 * 1.4e4**2 / (1e8 + 0.5)) / math.sqrt((1e8 + 0.5) * 1e300)),
    ], ids=["mismatch", "mismatch-squared", "form-term"])
    def test_overflowing_mismatch_gives_the_accurate_value(self, state, amp, want):
        """A mismatch whose form overflows is evaluated at unit size: the
        overlap is accurate, 0.0 where it underflows, never NaN."""
        assert fidelity_vs_coherent(state, amp) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("cov, mean, want", [
        # det(sigma + I/2) overflows; the exact overlap is 1 / (1e200 + 1/2)
        ([[1e200, 0.0], [0.0, 1e200]], [0.0, 0.0], 1e-200),
        # a * d and b * c overflow, so their difference was NaN (mpmath, 50 digits)
        ([[1e200, 1e199], [1e199, 1e200]], [0.0, 0.0], 1.0050378152592121e-200),
        # the form x^2 / (1e200 + 1/2) is about 1 at the scaled determinant
        ([[1e200, 0.0], [0.0, 1e200]], [1e100, 0.0], math.exp(-0.5) * 1e-200),
    ], ids=["diagonal", "correlated", "mismatch"])
    def test_overflowing_determinant_gives_the_accurate_value(self, cov, mean, want):
        """Where the products of covariance entries overflow, the 2x2 forms
        are evaluated at a power-of-two scale: the overlap is accurate, not
        0.0 and not a refusal of a physical state."""
        assert fidelity_vs_coherent(GaussianState(1, mean, cov), ZERO) == pytest.approx(want, rel=1e-15, abs=0.0)

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
