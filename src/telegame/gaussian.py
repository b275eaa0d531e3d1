"""Multimode Gaussian states in phase space.

Conventions used throughout the package:

* quadrature ordering is interleaved, (x1, p1, x2, p2, ..., xn, pn);
* the vacuum has quadrature variance 1/2, i.e. a coherent mode carries the
  covariance block (1/2) I;
* a complex amplitude phi maps to the mean vector sqrt(2) * (Re phi, Im phi),
  so heterodyne outcome arithmetic works at unit gain.

All states are immutable values and every operation is a pure function, so
everything here is safe to share between threads.

Validation happens once, at the public boundary. ``GaussianState(...)``
checks what it is given: an integer mode count, real finite arrays of the
right shapes, and a covariance at most 1e-9 from symmetric, which it then
symmetrizes. A state the toolbox builds from valid states is trusted where
the arithmetic is exact (vacuum, coherent states, tensor products,
displacements, partial traces, the channel state): its arrays are frozen,
and only what can overflow, a scaled or shifted mean, is tested for finite
entries. Results that round, S cov S^T and the conditioning updates, pass
the public constructor's checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, require_int, require_real

# Tolerances fixed by contract: covariance constructors reject asymmetry
# above _SYM_TOL (after symmetrizing), the uncertainty check accepts
# eigenvalues down to -_slack(dim, max|cov|), above their rounding error of a
# few eps * max|cov|, so boundary (pure) states pass at every scale.
_SYM_TOL = 1e-9
_PHYS_TOL = 1e-9
_PHYS_REL = 8.0 * math.ulp(1.0)  # a Python float, so comparisons give a bool

_SQRT2 = math.sqrt(2.0)
# Every mode count is at most this: a 2n x 2n float matrix then holds 32 MB,
# physicality's complex one 64 MB. The package's circuits use 5 modes.
_MAX_MODES = 1000


def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2n x 2n form Omega = direct sum of [[0, 1], [-1, 0]] blocks, a new array per call."""
    require_int("n_modes", n_modes, 1, _MAX_MODES + 1)
    upper = np.diag(np.resize([1.0, 0.0], 2 * n_modes - 1), 1)
    return upper - upper.T


@dataclass(frozen=True)
class ComplexAmplitude:
    """A coherent amplitude or measurement result as a real pair."""

    re: float
    im: float

    def __post_init__(self):
        object.__setattr__(self, "re", require_real("amplitude re", self.re))
        object.__setattr__(self, "im", require_real("amplitude im", self.im))

    def as_mean(self) -> np.ndarray:
        """Quadrature mean of the coherent state with this amplitude."""
        return _SQRT2 * np.array([self.re, self.im])

    @staticmethod
    def from_mean(mean: np.ndarray) -> "ComplexAmplitude":
        """Inverse of :meth:`as_mean` (divide by sqrt(2))."""
        return ComplexAmplitude(mean[0] / _SQRT2, mean[1] / _SQRT2)


ZERO_AMPLITUDE = ComplexAmplitude(0.0, 0.0)


def _instance(value, cls: type, name: str):
    """`value` itself; InvalidInputError unless it is an instance of `cls`."""
    if not isinstance(value, cls):
        raise InvalidInputError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def _array(values, name: str) -> np.ndarray:
    try:
        return np.asarray(values)
    except ValueError:  # numpy refuses ragged nesting
        raise InvalidInputError(f"{name} must be a rectangular array, not ragged") from None


def _real_array(values, shape: tuple, name: str) -> np.ndarray:
    """`values` as a float array of exactly `shape` with finite entries; complex,
    string, object and bool dtypes are refused before any float cast."""
    arr = _array(values, name)
    if arr.dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} must be real, got dtype {arr.dtype}")
    if arr.shape != shape:
        raise InvalidInputError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr.astype(float, copy=False)


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of n bosonic modes."""

    modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        modes = require_int("modes", self.modes, 1, _MAX_MODES + 1)
        dim = 2 * modes
        mean = _real_array(self.mean, (dim,), "mean vector").copy()
        cov = _real_array(self.cov, (dim, dim), "covariance")
        half = 0.5 * cov  # halving first: neither the difference nor the sum overflows
        asym = 2.0 * float(np.abs(half - half.T).max())  # exact except on subnormals; inf without a warning
        if asym > _SYM_TOL:
            raise InvalidInputError(f"covariance asymmetry {asym:.3e} exceeds tolerance {_SYM_TOL:.0e}")
        cov = half + half.T
        mean.flags.writeable = cov.flags.writeable = False
        self.__dict__.update(modes=modes, mean=mean, cov=cov)

    @classmethod
    def _trusted(cls, modes: int, mean: np.ndarray, cov: np.ndarray) -> "GaussianState":
        """A state from new finite float arrays, cov exactly symmetric: frozen in place, not checked."""
        state = object.__new__(cls)
        mean.flags.writeable = cov.flags.writeable = False
        state.__dict__.update(modes=modes, mean=mean, cov=cov)
        return state


def _mode_slices(modes) -> np.ndarray:
    """Quadrature indices (2m, 2m + 1) of each listed mode, in order."""
    return np.array([q for m in modes for q in (2 * m, 2 * m + 1)], dtype=np.intp)


def vacuum(n_modes: int = 1) -> GaussianState:
    """n-mode vacuum: zero mean, covariance (1/2) I."""
    require_int("n_modes", n_modes, 1, _MAX_MODES + 1)
    return GaussianState._trusted(n_modes, np.zeros(2 * n_modes), 0.5 * np.eye(2 * n_modes))


def _coherent_mean(amp: ComplexAmplitude) -> np.ndarray:
    """Quadrature mean of the coherent state `amp`, checked finite: sqrt(2) amp can overflow."""
    return _real_array(_instance(amp, ComplexAmplitude, "amplitude").as_mean(), (2,), "mean vector")


def make_coherent(amp: ComplexAmplitude) -> GaussianState:
    """Single-mode coherent state with the given amplitude."""
    return GaussianState._trusted(1, _coherent_mean(amp), 0.5 * np.eye(2))


def tensor(s1: GaussianState, s2: GaussianState) -> GaussianState:
    """Joint state of two subsystems; modes of `s1` come first."""
    _instance(s1, GaussianState, "s1")
    _instance(s2, GaussianState, "s2")
    n = require_int("modes", s1.modes + s2.modes, 1, _MAX_MODES + 1)
    mean = np.concatenate([s1.mean, s2.mean])
    cov = np.zeros((2 * n, 2 * n))
    cov[: 2 * s1.modes, : 2 * s1.modes] = s1.cov
    cov[2 * s1.modes :, 2 * s1.modes :] = s2.cov
    return GaussianState._trusted(n, mean, cov)


def apply_symplectic(state: GaussianState, S: np.ndarray) -> GaussianState:
    """Evolve the state under a symplectic matrix: cov -> S cov S^T, mean -> S mean."""
    return _evolve(state, _checked_symplectic(S, _instance(state, GaussianState, "state").modes))


def _checked_symplectic(S, n_modes: int) -> np.ndarray:
    """S as a float array; InvalidInputError unless it preserves the form of n_modes."""
    S = _real_array(S, (2 * n_modes, 2 * n_modes), "symplectic matrix")
    omega = symplectic_form(n_modes)
    if np.abs(S @ omega @ S.T - omega).max() > _SYM_TOL:
        raise InvalidInputError("matrix does not preserve the symplectic form")
    return S


def _evolve(state: GaussianState, S: np.ndarray) -> GaussianState:
    """:func:`apply_symplectic` for an S checked when built; S cov S^T rounds, so it is checked.
    An entry that overflows reaches the check as inf or nan, which raises the
    typed error without a numpy warning first."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, cov = S @ state.mean, S @ state.cov @ S.T
    return GaussianState(state.modes, mean, cov)


def beam_splitter_matrix(n_modes: int, i: int, j: int) -> np.ndarray:
    """Symplectic of a balanced beam splitter acting on modes i and j.

    Output mode i carries (q_i - q_j)/sqrt(2), mode j carries (q_i + q_j)/sqrt(2)
    for both quadratures.
    """
    require_int("n_modes", n_modes, 2, _MAX_MODES + 1)
    if i == j:
        raise InvalidInputError("beam splitter needs two distinct modes")
    for m in (i, j):
        require_int("mode index", m, 0, n_modes)
    S = np.eye(2 * n_modes)
    s = 1.0 / _SQRT2
    for q in (0, 1):  # same rotation on x and p
        S[2 * i + q, 2 * i + q] = s
        S[2 * i + q, 2 * j + q] = -s
        S[2 * j + q, 2 * i + q] = s
        S[2 * j + q, 2 * j + q] = s
    return S


def beam_splitter_50_50(state: GaussianState, i: int, j: int) -> GaussianState:
    """Mix modes i and j on a balanced beam splitter."""
    return _evolve(state, beam_splitter_matrix(_instance(state, GaussianState, "state").modes, i, j))


def displace(state: GaussianState, mode: int, amp: ComplexAmplitude) -> GaussianState:
    """Shift the mean of one mode by sqrt(2)*(re, im); covariance unchanged."""
    i = require_int("mode index", mode, 0, _instance(state, GaussianState, "state").modes)
    mean = state.mean.copy()
    mean[2 * i : 2 * i + 2] += _instance(amp, ComplexAmplitude, "amplitude").as_mean()
    return GaussianState._trusted(state.modes, _real_array(mean, mean.shape, "mean vector"), state.cov)


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Reduced state on the listed modes, in the order given.

    The one reader of a mode's mean and covariance block. After every check
    on `keep`, a single kept mode is read with basic slices and several with
    index arrays; both copy the same entries, so they agree bit for bit.
    """
    _instance(state, GaussianState, "state")
    try:
        keep = list(keep)
    except TypeError:
        raise InvalidInputError(f"keep must be a sequence of mode indices, got {keep!r}") from None
    if not keep:
        raise InvalidInputError("keep list must be non-empty")
    keep = [require_int("mode index", m, 0, state.modes) for m in keep]
    if len(set(keep)) != len(keep):
        raise InvalidInputError(f"keep list has repeated modes: {keep}")
    if len(keep) == 1:
        q = 2 * keep[0]
        return GaussianState._trusted(1, state.mean[q : q + 2].copy(), state.cov[q : q + 2, q : q + 2].copy())
    idx = _mode_slices(keep)
    return GaussianState._trusted(len(keep), state.mean[idx], state.cov[idx[:, None], idx])


def _slack(dim: int, scale: float) -> float:
    """How far below zero the uncertainty check lets an eigenvalue go."""
    return max(_PHYS_TOL, _PHYS_REL * dim * scale)


def physicality(cov) -> bool:
    """Uncertainty-principle test: cov - (i/2) Omega must be positive semidefinite."""
    cov = _array(cov, "covariance")
    n = max(cov.shape[:1] + (2,)) // 2  # read as a state's cov; n >= 1 names a wrong shape
    cov = GaussianState(n, np.zeros(2 * n), cov).cov
    herm = cov - 0.5j * symplectic_form(n)
    return float(np.linalg.eigvalsh(herm).min()) >= -_slack(2 * n, float(np.abs(cov).max()))


def _condition(state: GaussianState, mode: int, reads) -> GaussianState:
    """Condition on reads (quadrature, added_noise, outcome) of `mode` in turn,
    each a scalar Schur complement, g = cov[:, k] / (cov[k, k] + added_noise),
    of the covariance the earlier reads left; then remove the measured mode."""
    i = require_int("mode index", mode, 0, state.modes)
    mean, cov = state.mean, state.cov
    for quadrature, noise, outcome in reads:
        k = 2 * i + (quadrature == "p")
        var = cov[k, k] + noise
        if not var > 0.0:
            raise InvalidInputError(f"measured block + noise is not positive definite ({quadrature}: {var:.3e})")
        g = cov[:, k] / var
        mean = mean + g * (outcome - mean[k])
        cov = cov - np.outer(g, cov[:, k])
    keep = _mode_slices([m for m in range(state.modes) if m != i])
    return GaussianState(state.modes - 1, mean[keep], cov[keep[:, None], keep])


def homodyne_update(
    state: GaussianState, mode: int, quadrature: str, outcome: float
) -> GaussianState:
    """Conditional state after a homodyne detection of one quadrature.

    The measured mode is removed. In the infinitely-squeezed limit only the
    measured quadrature's variance enters, as a scalar Schur complement; it
    must be positive.
    """
    if _instance(state, GaussianState, "state").modes < 2:
        raise InvalidInputError("homodyne conditioning needs at least two modes")
    if quadrature not in ("x", "p"):
        raise InvalidInputError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    return _condition(state, mode, [(quadrature, 0.0, require_real("homodyne outcome", outcome))])


def heterodyne_update(
    state: GaussianState, mode: int, outcome: ComplexAmplitude
) -> GaussianState:
    """Conditional state after a heterodyne detection of one mode.

    The POVM adds (1/2) I of noise to the measured block B. Reading x and then
    p, each with noise 1/2, conditions by (B + I/2)^{-1}; both read variances
    are positive exactly when B + I/2 is positive definite (Sylvester). For a
    single-mode state there is nothing left to condition; query
    :func:`heterodyne_outcome_distribution` instead.
    """
    if _instance(state, GaussianState, "state").modes < 2:
        raise InvalidInputError(
            "heterodyne on a single-mode state leaves no conditional state; "
            "use heterodyne_outcome_distribution"
        )
    x, p = _instance(outcome, ComplexAmplitude, "heterodyne outcome").as_mean()
    return _condition(state, mode, [("x", 0.5, x), ("p", 0.5, p)])


def heterodyne_outcome_distribution(
    state: GaussianState, mode: int
) -> tuple[ComplexAmplitude, np.ndarray]:
    """Gaussian law of the heterodyne outcome on one mode.

    Returns the mean as an amplitude (mode mean divided by sqrt(2)) and the
    outcome covariance B + (1/2) I in quadrature units.
    """
    reduced = partial_trace(state, [mode])
    return ComplexAmplitude.from_mean(reduced.mean), reduced.cov + 0.5 * np.eye(2)


def fidelity_vs_coherent(state: GaussianState, amp: ComplexAmplitude) -> float:
    """Overlap of a single-mode Gaussian state with the coherent state `amp`.

    F = exp(-(1/2) d^T (sigma + I/2)^{-1} d) / sqrt(det(sigma + I/2)) with
    d the mean mismatch; lies in [0, 1] and is 0.0 only where it underflows.
    The 2x2 inverse and determinant are written out in closed form. sigma
    must obey the single-mode uncertainty bound, sigma[0, 0] > 0 and
    det(sigma) >= 1/4, up to the slack of :func:`physicality` times the trace.
    """
    _instance(amp, ComplexAmplitude, "amplitude")
    if _instance(state, GaussianState, "state").modes != 1:
        raise InvalidInputError(f"fidelity_vs_coherent needs a single-mode state, got {state.modes}")
    a, b, c, d = state.cov.ravel().tolist()
    scale = 1.0
    if not math.isfinite(a * d - b * c):  # overflow: the 2x2 forms below read sigma * scale, a power of two
        scale = math.ldexp(1.0, -math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1])
        a, b, c, d = a * scale, b * scale, c * scale, d * scale
    excess = a * d - b * c - 0.25 * scale * scale
    if excess < 0.0:  # at the bound only rounding is below it; the slack forgives that
        excess += _slack(2, max(abs(a), abs(b), abs(d))) * (a + d)
    if not (a > 0.0 and excess >= 0.0):
        raise InvalidInputError(
            f"covariance breaks the uncertainty bound det >= 1/4 (det {(a * d - b * c) / scale / scale:.3e})")
    a += 0.5 * scale
    d += 0.5 * scale
    det = a * d - b * c
    if not (a > 0.0 and det > 0.0):
        raise InvalidInputError(f"cov + I/2 is not positive definite (det {det / scale / scale:.3e})")
    mx, my = state.mean.tolist()
    x = mx - _SQRT2 * amp.re
    y = my - _SQRT2 * amp.im
    quad = (d * x * x - (b + c) * x * y + a * y * y) / det * scale
    if not math.isfinite(quad):  # overflow: the form at the unit mismatch times its size squared
        x, y = 0.25 * mx - 0.25 * _SQRT2 * amp.re, 0.25 * my - 0.25 * _SQRT2 * amp.im  # cannot overflow
        size = max(abs(x), abs(y))
        x, y = x / size, y / size
        quad = (d / det * x * x - (b + c) / det * x * y + a / det * y * y) * scale * size * size * 16.0
    return math.exp(-0.5 * quad) / math.sqrt(det) * scale
