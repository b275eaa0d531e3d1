"""Multimode Gaussian states in phase space.

Conventions used throughout the package:

* quadrature ordering is interleaved, (x1, p1, x2, p2, ..., xn, pn);
* the vacuum has quadrature variance 1/2, i.e. a coherent mode carries the
  covariance block (1/2) I;
* a complex amplitude phi maps to the mean vector sqrt(2) * (Re phi, Im phi),
  so heterodyne outcome arithmetic works at unit gain.

All states are immutable values and every operation is a pure function, so
everything here is safe to share between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Tolerances fixed by contract: covariance constructors reject asymmetry
# above _SYM_TOL (after symmetrizing), the uncertainty check accepts
# eigenvalues down to -max(_PHYS_TOL, _PHYS_REL * dim * max|cov|), above
# their rounding error of a few eps * max|cov|, so boundary (pure) states
# pass at every scale.
_SYM_TOL = 1e-9
_PHYS_TOL = 1e-9
_PHYS_REL = 8.0 * np.finfo(float).eps

_SQRT2 = math.sqrt(2.0)


@functools.lru_cache(maxsize=16)
def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2n x 2n form Omega = direct sum of [[0, 1], [-1, 0]] blocks.

    Built once per size; the returned array is shared and read-only.
    """
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.kron(np.eye(n_modes), block)
    omega.flags.writeable = False
    return omega


@dataclass(frozen=True)
class ComplexAmplitude:
    """A coherent amplitude or measurement result as a real pair."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise InvalidInputError(
                f"amplitude components must be finite, got ({self.re}, {self.im})"
            )
        object.__setattr__(self, "re", float(self.re))
        object.__setattr__(self, "im", float(self.im))

    def as_array(self) -> np.ndarray:
        return np.array([self.re, self.im])

    def as_mean(self) -> np.ndarray:
        """Quadrature mean of the coherent state with this amplitude."""
        return _SQRT2 * self.as_array()

    @staticmethod
    def from_mean(mean: np.ndarray) -> "ComplexAmplitude":
        """Inverse of :meth:`as_mean` (divide by sqrt(2))."""
        return ComplexAmplitude(mean[0] / _SQRT2, mean[1] / _SQRT2)


ZERO_AMPLITUDE = ComplexAmplitude(0.0, 0.0)


def quadrature_vector(values) -> np.ndarray:
    """Validate and copy a length-2n mean vector."""
    vec = np.array(values, dtype=float)
    if vec.ndim != 1 or vec.size == 0 or vec.size % 2 != 0:
        raise InvalidInputError(f"mean vector must have even positive length, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise InvalidInputError("mean vector contains non-finite entries")
    return vec


def covariance_matrix(entries) -> np.ndarray:
    """Validate, symmetrize and copy a 2n x 2n covariance matrix."""
    cov = np.asarray(entries, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] == 0 or cov.shape[0] % 2 != 0:
        raise InvalidInputError(f"covariance must be square with even dimension, got shape {cov.shape}")
    if not np.isfinite(cov).all():
        raise InvalidInputError("covariance contains non-finite entries")
    asym = np.abs(cov - cov.T).max()
    if asym > _SYM_TOL:
        raise InvalidInputError(f"covariance asymmetry {asym:.3e} exceeds tolerance {_SYM_TOL:.0e}")
    return (cov + cov.T) / 2.0


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of n bosonic modes."""

    modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = quadrature_vector(self.mean)
        cov = covariance_matrix(self.cov)
        if mean.size != 2 * self.modes or cov.shape[0] != 2 * self.modes:
            raise InvalidInputError(
                f"state with {self.modes} modes needs mean length {2 * self.modes} "
                f"and cov shape ({2 * self.modes}, {2 * self.modes})"
            )
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def mode_mean(self, mode: int) -> np.ndarray:
        i = _check_mode(self, mode)
        return self.mean[2 * i : 2 * i + 2]

    def mode_cov(self, mode: int) -> np.ndarray:
        i = _check_mode(self, mode)
        return self.cov[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]


def _check_mode(state: GaussianState, mode: int) -> int:
    if not isinstance(mode, (int, np.integer)) or not 0 <= mode < state.modes:
        raise InvalidInputError(f"mode index {mode} out of range for {state.modes}-mode state")
    return int(mode)


def _mode_slices(modes) -> np.ndarray:
    """Quadrature indices (2m, 2m + 1) of each listed mode, in order."""
    return np.array([q for m in modes for q in (2 * m, 2 * m + 1)], dtype=np.intp)


def vacuum(n_modes: int = 1) -> GaussianState:
    """n-mode vacuum: zero mean, covariance (1/2) I."""
    return GaussianState(n_modes, np.zeros(2 * n_modes), 0.5 * np.eye(2 * n_modes))


def make_coherent(amp: ComplexAmplitude) -> GaussianState:
    """Single-mode coherent state with the given amplitude."""
    return GaussianState(1, amp.as_mean(), 0.5 * np.eye(2))


def tensor(s1: GaussianState, s2: GaussianState) -> GaussianState:
    """Joint state of two subsystems; modes of `s1` come first."""
    n = s1.modes + s2.modes
    mean = np.concatenate([s1.mean, s2.mean])
    cov = np.zeros((2 * n, 2 * n))
    cov[: 2 * s1.modes, : 2 * s1.modes] = s1.cov
    cov[2 * s1.modes :, 2 * s1.modes :] = s2.cov
    return GaussianState(n, mean, cov)


def apply_symplectic(state: GaussianState, S: np.ndarray) -> GaussianState:
    """Evolve the state under a symplectic matrix: cov -> S cov S^T, mean -> S mean."""
    S = np.asarray(S, dtype=float)
    dim = 2 * state.modes
    if S.shape != (dim, dim):
        raise InvalidInputError(f"symplectic matrix must have shape ({dim}, {dim}), got {S.shape}")
    omega = symplectic_form(state.modes)
    if np.abs(S @ omega @ S.T - omega).max() > _SYM_TOL:
        raise InvalidInputError("matrix does not preserve the symplectic form")
    return GaussianState(state.modes, S @ state.mean, S @ state.cov @ S.T)


def beam_splitter_matrix(n_modes: int, i: int, j: int) -> np.ndarray:
    """Symplectic of a balanced beam splitter acting on modes i and j.

    Output mode i carries (q_i - q_j)/sqrt(2), mode j carries (q_i + q_j)/sqrt(2)
    for both quadratures.
    """
    if i == j:
        raise InvalidInputError("beam splitter needs two distinct modes")
    for m in (i, j):
        if not 0 <= m < n_modes:
            raise InvalidInputError(f"mode index {m} out of range for {n_modes} modes")
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
    _check_mode(state, i)
    _check_mode(state, j)
    return apply_symplectic(state, beam_splitter_matrix(state.modes, i, j))


def displace(state: GaussianState, mode: int, amp: ComplexAmplitude) -> GaussianState:
    """Shift the mean of one mode by sqrt(2)*(re, im); covariance unchanged."""
    i = _check_mode(state, mode)
    mean = state.mean.copy()
    mean[2 * i : 2 * i + 2] += amp.as_mean()
    return GaussianState(state.modes, mean, state.cov)


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Reduced state on the listed modes, in the order given."""
    keep = list(keep)
    if not keep:
        raise InvalidInputError("keep list must be non-empty")
    if len(set(keep)) != len(keep):
        raise InvalidInputError(f"keep list has repeated modes: {keep}")
    for m in keep:
        _check_mode(state, m)
    idx = _mode_slices(keep)
    return GaussianState(len(keep), state.mean[idx], state.cov[idx[:, None], idx])


def physicality(cov) -> bool:
    """Uncertainty-principle test: cov - (i/2) Omega must be positive semidefinite."""
    cov = covariance_matrix(cov)
    dim = cov.shape[0]
    herm = cov - 0.5j * symplectic_form(dim // 2)
    slack = max(_PHYS_TOL, _PHYS_REL * dim * float(np.abs(cov).max()))
    return float(np.linalg.eigvalsh(herm).min()) >= -slack


def _split_blocks(state: GaussianState, mode: int):
    """Kept/measured partition of mean and covariance for one measured mode."""
    i = _check_mode(state, mode)
    keep_modes = [m for m in range(state.modes) if m != i]
    kidx = _mode_slices(keep_modes)
    m = slice(2 * i, 2 * i + 2)
    A = state.cov[kidx[:, None], kidx]
    B = state.cov[m, m]
    C = state.cov[kidx, m]
    return keep_modes, state.mean[kidx], state.mean[m], A, B, C


def homodyne_update(
    state: GaussianState, mode: int, quadrature: str, outcome: float
) -> GaussianState:
    """Conditional state after a homodyne detection of one quadrature.

    The measured mode is removed. In the infinitely-squeezed limit only the
    measured quadrature's variance B[q, q] enters, as a scalar Schur
    complement; it must be positive.
    """
    if state.modes < 2:
        raise InvalidInputError("homodyne conditioning needs at least two modes")
    if quadrature not in ("x", "p"):
        raise InvalidInputError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    if not math.isfinite(outcome):
        raise InvalidInputError("homodyne outcome must be finite")
    keep_modes, mean_k, mean_m, A, B, C = _split_blocks(state, mode)
    q = 0 if quadrature == "x" else 1
    if not B[q, q] > 0.0:
        raise InvalidInputError(f"measured {quadrature} variance {B[q, q]:.3e} is not positive")
    g = C[:, q] / B[q, q]
    cov = A - np.outer(g, C[:, q])
    mean = mean_k + g * (outcome - mean_m[q])
    return GaussianState(len(keep_modes), mean, cov)


def heterodyne_update(
    state: GaussianState, mode: int, outcome: ComplexAmplitude
) -> GaussianState:
    """Conditional state after a heterodyne detection of one mode.

    The POVM adds (1/2) I of noise to the measured block, which must then be
    positive definite. For a single-mode state there is nothing left to
    condition; query :func:`heterodyne_outcome_distribution` instead.
    """
    if state.modes < 2:
        raise InvalidInputError(
            "heterodyne on a single-mode state leaves no conditional state; "
            "use heterodyne_outcome_distribution"
        )
    keep_modes, mean_k, mean_m, A, B, C = _split_blocks(state, mode)
    noisy = B + 0.5 * np.eye(2)
    det = noisy[0, 0] * noisy[1, 1] - noisy[0, 1] * noisy[1, 0]
    if not (noisy[0, 0] > 0.0 and det > 0.0):
        raise InvalidInputError(f"measured block + I/2 is not positive definite (det {det:.3e})")
    noisy = np.linalg.inv(noisy)
    cov = A - C @ noisy @ C.T
    mean = mean_k + C @ noisy @ (outcome.as_mean() - mean_m)
    return GaussianState(len(keep_modes), mean, cov)


def heterodyne_outcome_distribution(
    state: GaussianState, mode: int
) -> tuple[ComplexAmplitude, np.ndarray]:
    """Gaussian law of the heterodyne outcome on one mode.

    Returns the mean as an amplitude (mode mean divided by sqrt(2)) and the
    outcome covariance B + (1/2) I in quadrature units.
    """
    i = _check_mode(state, mode)
    mean = ComplexAmplitude.from_mean(state.mode_mean(i))
    cov = state.mode_cov(i) + 0.5 * np.eye(2)
    return mean, cov


def fidelity_vs_coherent(state: GaussianState, amp: ComplexAmplitude) -> float:
    """Overlap of a single-mode Gaussian state with the coherent state `amp`.

    F = exp(-(1/2) d^T (sigma + I/2)^{-1} d) / sqrt(det(sigma + I/2)) with
    d the mean mismatch; lies in (0, 1]. The 2x2 inverse and determinant are
    written out in closed form.
    """
    if state.modes != 1:
        raise InvalidInputError(f"fidelity_vs_coherent needs a single-mode state, got {state.modes}")
    a, b, c, d = state.cov.ravel().tolist()
    a += 0.5
    d += 0.5
    det = a * d - b * c
    if not (a > 0.0 and det > 0.0):
        raise InvalidInputError(f"cov + I/2 is not positive definite (det {det:.3e})")
    mx, my = state.mean.tolist()
    x = mx - _SQRT2 * amp.re
    y = my - _SQRT2 * amp.im
    quad = (d * x * x - (b + c) * x * y + a * y * y) / det
    return math.exp(-0.5 * quad) / math.sqrt(det)
