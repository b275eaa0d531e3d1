"""Test-only oracles built from the public Gaussian toolbox.

They recompute channel quantities another way than the package does, so the
tests can compare the two.
"""

import math

import numpy as np

from telegame import DomainError, GaussianState, InvalidInputError, partial_trace, physicality

Z2 = np.diag([1.0, -1.0])


def reduced_channel(state: GaussianState, receiver: str) -> GaussianState:
    """Two-mode reduction onto the sender and one receiver ('b' or 'c')."""
    if state.modes != 3:
        raise InvalidInputError(f"reduced_channel needs a 3-mode state, got {state.modes}")
    if receiver == "b":
        return partial_trace(state, [0, 1])
    if receiver == "c":
        return partial_trace(state, [0, 2])
    raise InvalidInputError(f"receiver must be 'b' or 'c', got {receiver!r}")


def pinv_homodyne_update(state: GaussianState, mode: int, quadrature: str, outcome: float):
    """Homodyne conditioning through the Moore-Penrose pseudo-inverse of the
    measured 2x2 block projected onto the measured quadrature: the
    infinitely-squeezed limit written as a matrix formula. Returns the
    conditional (mean, cov) of the remaining modes."""
    keep = [q for m in range(state.modes) if m != mode for q in (2 * m, 2 * m + 1)]
    meas = [2 * mode, 2 * mode + 1]
    A = state.cov[np.ix_(keep, keep)]
    B = state.cov[np.ix_(meas, meas)]
    C = state.cov[np.ix_(keep, meas)]
    proj = np.zeros((2, 2))
    q = 0 if quadrature == "x" else 1
    proj[q, q] = 1.0
    pinv = np.linalg.pinv(proj @ B @ proj)
    target = np.zeros(2)
    target[q] = outcome
    mean = state.mean[keep] + C @ pinv @ proj @ (target - state.mean[meas])
    return mean, A - C @ pinv @ C.T


def two_mode_teleport_fidelity(A, B, C) -> float:
    """Coherent-state teleportation fidelity through a two-mode resource.

    Blocks A (sender), B (receiver) and C (cross) form the resource CM.
    With unit gain F = det(Gamma)^{-1/2}, Gamma = I + Z A Z + B - Z C - C^T Z.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    if A.shape != (2, 2) or B.shape != (2, 2) or C.shape != (2, 2):
        raise InvalidInputError("blocks must be 2x2")
    cm = np.block([[A, C], [C.T, B]])
    if not physicality(cm):
        raise DomainError("resource covariance matrix violates the uncertainty principle")
    gamma = np.eye(2) + Z2 @ A @ Z2 + B - Z2 @ C - C.T @ Z2
    return float(1.0 / math.sqrt(np.linalg.det(gamma)))


def scalar_chunk_sums(w, ref_ac, normals):
    """The estimator's chunk sums shot by shot: each row z of `normals` is
    mapped by the measurer's 2-row ``w @ z`` and scored with ``math.exp``, and
    the deviations from `ref_ac` and their squares are summed in shot order."""
    s = q = 0.0
    for z in normals:
        y0, y1 = (w @ z).tolist()
        d = math.exp(-0.5 * (y0 * y0 + y1 * y1)) - ref_ac
        s += d
        q += d * d
    return [s, q]
