"""Both strategies of the teleportation game, each computed two ways.

Closed forms give the fidelities as scalar functions of alpha. Independently,
a phase-space pipeline builds the same protocols out of Gaussian primitives:
the Bell measurement plus conditional displacement is applied at the ensemble
level as a quantum-nondemolition feedforward coupling (a symplectic sum gate)
followed by a partial trace over the measured ports. At unit gain the
announced results cancel out of the receivers' output exactly, which is why
every pipeline fidelity is independent of the concrete measurement record and
must agree with the closed forms to machine precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, Z2, build_cm, channel_params, kappa
from .errors import DomainError, InvalidInputError
from .gaussian import (
    ComplexAmplitude,
    GaussianState,
    ZERO_AMPLITUDE,
    apply_symplectic,
    beam_splitter_matrix,
    fidelity_vs_coherent,
    heterodyne_outcome_distribution,
    make_coherent,
    partial_trace,
    physicality,
    tensor,
    vacuum,
)

_SQRT2 = math.sqrt(2.0)

# Mode layout of the pipelines: 0 = input, 1 = sender's channel mode,
# 2 = receiver b, 3 = receiver c, 4 = heterodyne ancilla (cooperative only).
_IN, _A, _B, _C, _ANC = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class StrategyOutcome:
    """Per-run result of a strategy pipeline."""

    fidelity_bob: float
    fidelity_charlie: float
    conditional_cov_bob: np.ndarray
    mean_residual_bob: np.ndarray


# --- closed forms -----------------------------------------------------------


def f_noncoop(alpha: float) -> float:
    """Fidelity each receiver gets when both simply displace: 1/kappa."""
    return 1.0 / kappa(alpha)


def f_ac_coop(alpha: float) -> float:
    """Fidelity of the measuring receiver's reconstruction: 1/(kappa + 1)."""
    return 1.0 / (kappa(alpha) + 1.0)


def f_ab_coop(alpha: float) -> float:
    """Fidelity of the receiver helped by the communicated heterodyne result."""
    p = channel_params(alpha)
    corr = p.delta - p.gamma
    return (alpha + 2.0) / ((alpha + 2.0) * kappa(alpha) - 2.0 * corr * corr)


def f_coop_avg(alpha: float) -> float:
    """Average fidelity when the receivers alternate roles between rounds."""
    return 0.5 * (f_ab_coop(alpha) + f_ac_coop(alpha))


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


def modified_shift(
    eta: ComplexAmplitude, mu: ComplexAmplitude, params: ChannelParams
) -> ComplexAmplitude:
    """Displacement the helped receiver applies in the cooperative strategy.

    eta' = eta + (beta + 1/2)^{-1} (delta - gamma) (mu - eta): the extra term
    cancels the drift the measuring receiver's operations leave on the
    correlated mode.
    """
    coeff = (params.delta - params.gamma) / (params.beta + 0.5)
    return ComplexAmplitude(
        eta.re + coeff * (mu.re - eta.re),
        eta.im + coeff * (mu.im - eta.im),
    )


def _correction_gain(params: ChannelParams) -> float:
    """Feedforward coefficient of the cooperative correction.

    Probed from :func:`modified_shift` itself so the pipeline and the formula
    cannot drift apart: eta' - eta at (eta=0, mu=1) is the coefficient.
    """
    probe = modified_shift(ZERO_AMPLITUDE, ComplexAmplitude(1.0, 0.0), params)
    return probe.re


# --- ensemble feedforward gates ---------------------------------------------


def sum_gate_x(n_modes: int, control: int, target: int, gain: float) -> np.ndarray:
    """QND coupling x_target += gain * x_control (with p back-action on control)."""
    S = np.eye(2 * n_modes)
    S[2 * target, 2 * control] = gain
    S[2 * control + 1, 2 * target + 1] = -gain
    return S


def sum_gate_p(n_modes: int, control: int, target: int, gain: float) -> np.ndarray:
    """QND coupling p_target += gain * p_control (with x back-action on control)."""
    S = np.eye(2 * n_modes)
    S[2 * target + 1, 2 * control + 1] = gain
    S[2 * control, 2 * target] = -gain
    return S


def _compose(gates) -> np.ndarray:
    total = gates[0]
    for S in gates[1:]:
        total = S @ total
    return total


@functools.lru_cache(maxsize=8)
def noncoop_symplectic(n_modes: int = 4) -> np.ndarray:
    """Total symplectic of the non-cooperative protocol on [in, a, b, c, ...].

    Balanced beam splitter on (a, in), then unit-gain feedforward of the two
    Bell quadratures onto both receivers. After the beam splitter mode `a`
    carries (x_a - x_in)/sqrt(2) and mode `in` carries (p_a + p_in)/sqrt(2);
    announcing eta = -X_minus + i P_plus and displacing by it equals these
    sum gates at the ensemble level. The matrix does not depend on alpha, so
    it is built once per size; the returned array is shared and read-only.
    """
    gates = [beam_splitter_matrix(n_modes, _A, _IN)]
    for receiver in (_B, _C):
        gates.append(sum_gate_x(n_modes, _A, receiver, -_SQRT2))
        gates.append(sum_gate_p(n_modes, _IN, receiver, _SQRT2))
    total = _compose(gates)
    total.flags.writeable = False
    return total


def coop_symplectic(params: ChannelParams, measurer: int = _C) -> np.ndarray:
    """Total symplectic of the cooperative protocol on [in, a, b, c, anc].

    Continues the non-cooperative circuit: the measuring receiver's mode is
    split with a vacuum ancilla (the heterodyne), and the outcome pair is fed
    forward to the other receiver with the modified-shift coefficient. The
    -eta part of the correction is an equal feedforward from the Bell ports
    with opposite sign.
    """
    if measurer not in (_B, _C):
        raise InvalidInputError("measuring receiver must be mode 2 or 3")
    helped = _B if measurer == _C else _C
    gain = _correction_gain(params)
    gates = [noncoop_symplectic(5)]
    gates.append(beam_splitter_matrix(5, measurer, _ANC))
    # heterodyne result (quadrature units) is sqrt(2) * (x of measurer port,
    # p of ancilla port); the helped receiver displaces by gain * (mu - eta)
    gates.append(sum_gate_x(5, measurer, helped, gain * _SQRT2))
    gates.append(sum_gate_p(5, _ANC, helped, gain * _SQRT2))
    gates.append(sum_gate_x(5, _A, helped, gain * _SQRT2))
    gates.append(sum_gate_p(5, _IN, helped, -gain * _SQRT2))
    return _compose(gates)


def _joint_state(alpha: float, input_amp: ComplexAmplitude, with_ancilla: bool) -> GaussianState:
    st = tensor(make_coherent(input_amp), build_cm(channel_params(alpha)))
    if with_ancilla:
        st = tensor(st, vacuum(1))
    return st


# --- pipelines ---------------------------------------------------------------


def run_noncoop_pipeline(
    alpha: float, input_amp: ComplexAmplitude, bell_outcome: ComplexAmplitude
) -> StrategyOutcome:
    """Run the standard (non-cooperative) strategy through the Gaussian pipeline.

    `bell_outcome` is the announced result; at unit gain it cancels from both
    receivers' outputs, so the returned fidelities carry no dependence on it
    (the argument is kept to mirror a single instance of the game).
    """
    st = apply_symplectic(_joint_state(alpha, input_amp, False), noncoop_symplectic(4))
    bob = partial_trace(st, [_B])
    charlie = partial_trace(st, [_C])
    residual = bob.mean - input_amp.as_mean()
    return StrategyOutcome(
        fidelity_bob=fidelity_vs_coherent(bob, input_amp),
        fidelity_charlie=fidelity_vs_coherent(charlie, input_amp),
        conditional_cov_bob=bob.cov,
        mean_residual_bob=residual,
    )


def run_coop_pipeline(
    alpha: float,
    input_amp: ComplexAmplitude,
    bell_outcome: ComplexAmplitude,
    het_outcome: ComplexAmplitude,
    measuring_receiver: str = "c",
) -> StrategyOutcome:
    """Run the cooperative strategy: one receiver measures, the other is helped.

    The helped receiver's output is exact for every (bell, heterodyne) record;
    the measuring receiver reconstructs the coherent state at `het_outcome`,
    so only their single-trajectory fidelity depends on the record. Averaged
    over the heterodyne law it equals :func:`f_ac_coop` (see
    :func:`coop_measurer_average_fidelity`). The `*_bob` diagnostic fields
    always describe the helped receiver's deterministic output state.
    """
    if measuring_receiver not in ("b", "c"):
        raise InvalidInputError(f"measuring_receiver must be 'b' or 'c', got {measuring_receiver!r}")
    params = channel_params(alpha)
    measurer = _C if measuring_receiver == "c" else _B
    helped = _B if measurer == _C else _C
    st = apply_symplectic(_joint_state(alpha, input_amp, True), coop_symplectic(params, measurer))
    helped_state = partial_trace(st, [helped])
    helped_fid = fidelity_vs_coherent(helped_state, input_amp)
    measurer_fid = fidelity_vs_coherent(make_coherent(het_outcome), input_amp)
    residual = helped_state.mean - input_amp.as_mean()
    return StrategyOutcome(
        fidelity_bob=helped_fid if measurer == _C else measurer_fid,
        fidelity_charlie=measurer_fid if measurer == _C else helped_fid,
        conditional_cov_bob=helped_state.cov,
        mean_residual_bob=residual,
    )


def coop_measurer_outcome_law(
    alpha: float, input_amp: ComplexAmplitude = ZERO_AMPLITUDE
) -> tuple[ComplexAmplitude, np.ndarray]:
    """Heterodyne-outcome law of the measuring receiver's displaced mode.

    Built from the non-cooperative pipeline output (his mode right before the
    measurement), so the mean sits at the input amplitude and the covariance
    is kappa * I in quadrature units.
    """
    st = apply_symplectic(_joint_state(alpha, input_amp, False), noncoop_symplectic(4))
    return heterodyne_outcome_distribution(partial_trace(st, [_C]), 0)


def average_coherent_fidelity(
    outcome_mean: ComplexAmplitude, outcome_cov: np.ndarray, target: ComplexAmplitude
) -> float:
    """Exact Gaussian average of |<target|mu>|^2 over a heterodyne outcome law.

    For mu with quadrature-unit covariance Sigma around mean m, the overlap
    kernel exp(-|m_mu - u|^2 / 2) averages to
    exp(-(1/2) d^T (I+Sigma)^{-1} d) / sqrt(det(I + Sigma)), d = m - u.
    That is the overlap of `target` with the mixture of the coherent states
    |mu>, the Gaussian state of mean m and covariance Sigma + I/2.
    """
    cov = np.asarray(outcome_cov, dtype=float)
    if cov.shape != (2, 2):
        raise InvalidInputError(f"outcome covariance must be 2x2, got shape {cov.shape}")
    mixture = GaussianState(1, outcome_mean.as_mean(), cov + 0.5 * np.eye(2))
    return fidelity_vs_coherent(mixture, target)


def coop_measurer_average_fidelity(
    alpha: float, input_amp: ComplexAmplitude = ZERO_AMPLITUDE
) -> float:
    """Exact outcome-averaged fidelity of the measuring receiver.

    Closed-form Gaussian integral over the heterodyne law; equals
    1/(kappa+1), i.e. :func:`f_ac_coop`, for every input amplitude.
    """
    mean, cov = coop_measurer_outcome_law(alpha, input_amp)
    return average_coherent_fidelity(mean, cov, input_amp)
