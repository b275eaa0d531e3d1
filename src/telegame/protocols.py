"""Both strategies of the teleportation game, each computed two ways.

Closed forms give the fidelities as scalar functions of alpha. Independently,
a phase-space pipeline builds the same protocols out of Gaussian primitives:
the Bell measurement plus conditional displacement is applied at the ensemble
level as a quantum-nondemolition feedforward coupling (a symplectic sum gate)
followed by a partial trace over the measured ports. At unit gain the
announced results cancel out of the receivers' output exactly, which is why
every pipeline fidelity is independent of the concrete measurement record and
must agree with the closed forms to machine precision. The records stay as
unread positional arguments only because the benchmark harness
(`perfbench/harness.py`) passes them; dropping them is one signature change
made together with those harness lines.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, _checked_alpha, build_cm, channel_params, kappa
from .errors import InvalidInputError
from .gaussian import (
    ComplexAmplitude,
    GaussianState,
    ZERO_AMPLITUDE,
    apply_symplectic,
    beam_splitter_matrix,
    fidelity_vs_coherent,
    make_coherent,
    partial_trace,
    tensor,
    vacuum,
)

_SQRT2 = math.sqrt(2.0)

# Mode layout of the pipelines: 0 = input, 1 = sender's channel mode,
# 2 = receiver b, 3 = receiver c, 4 = heterodyne ancilla (cooperative only).
_IN, _A, _B, _C, _ANC = 0, 1, 2, 3, 4
# Charlie's heterodyne reads x of Charlie's port and p of the ancilla's port
_HET = np.array([2 * _C, 2 * _ANC + 1])


@dataclass(frozen=True)
class StrategyOutcome:
    """Per-run result of a strategy pipeline."""

    fidelity_bob: float
    fidelity_charlie: float
    mean_residual_bob: np.ndarray


# --- closed forms -----------------------------------------------------------


def f_noncoop(alpha: float) -> float:
    """Fidelity each receiver gets when both simply displace: 1/kappa."""
    return 1.0 / kappa(alpha)


def f_ac_coop(alpha: float) -> float:
    """Fidelity of the measuring receiver's reconstruction: 1/(kappa + 1)."""
    return 1.0 / (kappa(alpha) + 1.0)


def f_ab_coop(alpha: float) -> float:
    """Fidelity of the receiver helped by the communicated heterodyne result.

    (alpha + 2)/((alpha + 2) kappa - 2 (delta - gamma)^2), rationalised in
    t = 1/(alpha + 1) to (1 + t)(8 - t + 4 r)/(16 + 16 t + t^2/2) with
    r = sqrt((2 alpha - 1) t): all terms positive, nothing overflows.
    """
    alpha = _checked_alpha(alpha)
    t = 1.0 / (alpha + 1.0)
    r = math.sqrt((2.0 * alpha - 1.0) * t)
    return (1.0 + t) * (8.0 - t + 4.0 * r) / (16.0 + 16.0 * t + 0.5 * t * t)


def f_coop_avg(alpha: float) -> float:
    """Average fidelity when the receivers alternate roles between rounds."""
    return 0.5 * (f_ab_coop(alpha) + f_ac_coop(alpha))


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


def coop_symplectic(params: ChannelParams) -> np.ndarray:
    """Total symplectic of the cooperative protocol on [in, a, b, c, anc].

    Continues the non-cooperative circuit: Charlie's mode is split with a
    vacuum ancilla (the heterodyne), and the outcome pair is fed forward to
    Bob with the modified-shift coefficient. The -eta part of the correction
    is an equal feedforward from the Bell ports with opposite sign.
    """
    gain = _correction_gain(params) * _SQRT2
    # heterodyne result (quadrature units) is sqrt(2) * (x of Charlie's port,
    # p of ancilla port); Bob displaces by the coefficient times (mu - eta)
    return _compose([
        noncoop_symplectic(5),
        beam_splitter_matrix(5, _C, _ANC),
        sum_gate_x(5, _C, _B, gain),
        sum_gate_p(5, _ANC, _B, gain),
        sum_gate_x(5, _A, _B, gain),
        sum_gate_p(5, _IN, _B, -gain),
    ])


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
    receivers' outputs, so it is not read (see the module docstring for why it
    stays).
    """
    st = apply_symplectic(_joint_state(alpha, input_amp, False), noncoop_symplectic(4))
    bob = partial_trace(st, [_B])
    charlie = partial_trace(st, [_C])
    return StrategyOutcome(
        fidelity_bob=fidelity_vs_coherent(bob, input_amp),
        fidelity_charlie=fidelity_vs_coherent(charlie, input_amp),
        mean_residual_bob=bob.mean - input_amp.as_mean(),
    )


def run_coop_pipeline(
    alpha: float,
    input_amp: ComplexAmplitude,
    bell_outcome: ComplexAmplitude,
    het_outcome: ComplexAmplitude,
) -> StrategyOutcome:
    """Run the cooperative strategy: Charlie heterodynes and announces, Bob
    applies the modified shift.

    Neither record is read; both stay positional because the benchmark
    harness passes them. Charlie's fidelity is averaged over the heterodyne
    law, read off the circuit's output: the feedforward to Bob leaves x of
    Charlie's port and p of the ancilla's port untouched, so the outcome has
    mean sqrt(2) times their means and covariance 2 times their block, and
    Charlie's state is the mixture of coherent states over it (covariance
    raised by I/2, as in :func:`average_coherent_fidelity`).
    """
    st = apply_symplectic(_joint_state(alpha, input_amp, True), coop_symplectic(channel_params(alpha)))
    bob = partial_trace(st, [_B])
    charlie = GaussianState(
        1, _SQRT2 * st.mean[_HET], 2.0 * st.cov[_HET[:, None], _HET] + 0.5 * np.eye(2)
    )
    return StrategyOutcome(
        fidelity_bob=fidelity_vs_coherent(bob, input_amp),
        fidelity_charlie=fidelity_vs_coherent(charlie, input_amp),
        mean_residual_bob=bob.mean - input_amp.as_mean(),
    )


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
