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

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, _checked_alpha, build_cm, channel_params, kappa
from .gaussian import (
    _SQRT2,
    ComplexAmplitude,
    GaussianState,
    ZERO_AMPLITUDE,
    _checked_symplectic,
    _evolve,
    _instance,
    _real_array,
    beam_splitter_matrix,
    fidelity_vs_coherent,
    make_coherent,
    partial_trace,
    tensor,
    vacuum,
)

# Mode layout of both pipelines: 0 = input, 1 = sender's channel mode,
# 2 = receiver b, 3 = receiver c, 4 = heterodyne ancilla (idle in the
# non-cooperative circuit).
_IN, _A, _B, _C, _ANC = 0, 1, 2, 3, 4
_MODES = 5
_X, _P = 0, 1  # quadrature offsets within a mode
# Charlie's heterodyne reads x of Charlie's port and p of the ancilla's port
_HET = np.array([2 * _C + _X, 2 * _ANC + _P])


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
    eta, mu = _instance(eta, ComplexAmplitude, "eta"), _instance(mu, ComplexAmplitude, "mu")
    params = _instance(params, ChannelParams, "params")
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


def sum_gate(control: int, target: int, gain: float, q: int) -> np.ndarray:
    """QND coupling on [in, a, b, c, anc]: quadrature q (_X or _P) of the
    target gains gain times that of the control, and the other quadrature of
    the control takes the back-action -gain times the target's."""
    S = np.eye(2 * _MODES)
    S[2 * target + q, 2 * control + q] = gain
    S[2 * control + 1 - q, 2 * target + 1 - q] = -gain
    return S


def _compose(gates) -> np.ndarray:
    total = gates[0]
    for S in gates[1:]:
        total = S @ total
    return total


# The non-cooperative circuit on [in, a, b, c, anc]: a balanced beam splitter
# on (a, in), then unit-gain feedforward of the two Bell quadratures onto both
# receivers; the ancilla stays idle. After the beam splitter mode `a` carries
# (x_a - x_in)/sqrt(2) and mode `in` carries (p_a + p_in)/sqrt(2); announcing
# eta = -X_minus + i P_plus and displacing by it equals these sum gates at the
# ensemble level. Neither this circuit nor its continuation by Charlie's
# heterodyne depends on alpha: each is built and checked once, read-only.
_NONCOOP_SYMPLECTIC = _checked_symplectic(_compose([
    beam_splitter_matrix(_MODES, _A, _IN),
    sum_gate(_A, _B, -_SQRT2, _X),
    sum_gate(_IN, _B, _SQRT2, _P),
    sum_gate(_A, _C, -_SQRT2, _X),
    sum_gate(_IN, _C, _SQRT2, _P),
]), _MODES)
_HETERODYNED_SYMPLECTIC = _checked_symplectic(beam_splitter_matrix(_MODES, _C, _ANC) @ _NONCOOP_SYMPLECTIC, _MODES)
_NONCOOP_SYMPLECTIC.flags.writeable = _HETERODYNED_SYMPLECTIC.flags.writeable = False


def coop_symplectic(params: ChannelParams) -> np.ndarray:
    """Total symplectic of the cooperative protocol on [in, a, b, c, anc].

    Continues the non-cooperative circuit: Charlie's mode is split with the
    vacuum ancilla (the heterodyne), and the outcome pair is fed forward to
    Bob with the modified-shift coefficient. The -eta part of the correction
    is an equal feedforward from the Bell ports with opposite sign. Only this
    feedforward is built per call; each sum gate is symplectic at any real
    gain, so the product is not checked again.
    """
    gain = _correction_gain(params) * _SQRT2
    # heterodyne result (quadrature units) is sqrt(2) * (x of Charlie's port,
    # p of ancilla port); Bob displaces by the coefficient times (mu - eta)
    return _compose([
        _HETERODYNED_SYMPLECTIC,
        sum_gate(_C, _B, gain, _X),
        sum_gate(_ANC, _B, gain, _P),
        sum_gate(_A, _B, gain, _X),
        sum_gate(_IN, _B, -gain, _P),
    ])


# --- pipelines ---------------------------------------------------------------


def _joint_state(alpha: float, input_amp: ComplexAmplitude) -> tuple[GaussianState, ChannelParams]:
    """Coherent input, channel and vacuum ancilla on [in, a, b, c, anc], with
    the channel's coefficients."""
    coherent, params = make_coherent(input_amp), channel_params(alpha)
    return tensor(tensor(coherent, build_cm(params)), vacuum(1)), params


def _outcome(st: GaussianState, charlie: GaussianState, input_amp: ComplexAmplitude) -> StrategyOutcome:
    """Bob's readout of the circuit's output `st`, next to Charlie's state."""
    bob = partial_trace(st, [_B])
    return StrategyOutcome(
        fidelity_bob=fidelity_vs_coherent(bob, input_amp),
        fidelity_charlie=fidelity_vs_coherent(charlie, input_amp),
        mean_residual_bob=bob.mean - input_amp.as_mean(),
    )


def run_noncoop_pipeline(
    alpha: float, input_amp: ComplexAmplitude, bell_outcome: ComplexAmplitude
) -> StrategyOutcome:
    """Run the standard (non-cooperative) strategy through the Gaussian pipeline.

    `bell_outcome` is the announced result; at unit gain it cancels from both
    receivers' outputs, so it is not read (see the module docstring for why it
    stays).
    """
    joint, _ = _joint_state(alpha, input_amp)
    st = _evolve(joint, _NONCOOP_SYMPLECTIC)
    return _outcome(st, partial_trace(st, [_C]), input_amp)


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
    Charlie's state is the mixture of coherent states over it: the law's
    covariance raised by I/2.
    """
    joint, params = _joint_state(alpha, input_amp)
    st = _evolve(joint, coop_symplectic(params))
    charlie = GaussianState._trusted(
        1, _real_array(_SQRT2 * st.mean[_HET], (2,), "mean vector"),
        2.0 * st.cov[_HET[:, None], _HET] + 0.5 * np.eye(2),
    )
    return _outcome(st, charlie, input_amp)
