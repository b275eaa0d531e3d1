"""Registry of the release checks behind `telegame verify` and the acceptance suite.

`CHECKS` is an ordered tuple of (name, fn) pairs. Each fn takes no argument
and returns None when the check passes, or a one-line failure message.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .analysis import find_classical_crossings, find_threshold, sweep
from .channel import build_cm, channel_params, exchange_symmetry_check
from .errors import DomainError
from .gaussian import ComplexAmplitude, ZERO_AMPLITUDE, physicality
from .montecarlo import _ShotKernel, _estimate
from .protocols import (
    f_ab_coop,
    f_ac_coop,
    f_coop_avg,
    f_noncoop,
    run_coop_pipeline,
    run_noncoop_pipeline,
)

# statistical checks compare against 3 standard errors; the floor keeps the
# comparison meaningful for estimators whose sample spread is exactly zero
STAT_FLOOR = 1e-12

GRID = np.linspace(0.5, 50.0, 500)
MC_ALPHAS = (0.5, 2.0, 5.76, 10.0)
ALPHA_TH_EXACT = 5.7615647384767374  # nearest float to the root of tests/exact.py's THRESHOLD


def random_tuples(count):
    """Fixed-seed (alpha, input, Bell record, heterodyne record) tuples."""
    rng = np.random.default_rng(20240917)
    for _ in range(count):
        alpha = float(0.5 + 49.5 * rng.random())
        amp = ComplexAmplitude(*rng.normal(0, 2, 2))
        eta = ComplexAmplitude(*rng.normal(0, 2, 2))
        mu = ComplexAmplitude(*rng.normal(0, 2, 2))
        yield alpha, amp, eta, mu


def compare_to_closed_forms(alpha, est):
    """Each Monte-Carlo estimate against its closed form under the 3-sigma rule.

    Returns (name, closed, hat, stderr, z, consistent) for f_tr, f_ab, f_ac
    in that order; z is (hat - closed) / stderr, None where stderr is 0 or
    infinite, and consistent means |hat - closed| <= 3 stderr + STAT_FLOOR.
    """
    return [
        (name, closed, hat, err, None if err == 0.0 or math.isinf(err) else (hat - closed) / err,
         abs(hat - closed) <= 3.0 * err + STAT_FLOOR)
        for name, closed, hat, err in (
            ("f_tr", f_noncoop(alpha), est.f_tr_hat, est.stderr_tr),
            ("f_ab", f_ab_coop(alpha), est.f_ab_hat, est.stderr_ab),
            ("f_ac", f_ac_coop(alpha), est.f_ac_hat, est.stderr_ac),
        )
    ]


def _check_noncloning_optimum():
    if abs(f_noncoop(2.0) - 2.0 / 3.0) > 1e-14:
        return f"f_noncoop(2) = {f_noncoop(2.0)!r} is not 2/3"
    values = [f_noncoop(a) for a in GRID]
    best = GRID[int(np.argmax(values))]
    step = GRID[1] - GRID[0]
    if abs(best - 2.0) > step:
        return f"argmax of f_noncoop at {best}, expected 2 within one grid step"
    return None


def _check_threshold():
    res = find_threshold(1e-9)
    if abs(res.alpha_th - ALPHA_TH_EXACT) > res.bracket_width / 2:
        return f"alpha_th = {res.alpha_th} off {ALPHA_TH_EXACT} by more than half its bracket {res.bracket_width}"
    gap = abs(f_coop_avg(res.alpha_th) - f_noncoop(res.alpha_th))
    if gap > 1e-9:
        return f"strategy gap {gap} at alpha_th above 1e-9"
    return None


def _check_ordering_grid():
    for a in GRID:
        f_tr, f_ab, f_ac = f_noncoop(a), f_ab_coop(a), f_ac_coop(a)
        if f_ab < f_tr - 1e-14:
            return f"f_ab < f_tr at alpha={a}"
        if not f_ac < f_tr:
            return f"f_ac >= f_tr at alpha={a}"
        if f_ac > 0.5:
            return f"f_ac > 1/2 at alpha={a}"
    return None


def _check_physicality_grid():
    for a in GRID:
        if not physicality(build_cm(channel_params(a)).cov):
            return f"channel at alpha={a} failed the uncertainty check"
    try:
        channel_params(0.49)
    except DomainError:
        pass
    else:
        return "channel_params(0.49) did not raise a domain error"
    return None


def _check_exchange_grid():
    for a in GRID[::10]:
        if not exchange_symmetry_check(build_cm(channel_params(a))):
            return f"channel at alpha={a} not receiver-symmetric"
    return None


def _pipeline_mismatch(run, closed_forms, cases):
    """First failure of `run` over the (alpha, input, records...) cases: each
    listed fidelity field against its closed form, then Bob's mean residual."""
    for alpha, amp, *records in cases:
        out = run(alpha, amp, *records)
        for field, closed in closed_forms:
            got, want = getattr(out, field), closed(alpha)
            if abs(got - want) > 1e-10:
                return f"pipeline {field} {got!r} != closed form {want!r} at alpha={alpha}, input {amp}"
        if np.abs(out.mean_residual_bob).max() > 1e-9:
            return f"non-zero mean residual at alpha={alpha}"
    return None


def _check_pipeline_noncoop():
    cases = ((alpha, amp, eta) for alpha, amp, eta, _ in random_tuples(100))
    pairs = (("fidelity_bob", f_noncoop), ("fidelity_charlie", f_noncoop))
    return _pipeline_mismatch(run_noncoop_pipeline, pairs, cases)


def _check_pipeline_fab():
    return _pipeline_mismatch(run_coop_pipeline, (("fidelity_bob", f_ab_coop),), random_tuples(100))


def _check_measurer_average():
    edge_cases = [(alpha, ZERO_AMPLITUDE, ZERO_AMPLITUDE, ZERO_AMPLITUDE) for alpha in (0.5, 2.0, 10.0)]
    cases = edge_cases + list(random_tuples(100))
    return _pipeline_mismatch(run_coop_pipeline, (("fidelity_charlie", f_ac_coop),), cases)


@functools.lru_cache(maxsize=1)
def _mc_kernels():
    """One shot kernel per MC_ALPHAS entry, built once for every Monte-Carlo check."""
    return tuple(_ShotKernel(a) for a in MC_ALPHAS)


def _check_kernel_matches_chain():
    rng = np.random.default_rng(20240917)
    for alpha, kernel in zip(MC_ALPHAS, _mc_kernels()):
        for z in rng.standard_normal((10, 6)):
            chain_z = np.concatenate([math.sqrt(2.0) * z[0:2], z[2:6]])
            gap = np.abs(kernel.w @ z - kernel._chain(chain_z)[0][4:6]).max()
            if gap > 1e-12:
                return f"measurer rows of the shot map off the chain by {gap:.3e} at alpha={alpha}"
    return None


def _check_crossing_noncoop():
    alpha_tr, _ = find_classical_crossings()
    expected = 5.0 + 2.0 * math.sqrt(5.0)
    if abs(alpha_tr - expected) > 1e-6:
        return f"f_noncoop=1/2 crossing {alpha_tr} != 5+2*sqrt(5)"
    return None


def _check_crossing_coop_larger():
    alpha_tr, alpha_coop = find_classical_crossings()
    if not alpha_coop > alpha_tr:
        return f"cooperative crossing {alpha_coop} not above {alpha_tr}"
    if abs(f_coop_avg(alpha_coop) - 0.5) > 1e-9:
        return "cooperative crossing residual above 1e-9"
    return None


def _check_sweep_single_crossing():
    rows = sweep(0.5, 12.0, 200)
    signs = [r.f_coop - r.f_tr for r in rows]
    changes = [
        (rows[i].alpha, rows[i + 1].alpha)
        for i in range(len(signs) - 1)
        if signs[i] < 0.0 <= signs[i + 1] or signs[i] >= 0.0 > signs[i + 1]
    ]
    if len(changes) != 1:
        return f"expected exactly one crossing, found {len(changes)}"
    alpha_th = find_threshold(1e-9).alpha_th
    lo, hi = changes[0]
    if not lo <= alpha_th <= hi:
        return f"crossing bracket ({lo}, {hi}) misses alpha_th={alpha_th}"
    if rows != sweep(0.5, 12.0, 200):
        return "sweep rows differ between two identical calls"
    return None


@functools.lru_cache(maxsize=1)
def _mc_estimates():
    """100000 shots at seed 42 per MC_ALPHAS entry, all scored on one draw."""
    return dict(zip(MC_ALPHAS, _estimate(_mc_kernels(), 100_000, 42, 1)))


def _check_mc_consistency():
    for alpha, est in _mc_estimates().items():
        for name, closed, hat, _, _, consistent in compare_to_closed_forms(alpha, est):
            if not consistent:
                return f"{name} estimate {hat} off closed form {closed} at alpha={alpha}"
    return None


def _check_mc_outcome_spread():
    # Unit gain: no mismatch moves with the input, so the record-averaged f_tr
    # and f_ab hold for every coherent input. A gain off by e moves a score by
    # about e**2, so the input columns themselves must be exact zeros.
    for alpha, kernel in zip(MC_ALPHAS, _mc_kernels()):
        gain = np.abs(kernel.jac[:, 0:2]).max()
        if gain != 0.0:
            return f"a mismatch moves with the input, by {gain:.3e} per unit, at alpha={alpha}"
    return None


def _check_mc_determinism():
    if _estimate(_mc_kernels(), 20_000, 7, 1) != _estimate(_mc_kernels(), 20_000, 7, 4):
        return "estimate depends on the degree of parallelism"
    return None


CHECKS = (
    ("noncloning-optimum", _check_noncloning_optimum),
    ("threshold-bracket", _check_threshold),
    ("fidelity-ordering-grid", _check_ordering_grid),
    ("channel-physicality-grid", _check_physicality_grid),
    ("exchange-symmetry-grid", _check_exchange_grid),
    ("pipeline-noncoop-matches-closed-form", _check_pipeline_noncoop),
    ("pipeline-fab-matches-closed-form", _check_pipeline_fab),
    ("measurer-average-matches-closed-form", _check_measurer_average),
    ("mc-kernel-matches-chain", _check_kernel_matches_chain),
    ("classical-crossing-noncoop", _check_crossing_noncoop),
    ("classical-crossing-coop-larger", _check_crossing_coop_larger),
    ("sweep-single-crossing", _check_sweep_single_crossing),
    ("mc-consistency", _check_mc_consistency),
    ("mc-outcome-spread", _check_mc_outcome_spread),
    ("mc-determinism", _check_mc_determinism),
)
