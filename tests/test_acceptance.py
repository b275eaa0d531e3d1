"""Acceptance suite: every check of the registry that `telegame verify` runs,
plus the criteria that hold an oracle independent of the code under test."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from telegame import McConfig, estimate_fidelities, f_noncoop, find_classical_crossings
from telegame import checks, cli, protocols
from telegame.checks import CHECKS, MC_ALPHAS
from telegame.gaussian import _SQRT2, beam_splitter_matrix
from telegame.montecarlo import _ShotKernel, _estimate
from telegame.protocols import _A, _B, _C, _IN, _MODES, _P, _X, _compose, sum_gate


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS])
def test_check(check):
    message = check()
    assert message is None, message


def _noncoop_circuit(charlie_p_gain):
    return _compose([
        beam_splitter_matrix(_MODES, _A, _IN),
        sum_gate(_A, _B, -_SQRT2, _X),
        sum_gate(_IN, _B, _SQRT2, _P),
        sum_gate(_A, _C, -_SQRT2, _X),
        sum_gate(_IN, _C, charlie_p_gain, _P),
    ])


def test_charlie_gain_mutation_fails_only_the_noncoop_pipeline_check(monkeypatch):
    """Charlie's p feedforward gain in the standard circuit times 1 + 1e-6
    moves only her fidelity, by about 8e-7; verify must see it."""
    assert _noncoop_circuit(_SQRT2).tobytes() == protocols._NONCOOP_SYMPLECTIC.tobytes()
    monkeypatch.setattr(protocols, "_NONCOOP_SYMPLECTIC", _noncoop_circuit(_SQRT2 * (1 + 1e-6)))
    failed = [name for name, check in CHECKS if check() is not None]
    assert failed == ["pipeline-noncoop-matches-closed-form"]


def test_receiver_input_gain_mutation_fails_only_the_outcome_spread_check(monkeypatch):
    """Both receivers' mismatches taken against (1 + 1e-7) u in the
    Monte-Carlo chain: a gain off unity that moves their scores only by about
    1e-14, so no estimate can show it; mc-outcome-spread reads the input
    columns themselves and must."""
    chain = _ShotKernel._chain

    def mutated(self, z):
        mismatch, covs = chain(self, z)
        return mismatch - 1e-7 * np.concatenate([z[0:2], z[0:2], [0.0, 0.0]]), covs

    monkeypatch.setattr(_ShotKernel, "_chain", mutated)
    checks._mc_kernels.cache_clear()
    checks._mc_estimates.cache_clear()
    try:
        failed = [name for name, check in CHECKS if check() is not None]
    finally:
        checks._mc_kernels.cache_clear()  # drop kernels built with the mutation
        checks._mc_estimates.cache_clear()
    assert failed == ["mc-outcome-spread"]


def test_mc_determinism_compares_every_alpha(monkeypatch):
    """mc-determinism compares the estimates at all of MC_ALPHAS across
    workers: its alpha = 2 row is the single-alpha estimate, and a row that
    moves with the workers at alpha = 10 alone fails it."""
    rows = _estimate([_ShotKernel(alpha) for alpha in MC_ALPHAS], 20_000, 7, 4)
    assert rows[MC_ALPHAS.index(2.0)] == estimate_fidelities(McConfig(shots=20_000, seed=7, alpha=2.0))

    def worker_dependent(kernels, shots, seed, workers):
        ests = _estimate(kernels, shots, seed, workers)
        ests[-1] = dataclasses.replace(ests[-1], f_ac_hat=ests[-1].f_ac_hat + 1e-16 * workers)
        return ests

    monkeypatch.setattr(checks, "_estimate", worker_dependent)
    assert dict(CHECKS)["mc-determinism"]() == "estimate depends on the degree of parallelism"


def test_criterion_1_no_cloning_optimum():
    # rational oracle: at alpha = 2 the square root is exactly 3, so
    # kappa = 1 + 2 + 3/2 - 3 = 3/2 and the fidelity is exactly 2/3
    kappa_exact = Fraction(1) + 2 + Fraction(3, 2) - 3
    f_exact = 1 / kappa_exact
    assert f_exact == Fraction(2, 3)
    assert abs(f_noncoop(2.0) - float(f_exact)) < 1e-14


def test_criterion_7_classical_crossing():
    alpha_tr, _ = find_classical_crossings()
    # algebraic oracle: the root solves alpha^2 - 10 alpha + 5 = 0
    poly = Fraction(alpha_tr) ** 2 - 10 * Fraction(alpha_tr) + 5
    assert abs(float(poly)) < 1e-6


def test_criterion_9_determinism_and_parallelism(capsys):
    base = ["simulate", "--alpha", "2", "--shots", "100000", "--seed", "42"]
    assert cli.main(base) == 0
    first = capsys.readouterr().out
    assert cli.main(base) == 0
    second = capsys.readouterr().out
    assert cli.main(base + ["--workers", "4"]) == 0
    parallel = capsys.readouterr().out
    assert first == second
    # workers flag shows up nowhere in the payload, so outputs must coincide
    assert first == parallel
    assert cli.main(base + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["consistent"] is True
