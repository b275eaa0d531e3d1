"""Acceptance suite: every check of the registry that `telegame verify` runs,
plus the criteria that hold an oracle independent of the code under test."""

import json
from fractions import Fraction

import pytest

from telegame import f_noncoop, find_classical_crossings
from telegame import cli
from telegame.checks import CHECKS


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS])
def test_check(check):
    message = check()
    assert message is None, message


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
