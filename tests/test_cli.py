import json
import re
import time
import warnings

import pytest

from telegame import checks, cli, protocols
from telegame.montecarlo import _MAX_SHOTS, _MAX_WORKERS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChannelCommand:
    def test_reference_point(self, capsys):
        code, out, _ = run(capsys, "channel", "--alpha", "2")
        assert code == 0
        assert "beta      1.5" in out
        assert "gamma     1" in out
        assert "delta     1.5" in out
        assert "kappa     1.5" in out
        assert "physical  true" in out
        assert "symmetric true" in out

    def test_below_domain_exits_2(self, capsys):
        code, _, err = run(capsys, "channel", "--alpha", "0.4")
        assert code == 2
        assert "1/2" in err

    def test_boundary_reports_zero_coupling(self, capsys):
        code, out, _ = run(capsys, "channel", "--alpha", "0.5")
        assert code == 0
        assert "delta     0" in out

    def test_past_upper_edge_exits_2(self, capsys):
        code, _, err = run(capsys, "channel", "--alpha", "1.7e308")
        assert code == 2
        assert "overflows" in err

    def test_large_alpha_is_finite(self, capsys):
        code, out, _ = run(capsys, "channel", "--alpha", "1e300")
        assert code == 0
        assert "delta     7.07106781187e+299" in out
        assert "kappa     8.57864376269e+298" in out


class TestSweepCommand:
    def test_default_row_count(self, capsys):
        code, out, _ = run(capsys, "sweep")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,f_tr,f_ab,f_ac,f_coop"
        assert len(lines) == 201

    def test_file_output_is_byte_stable(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run(capsys, "sweep", "--out", str(first))[0] == 0
        assert run(capsys, "sweep", "--out", str(second))[0] == 0
        a = first.read_bytes()
        assert a == second.read_bytes()
        assert b"\r" not in a
        assert a.startswith(b"alpha,f_tr,f_ab,f_ac,f_coop\n")

    def test_unwritable_path_exits_3(self, capsys):
        path = "/nonexistent-dir/x.csv"
        code, _, err = run(capsys, "sweep", "--out", path)
        assert code == 3
        assert "error" in err
        assert path in err

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--alpha-min", "5", "--alpha-max", "1")
        assert code == 2


@pytest.mark.parametrize("argv", [("channel", "--alpha", "inf"),
                                  ("sweep", "--alpha-max", "inf", "--steps", "3")])
def test_non_finite_alpha_exits_2_without_warning(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, *argv)
    assert code == 2
    assert "finite" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestThresholdCommand:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "threshold")
        assert code == 0
        assert "alpha_th" in out
        value = float(out.split()[1])
        assert 5.70 <= value <= 5.82

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "threshold", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"alpha_th", "f_at_threshold", "iterations", "residual",
                                "bracket_width"}
        assert payload["residual"] <= 1e-9
        assert 0.0 < payload["bracket_width"] <= 0.01

    def test_loose_tolerance_uses_fewer_iterations(self, capsys):
        _, loose, _ = run(capsys, "threshold", "--tol", "1e-3", "--json")
        _, tight, _ = run(capsys, "threshold", "--tol", "1e-9", "--json")
        assert json.loads(loose)["iterations"] < json.loads(tight)["iterations"]


class TestSimulateCommand:
    def test_consistent_and_deterministic(self, capsys):
        args = ("simulate", "--alpha", "2", "--shots", "20000", "--seed", "42")
        code, first, _ = run(capsys, *args)
        assert code == 0
        assert "f_tr" in first and "ok" in first
        assert "z=n/a" in first and ("z=+" in first or "z=-" in first)
        code, second, _ = run(capsys, *args)
        assert code == 0
        assert first == second

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "simulate", "--alpha", "2", "--shots", "5000",
                           "--seed", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["consistent"] is True
        assert payload["f_tr_closed"] == pytest.approx(2.0 / 3.0)
        assert {"f_ab_hat", "f_ac_hat", "f_tr_stderr", "shots"} <= set(payload)
        # f_tr and f_ab are exact per shot (stderr 0), so they have no z-score
        assert payload["f_tr_z"] is None and payload["f_ab_z"] is None
        z_ac = (payload["f_ac_hat"] - payload["f_ac_closed"]) / payload["f_ac_stderr"]
        assert payload["f_ac_z"] == z_ac
        assert abs(z_ac) <= 3.0

    def test_zero_shots_exits_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--alpha", "2", "--shots", "0")
        assert code == 2
        assert "shots" in err

    def test_single_shot_exits_2(self, capsys):
        """One shot has no standard error, so the 3-sigma verdict is undefined."""
        code, out, err = run(capsys, "simulate", "--alpha", "2", "--shots", "1")
        assert code == 2
        assert out == ""
        assert "shots" in err

    def test_ensemble_std_flag_is_unknown(self, capsys):
        """The input ensemble has unit width; no flag sets it."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--alpha", "2", "--shots", "50", "--ensemble-std", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag, value", [("--shots", _MAX_SHOTS + 1), ("--workers", _MAX_WORKERS + 1)])
    def test_count_beyond_its_bound_exits_2(self, capsys, flag, value):
        code, out, err = run(capsys, "simulate", "--alpha", "2", flag, str(value))
        assert code == 2
        assert out == ""
        assert flag[2:] in err

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--alpha", "2", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_inconsistent_estimate_exits_5(self, capsys, monkeypatch):
        # force a mismatch by lying about the closed form
        monkeypatch.setattr(checks, "f_noncoop", lambda alpha: 0.9)
        code, out, _ = run(capsys, "simulate", "--alpha", "2", "--shots", "2000", "--seed", "1")
        assert code == 5
        assert "OFF>3SIGMA" in out


class TestSolverFailureExitCode:
    def test_bracket_error_exits_4(self, capsys, monkeypatch):
        from telegame.errors import BracketError

        def broken(tol):
            raise BracketError("no sign change")

        monkeypatch.setattr(cli, "find_threshold", broken)
        code, _, err = run(capsys, "threshold")
        assert code == 4
        assert "no sign change" in err

    def test_unreachable_tolerance_exits_4(self, capsys, monkeypatch):
        # a gap whose root sqrt(2) is no float: |g| > 0 at every bisection point
        from telegame import analysis

        monkeypatch.setattr(analysis, "f_coop_avg", lambda a: 0.5 * a * a)
        monkeypatch.setattr(analysis, "f_noncoop", lambda a: 1.0)
        code, _, err = run(capsys, "threshold", "--tol", "1e-30")
        assert code == 4
        assert "bisection stopped" in err


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert len(lines) == len(checks.CHECKS)
        assert all(line.startswith("PASS") for line in lines)
        assert all(re.search(r"  \d+\.\d{3} s$", line) for line in lines)
        assert [line.split()[1] for line in lines] == [
            "noncloning-optimum",
            "threshold-bracket",
            "fidelity-ordering-grid",
            "channel-physicality-grid",
            "exchange-symmetry-grid",
            "pipeline-noncoop-matches-closed-form",
            "pipeline-fab-matches-closed-form",
            "measurer-average-matches-closed-form",
            "mc-kernel-matches-chain",
            "classical-crossing-noncoop",
            "classical-crossing-coop-larger",
            "sweep-single-crossing",
            "mc-consistency",
            "mc-outcome-spread",
            "mc-determinism",
        ]

    def test_every_check_line_carries_its_time(self, capsys, monkeypatch):
        """Each PASS or FAIL line gives the check's wall time in seconds after
        its name, and a failure message after the time."""
        registry = (("slow-pass", lambda: time.sleep(0.02)), ("quick-fail", lambda: "off by one"))
        monkeypatch.setattr(cli, "CHECKS", registry)
        code, out, err = run(capsys, "verify")
        assert code == 1 and "quick-fail" in err
        lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert [re.fullmatch(r"(PASS|FAIL)  (\S+) +(\d+\.\d{3}) s(.*)", line).group(1, 2, 4) for line in lines] == [
            ("PASS", "slow-pass", ""), ("FAIL", "quick-fail", "  off by one"),
        ]
        assert float(lines[0].split()[2]) >= 0.02

    def test_sign_mutation_is_caught(self, capsys, monkeypatch):
        """Negating the cooperative correction's one coefficient reaches both
        Gaussian paths: the circuit's feedforward and the Monte-Carlo chain's
        modified shift. Exactly the helped receiver's pipeline check and the
        Monte-Carlo consistency check must fail."""
        coefficient = protocols._shift_coefficient
        monkeypatch.setattr(protocols, "_shift_coefficient", lambda params: -coefficient(params))
        checks._mc_kernels.cache_clear()  # build the kernels under the mutation
        checks._mc_estimates.cache_clear()
        try:
            code, out, err = run(capsys, "verify")
        finally:
            checks._mc_kernels.cache_clear()  # drop results computed with the mutation
            checks._mc_estimates.cache_clear()
        assert code == 1
        failing = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
        assert failing == ["pipeline-fab-matches-closed-form", "mc-consistency"]
        assert "failed: pipeline-fab-matches-closed-form, mc-consistency" in err
