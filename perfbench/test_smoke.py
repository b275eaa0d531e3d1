"""Smoke test of the benchmark: every workload at a tiny size.

The in-process tests stand in for the fresh interpreters (verify alone takes
seconds) so they run in well under a second each; `test_command_line` runs
the entry point once at the tiny size, with real fresh interpreters.

Run with `python -m pytest perfbench/test_smoke.py` from the repository root.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import harness
import run
import telegame.cli

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class InProcess(harness.Fresh):
    """Fresh-interpreter stand-in: `simulate` runs in this process, the rest is canned."""

    def until_import(self):
        return 0.2, True

    def interpreter(self):
        return 0.05, True

    def import_inside(self):
        return 0.2, True, 0.15

    def verify_inproc(self):
        return 4.0, True, 3.6

    def cli(self, args):
        if args[0] == "verify":
            return 5.0, 0, "all 15 checks passed\n"
        out = io.StringIO()
        with redirect_stdout(out):
            code = telegame.cli.main(args)
        return 1.0, code, out.getvalue()


def tiny_run(workload, seed=1, trace=False):
    return harness.run_workload(workload, seed, 0.0, trace, harness.TINY, InProcess())


def assert_metrics(line, specs):
    assert set(line["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_and_no_failure(workload):
    record = tiny_run(workload)
    line = harness.result_line(record)
    assert_metrics(line, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert line["attempted"] >= 1
    assert line["failed"] == 0 and record["failed_share"] == 0, record["failures"]
    assert line["correct"] is True


def test_traced_run_reports_every_layer():
    record = tiny_run("mc-deep", trace=True)
    line = harness.result_line(record)
    assert_metrics(line, SPEC["per_layer"])
    assert line["failed"] == 0, record["failures"]
    for layer in harness.LAYERS:
        assert line["metrics"][f"{layer}.self_s"]["value"] > 0, layer
    names = {span[1].split(".", 1)[0] for span in record["spans"]}
    assert set(harness.LAYERS) <= names


@pytest.mark.parametrize("constant, wrong", [
    ("CROSSING_TR", 5.0 + 2.0 * math.sqrt(5.0) + 1e-3),
    ("ALPHA_TH_RANGE", (6.0, 6.1)),
])
def test_wrong_expected_value_is_counted_as_failure(monkeypatch, constant, wrong):
    monkeypatch.setattr(harness, constant, wrong)
    record = tiny_run("crosscheck")
    assert record["failed"] >= 1
    assert harness.result_line(record)["correct"] is False


def test_metrics_are_scaled_to_reference_speed():
    run = harness.Run("crosscheck", 1, False, harness.TINY, InProcess())
    run.reference = [harness.REF_RATE / 2] * 3  # half speed around both steps
    run.add_work("sweeps_per_s", 10, 2.0)
    run.end_block()
    run.step = 1
    run.add_time("verify_s", 8.0)
    values, _, raw = harness.end_to_end(run)
    assert (raw["sweeps_per_s"], values["sweeps_per_s"]) == (5.0, 10.0)
    assert (raw["verify_s"], values["verify_s"]) == (8.0, 4.0)


def test_same_seed_same_inputs_and_estimates():
    first, again, other = tiny_run("mc-deep", 7), tiny_run("mc-deep", 7), tiny_run("mc-deep", 8)
    assert first["digests_first_steps"] == again["digests_first_steps"]
    assert first["digests_first_steps"]["inputs"] != other["digests_first_steps"]["inputs"]


def test_command_line(monkeypatch, capsys):
    monkeypatch.setattr(harness, "FULL", harness.TINY)
    assert run.main(["--workload", "crosscheck", "--seed", "3", "--seconds", "0",
                     "--trace", "0"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert_metrics(line, SPEC["end_to_end"])
    assert line["correct"] is True and line["failed"] == 0


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
