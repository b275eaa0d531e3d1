"""Workloads, correctness gates and tracing for the telegame benchmark.

The benchmark drives the package from outside, as a client would: it calls
the public functions of `channel`, `gaussian`, `protocols`, `analysis` and
`montecarlo` in this process, and runs `cli` commands in fresh interpreters.
All load is closed loop from a single client; the only extra threads are the
`workers=2` calls of `estimate_fidelities`.

A run is a sequence of steps of five kinds: a block of the workload's own
in-process load, a block of the other workload's load (for the in-process
end-to-end metrics the own load does not produce), a `setup_s` sample, a
fresh `telegame verify` and a fresh `telegame simulate`. Each kind gets a
fixed share of the run's time (`SHARES`), and the steps interleave, so that
every kind samples the whole run. Every run reports every end-to-end metric.

On a shared two-vCPU virtual machine the speed drifts by tens of percent over
seconds and minutes, whatever the benchmark does, and the drift slows
in-process calls and fresh processes alike. So before every step, and once
after the last, the benchmark times a short slice of a fixed reference kernel
that does not use telegame (see `reference_unit`), and each end-to-end metric
is reported at reference speed: every timed interval is scaled by the
reference rate around its step over `REF_RATE`. A change to the program moves
its own times and leaves the reference alone; a change in the machine's speed
moves both. The record and the report keep the unscaled values as well.

Every timed operation is checked, and a failed check counts against the
run's `attempted` operations.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import telegame as tg  # noqa: E402
from telegame.gaussian import beam_splitter_matrix  # noqa: E402

# --- correctness gates --------------------------------------------------------

# 5 standard errors, not simulate's 3: MC seeds are fresh in every run and a
# run makes a few hundred estimates, so at 3 sigma a correct estimator would
# fail a large share of runs; at 5 sigma the false-alarm rate is about 6e-7
# per estimate. The floor covers estimators whose sample spread is exactly
# zero (f_tr and f_ab do not depend on the records).
MC_SIGMAS = 5.0
STAT_FLOOR = 1e-12
PIPELINE_TOL = 1e-10
CLOSED_FORM_RTOL = 1e-9
ALPHA_TH_RANGE = (5.70, 5.82)
THRESHOLD_RESIDUAL = 1e-9
CROSSING_TR = 5.0 + 2.0 * math.sqrt(5.0)
CROSSING_TOL = 1e-6
SIMULATE_OK_CODES = (0, 5)  # 5 is simulate's own 3-sigma verdict, allowed here
# spread of a record-independent estimator (f_tr, f_ab) per shot; z-scores
# are only meaningful above it
DEGENERATE_SPREAD = 1e-9

VERIFY_ALPHAS = (0.5, 2.0, 5.76, 10.0)
GRID_RANGE = (0.5, 50.0)
GRID_BATCH = 64  # closed-form triples per timed sample
PROBE_SHOTS = 4096  # one chunk of the estimator
CLI_TIMEOUT_S = 120.0


def oracle(alpha: float) -> tuple[float, float, float]:
    """(f_noncoop, f_ab_coop, f_ac_coop) from cancellation-free forms.

    With s = sqrt(2a-1) sqrt(a+1): kappa = (a+1)(a+13) / (4 ((3a+3)/2 + s))
    and the cooperative denominator (a+2) kappa - 2 (delta-gamma)^2 equals
    (8a+7)/2 - 2s. Written independently of the package's own forms.
    """
    a = alpha
    s = math.sqrt(2.0 * a - 1.0) * math.sqrt(a + 1.0)
    kap = (a + 1.0) * (a + 13.0) / (4.0 * ((3.0 * a + 3.0) / 2.0 + s))
    return 1.0 / kap, (a + 2.0) / ((8.0 * a + 7.0) / 2.0 - 2.0 * s), 1.0 / (kap + 1.0)


def _close(got: float, want: float, rtol: float = CLOSED_FORM_RTOL) -> bool:
    return abs(got - want) <= rtol * abs(want)


# --- machine-speed reference -------------------------------------------------------

# units per second of `reference_unit` on a typical stretch of a shared 2-vCPU
# Xeon VM (Python 3.11, numpy 2.4); end-to-end metrics are scaled to it
REF_RATE = 1500.0
# A fresh process runs 0.2-6 s, possibly on the other vCPU, so it is scaled by
# the reference slices of this many steps on either side rather than the two
# around its own step. Over ten runs a workload that cut the interquartile
# spread of verify_s from about 0.11 to 0.05-0.06 of its median and of
# simulate_s from 0.09-0.12 to 0.06-0.09; in-process blocks did best with
# their own two slices.
FRESH_WINDOW = 4
_REF_M = np.fromfunction(lambda i, j: 1.0 / (1.0 + i + j), (10, 10)) + 2.0 * np.eye(10)


def reference_unit() -> float:
    """Fixed work that does not touch telegame, about 0.6 ms: half interpreted
    float arithmetic, half small numpy calls on a 10x10 matrix, the two kinds
    of work the program's calls are made of."""
    s = 0.0
    for i in range(1, 1500):
        s += math.sqrt(i) / (i + 0.5)
    x = _REF_M
    for _ in range(25):
        x = np.linalg.solve(_REF_M, x @ _REF_M.T) * 0.5
    return s + float(x[0, 0])


# --- sizes and schedule ---------------------------------------------------------

# Share of a run's time per kind of step. Every run must report every
# end-to-end metric, each steady from run to run. Even at reference speed
# single steps scatter by about 15%, so a metric settles with its number of
# steps: a fresh verify takes 5-6 s and gets the largest share, while the
# in-process blocks are short and many.
SHARES = {"verify": 0.45, "simulate": 0.16, "setup": 0.03, "own": 0.20, "other": 0.16}


@dataclass(frozen=True)
class Scale:
    """Work per step. `TINY` only exercises every path, for the smoke test."""

    deep_alphas: int = 1  # per block, of verify's four in turn
    # eight chunks of the estimator: an even count, so workers=2 splits them
    # evenly, and enough shots that the per-alpha kernel build stays ~1% of a
    # call even after the shot loop gets much faster
    deep_shots: int = 32_768
    pipelines: int = 120
    closed: int = 150
    sweeps: int = 50
    thresholds: int = 12
    simulate_shots: int = 100_000
    micro_batches: int = 9
    ref_slice_s: float = 0.15  # reference kernel before each step


FULL = Scale()
TINY = Scale(deep_shots=300, pipelines=2, closed=2, sweeps=1, thresholds=1,
             simulate_shots=2000, micro_batches=2, ref_slice_s=0.0)


# --- seeded inputs ------------------------------------------------------------


class Inputs:
    """Every input the program receives, drawn from the workload seed.

    Each kind of input has its own stream, so how much of one kind a run
    consumes never shifts another. Every draw is logged so the run can
    regenerate its inputs from the seed and confirm they are identical.
    """

    KINDS = ("mc_seed", "pipeline", "grid", "cli_seed")

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = {k: np.random.default_rng([seed, i]) for i, k in enumerate(self.KINDS)}
        self.log: list[tuple[str, tuple, object]] = []

    def _draw(self, kind: str, args: tuple, value):
        self.log.append((kind, args, value))
        return value

    def mc_seed(self) -> int:
        return self._draw("mc_seed", (), int(self._rng["mc_seed"].integers(0, 2**63)))

    def pipeline(self) -> tuple:
        """(alpha, amp, eta, mu) as `verify` draws them."""
        rng = self._rng["pipeline"]
        alpha = float(0.5 + 49.5 * rng.random())
        amp, eta, mu = (tg.ComplexAmplitude(*rng.normal(0.0, 2.0, 2)) for _ in range(3))
        return self._draw("pipeline", (), (alpha, amp, eta, mu))

    def grid(self, n: int) -> list[float]:
        return self._draw("grid", (n,), self._rng["grid"].uniform(*GRID_RANGE, n).tolist())

    def cli_seed(self) -> int:
        return self._draw("cli_seed", (), int(self._rng["cli_seed"].integers(0, 2**32)))

    def replay_matches(self) -> bool:
        fresh = Inputs(self.seed)
        for kind, args, value in self.log:
            if getattr(fresh, kind)(*args) != value:
                return False
        return True


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


# --- fresh interpreters ---------------------------------------------------------


class Fresh:
    """Runs Python in a new interpreter that imports the checkout's `src`.

    Every `cli` and `setup_s` sample starts a new interpreter because that
    is what users pay per command, and because `verify` caches its Monte-Carlo
    estimates per process (`_mc_estimates` is an lru_cache, about 3.0 s of
    verify's 3.6 s of in-process work): a repeat inside one process would
    time a cache hit.
    """

    def __init__(self):
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(self, args: list[str]) -> tuple[float, int | None, str]:
        """Wall time, exit code (None on timeout) and stdout of one child."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *args], env=self.env, cwd=ROOT, capture_output=True,
                text=True, timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return time.perf_counter() - t0, None, ""
        return time.perf_counter() - t0, proc.returncode, proc.stdout

    def until_import(self) -> tuple[float, bool]:
        """Seconds from spawning an interpreter until `import telegame` returns."""
        code = "import telegame, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], env=self.env, cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            try:
                proc.wait(timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        return seconds, line == "ready\n" and proc.returncode == 0

    def cli(self, args: list[str]) -> tuple[float, int | None, str]:
        """`python -m telegame.cli <args>`, as a user runs it."""
        return self.run(["-m", "telegame.cli", *args])

    def interpreter(self) -> tuple[float, bool]:
        """Wall time of a bare `python -c pass`."""
        seconds, code, _ = self.run(["-c", "pass"])
        return seconds, code == 0

    def import_inside(self) -> tuple[float, bool, float]:
        """Wall time of a child, and `import telegame` as timed inside it."""
        seconds, code, out = self.run(["-c", (
            "import time; t = time.perf_counter(); import telegame; "
            "print(time.perf_counter() - t)"
        )])
        try:
            return seconds, code == 0, float(out.strip())
        except ValueError:
            return seconds, False, float("nan")

    def verify_inproc(self) -> tuple[float, bool, float]:
        """Wall time of a child, and `main(["verify"])` as timed inside it after import."""
        seconds, code, out = self.run(["-c", (
            "import json, time; import telegame.cli as c; t = time.perf_counter(); "
            "rc = c.main(['verify']); print(json.dumps([rc, time.perf_counter() - t]))"
        )])
        try:
            rc, inner = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return seconds, False, float("nan")
        return seconds, code == 0 and rc == 0, inner


# --- one run ----------------------------------------------------------------------


class Run:
    """Samples, checks and (when tracing) spans of one benchmark run.

    Timing is taken before any span bookkeeping, so a traced run times the
    same intervals as an untraced one; the bookkeeping itself is timed and
    reported as the tracing overhead.
    """

    def __init__(self, workload: str, seed: int, trace: bool, scale: Scale, fresh: Fresh):
        self.workload = workload
        self.scale = scale
        self.fresh = fresh
        self.inputs = Inputs(seed)
        self.rates: dict[str, list[tuple]] = {}  # series -> (work, s, step) per block
        self._block: dict[str, list[float]] = {}
        self.times: dict[str, list[tuple[float, int]]] = {}  # series -> (value, step)
        self.step = 0  # index of the current step of the schedule
        self.reference: list[float] = []  # rate of the reference slice before each step
        self.deep_blocks = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.mc_results: list[tuple] = []
        self.max_abs_z = 0.0
        self.max_pipeline_err = 0.0
        self.threshold_iterations = 0
        self.w_pair_seconds = [0.0, 0.0]  # workers=1, workers=2 on identical configs
        self.w_pair_shots = 0
        self.run_id = f"{workload}-{seed}-{os.getpid()}"
        self.spans: list[tuple] | None = [] if trace else None
        self.bookkeeping_s = 0.0
        self._open: list[int] = []

    # samples and checks

    def add_work(self, series: str, work: float, seconds: float) -> None:
        """Add to the current block's total for a throughput series."""
        total = self._block.setdefault(series, [0.0, 0.0])
        total[0] += work
        total[1] += seconds

    def end_block(self) -> None:
        for series, (work, seconds) in self._block.items():
            self.rates.setdefault(series, []).append((work, seconds, self.step))
        self._block = {}

    def add_time(self, series: str, seconds: float) -> None:
        self.times.setdefault(series, []).append((seconds, self.step))

    def values(self, series: str) -> list[float]:
        return [v for v, _ in self.times[series]]

    def reference_slice(self) -> None:
        """Run the reference kernel for `ref_slice_s` and record its rate."""
        n, t0 = 0, time.perf_counter()
        while True:
            reference_unit()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= self.scale.ref_slice_s:
                break
        self.reference.append(n / elapsed)

    def speeds(self, window: int = 0) -> list[float]:
        """Per step: mean rate of the reference slices on either side of it,
        and of `window` more steps each way, over REF_RATE."""
        r = self.reference
        return [
            statistics.fmean(r[max(0, i - window):i + 2 + window]) / REF_RATE
            for i in range(len(r) - 1)
        ]

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)

    # timing and spans

    def call(self, name: str, fn, *args, **kwargs):
        """Time one call into the program; returns (seconds, result)."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        if self.spans is not None:
            self._record(name, t0, t1)
        return t1 - t0, result

    def timed(self, name: str, t0: float, t1: float) -> None:
        """Record a span for an interval the caller timed itself."""
        if self.spans is not None:
            self._record(name, t0, t1)

    def _record(self, name: str, t0: float, t1: float) -> None:
        b0 = time.perf_counter()
        parent = self._open[-1] if self._open else None
        self.spans.append((len(self.spans), name, t0, t1, parent, self.run_id))
        self.bookkeeping_s += time.perf_counter() - b0

    @contextmanager
    def stage(self, name: str):
        """A benchmark-side span (layer `bench`) that parents the calls inside it."""
        if self.spans is None:
            yield
            return
        b0 = time.perf_counter()
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)  # placeholder keeps ids in start order
        self._open.append(sid)
        self.bookkeeping_s += time.perf_counter() - b0
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            b0 = time.perf_counter()
            self._open.pop()
            self.spans[sid] = (sid, name, t0, t1, parent, self.run_id)
            self.bookkeeping_s += time.perf_counter() - b0


# --- operations: each is timed, then checked ------------------------------------


def setup_sample(run: Run) -> None:
    t0 = time.perf_counter()
    seconds, ok = run.fresh.until_import()
    run.timed("cli.import", t0, t0 + seconds)
    run.add_time("setup_s", seconds)
    run.check(ok, "import telegame failed in a fresh interpreter")


def _check_estimate(run: Run, cfg, est) -> None:
    closed = (tg.f_noncoop(cfg.alpha), tg.f_ab_coop(cfg.alpha), tg.f_ac_coop(cfg.alpha))
    hats = (est.f_tr_hat, est.f_ab_hat, est.f_ac_hat)
    errs = (est.stderr_tr, est.stderr_ab, est.stderr_ac)
    if est.shots < 2:  # no standard error: the record-independent estimators are exact
        ok = all(abs(h - c) <= STAT_FLOOR for c, h in zip(closed[:2], hats[:2]))
        run.check(ok and 0.0 < hats[2] <= 1.0, f"single-shot estimate wrong at alpha={cfg.alpha}")
        return
    ok = True
    for c, h, e in zip(closed, hats, errs):
        dev = abs(h - c)
        ok = ok and dev <= MC_SIGMAS * e + STAT_FLOOR
        if e * math.sqrt(est.shots) > DEGENERATE_SPREAD:
            run.max_abs_z = max(run.max_abs_z, dev / e)
    run.check(ok, f"MC estimate beyond {MC_SIGMAS:g} stderr of the closed form at alpha={cfg.alpha}")


def mc_call(run: Run, cfg, workers: int):
    seconds, est = run.call(
        "montecarlo.estimate_fidelities", tg.estimate_fidelities, cfg, workers=workers
    )
    run.mc_results.append((cfg, workers, est))
    return seconds, est


def pipeline_pair(run: Run) -> None:
    alpha, amp, eta, mu = run.inputs.pipeline()
    t1, tr = run.call("protocols.run_noncoop_pipeline", tg.run_noncoop_pipeline, alpha, amp, eta)
    t2, ab = run.call("protocols.run_coop_pipeline", tg.run_coop_pipeline, alpha, amp, eta, mu)
    run.add_work("pipeline_runs_per_s", 1, t1 + t2)
    run.add_time("protocols.noncoop_pipeline_us", t1 * 1e6)
    run.add_time("protocols.coop_pipeline_us", t2 * 1e6)
    err = max(abs(tr.fidelity_bob - tg.f_noncoop(alpha)), abs(ab.fidelity_bob - tg.f_ab_coop(alpha)))
    run.max_pipeline_err = max(run.max_pipeline_err, err)
    run.check(err <= PIPELINE_TOL, f"pipeline off its closed form by {err:.3e} at alpha={alpha}")


def _triples(alphas):
    return [(tg.f_noncoop(a), tg.f_ab_coop(a), tg.f_ac_coop(a)) for a in alphas]


def closed_batch(run: Run) -> None:
    alphas = run.inputs.grid(GRID_BATCH)
    seconds, triples = run.call("protocols.closed_forms", _triples, alphas)
    run.add_work("closed_form_evals_per_s", len(alphas), seconds)
    ok = all(
        all(_close(g, w) for g, w in zip(got, oracle(a))) for a, got in zip(alphas, triples)
    )
    run.check(ok, "closed-form triple off the oracle")


def _sweep_ok(rows) -> bool:
    if len(rows) != 200 or rows[0].alpha != 0.5 or rows[-1].alpha != 12.0:
        return False
    for r in rows:
        f_tr, f_ab, f_ac = oracle(r.alpha)
        if not (_close(r.f_tr, f_tr) and _close(r.f_ab, f_ab) and _close(r.f_ac, f_ac)):
            return False
        if not _close(r.f_coop, 0.5 * (f_ab + f_ac)):
            return False
    gaps = [r.f_coop - r.f_tr for r in rows]
    brackets = [
        (rows[i].alpha, rows[i + 1].alpha)
        for i in range(len(rows) - 1)
        if (gaps[i] < 0.0) != (gaps[i + 1] < 0.0)
    ]
    lo, hi = ALPHA_TH_RANGE
    return len(brackets) == 1 and brackets[0][0] <= hi and brackets[0][1] >= lo


def sweep_call(run: Run) -> None:
    seconds, rows = run.call("analysis.sweep", tg.sweep, 0.5, 12.0, 200)
    run.add_work("sweeps_per_s", 1, seconds)
    run.add_time("analysis.sweep_ms", seconds * 1e3)
    run.check(_sweep_ok(rows), "sweep(0.5, 12, 200) rows wrong or crossing misplaced")


def threshold_pair(run: Run) -> None:
    t1, th = run.call("analysis.find_threshold", tg.find_threshold, 1e-9)
    t2, (a_tr, a_coop) = run.call("analysis.find_classical_crossings", tg.find_classical_crossings)
    run.add_work("threshold_solves_per_s", 1, t1 + t2)
    run.add_time("analysis.threshold_ms", t1 * 1e3)
    run.add_time("analysis.crossings_ms", t2 * 1e3)
    run.threshold_iterations = th.iterations
    lo, hi = ALPHA_TH_RANGE
    ok = (
        lo <= th.alpha_th <= hi
        and th.residual <= THRESHOLD_RESIDUAL
        and abs(a_tr - CROSSING_TR) <= CROSSING_TOL
        and a_coop > a_tr
    )
    run.check(ok, f"threshold {th.alpha_th} or crossings ({a_tr}, {a_coop}) off")


def verify_once(run: Run) -> None:
    t0 = time.perf_counter()
    seconds, code, _ = run.fresh.cli(["verify"])
    run.timed("cli.verify", t0, t0 + seconds)
    run.add_time("verify_s", seconds)
    run.check(code == 0, f"fresh `telegame verify` exited {code}")


def _simulate_ok(code, out: str) -> bool:
    if code not in SIMULATE_OK_CODES:
        return False
    try:
        payload = json.loads(out.strip().splitlines()[-1])
        return all(
            abs(payload[f"{k}_hat"] - payload[f"{k}_closed"])
            <= MC_SIGMAS * payload[f"{k}_stderr"] + STAT_FLOOR
            for k in ("f_tr", "f_ab", "f_ac")
        )
    except (ValueError, IndexError, KeyError, TypeError):
        return False


def simulate_once(run: Run) -> None:
    args = [
        "simulate", "--alpha", "2", "--shots", str(run.scale.simulate_shots),
        "--seed", str(run.inputs.cli_seed()), "--json",
    ]
    t0 = time.perf_counter()
    seconds, code, out = run.fresh.cli(args)
    run.timed("cli.simulate", t0, t0 + seconds)
    run.add_time("simulate_s", seconds)
    run.check(_simulate_ok(code, out), f"fresh `telegame simulate` exited {code} or z > 5")


# --- workloads -------------------------------------------------------------------


def deep_block(run: Run) -> None:
    """Verify's alphas in turn at workers=1, then the same configs at workers=2.

    workers=2 comes last so no single-thread call directly follows it; the
    two estimates of each config must be bit-identical.
    """
    s = run.scale
    n = len(VERIFY_ALPHAS)
    start = run.deep_blocks * s.deep_alphas
    alphas = [VERIFY_ALPHAS[(start + i) % n] for i in range(s.deep_alphas)]
    run.deep_blocks += 1
    cfgs = [tg.McConfig(shots=s.deep_shots, seed=run.inputs.mc_seed(), alpha=a) for a in alphas]
    firsts = []
    for cfg in cfgs:
        seconds, est = mc_call(run, cfg, 1)
        run.add_work("mc_shots_per_s", cfg.shots, seconds)
        _check_estimate(run, cfg, est)
        firsts.append(est)
        run.w_pair_seconds[0] += seconds
        run.w_pair_shots += cfg.shots
    for cfg, first in zip(cfgs, firsts):
        seconds, est = mc_call(run, cfg, 2)
        run.add_work("mc_shots_per_s_w2", cfg.shots, seconds)
        run.check(est == first, f"workers=2 estimate differs from workers=1 at alpha={cfg.alpha}")
        run.w_pair_seconds[1] += seconds


def crosscheck_block(run: Run) -> None:
    s = run.scale
    for _ in range(s.pipelines):
        pipeline_pair(run)
    for _ in range(s.closed):
        closed_batch(run)
    for _ in range(s.sweeps):
        sweep_call(run)
    for _ in range(s.thresholds):
        threshold_pair(run)


@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[Run], None]  # the workload's own in-process load, per block
    own: tuple[str, ...]  # in-process end-to-end metrics that load produces
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-deep", deep_block, ("mc_shots_per_s", "mc_shots_per_s_w2"),
            "estimate_fidelities at verify's four alphas in turn, 32768 shots each, at "
            "workers=1 then 2: per-shot cost and the GIL",
        ),
        Workload(
            "crosscheck", crosscheck_block,
            ("pipeline_runs_per_s", "closed_form_evals_per_s", "sweeps_per_s",
             "threshold_solves_per_s"),
            "pipelines vs closed forms, closed-form grid, sweep and threshold solves: "
            "no Monte-Carlo in its own load",
        ),
    )
}


# --- per-layer probes (traced runs only) ------------------------------------------


def _repeat(fn, args, n):
    for _ in range(n):
        result = fn(*args)
    return result


def micro(run: Run, name: str, fn, args, batch: int, check) -> float:
    """Median seconds per call of `fn(*args)` over batches of `batch` calls."""
    per_call = []
    for _ in range(run.scale.micro_batches):
        seconds, result = run.call(name, _repeat, fn, args, batch)
        per_call.append(seconds / batch)
        run.check(bool(check(result)), f"{name} returned a wrong value")
    return statistics.median(per_call)


def layer_probes(run: Run) -> dict[str, float]:
    """Direct timings of single layer functions, each checked."""
    out = {}
    alpha = 5.76
    params = tg.channel_params(alpha)
    f_tr, f_ab, f_ac = oracle(alpha)
    kap = 1.0 / f_tr
    amp = tg.ComplexAmplitude(0.7, -0.1)
    joint = tg.tensor(tg.tensor(tg.make_coherent(amp), tg.build_cm(params)), tg.vacuum(1))
    bs = beam_splitter_matrix(5, 1, 0)

    out["channel.build_cm_us"] = micro(
        run, "channel.build_cm", lambda a: tg.build_cm(tg.channel_params(a)), (alpha,), 200,
        lambda st: st.modes == 3 and abs(st.cov[0, 0] - alpha) == 0.0,
    )
    out["channel.kappa_us"] = micro(run, "channel.kappa", tg.kappa, (alpha,), 500,
                                    lambda k: _close(k, kap))
    out["gaussian.state_new_us"] = micro(
        run, "gaussian.GaussianState", tg.GaussianState, (5, joint.mean, joint.cov), 200,
        lambda st: np.array_equal(st.cov, joint.cov),
    )
    out["gaussian.apply_symplectic_us"] = micro(
        run, "gaussian.apply_symplectic", tg.apply_symplectic, (joint, bs), 100,
        lambda st: np.allclose(st.cov, bs @ joint.cov @ bs.T, rtol=0, atol=1e-12),
    )
    out["gaussian.homodyne_update_us"] = micro(
        run, "gaussian.homodyne_update", tg.homodyne_update, (joint, 1, "x", 0.3), 100,
        lambda st: st.modes == 4 and tg.physicality(st.cov),
    )
    out["gaussian.partial_trace_us"] = micro(
        run, "gaussian.partial_trace", tg.partial_trace, (joint, [2]), 200,
        lambda st: np.array_equal(st.cov, joint.cov[4:6, 4:6]),
    )
    single = tg.partial_trace(joint, [0])
    out["gaussian.fidelity_vs_coherent_us"] = micro(
        run, "gaussian.fidelity_vs_coherent", tg.fidelity_vs_coherent, (single, amp), 200,
        lambda f: abs(f - 1.0) <= 1e-12,
    )
    out["gaussian.physicality_us"] = micro(
        run, "gaussian.physicality", tg.physicality, (tg.build_cm(params).cov,), 50, bool
    )
    out["protocols.f_noncoop_us"] = micro(run, "protocols.f_noncoop", tg.f_noncoop, (alpha,),
                                          500, lambda f: _close(f, f_tr))
    out["protocols.f_ab_coop_us"] = micro(run, "protocols.f_ab_coop", tg.f_ab_coop, (alpha,),
                                          500, lambda f: _close(f, f_ab))
    out["protocols.f_ac_coop_us"] = micro(run, "protocols.f_ac_coop", tg.f_ac_coop, (alpha,),
                                          500, lambda f: _close(f, f_ac))
    out = {k: v * 1e6 for k, v in out.items()}

    # estimate_fidelities: fixed cost per call, and marginal cost per shot
    one_shot = []
    for _ in range(run.scale.micro_batches):
        cfg = tg.McConfig(shots=1, seed=run.inputs.mc_seed(), alpha=2.0)
        seconds, est = mc_call(run, cfg, 1)
        _check_estimate(run, cfg, est)
        one_shot.append(seconds)
    out["montecarlo.call_overhead_ms"] = statistics.median(one_shot) * 1e3
    short, long_ = PROBE_SHOTS, 5 * PROBE_SHOTS
    per_shot = []
    for _ in range(max(1, run.scale.micro_batches // 3)):
        cfg_s = tg.McConfig(shots=short, seed=run.inputs.mc_seed(), alpha=2.0)
        cfg_l = tg.McConfig(shots=long_, seed=run.inputs.mc_seed(), alpha=2.0)
        ts, est_s = mc_call(run, cfg_s, 1)
        tl, est_l = mc_call(run, cfg_l, 1)
        _check_estimate(run, cfg_s, est_s)
        _check_estimate(run, cfg_l, est_l)
        per_shot.append((tl - ts) / (long_ - short))
    out["montecarlo.shot_us"] = statistics.median(per_shot) * 1e6

    # cli: bare interpreter, import inside the child, verify once in-process
    interp, imports = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        seconds, ok = run.fresh.interpreter()
        run.timed("cli.interpreter", t0, t0 + seconds)
        run.check(ok, "bare interpreter failed")
        interp.append(seconds)
        t0 = time.perf_counter()
        seconds, ok, inner = run.fresh.import_inside()
        run.timed("cli.import", t0, t0 + seconds)
        run.check(ok, "import telegame failed")
        imports.append(inner)
    out["cli.interpreter_s"] = statistics.median(interp)
    out["cli.import_s"] = statistics.median(imports)
    t0 = time.perf_counter()
    seconds, ok, inner = run.fresh.verify_inproc()
    run.timed("cli.main", t0, t0 + seconds)
    run.check(ok, "in-process verify failed")
    out["cli.verify_inproc_s"] = inner
    return out


# --- metrics ------------------------------------------------------------------------

# name -> (unit, better); the order is the report's order
END_TO_END = {
    "setup_s": ("s", "lower"),
    "mc_shots_per_s": ("shots/s", "higher"),
    "mc_shots_per_s_w2": ("shots/s", "higher"),
    "pipeline_runs_per_s": ("runs/s", "higher"),
    "closed_form_evals_per_s": ("evals/s", "higher"),
    "sweeps_per_s": ("1/s", "higher"),
    "threshold_solves_per_s": ("1/s", "higher"),
    "verify_s": ("s", "lower"),
    "simulate_s": ("s", "lower"),
}

LAYERS = ("channel", "gaussian", "protocols", "analysis", "montecarlo", "cli")

PER_LAYER = {
    "channel.build_cm_us": "us",
    "channel.kappa_us": "us",
    "gaussian.state_new_us": "us",
    "gaussian.apply_symplectic_us": "us",
    "gaussian.homodyne_update_us": "us",
    "gaussian.partial_trace_us": "us",
    "gaussian.fidelity_vs_coherent_us": "us",
    "gaussian.physicality_us": "us",
    "protocols.f_noncoop_us": "us",
    "protocols.f_ab_coop_us": "us",
    "protocols.f_ac_coop_us": "us",
    "protocols.noncoop_pipeline_us": "us",
    "protocols.coop_pipeline_us": "us",
    "protocols.max_pipeline_err": "abs",
    "analysis.sweep_ms": "ms",
    "analysis.threshold_ms": "ms",
    "analysis.crossings_ms": "ms",
    "analysis.threshold_iterations": "count",
    "montecarlo.call_overhead_ms": "ms",
    "montecarlo.shot_us": "us",
    "montecarlo.w2_speedup": "ratio",
    "montecarlo.max_abs_z": "stderr",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.verify_inproc_s": "s",
    **{f"{layer}.self_s": "s" for layer in (*LAYERS, "bench")},
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "failed_share": "ratio",
    "bench.reference_rate": "units/s",
}


def summarize(values: list[float], better: str) -> dict:
    """Sample count, median, quartiles and, past 20 samples, the worst-side
    percentile that still has at least ten samples beyond it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if n > 20:
        p = math.floor(100 * (1 - 10 / n))
        cut = statistics.quantiles(values, n=100)
        out[f"p{p}"] = cut[p - 1] if better == "lower" else cut[100 - p - 1]
    return out


def end_to_end(run: Run) -> tuple[dict, dict, dict]:
    """Metric values at reference speed, per-metric sample summaries, and
    the same values unscaled.

    Every timed interval is multiplied by its step's speed: the reference rate
    around the step (over a wider window for fresh processes) over `REF_RATE`.
    On a shared two-vCPU virtual machine the program's rate over 6 s windows
    spread by an interquartile 0.33-0.39 of its median over three minutes,
    and its ratio to the reference rate in the same windows by 0.05-0.07.

    A throughput is the run's total work over the total (scaled) time of its
    timed calls, each call's fixed cost included. The summaries describe the
    scaled rates of single blocks. A duration (`verify_s`, `simulate_s`) is
    the mean of its fresh-process samples: a run has only a few. `setup_s`
    is the median of its samples.
    """
    speed, wide = run.speeds(), run.speeds(FRESH_WINDOW)
    values, summaries, raw = {}, {}, {}
    for metric, (_, better) in END_TO_END.items():
        if metric in run.rates:
            blocks = run.rates[metric]
            summaries[metric] = summarize([w / (t * speed[i]) for w, t, i in blocks], better)
            work = sum(w for w, _, _ in blocks)
            values[metric] = work / sum(t * speed[i] for _, t, i in blocks)
            raw[metric] = work / sum(t for _, t, _ in blocks)
        elif metric in run.times:
            samples = run.times[metric]
            scaled = [t * wide[i] for t, i in samples]
            summaries[metric] = summarize(scaled, better)
            mid = statistics.median if metric == "setup_s" else statistics.fmean
            values[metric] = mid(scaled)
            raw[metric] = mid([t for t, _ in samples])
        else:
            values[metric], summaries[metric], raw[metric] = float("nan"), {"n": 0}, float("nan")
    return values, summaries, raw


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Span duration minus the part covered by its children, summed per layer."""
    child_cover = [0.0] * len(spans)
    for sid, _, t0, t1, parent, _ in spans:
        if parent is not None:
            child_cover[parent] += t1 - t0
    totals = {layer: 0.0 for layer in (*LAYERS, "bench")}
    for sid, name, t0, t1, _, _ in spans:
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + (t1 - t0) - child_cover[sid]
    return totals


# --- environment ----------------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "telegame": tg.__version__,
        "git_commit": _git_commit(),
        "load": "closed loop, 1 client thread; estimate_fidelities workers=2 adds 1 thread",
        "seed": seed,
        "machine": "shared; the benchmark pins no CPU, changes no cgroup and drops no cache",
    }


# --- one workload run ---------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: Scale | None = None, fresh: Fresh | None = None) -> dict:
    """Run one workload and return its full result record."""
    wl = WORKLOADS[name]
    (other,) = (w for w in WORKLOADS.values() if w is not wl)
    run = Run(name, seed, trace, scale or FULL, fresh or Fresh())
    run.fresh.until_import()  # fills bytecode caches; users do not pay that per run

    def in_process(block):
        # the benchmark's own records grow all run; freezing them keeps the
        # collector from charging their traversal to timed calls
        gc.collect()
        gc.freeze()
        block(run)
        run.end_block()

    steps = {
        "own": lambda: in_process(wl.block),
        "other": lambda: in_process(other.block),
        "setup": lambda: setup_sample(run),
        "verify": lambda: verify_once(run),
        "simulate": lambda: simulate_once(run),
    }
    spent = dict.fromkeys(SHARES, 0.0)
    counts = dict.fromkeys(SHARES, 0)
    schedule = []

    def step(kind):
        with run.stage("bench.reference"):
            run.reference_slice()
        t0 = time.perf_counter()
        with run.stage(f"bench.{kind}"):
            steps[kind]()
        spent[kind] += time.perf_counter() - t0
        counts[kind] += 1
        schedule.append(kind)
        run.step += 1

    start = time.perf_counter()
    with run.stage("bench.run"):
        for kind in SHARES:  # one of each, so every metric has a sample
            step(kind)
        digests = {  # identical for every run with this seed, however long it runs
            "inputs": _digest(run.inputs.log),
            "mc_estimates": _digest(r[2] for r in run.mc_results),
        }
        # then the kind furthest behind its share of the time spent, among
        # those whose typical step still fits before the end
        while True:
            left = seconds - (time.perf_counter() - start)
            total = sum(spent.values())
            fits = [k for k in SHARES if spent[k] / counts[k] <= left]
            if not fits:
                break
            step(max(fits, key=lambda k: SHARES[k] * total - spent[k]))
        with run.stage("bench.reference"):
            run.reference_slice()  # closes the last step
        measured_s = time.perf_counter() - start

        with run.stage("bench.determinism"):
            run.check(run.inputs.replay_matches(), "inputs regenerated from the seed differ")
            cfg, workers, first = run.mc_results[0]
            _, again = mc_call(run, cfg, workers)
            run.check(again == first, "MC estimate not bit-identical on rerun with the same seed")

        layers = None
        if trace:
            with run.stage("bench.layers"):
                layers = layer_probes(run)

    e2e, summaries, raw = end_to_end(run)
    record = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": "full" if run.scale == FULL else "tiny",
        "steps": counts,
        "step_seconds": spent,
        "measured_s": measured_s,
        "own_metrics": ["setup_s", *wl.own, "verify_s", "simulate_s"],
        "end_to_end": e2e,
        "end_to_end_unscaled": raw,
        "summaries": summaries,
        "schedule": schedule,
        "reference_rates": run.reference,
        # unscaled (work, seconds, step) per block of a throughput, (seconds,
        # step) per sample of a duration; step indexes `schedule`
        "samples": {m: run.rates.get(m) or run.times.get(m, []) for m in END_TO_END},
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_share": run.failed / run.attempted,
        "failures": run.failures,
        "digests_first_steps": digests,
        "environment": environment(seed),
    }
    if trace:
        per_layer = dict(layers)
        for metric in ("protocols.noncoop_pipeline_us", "protocols.coop_pipeline_us",
                       "analysis.sweep_ms", "analysis.threshold_ms", "analysis.crossings_ms"):
            per_layer[metric] = statistics.median(run.values(metric))
        per_layer["protocols.max_pipeline_err"] = run.max_pipeline_err
        per_layer["analysis.threshold_iterations"] = run.threshold_iterations
        w1, w2 = run.w_pair_seconds
        per_layer["montecarlo.w2_speedup"] = w1 / w2
        record["w2_speedup_base"] = (
            f"{w1:.3f} s at workers=1 / {w2:.3f} s at workers=2 over {run.w_pair_shots} shots each"
        )
        per_layer["montecarlo.max_abs_z"] = run.max_abs_z
        for layer, value in self_times(run.spans).items():
            per_layer[f"{layer}.self_s"] = value
        per_layer["trace.overhead_s"] = run.bookkeeping_s
        per_layer["trace.spans"] = len(run.spans)
        per_layer["failed_share"] = record["failed_share"]
        per_layer["bench.reference_rate"] = statistics.median(run.reference)
        record["per_layer"] = {k: per_layer[k] for k in PER_LAYER}
        record["spans"] = run.spans
    return record


def result_line(record: dict) -> dict:
    """The last line of a run: end-to-end metrics untraced, per-layer traced."""
    if record["trace"]:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in record["per_layer"].items()}
    else:
        metrics = {
            k: {"value": v, "unit": END_TO_END[k][0]} for k, v in record["end_to_end"].items()
        }
    for entry in metrics.values():  # JSON has no NaN; a missing value reads as null
        if not math.isfinite(entry["value"]):
            entry["value"] = None
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def report(record: dict) -> str:
    """Every metric by name with its unit, then counts and environment."""
    out = io.StringIO()
    p = lambda *a: print(*a, file=out)  # noqa: E731
    p(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  "
      f"trace {int(record['trace'])}  scale {record['scale']}  "
      f"measured {record['measured_s']:.1f} s")
    p(f"why: {record['why']}")
    p("steps: " + "  ".join(
        f"{k} {n} ({record['step_seconds'][k]:.1f} s)" for k, n in record["steps"].items()))
    label = " (traced run: not for comparison)" if record["trace"] else ""
    ref = record["reference_rates"]
    p(f"end-to-end{label}, at reference speed ({REF_RATE:g} units/s of the reference kernel;")
    p(f"  this run's slices: median {statistics.median(ref):.6g}, min {min(ref):.6g}, "
      f"max {max(ref):.6g}, n={len(ref)}), then unscaled;")
    p("  own = this workload's load, other = the other workload's blocks; a throughput is the")
    p("  run's total work over its total time, verify_s and simulate_s the mean of their")
    p("  samples, setup_s the median; scaled per-block or per-sample statistics follow")
    for metric, (unit, better) in END_TO_END.items():
        s = record["summaries"][metric]
        src = "own" if metric in record["own_metrics"] else "other"
        stats = "  ".join(f"{k} {v:.6g}" for k, v in s.items() if k != "n")
        p(f"  {metric:<24} {record['end_to_end'][metric]:>14.6g} "
          f"{record['end_to_end_unscaled'][metric]:>14.6g} {unit:<8} {better:<6} "
          f"{src:<5}  n={s['n']}  {stats}")
    p(f"  {'failed_share':<24} {record['failed_share']:>14.6g} {'ratio':<8} lower  "
      f"failed {record['failed']} of {record['attempted']} attempted")
    if record["trace"]:
        p("per-layer:")
        for metric, value in record["per_layer"].items():
            p(f"  {metric:<34} {value:>14.6g} {PER_LAYER[metric]}")
        p(f"  (protocols.max_pipeline_err bound {PIPELINE_TOL:g}; "
          f"montecarlo.w2_speedup base: {record['w2_speedup_base']}; "
          f"trace.overhead_s is the time spent recording spans, timed around that bookkeeping)")
    for failure in record["failures"]:
        p(f"FAILED: {failure}")
    p(f"digests of the first steps: {json.dumps(record['digests_first_steps'])}")
    p(f"environment: {json.dumps(record['environment'])}")
    return out.getvalue()


def write_result(record: dict) -> Path:
    """Write the record (and the spans of a traced run) under perfbench/results."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
    body = {k: v for k, v in record.items() if k != "spans"}
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(body, indent=1, default=repr) + "\n")
    if record.get("spans") is not None:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as fh:
            for sid, name, t0, t1, parent, run_id in record["spans"]:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "run": run_id}) + "\n")
    return path
