"""Every headline number, pinned bit for bit against `pinned_numbers.json`.

The file holds float-hex values of the three closed forms on `checks.GRID`,
every field of both pipelines on `checks.random_tuples(100)`,
`sweep(0.5, 12, 200)`, `find_threshold(1e-9)`, `find_classical_crossings()`
and `estimate_fidelities` at `checks.MC_ALPHAS` (seed 7, 20000 shots) at one
and two workers. Two edges of the estimator are pinned too: one shot at each
of `MC_ALPHAS` (seed 7; every stderr infinite), and 2000 shots at alpha = 8e6
(seed 0), where every measurer shot scores 0 and f_ac is clamped. A change that moves a number on purpose regenerates the file
and names every value that moved:

    PYTHONPATH=src python tests/test_pinned_numbers.py --regenerate

The pipelines' `@` reaches the BLAS kernel, whose summation order can move
last bits (`OPENBLAS_CORETYPE=Nehalem` does), so a failure names the BLAS
build and that variable.
"""

import json
import os
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
from telegame import (
    McConfig,
    estimate_fidelities,
    f_ab_coop,
    f_ac_coop,
    f_noncoop,
    find_classical_crossings,
    find_threshold,
    run_coop_pipeline,
    run_noncoop_pipeline,
    sweep,
)
from telegame.checks import GRID, MC_ALPHAS, random_tuples

PINNED = Path(__file__).with_name("pinned_numbers.json")


def _hex(values):
    """Floats as float hex, ints as they are, nesting kept."""
    if isinstance(values, dict):
        return {key: _hex(v) for key, v in values.items()}
    if isinstance(values, (list, tuple)):
        return [_hex(v) for v in values]
    if isinstance(values, int):
        return values
    return float(values).hex()


def _pipeline_fields(out):
    return [out.fidelity_bob, out.fidelity_charlie, *out.mean_residual_bob]


def current_numbers() -> dict:
    grid = [float(a) for a in GRID]
    tuples = list(random_tuples(100))
    mc = {
        f"workers={workers}": [
            astuple(estimate_fidelities(McConfig(shots=20_000, seed=7, alpha=alpha), workers=workers))
            for alpha in MC_ALPHAS
        ]
        for workers in (1, 2)
    }
    mc["shots=1"] = [astuple(estimate_fidelities(McConfig(shots=1, seed=7, alpha=alpha))) for alpha in MC_ALPHAS]
    mc["alpha=8e6"] = astuple(estimate_fidelities(McConfig(shots=2000, seed=0, alpha=8e6)))
    numbers = {
        "closed_forms": {fn.__name__: [fn(a) for a in grid] for fn in (f_noncoop, f_ab_coop, f_ac_coop)},
        "noncoop_pipeline": [_pipeline_fields(run_noncoop_pipeline(a, amp, eta)) for a, amp, eta, _ in tuples],
        "coop_pipeline": [_pipeline_fields(run_coop_pipeline(a, amp, eta, mu)) for a, amp, eta, mu in tuples],
        "sweep": [astuple(row) for row in sweep(0.5, 12.0, 200)],
        "find_threshold": astuple(find_threshold(1e-9)),
        "find_classical_crossings": find_classical_crossings(),
        "estimate_fidelities": mc,
    }
    return json.loads(json.dumps(_hex(numbers)))  # tuples read back as lists


def _differences(pinned, current, path=""):
    if isinstance(pinned, dict) and isinstance(current, dict):
        for key in sorted(pinned.keys() | current.keys()):
            yield from _differences(pinned.get(key), current.get(key), f"{path}/{key}")
    elif isinstance(pinned, list) and isinstance(current, list) and len(pinned) == len(current):
        for i, (p, c) in enumerate(zip(pinned, current)):
            yield from _differences(p, c, f"{path}[{i}]")
    elif pinned != current:
        yield f"{path}: pinned {pinned!r}, now {current!r}"


def _blas_build() -> str:
    """The BLAS numpy was built against, and the OpenBLAS kernel override."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 only prints its configuration
        blas = {}
    build = " ".join(str(blas.get(key, "?")) for key in ("name", "version", "openblas configuration"))
    return f"BLAS {build} (numpy {np.__version__}), OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE')!r}"


def test_numbers_match_pinned_file_bit_for_bit():
    moved = list(_differences(json.loads(PINNED.read_text()), current_numbers()))
    assert not moved, f"{len(moved)} numbers moved on {_blas_build()}, first ones:\n" + "\n".join(moved[:10])


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    PINNED.write_text(json.dumps(current_numbers(), indent=1) + "\n")
    print(f"wrote {PINNED}")
