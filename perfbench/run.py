"""Run one telegame benchmark workload and print every metric.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: mc-deep, crosscheck. The program is imported
from the checkout's `src/`; nothing needs building. The report lists every
metric with its unit, the attempted and failed operation counts and the
environment. End-to-end metrics are scaled to the speed of a fixed reference
kernel timed between the steps of the run (see `harness.REF_RATE`), so that
the shared machine's drift cancels; the unscaled values are printed beside
them. The last line of the output is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
metrics with `--trace 1`). The full record, and the spans of a traced run,
are written under `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "telegame"
WORKLOADS = ("mc-deep", "crosscheck")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no telegame sources at {PACKAGE.relative_to(ROOT)}/; "
              "run from the root of a telegame checkout", file=sys.stderr)
        return 2
    import harness  # puts the checkout's src/ first on the path

    if not Path(harness.tg.__file__).resolve().is_relative_to(PACKAGE.resolve()):
        print(f"error: telegame imported from {harness.tg.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    record = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(harness.report(record))
    print(f"record: {harness.write_result(record).relative_to(ROOT)}")
    print(json.dumps(harness.result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
