"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 I/O
failure, 4 solver failure, 5 statistical-consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .analysis import find_threshold, sweep
from .channel import build_cm, channel_params, exchange_symmetry_check, kappa
from .checks import CHECKS, compare_to_closed_forms
from .errors import BracketError, DomainError, InvalidInputError
from .gaussian import physicality
from .montecarlo import McConfig, estimate_fidelities


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _render_csv(rows) -> str:
    lines = ["alpha,f_tr,f_ab,f_ac,f_coop"]
    for r in rows:
        lines.append(
            ",".join(_fmt(v) for v in (r.alpha, r.f_tr, r.f_ab, r.f_ac, r.f_coop))
        )
    return "\n".join(lines) + "\n"


def cmd_channel(args) -> int:
    p = channel_params(args.alpha)
    state = build_cm(p)
    print(f"alpha     {_fmt(p.alpha)}")
    print(f"beta      {_fmt(p.beta)}")
    print(f"gamma     {_fmt(p.gamma)}")
    print(f"delta     {_fmt(p.delta)}")
    print(f"kappa     {_fmt(kappa(p.alpha))}")
    print(f"physical  {str(physicality(state.cov)).lower()}")
    print(f"symmetric {str(exchange_symmetry_check(state)).lower()}")
    return 0


def cmd_sweep(args) -> int:
    rows = sweep(args.alpha_min, args.alpha_max, args.steps)
    text = _render_csv(rows)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return 0


def cmd_threshold(args) -> int:
    result = find_threshold(args.tol)
    if args.json:
        print(json.dumps({
            "alpha_th": result.alpha_th,
            "f_at_threshold": result.f_at_threshold,
            "iterations": result.iterations,
            "residual": result.residual,
        }))
    else:
        print(f"alpha_th        {_fmt(result.alpha_th)}")
        print(f"f_at_threshold  {_fmt(result.f_at_threshold)}")
        print(f"iterations      {result.iterations}")
        print(f"residual        {result.residual:.3e}")
    return 0


def cmd_simulate(args) -> int:
    if args.shots < 2:
        raise InvalidInputError(f"shots must be >= 2 for a standard error, got {args.shots}")
    config = McConfig(
        shots=args.shots, seed=args.seed, alpha=args.alpha,
        input_ensemble_std=args.ensemble_std,
    )
    est = estimate_fidelities(config, workers=args.workers)
    rows = compare_to_closed_forms(args.alpha, est)
    consistent = all(row[-1] for row in rows)
    if args.json:
        payload = {"alpha": args.alpha, "shots": est.shots, "seed": args.seed,
                   "ensemble_std": args.ensemble_std}
        for name, closed, hat, err, _ in rows:
            payload[f"{name}_closed"] = closed
            payload[f"{name}_hat"] = hat
            payload[f"{name}_stderr"] = err
        payload["consistent"] = consistent
        print(json.dumps(payload))
    else:
        print(f"alpha {_fmt(args.alpha)}  shots {est.shots}  seed {args.seed}  "
              f"ensemble_std {_fmt(args.ensemble_std)}")
        for name, closed, hat, err, ok in rows:
            verdict = "ok" if ok else "OFF>3SIGMA"
            print(f"{name}  closed={_fmt(closed)}  estimate={_fmt(hat)}  "
                  f"stderr={err:.3e}  {verdict}")
    return 0 if consistent else 5


def cmd_verify(args) -> int:
    failures = []
    width = max(len(name) for name, _ in CHECKS)
    for name, check in CHECKS:
        message = check()
        status = "PASS" if message is None else "FAIL"
        detail = "" if message is None else f"  {message}"
        print(f"{status}  {name:<{width}}{detail}")
        if message is not None:
            failures.append(name)
    if failures:
        print(f"failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"all {len(CHECKS)} checks passed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telegame",
        description="Teleportation-game simulator over a one-parameter tripartite Gaussian channel",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("channel", help="print channel coefficients and health checks")
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("sweep", help="write the fidelity-vs-alpha CSV")
    p.add_argument("--alpha-min", type=float, default=0.5)
    p.add_argument("--alpha-max", type=float, default=12.0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out", type=str, default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("threshold", help="locate the strategy-crossing noise level")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("simulate", help="Monte-Carlo estimate vs closed forms")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--shots", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ensemble-std", type=float, default=1.0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the full consistency suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BracketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
