"""Command line entry points: run, summarize, fpr-sweep.

Exit codes: 0 success; 1 configuration error, raised while the scenario,
the run directory's `run.log` or the arguments are read; 2 internal invariant
breach, or any other error raised once they have been read (a runtime failure).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .ran import InvariantError
from .runner import FPR_MIN_TRIALS, fpr_sweep, run, summarize_dir
from .scenario import ScenarioError, load_scenario


def _cmd_run(args: argparse.Namespace) -> int:
    sc = load_scenario(args.scenario)
    out = args.out
    if out is None:
        out = Path("out") / (sc.name + ("-legacy" if args.legacy else ""))
    result = run(sc, out_dir=out, legacy=args.legacy, seed=args.seed)
    print(f"wrote {result.out_dir}")
    print(json.dumps(result.summary.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    summary = summarize_dir(args.metrics_dir, args.latency_threshold)
    print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_fpr_sweep(args: argparse.Namespace) -> int:
    sc = load_scenario(args.scenario)
    try:
        windows = [int(w) for w in args.windows.split(",") if w]
    except ValueError:
        windows = []
    if not windows or any(w < 1 for w in windows):
        raise ScenarioError(f"--windows: need positive window sizes, got {args.windows!r}")
    if args.trials < FPR_MIN_TRIALS:
        raise ScenarioError(f"--trials: need at least {FPR_MIN_TRIALS}, got {args.trials}")
    out = args.out if args.out is not None else Path("out") / f"fpr_{sc.name}.csv"
    estimates = fpr_sweep(sc, windows, trials=args.trials, seed=args.seed, out_csv=out)
    print(f"wrote {out}")
    for est in estimates:
        print(
            f"window_n={est.window_n} fpr={est.fpr:.4f} "
            f"ci95=[{est.ci_low:.4f}, {est.ci_high:.4f}]"
        )
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a configuration error (exit 1), not with
    argparse's exit 2, which this CLI keeps for invariant breaches and runtime
    failures. Subcommand parsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ScenarioError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ztcell",
        description="Deterministic O-RAN cell simulator with zero-trust security xApps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and write metric logs")
    p_run.add_argument("scenario")
    p_run.add_argument("--legacy", action="store_true", help="disable the security xApps")
    p_run.add_argument("--out", type=Path, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_sum = sub.add_parser("summarize", help="recompute the summary for a finished run")
    p_sum.add_argument("metrics_dir")
    p_sum.add_argument("--latency-threshold", type=int, default=None, metavar="MS")
    p_sum.set_defaults(func=_cmd_summarize)

    p_fpr = sub.add_parser("fpr-sweep", help="false-positive rate vs. report window size")
    p_fpr.add_argument("scenario")
    p_fpr.add_argument("--windows", default="1,2,5,10")
    p_fpr.add_argument("--trials", type=int, default=FPR_MIN_TRIALS)
    p_fpr.add_argument("--seed", type=int, default=None)
    p_fpr.add_argument("--out", type=Path, default=None)
    p_fpr.set_defaults(func=_cmd_fpr_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ScenarioError, FileNotFoundError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (InvariantError, AssertionError) as err:
        print(f"invariant breach: {err}", file=sys.stderr)
        return 2
    except ValueError as err:  # e2.DecodeError included
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # no input ends in a traceback
        print(f"runtime failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
