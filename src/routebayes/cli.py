"""Command line interface.

Subcommands: evaluate, optimize, plan, rm, validate. A route command (evaluate, optimize, plan) runs every route
stage of ``pipeline.STAGES`` up to its own; rm runs the rm stage alone. Exit codes: 0 success, 1 validation,
parse or stage error, 2 infeasible constraints or a usage error (argparse), 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InfeasibleConstraints, IoError, RouteBayesError
from .pipeline import DEFAULT_TRIALS, STAGES, run_pipeline
from .report import FORMATS, emit_report
from .scenario import load_scenario

# a route command runs every route stage up to its own; rm runs alone
_STAGES_FOR = {**{name: STAGES[: i + 1] for i, name in enumerate(STAGES[:-1])}, "rm": ("rm",)}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--format", choices=FORMATS, default="table",
                        help="output format (default: table)")
    parser.add_argument("--out", default=None,
                        help="output path (default: standard output); csv writes one file per section")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routebayes",
        description="Bayesian profitability evaluation and planning for airline route networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("evaluate", "evaluate route profitability and driver attribution"),
        ("optimize", "evaluate, then optimize driver weights within constraints"),
        ("plan", "full pipeline through network route selection"),
        ("rm", "revenue management per leg: protection, overbooking, simulation"),
    ):
        cmd = sub.add_parser(name, help=text)
        _add_common(cmd)
        if name == "rm":
            cmd.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                             help=f"Monte Carlo trials per leg (default: {DEFAULT_TRIALS})")
            cmd.add_argument("--seed", type=int, default=None,
                             help="simulation seed (default: the scenario's seed)")
    check = sub.add_parser("validate", help="schema-check a scenario file")
    check.add_argument("--scenario", required=True, help="scenario JSON file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.command == "validate":
            print(f"{args.scenario}: ok")
            return 0
        trials = getattr(args, "trials", DEFAULT_TRIALS)
        seed = getattr(args, "seed", None)
        report = run_pipeline(scenario, _STAGES_FOR[args.command], trials=trials, seed=seed)
        emit_report(report, format=args.format, destination=args.out)
        return 0
    except InfeasibleConstraints as exc:
        print(f"error: infeasible constraints: {exc}", file=sys.stderr)
        return 2
    except (IoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RouteBayesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
