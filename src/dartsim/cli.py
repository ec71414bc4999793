"""Command line interface.

Subcommands:
  run       run one scenario, print its metrics row, optionally trace
  sweep     run an axis sweep over seeds, write runs.csv / aggregate.csv
  replay    recompute the metrics row from a saved trace
  validate  parse a scenario and print the normalized settings

Exit codes: 0 success, 1 bad input (usage, scenario or trace), 2
runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import replay_trace, run_scenario, run_sweep
from .metrics import RUN_CSV_COLUMNS, TraceError, format_run_row
from .scenario import COMMA_KEYS, ScenarioError, describe, load_scenario


def _split_pair(flag, text):
    key, sep, value = text.partition("=")
    if not sep or not key.strip():
        raise ScenarioError(f"{flag} expects KEY=VALUE, got {text!r}")
    return key.strip(), value.strip()


def _parse_seeds(text):
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ScenarioError(f"--seeds expects comma-separated integers, "
                            f"got {text!r}") from None


def _build_scenario(args):
    return load_scenario(args.scenario,
                         [_split_pair("--set", text) for text in args.set])


def _cmd_run(args):
    scenario = _build_scenario(args)
    meta, _, metrics = run_scenario(scenario, trace_path=args.trace)
    print(",".join(RUN_CSV_COLUMNS))
    print(",".join(format_run_row(meta, metrics)))
    return 0


def _cmd_sweep(args):
    scenario = _build_scenario(args)
    axes = [_split_pair("--axis", text) for text in args.axis]
    if refused := [key for key, _ in axes if key in COMMA_KEYS]:
        raise ScenarioError(f"--axis {refused[0]} cannot list values that "
                            f"hold commas; use dartsim.experiments.run_sweep")
    axes = [(key, [v.strip() for v in raw.split(",") if v.strip()])
            for key, raw in axes]
    runs_path, agg_path, failures = run_sweep(scenario, axes,
                                              _parse_seeds(args.seeds),
                                              args.out, jobs=args.jobs)
    print(f"wrote {runs_path}")
    print(f"wrote {agg_path}")
    if failures:
        for point, exc in failures:
            print(f"failed: seed={point.seed}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_replay(args):
    _, _, _, row = replay_trace(args.trace)
    print(",".join(RUN_CSV_COLUMNS))
    print(",".join(row))
    return 0


def _cmd_validate(args):
    scenario = _build_scenario(args)
    print(describe(scenario))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dartsim",
        description="Delay-aware routing simulator for sensor networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p):
        p.add_argument("--scenario", metavar="FILE",
                       help="scenario file (key = value lines)")
        p.add_argument("--set", metavar="KEY=VALUE", action="append",
                       default=[], help="override one setting (repeatable)")

    p_run = sub.add_parser("run", help="run one scenario")
    add_scenario_flags(p_run)
    p_run.add_argument("--trace", metavar="FILE",
                       help="write the full event trace here")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run an axis sweep over seeds")
    add_scenario_flags(p_sweep)
    p_sweep.add_argument("--axis", metavar="KEY=V1,V2,...", action="append",
                         default=[], help="sweep axis (repeatable)")
    p_sweep.add_argument("--seeds", default="0", metavar="S1,S2,...",
                         help="comma-separated seed list")
    p_sweep.add_argument("--out", required=True, metavar="DIR",
                         help="output directory for runs.csv / aggregate.csv")
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="parallel worker processes")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_replay = sub.add_parser("replay", help="recompute metrics from a trace")
    p_replay.add_argument("trace", metavar="TRACE")
    p_replay.set_defaults(func=_cmd_replay)

    p_val = sub.add_parser("validate", help="check and print a scenario")
    add_scenario_flags(p_val)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:             # argparse: 0 after --help, else 2
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ScenarioError, TraceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:                      # runtime failure
        print(f"error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
