"""Command-line interface: ``demon-ep <command>``.

Commands
--------
sweep
    Simulate forward+backward protocols across the bias grid, write CSV.
analyze
    Re-analyze measured conditional-probability tables across the grid.
simulate
    Full diagnostic dump (tables, histogram, estimators) at one bias point.
validate
    Run the invariant suite; exit 0 only if every check passes.

Exit codes: 0 success, 1 usage or configuration problem, 2 data or
validation failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import validate as validate_mod
from .channels import ENCODINGS, ERROR_CHANNELS
from .dataio import RunConfig, load_config, sweep_csv_text
from .runner import run_analysis, run_sweep, simulate_report

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 (2 is for bad data)."""

    def error(self, message):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key = value configuration file")
    parser.add_argument(
        "--mode", choices=tuple(ENCODINGS), help="override the protocol mode"
    )
    parser.add_argument(
        "--single-error",
        choices=(*ERROR_CHANNELS, "none"),
        help="activate exactly one error channel (physical mode)",
    )
    parser.add_argument("--jobs", type=int, metavar="N", help="ignored: runs are serial")
    parser.add_argument(
        "--floor",
        type=float,
        metavar="X",
        help="replace zero backward weights with X inside divergences (diagnostic)",
    )
    parser.add_argument(
        "--out", metavar="PATH", help="write output here instead of stdout ('none': stdout)"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="demon-ep", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sweep = commands.add_parser("sweep", help="estimators across the bias grid (CSV)")
    _add_common(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    analyze = commands.add_parser(
        "analyze", help="estimators from measured conditional tables (CSV)"
    )
    _add_common(analyze)
    analyze.add_argument("forward", help="forward conditional table (ASCII)")
    analyze.add_argument("backward", nargs="?", help="backward conditional table (ASCII)")
    analyze.add_argument(
        "--forward-only",
        action="store_true",
        help="compute only the forward-protocol estimators (sigma1, sigma2, sigma6)",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    simulate = commands.add_parser(
        "simulate", help="full diagnostic report at one bias point"
    )
    _add_common(simulate)
    simulate.add_argument(
        "--dbeta", type=float, default=0.0, metavar="X", help="bias point (default 0)"
    )
    simulate.set_defaults(handler=_cmd_simulate)

    validate = commands.add_parser("validate", help="run the invariant suite")
    _add_common(validate)
    validate.set_defaults(handler=_cmd_validate)

    return parser


#: RunConfig fields that every command also takes as a ``--flag``
_COMMON = ("mode", "single_error", "jobs", "floor", "out")


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    for name in _COMMON:
        value = getattr(args, name)
        if value is not None:
            updates[name] = None if value == "none" else value
    return replace(config, **updates) if updates else config


def _emit(text: str, config: RunConfig) -> None:
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_sweep(config: RunConfig, args: argparse.Namespace) -> int:
    _emit(sweep_csv_text(run_sweep(config)), config)
    return 0


def _cmd_analyze(config: RunConfig, args: argparse.Namespace) -> int:
    if args.forward_only and args.backward is not None:
        print(
            "demon-ep analyze: error: --forward-only takes no backward table",
            file=sys.stderr,
        )
        return 1
    if not args.forward_only and args.backward is None:
        print(
            "demon-ep analyze: error: backward table required unless --forward-only",
            file=sys.stderr,
        )
        return 1
    results = run_analysis(config, args.forward, args.backward)
    _emit(sweep_csv_text(results, forward_only=args.forward_only), config)
    return 0


def _cmd_simulate(config: RunConfig, args: argparse.Namespace) -> int:
    _emit(simulate_report(config, args.dbeta), config)
    return 0


def _cmd_validate(config: RunConfig, args: argparse.Namespace) -> int:
    return 0 if validate_mod.run_all() else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
    except (ValueError, OSError) as exc:
        print(f"demon-ep: configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(config, args)
    except (ValueError, OSError) as exc:
        print(f"demon-ep: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
