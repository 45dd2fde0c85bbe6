"""Command-line interface: ``demon-ep <command>``.

Commands
--------
sweep
    Simulate forward+backward protocols across the bias grid, write CSV.
analyze
    Re-analyze measured conditional-probability tables across the grid; a
    forward table alone gives the forward-protocol estimators only.
simulate
    Full diagnostic dump (tables, histogram, estimators) at one bias point.
validate
    Run the invariant suite; exit 0 only if every check passes.

Exit codes: 0 success, 1 usage or configuration problem, 2 data or
validation failure.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from .channels import ENCODINGS, ERROR_CHANNELS
from .dataio import RunConfig, load_config, sweep_csv_text
from .entropy import ESTIMATORS
from .runner import run_analysis, run_sweep, simulate_report

__all__ = ["main"]


#: a token ``float()`` reads as a negative number, such as ``-1e-3`` or ``-inf``
_NEGATIVE_NUMBER = re.compile(
    r"-(?:(?:\d(?:_?\d)*)?\.\d(?:_?\d)*|\d(?:_?\d)*\.?)(?:e[-+]?\d(?:_?\d)*)?\Z"
    r"|-(?:inf(?:inity)?|nan)\Z",
    re.IGNORECASE,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 (2 is for bad data)
    and every :data:`_NEGATIVE_NUMBER` read as a value, not an option string."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: every argument once; each command takes the subset :data:`_COMMANDS` lists
_ARGUMENTS = {
    "--config": dict(metavar="PATH", help="key = value configuration file"),
    "--mode": dict(choices=tuple(ENCODINGS), help="override the protocol mode"),
    "--single-error": dict(choices=(*ERROR_CHANNELS, "none"),
                           help="activate exactly one error channel (physical mode)"),
    "--floor": dict(type=float, metavar="X",
                    help="replace zero backward weights with X inside divergences (diagnostic)"),
    "--out": dict(metavar="PATH", help="write output here instead of stdout ('none': stdout)"),
    "forward": dict(help="forward conditional table (ASCII)"),
    "backward": dict(
        nargs="?",
        help="backward conditional table (ASCII); without it only the forward-protocol "
        "estimators (%s) are computed" % ", ".join(
            name for name, estimator in ESTIMATORS.items() if not estimator.needs_backward)),
    "--dbeta": dict(type=float, default=0.0, metavar="X", help="bias point (default 0)"),
}

#: the flags named after a RunConfig field, which override it
_CONFIG_FLAGS = ("mode", "single_error", "floor", "out")


def _overrides(args: argparse.Namespace) -> dict:
    return {
        name: None if value == "none" else value
        for name in _CONFIG_FLAGS
        if (value := getattr(args, name, None)) is not None
    }


def _emit(text: str, config: RunConfig) -> None:
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_sweep(config: RunConfig, args: argparse.Namespace) -> tuple[bool, str]:
    return True, sweep_csv_text(run_sweep(config))


def _cmd_analyze(config: RunConfig, args: argparse.Namespace) -> tuple[bool, str]:
    return True, sweep_csv_text(run_analysis(config, args.forward, args.backward))


def _cmd_simulate(config: RunConfig, args: argparse.Namespace) -> tuple[bool, str]:
    return True, simulate_report(config, args.dbeta)


def _cmd_validate(config: RunConfig, args: argparse.Namespace) -> tuple[bool, str]:
    from . import validate  # only this command compiles the suite and builds its configs

    return validate.run_all()


#: the flags of the commands that simulate the protocol
_SIMULATED = ("--config", "--mode", "--single-error", "--floor", "--out")
#: command -> (help, arguments, handler); a handler returns (ok, text), and
#: :func:`main` writes the text through :func:`_emit` and exits 2 if not ok
_COMMANDS = {
    "sweep": ("estimators across the bias grid (CSV)", _SIMULATED, _cmd_sweep),
    "analyze": ("estimators from measured conditional tables (CSV)",
                ("--config", "forward", "backward", "--floor", "--out"),
                _cmd_analyze),
    "simulate": ("full diagnostic report at one bias point", (*_SIMULATED, "--dbeta"),
                 _cmd_simulate),
    "validate": ("run the invariant suite", ("--config",), _cmd_validate),
}


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on first use and shared after."""
    parser = _Parser(prog="demon-ep", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, arguments, handler) in _COMMANDS.items():
        command = commands.add_parser(name, help=help_text)
        for argument in arguments:
            command.add_argument(argument, **_ARGUMENTS[argument])
        command.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, **_overrides(args))
        if args.command == "simulate":  # the one bias that is not a config key
            config.check_bias(args.dbeta, "--dbeta")
    except (ValueError, OSError) as exc:
        print(f"demon-ep: configuration error: {exc}", file=sys.stderr)
        return 1
    name = config.single_error
    if args.command in ("sweep", "simulate") and name and config.build_error_model().is_ideal:
        print(f"demon-ep: note: single_error = {name} runs no error, since {ERROR_CHANNELS[name]}"
              " is error-free: the output is the error-free physical model's", file=sys.stderr)
    try:
        ok, text = args.handler(config, args)
        _emit(text, config)
    except (ValueError, OSError) as exc:
        print(f"demon-ep: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
