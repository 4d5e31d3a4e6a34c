"""Command-line interface.

Subcommands: ``point``, ``sweep``, ``maxdist``, ``simulate``,
``coverage`` and ``presets``.  Exit codes: 0 success, 1 configuration
error, 2 computation error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import logging
import math
import sys

from . import sweep
from .errors import ConfigError, DomainError, HdqkdError
from .fluctuation import METHODS
from .scenario import PRESETS, Scenario, parse_config, preset_names

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPUTATION = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as config errors."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="configuration file")
    parser.add_argument(
        "--preset", metavar="NAME", help="named preset (see the presets command)"
    )
    parser.add_argument(
        "--n-pulses",
        metavar="N|inf",
        help="override the transmitted pulse count",
    )


def _parse_pulses(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"--n-pulses: not a number: {text!r}") from exc
    if not math.isfinite(value) or value <= 0:
        raise ConfigError(f"--n-pulses: must be finite and > 0 (or inf), got {text}")
    return value


def _load_scenario(args: argparse.Namespace) -> Scenario:
    text = ""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    scenario = parse_config(text, preset=args.preset)
    pulses = None if args.n_pulses is None else _parse_pulses(args.n_pulses)
    return scenario.with_overrides(method=args.method, n_pulses=pulses)


def _write_output(out_path: str | None, render) -> None:
    """Call ``render(stream)`` on stdout or the requested file."""
    if out_path is None:
        render(sys.stdout)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        render(handle)


def _cmd_point(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    row = sweep.run_point(scenario, args.length)
    _write_output(args.out, lambda stream: sweep.emit_csv([row], stream))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    rows = sweep.sweep_distance(scenario, args.l_min, args.l_max, args.step)
    _write_output(args.out, lambda stream: sweep.emit_csv(rows, stream))
    if args.plotdata is not None:
        _write_output(args.plotdata, lambda stream: sweep.emit_plotdata(rows, stream))
    return EXIT_OK


def _cmd_maxdist(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    print(f"{sweep.max_distance(scenario):.1f}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import montecarlo

    scenario = _load_scenario(args)
    config = scenario.sim_config(args.length, args.seed)
    tally = montecarlo.simulate_session(config)
    _write_output(args.out, lambda stream: stream.write(montecarlo.format_tally(tally)))
    return EXIT_OK


def _cmd_coverage(args: argparse.Namespace) -> int:
    from . import montecarlo

    scenario = _load_scenario(args)
    config = scenario.sim_config(args.length, args.seed)
    fraction = montecarlo.coverage_experiment(
        config, scenario.budget.eps_pe, scenario.method, args.trials
    )
    print(f"coverage {fraction:.4f} ({args.trials} trials, method {scenario.method})")
    return EXIT_OK


def _cmd_presets(args: argparse.Namespace) -> int:
    for name in preset_names():
        entry = PRESETS[name]
        proto = entry["protocol"]
        print(
            f"{name}: d={entry['physical']['schmidt_d']} mu={proto['mu']} "
            f"{proto['mode']} {proto['method']} n_pulses={proto['n_pulses']}"
        )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="hdqkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="evaluate one channel length")
    _add_scenario_args(point)
    point.add_argument("--length", type=float, required=True, metavar="KM")
    point.add_argument("--out", metavar="PATH")
    point.set_defaults(handler=_cmd_point)

    sweep_cmd = sub.add_parser("sweep", help="evaluate a distance grid")
    _add_scenario_args(sweep_cmd)
    sweep_cmd.add_argument("--l-min", type=float, default=0.0, metavar="KM")
    sweep_cmd.add_argument("--l-max", type=float, required=True, metavar="KM")
    sweep_cmd.add_argument("--step", type=float, default=5.0, metavar="KM")
    sweep_cmd.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="K",
        help="accepted for compatibility; points are evaluated in one process",
    )
    sweep_cmd.add_argument("--out", metavar="PATH")
    sweep_cmd.add_argument("--plotdata", metavar="PATH")
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    maxdist = sub.add_parser("maxdist", help="largest length with positive capacity")
    _add_scenario_args(maxdist)
    maxdist.set_defaults(handler=_cmd_maxdist)

    simulate = sub.add_parser("simulate", help="run one Monte Carlo session")
    _add_scenario_args(simulate)
    simulate.add_argument("--length", type=float, default=0.0, metavar="KM")
    simulate.add_argument("--seed", type=int, default=1, metavar="U64")
    simulate.add_argument("--out", metavar="PATH")
    # The simulated tally does not depend on the fluctuation method.
    simulate.set_defaults(handler=_cmd_simulate, method=None)

    coverage = sub.add_parser("coverage", help="empirical interval coverage")
    _add_scenario_args(coverage)
    coverage.add_argument("--length", type=float, default=0.0, metavar="KM")
    coverage.add_argument("--seed", type=int, default=1, metavar="U64")
    coverage.add_argument("--trials", type=int, default=1000)
    coverage.set_defaults(handler=_cmd_coverage)

    for cmd in (point, sweep_cmd, maxdist, coverage):
        cmd.add_argument(
            "--method",
            choices=METHODS,
            help="override the fluctuation method (n_pulses = inf gives the exact row)",
        )

    presets = sub.add_parser("presets", help="list the available presets")
    presets.set_defaults(handler=_cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HdqkdError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
