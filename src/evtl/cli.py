"""Command-line front end.

Five subcommands, all driven by the same flat configuration:

* ``simulate``  one trajectory as CSV
* ``estimate``  all runs as CSV, one row per (run, time), written a chunk of runs at a time
* ``distance``  discounted one-sided divergence to a second system
* ``check``     robustness series of a formula file, verdict as JSON
* ``stats``     per-step moment statistics, optionally against a reference

Outputs are deterministic: same arguments, same bytes. ``--workers`` is
accepted for compatibility and has no effect. Exit codes: 0 success,
2 configuration or usage problem (a file that cannot be opened included,
the formula file too), 3 formula error (formula text that is not UTF-8
included), 4 numeric failure (overflow included) or out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from ._io import write_csv
from .config import ConfigError, RunConfig, apply_setting, build_model, load_config
from .monitor import check_formula, save_series
from .parsing import FormulaError, load_formula
from .simulation import RandomnessPlan, Simulation, run_moments, save_estimate, save_trajectory
# estimate is not called here; bench/run.py traces the name until ROADMAP item 6b
from .simulation import estimate  # noqa: F401
from .stats import SWEEP_RUNS, error_report, error_reports, save_error_report
from .wasserstein import evolution_divergence

__all__ = ["main"]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE", help="configuration file")
    sub.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override one configuration entry (repeatable)",
    )
    sub.add_argument("--steps", type=int, metavar="K", help="shortcut for --set steps=K")
    sub.add_argument("--runs", type=int, metavar="N", help="shortcut for --set runs=N")
    sub.add_argument("--ell", type=int, metavar="L", help="shortcut for --set ell=L")
    sub.add_argument("--seed", type=int, metavar="S", help="shortcut for --set seed=S")
    sub.add_argument(
        "--workers", type=int, metavar="W", help="accepted for compatibility; has no effect"
    )
    sub.add_argument("--out", metavar="FILE", help="output file (default: stdout)")


def _config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        cfg = apply_setting(cfg, key, value)
    for flag in ("steps", "runs", "ell", "seed", "workers"):
        value = getattr(args, flag, None)
        if value is not None:
            cfg = apply_setting(cfg, flag, str(value))
    return cfg


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if args.run < 0:
        raise ConfigError(f"--run must be >= 0, got {args.run}")
    kernel, init, _ = build_model(cfg)
    run = Simulation(kernel, init, cfg.require_steps(), 1, RandomnessPlan(cfg.seed), first=args.run)
    save_trajectory(args.out, run)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _config(args)
    kernel, init, _ = build_model(cfg)
    plan = RandomnessPlan(cfg.seed)
    save_estimate(args.out, Simulation(kernel, init, cfg.require_steps(), cfg.runs, plan))
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    cfg = _config(args)
    other = load_config(args.against)
    kernel_a, init_a, penalties = build_model(cfg)
    kernel_b, init_b, _ = build_model(other)
    if kernel_a.space != kernel_b.space:
        raise ConfigError("the two systems live on different data spaces")
    name = args.penalty or cfg.penalty
    if name is None:
        if len(penalties) == 1:
            name = next(iter(penalties))
        else:
            raise ConfigError(f"--penalty required (one of {', '.join(sorted(penalties))})")
    if name not in penalties:
        raise ConfigError(f"unknown penalty {name!r} (one of {', '.join(sorted(penalties))})")
    steps = cfg.require_steps()
    # a run's first states do not depend on its later noise: stop at the last observed time
    last = steps if cfg.times is None else max(r[-1] for r in cfg.times)
    if last > steps:
        raise ConfigError(f"observation times outside 0..{steps}")
    times = None if cfg.times is None else tuple(t for r in cfg.times for t in r)
    plan = RandomnessPlan(cfg.seed)
    est_a = Simulation(kernel_a, init_a, last, cfg.runs, plan.scoped(3, 0))
    est_b = Simulation(kernel_b, init_b, last, cfg.ratio * cfg.runs, plan.scoped(3, 1))
    report = evolution_divergence(est_a, est_b, penalties[name], cfg.discount, times)
    write_csv(args.out, ("time", "divergence"), ("%d", "%.17g"), [(report.times, report.values)])
    print(
        json.dumps(
            {
                "divergence": report.value,
                "peak_time": report.peak_time,
                "penalty": name,
                "runs": cfg.runs,
                "ratio": cfg.ratio,
                "seed": cfg.seed,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    cfg = _config(args)
    kernel, init, penalties = build_model(cfg)
    formula = load_formula(args.formula, penalties, kernel.space)
    series = check_formula(
        kernel,
        init,
        formula,
        cfg.runs,
        cfg.ratio,
        RandomnessPlan(cfg.seed),
        steps=cfg.steps,
        discount=cfg.discount,
        until_mode=cfg.until_mode,
    )
    if args.out:
        save_series(args.out, series)
    print(
        json.dumps(
            {
                "formula": formula.pretty(),
                "horizon": series.formula_horizon,
                "steps": series.steps,
                "runs": cfg.runs,
                "ratio": cfg.ratio,
                "seed": cfg.seed,
                "until_mode": cfg.until_mode,
                "discount": cfg.discount.spec(),
                "robustness": series.value,
                "satisfied": series.satisfied,
                "reliable_steps": series.reliable_steps,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    cfg = _config(args)
    # a sample std needs two runs, and a reference is held to the same floor
    if not args.sweep and cfg.runs < 2:
        raise ConfigError(f"--runs must be >= 2 for stats, got {cfg.runs}")
    if args.reference_runs is not None and args.reference_runs < 2:
        raise ConfigError(f"--reference-runs must be >= 2, got {args.reference_runs}")
    kernel, init, _ = build_model(cfg)
    steps = cfg.require_steps()
    plan = RandomnessPlan(cfg.seed)
    if args.sweep and not (args.out and args.out.endswith(".csv")):
        raise ConfigError("--sweep needs --out ending in .csv to derive per-N file names")
    reference = None
    if args.reference_runs is not None:
        reference_runs = Simulation(kernel, init, steps, args.reference_runs, plan.scoped(2))
        reference = run_moments(reference_runs)
    # the first n runs of a simulation are the n-run simulation, so the sweep simulates once
    sim = Simulation(kernel, init, steps, max(SWEEP_RUNS) if args.sweep else cfg.runs, plan)
    if not args.sweep:
        save_error_report(args.out, error_report(sim, reference))
        return 0
    for n, report in zip(SWEEP_RUNS, error_reports(sim, SWEEP_RUNS, reference)):
        save_error_report(f"{args.out[: -len('.csv')]}-n{n}.csv", report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evtl",
        description="Statistical model checking of evolution temporal logic.",
    )
    parser.add_argument("--version", action="version", version=f"evtl {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    # the shared options are built once, on a parent every subcommand copies
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)

    p = subs.add_parser("simulate", help="write one trajectory as CSV", parents=[common])
    p.add_argument("--run", type=int, default=0, metavar="J", help="run index (default 0)")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("estimate", help="write the full per-run estimate as CSV", parents=[common])
    p.set_defaults(func=_cmd_estimate)

    p = subs.add_parser(
        "distance", help="one-sided divergence to a second system", parents=[common]
    )
    p.add_argument("--against", required=True, metavar="FILE", help="config of the second system")
    p.add_argument("--penalty", metavar="NAME", help="penalty to project states with")
    p.set_defaults(func=_cmd_distance)

    p = subs.add_parser("check", help="robustness of a formula file", parents=[common])
    p.add_argument("--formula", required=True, metavar="FILE", help="formula file")
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("stats", help="per-step moment statistics", parents=[common])
    p.add_argument(
        "--reference-runs",
        type=int,
        metavar="R",
        help="add z-scores against a fresh reference of R runs",
    )
    p.add_argument("--sweep", action="store_true", help="repeat for the preset run counts")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an overflow or NaN inside the engine fails the command; underflow to 0 is a value
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FormulaError as exc:
        print(f"formula error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
