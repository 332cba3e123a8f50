"""Command-line front end.

Five subcommands, all driven by the same flat configuration:

* ``simulate``  one trajectory as CSV
* ``estimate``  all runs as CSV, one row per (run, time)
* ``distance``  discounted one-sided divergence to a second system
* ``check``     robustness series of a formula file, verdict as JSON
* ``stats``     per-step moment statistics, optionally against a reference

Outputs are deterministic: same arguments, same bytes. ``--workers`` is
accepted for compatibility and has no effect. Exit codes: 0 success,
2 configuration or usage problem, 3 formula error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from ._io import write_csv
from .config import ConfigError, RunConfig, apply_setting, build_model, load_config
from .monitor import check_formula, save_series
from .parsing import FormulaError, load_formula
from .simulation import RandomnessPlan, estimate, run_moments, save_estimate, save_trajectory, simulate
from .stats import SWEEP_RUNS, error_report, save_error_report
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
    plan = RandomnessPlan(cfg.seed)
    traj = simulate(kernel, init, cfg.require_steps(), plan.substream(0, args.run))
    save_trajectory(args.out, traj)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _config(args)
    kernel, init, _ = build_model(cfg)
    est = estimate(kernel, init, cfg.require_steps(), cfg.runs, RandomnessPlan(cfg.seed))
    save_estimate(args.out, est)
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
    plan = RandomnessPlan(cfg.seed)
    est_a = estimate(kernel_a, init_a, steps, cfg.runs, plan.scoped(3, 0))
    est_b = estimate(kernel_b, init_b, steps, cfg.ratio * cfg.runs, plan.scoped(3, 1))
    report = evolution_divergence(est_a, est_b, penalties[name], cfg.discount, cfg.times)
    write_csv(args.out, ("time", "divergence"), "%d,%.17g", [(report.times, report.values)])
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
    result = check_formula(
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
        save_series(args.out, result.series)
    print(
        json.dumps(
            {
                "formula": formula.pretty(),
                "horizon": result.series.formula_horizon,
                "steps": result.series.steps,
                "runs": cfg.runs,
                "ratio": cfg.ratio,
                "seed": cfg.seed,
                "until_mode": cfg.until_mode,
                "discount": cfg.discount.spec(),
                "robustness": result.robustness,
                "satisfied": result.satisfied,
                "reliable_steps": result.series.reliable_steps,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    cfg = _config(args)
    kernel, init, _ = build_model(cfg)
    steps = cfg.require_steps()
    plan = RandomnessPlan(cfg.seed)
    reference = None
    if args.reference_runs:
        reference, _ = run_moments(kernel, init, steps, args.reference_runs, plan.scoped(2))
    if args.sweep:
        if not args.out or not args.out.endswith(".csv"):
            raise ConfigError("--sweep needs --out ending in .csv to derive per-N file names")
        stem = args.out[: -len(".csv")]
        for n in SWEEP_RUNS:
            est = estimate(kernel, init, steps, n, plan)
            save_error_report(f"{stem}-n{n}.csv", error_report(est, reference))
        return 0
    est = estimate(kernel, init, steps, cfg.runs, plan)
    save_error_report(args.out, error_report(est, reference))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evtl",
        description="Statistical model checking of evolution temporal logic.",
    )
    parser.add_argument("--version", action="version", version=f"evtl {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="write one trajectory as CSV")
    _add_common(p)
    p.add_argument("--run", type=int, default=0, metavar="J", help="run index (default 0)")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("estimate", help="write the full per-run estimate as CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = subs.add_parser("distance", help="one-sided divergence to a second system")
    _add_common(p)
    p.add_argument("--against", required=True, metavar="FILE", help="config of the second system")
    p.add_argument("--penalty", metavar="NAME", help="penalty to project states with")
    p.set_defaults(func=_cmd_distance)

    p = subs.add_parser("check", help="robustness of a formula file")
    _add_common(p)
    p.add_argument("--formula", required=True, metavar="FILE", help="formula file")
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("stats", help="per-step moment statistics")
    _add_common(p)
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


if __name__ == "__main__":
    sys.exit(main())
