"""Release gate: eight end-to-end checks, one test each.

Every test records a one-line verdict that pytest prints in an "acceptance
criteria" section at the end of the run, and enforces its own wall-clock
budget. Tolerances are fixed here on purpose; loosening them is a release
decision, not a test fix.
"""

import contextlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from evtl.chains import (
    ChainKernel,
    FiniteChain,
    distinguishing_formula,
    exact_divergence,
    exact_robustness,
)
from evtl.cli import main
from evtl.formulas import (
    Hazard,
    Not,
    Or,
    PointMass,
    ProductNormal,
    Target,
    Until,
    always,
    eventually,
    horizon,
)
from evtl.monitor import evaluate, until_combine
from evtl.simulation import RandomnessPlan, estimate, run_moments
from evtl.spaces import DataSpace, Interval, Penalty, SampleSet, identity_penalty, penalty_gap
from evtl.stats import error_report
from evtl.tanks import TankKernel, TankParams, initial_state
from evtl.wasserstein import exact_one_sided_wasserstein, one_sided_wasserstein

from conftest import record_criterion, two_state_chain

REPO = Path(__file__).resolve().parents[1]
UNIT = DataSpace({"x": Interval(0.0, 1.0)})
PEN = identity_penalty(UNIT, "x")


@contextlib.contextmanager
def criterion(n: int, label: str, budget: float | None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    except BaseException:
        elapsed = time.perf_counter() - start
        record_criterion(f"criterion {n}: FAIL  {label}  [{elapsed:.1f}s]")
        raise
    record_criterion(f"criterion {n}: PASS  {label}  [{elapsed:.1f}s]")


def sample_set(values) -> SampleSet:
    return SampleSet(UNIT, np.asarray(values, dtype=float)[:, None])


# -- 1 -----------------------------------------------------------------------


def test_criterion_1_estimator_matches_exact_oracle():
    rng = np.random.default_rng(101)
    with criterion(1, "sorted-sample estimator == exact quantile integral (1000 pairs, 1e-12)", 10.0):
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            ell = int(rng.integers(1, 5))
            a = rng.random(n)
            b = rng.random(ell * n)
            got = one_sided_wasserstein(sample_set(a), sample_set(b), PEN)
            want = exact_one_sided_wasserstein(
                a, np.full(n, 1.0 / n), b, np.full(ell * n, 1.0 / (ell * n))
            )
            worst = max(worst, abs(got - want))
        assert worst < 1e-12, f"worst estimator-oracle gap {worst:.3e}"


# -- 2 -----------------------------------------------------------------------


def test_criterion_2_uniform_shift_convergence():
    with criterion(2, "distance U[0,0.5] -> U[0.2,0.7] = 0.2 within 0.01 at N=1e5", 5.0):
        # the quantile curves differ by the constant 0.2; a fine midpoint
        # discretization of both uniforms confirms it through the oracle
        grid = (np.arange(20_000) + 0.5) / 20_000
        w = np.full(20_000, 1.0 / 20_000)
        exact = exact_one_sided_wasserstein(0.5 * grid, w, 0.2 + 0.5 * grid, w)
        assert exact == pytest.approx(0.2, abs=1e-9)

        rng = np.random.default_rng(2025)
        a = sample_set(rng.uniform(0.0, 0.5, 100_000))
        b = sample_set(rng.uniform(0.2, 0.7, 100_000))
        got = one_sided_wasserstein(a, b, PEN)
        assert abs(got - 0.2) < 0.01, f"estimate {got:.4f} off the exact 0.2"


# -- 3 -----------------------------------------------------------------------


def convergence_fixtures():
    c1 = two_state_chain(0.5, 0.2)
    f1 = eventually(0, 4, Target(PointMass((("x", 0.0),)), c1.penalty, 0.4))

    c2 = FiniteChain(
        "x",
        [0.0, 0.5, 1.0],
        np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]),
        np.array([1.0, 0.0, 0.0]),
        [0.0, 0.4, 1.0],
    )
    f2 = always(0, 3, Not(Hazard(PointMass((("x", 1.0),)), c2.penalty, 0.6)))

    c3 = FiniteChain(
        "x",
        [0.0, 1.0],
        np.array([[0.7, 0.3], [0.4, 0.6]]),
        np.array([0.0, 1.0]),
        [0.0, 1.0],
    )
    inner = Until(
        Target(PointMass((("x", 1.0),)), c3.penalty, 0.5),
        Hazard(PointMass((("x", 1.0),)), c3.penalty, 0.3),
        0,
        2,
    )
    f3 = Until(Target(PointMass((("x", 0.0),)), c3.penalty, 0.6), inner, 0, 3)
    return [("eventually", c1, f1), ("always", c2, f2), ("nested until", c3, f3)]


def test_criterion_3_statistical_converges_to_exact():
    with criterion(3, "chain robustness: |statistical - exact| < 0.03 at N=1e4, ell=2", 60.0):
        for name, chain, formula in convergence_fixtures():
            exact = exact_robustness(chain, formula).value
            k = horizon(formula)
            errors = []
            for n in (100, 1000, 10_000):
                est = estimate(
                    ChainKernel(chain), chain.initial_state(), k, 2 * n, RandomnessPlan(33)
                )
                stat = evaluate(est, formula, n, RandomnessPlan(33)).value
                errors.append(abs(stat - exact))
            assert errors[-1] < 0.03, f"{name}: error {errors[-1]:.4f} at N=1e4"
            inversions = sum(1 for lo, hi in zip(errors, errors[1:]) if hi > lo)
            assert inversions <= 1, f"{name}: error sequence {errors} not converging"


# -- 4 -----------------------------------------------------------------------


def random_pair(rng, n_states):
    values = tuple(np.sort(rng.random(n_states)))
    rho = rng.random(n_states)

    def one():
        P = rng.random((n_states, n_states)) + 1e-3
        P /= P.sum(axis=1, keepdims=True)
        init = rng.random(n_states) + 1e-3
        return FiniteChain("x", values, P, init / init.sum(), rho)

    return one(), one()


def random_formula(rng, penalty, values, depth=0):
    r = rng.random()
    if depth >= 3 or r < 0.35:
        if rng.random() < 0.5:
            dist = PointMass((("x", float(rng.choice(values))),))
        else:
            dist = ProductNormal(
                (("x", float(rng.uniform(-0.2, 1.2)), float(rng.uniform(0.0, 0.1))),)
            )
        cls = Target if rng.random() < 0.5 else Hazard
        return cls(dist, penalty, float(rng.random()))
    left = random_formula(rng, penalty, values, depth + 1)
    if r < 0.55:
        return Not(left)
    right = random_formula(rng, penalty, values, depth + 1)
    if r < 0.8:
        return Or(left, right)
    lo = int(rng.integers(0, 3))
    return Until(left, right, lo, lo + int(rng.integers(0, 3)))


def test_criterion_4_witness_gap_and_transfer_bound():
    rng = np.random.default_rng(404)
    label = "witness atom gap == symmetrized metric (1e-9); transfer bound, 5x100 formulas"
    with criterion(4, label, 30.0):
        changed = 0
        for _ in range(5):
            a, b = random_pair(rng, int(rng.integers(2, 6)))

            d = distinguishing_formula(a, b, steps=6)
            fav, other = (a, b) if d.favored == "a" else (b, a)
            rob_fav = exact_robustness(fav, d.formula, steps=d.eval_time).values[d.eval_time]
            rob_other = exact_robustness(other, d.formula, steps=d.eval_time).values[d.eval_time]
            assert abs((rob_fav - rob_other) - d.gap) < 1e-9

            for _ in range(100):
                f = random_formula(rng, a.penalty, a.values)
                k = horizon(f)
                fwd, rev = exact_divergence(a, b, steps=k)
                metric = max(fwd.value, rev.value)
                ra = exact_robustness(a, f).value
                rb = exact_robustness(b, f).value
                assert abs(ra - rb) <= metric + 1e-9, f"transfer bound broken on {f.pretty()}"
                changed += abs(ra - rb) > 1e-6
        assert changed > 100, "suite too vacuous to witness the transfer bound"


# -- 5 -----------------------------------------------------------------------


def brute_until(left, right, lo, hi, mode):
    k = len(left) - 1
    out = []
    for i in range(k + 1):
        cands = []
        for j in range(i + lo, min(i + hi, k) + 1):
            if mode == "semantics":
                window = left[i + lo : j]
            else:
                window = left[i : j + 1]
            cands.append(min([right[j], *window]))
        out.append(max(cands) if cands else -1.0)
    return np.array(out)


def test_criterion_5_invariant_suites():
    rng = np.random.default_rng(505)
    with criterion(5, "hemimetric, series-algebra and distance invariants: 3 x 1e4 cases", None):
        # state hemimetric: identity, non-negativity, triangle
        space = DataSpace({"x": Interval(0.0, 1.0), "y": Interval(-2.0, 2.0)})
        for _ in range(100):
            w = rng.uniform(-2.0, 2.0, 3)
            pen = Penalty(
                "p", ("x", "y"), lambda v, tau, w=w: w[0] * v[0] + w[1] * v[1] + w[2]
            )
            for _ in range(100):
                s = [
                    space.state(x=float(rng.random()), y=float(rng.uniform(-2, 2)))
                    for _ in range(3)
                ]
                assert penalty_gap(pen, s[0], s[0]) == 0.0
                g01, g12 = penalty_gap(pen, s[0], s[1]), penalty_gap(pen, s[1], s[2])
                g02 = penalty_gap(pen, s[0], s[2])
                assert 0.0 <= g02 <= 1.0
                assert g02 <= g01 + g12 + 1e-15

        # series algebra: range preservation, De Morgan, brute-force until
        for _ in range(10_000):
            k = int(rng.integers(1, 9))
            a = rng.uniform(-1.0, 1.0, k)
            b = rng.uniform(-1.0, 1.0, k)
            assert np.array_equal(np.maximum(a, b), -np.minimum(-a, -b))
            lo = int(rng.integers(0, 4))
            hi = lo + int(rng.integers(0, 4))
            mode = ("semantics", "figure")[int(rng.integers(0, 2))]
            out = until_combine(a, b, lo, hi, mode)
            assert np.all(out >= -1.0) and np.all(out <= 1.0)
            assert np.array_equal(out, brute_until(a, b, lo, hi, mode))

        # estimator invariances: permutation, non-negativity, one-sidedness
        for _ in range(10_000):
            n = int(rng.integers(1, 9))
            ell = int(rng.integers(1, 4))
            a = rng.random(n)
            b = rng.random(ell * n)
            base = one_sided_wasserstein(sample_set(a), sample_set(b), PEN)
            shuffled = one_sided_wasserstein(
                sample_set(rng.permutation(a)), sample_set(rng.permutation(b)), PEN
            )
            assert base >= 0.0
            assert shuffled == base
            better = rng.uniform(0.0, a.min() if n else 1.0, ell * n)
            assert one_sided_wasserstein(sample_set(a), sample_set(better), PEN) == 0.0
            assert one_sided_wasserstein(sample_set(a), sample_set(np.repeat(a, ell)), PEN) == 0.0


# -- 6 -----------------------------------------------------------------------


def test_criterion_6_tank_study_reproduction():
    params = TankParams()
    start = initial_state(params)
    label = "tank plant: in-domain, settles to [9,11], stderr halves, z within bands"
    with criterion(6, label, 300.0):
        for scenario in (1, 2):
            est = estimate(TankKernel(params, scenario), start, 600, 200, RandomnessPlan(42))
            for i, var in enumerate(est.space.names):
                dom = est.space.domains[i]
                col = est.column(var)
                assert np.all(col >= dom.lo) and np.all(col <= dom.hi), f"{var} out of domain"

        est1k = estimate(TankKernel(params, 1), start, 150, 1000, RandomnessPlan(42))
        for var in ("l1", "l2", "l3"):
            mean = est1k.column(var)[100:151].mean()
            assert 9.0 < mean < 11.0, f"{var} settles at {mean:.2f}"

        est4k = estimate(TankKernel(params, 1), start, 150, 4000, RandomnessPlan(42))
        rep1k, rep4k = error_report(est1k), error_report(est4k)
        level_cols = [est1k.space.names.index(v) for v in ("l1", "l2", "l3")]
        ratio = rep1k.stderr[50:, level_cols] / rep4k.stderr[50:, level_cols]
        med = float(np.median(ratio))
        assert 1.8 <= med <= 2.2, f"stderr ratio {med:.2f} not a halving"

        ref_mean, _ = run_moments(
            TankKernel(params, 1), start, 150, 100_000, RandomnessPlan(42).scoped(2)
        )
        scored = error_report(est1k, ref_mean)
        # pooled over (time, variable): per-variable fractions swing hard
        # with the seed because neighbouring time indices share their runs
        assert scored.fraction_within() >= 0.9, f"only {scored.fraction_within():.0%} within z bands"


# -- 7 -----------------------------------------------------------------------


def test_criterion_7_shipped_properties_pipeline(tmp_path, capsys):
    label = "shipped properties check end to end; unreliable tail tracks the horizon"
    with criterion(7, label, None):
        for prop, h in (("settle-on-goal", 50), ("recover-from-overflow-risk", 60)):
            for k in (150, 300, 600):
                out = tmp_path / f"{prop}-{k}.csv"
                t0 = time.perf_counter()
                code = main(
                    [
                        "check",
                        "--config",
                        str(REPO / "presets" / "three-tanks-scenario-1.cfg"),
                        "--formula",
                        str(REPO / "properties" / f"{prop}.evtl"),
                        "--steps",
                        str(k),
                        "--out",
                        str(out),
                    ]
                )
                elapsed = time.perf_counter() - t0
                assert code == 0
                assert elapsed < 120.0, f"{prop} at k={k} took {elapsed:.0f}s"
                doc = json.loads(capsys.readouterr().out)
                assert doc["horizon"] == h
                assert doc["runs"] == 100 and doc["ratio"] == 10
                assert doc["reliable_steps"] == k - h + 1

                rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
                values = np.array([float(r[1]) for r in rows])
                flags = [r[2] for r in rows]
                assert len(rows) == k + 1
                assert np.all(values >= -1.0) and np.all(values <= 1.0)
                # reliable prefix, then exactly horizon() trailing indices flagged
                assert flags == ["1"] * (k - h + 1) + ["0"] * h


# -- 8 -----------------------------------------------------------------------


def test_criterion_8_cli_byte_determinism(tmp_path, capsys):
    preset = str(REPO / "presets" / "three-tanks-scenario-1.cfg")
    drift = str(REPO / "chains" / "drift.json")
    other_cfg = tmp_path / "other.cfg"
    other_cfg.write_text(f"model = chain\nchain.file = {REPO / 'chains' / 'drift-fast.json'}\n")
    prop = tmp_path / "prop.evtl"
    prop.write_text("F[0,6] target(point(x=1.0), rho, 0.4)\n")
    chain_args = ["--set", "model=chain", "--set", f"chain.file={drift}"]

    commands = {
        "simulate": ["simulate", "--config", preset, "--steps", "40"],
        "estimate": ["estimate", "--config", preset, "--steps", "15", "--runs", "24"],
        "distance": [
            "distance", *chain_args, "--against", str(other_cfg),
            "--steps", "6", "--runs", "40", "--ell", "2",
        ],
        "check": ["check", *chain_args, "--formula", str(prop), "--runs", "40", "--ell", "2"],
        "stats": [
            "stats", "--config", preset, "--steps", "12", "--runs", "30",
            "--reference-runs", "60",
        ],
    }

    with criterion(8, "all five commands byte-identical across reruns and workers {1,4}", None):
        for name, argv in commands.items():
            outputs = []
            for tag, workers in (("first", 1), ("again", 1), ("pool", 4)):
                out = tmp_path / f"{name}-{tag}.csv"
                code = main([*argv, "--workers", str(workers), "--out", str(out)])
                captured = capsys.readouterr()
                assert code == 0, f"{name} failed: {captured.err}"
                outputs.append((out.read_bytes(), captured.out))
            assert outputs[0] == outputs[1], f"{name} not reproducible across reruns"
            assert outputs[0] == outputs[2], f"{name} changes with the worker count"
