#!/usr/bin/env python3
"""Benchmark harness for evtl.

Run from the repository root:

    python3 bench/run.py --workload tanks-check --seed 42 --seconds 25 --trace 0

Every workload is one command line of the public CLI, ``evtl.cli.main``,
on frozen inputs in ``bench/inputs``. The seed is the CLI's ``--seed``, so
the same seed gives the same bytes.

``--trace 0`` measures what a user sees:

* ``wall_s``: median wall time of one in-process ``evtl.cli.main`` call,
  repeated for ``--seconds`` seconds after one warm-up call;
* ``setup_s``: median, over several fresh processes, of the time to import
  ``evtl.cli``, load the config, build the model and parse the formula;
* ``peak_rss_mb``: peak resident memory of one fresh process running the
  workload, plus the largest pool worker's peak times the worker count.

The two times are scaled by a calibration kernel timed next to them (see
:func:`calibrated`), because the shared machine's speed drifts.

``--trace 1`` alternates untraced and traced calls. A traced call wraps the
public functions at the names their callers look up and records one span
per call in memory; the spans are written to ``bench/results`` when the run
ends. It reports each layer's self time for the traced call of median wall
time, counts of the work done, and the tracing overhead.

Each call is one operation. It fails on a non-zero exit, an exception, or
an output that differs from its golden sha256 (``bench/goldens.json``). A
seed without a golden falls back to invariants on the output. The check
that ran is named in the line before the result; the last line of stdout
is the result as JSON.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import functools
import gc
import hashlib
import importlib
import json
import math
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from probe import calibrate, call_cli

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INPUTS = "bench/inputs"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"
GOLDENS = BENCH / "goldens.json"
PROBE = BENCH / "probe.py"

DEFAULT_SEED = 42
# wall_s and setup_s are seconds on a machine where calibrate() takes this
# long, about its typical time on the 2-vCPU Xeon the baseline ran on
CAL_REF_S = 0.06
# fresh processes per run for setup_s; the median of several keeps one
# slow interpreter start from moving the figure
SETUP_PROBES = 7

# variable domains of the frozen tank presets: levels in [l_m, l_M],
# flows in [0, q_M]
TANK_DOMAIN = {
    "l1": (0.0, 20.0),
    "l2": (0.0, 20.0),
    "l3": (0.0, 20.0),
    "q1": (0.0, 6.0),
    "q2": (0.0, 6.0),
    "q0": (0.0, 6.0),
}


@dataclass(frozen=True)
class Workload:
    """One CLI command line and the sizes that define its work."""

    name: str
    why: str
    command: str
    config: str
    steps: int
    runs: int
    ell: int = 1
    formula: str | None = None
    reference_runs: int = 0
    workers: int = 1

    def argv(self, seed: int, out: str) -> list[str]:
        args = [self.command, "--config", self.config, "--steps", str(self.steps)]
        args += ["--runs", str(self.runs), "--seed", str(seed), "--workers", str(self.workers)]
        if self.command == "check":
            args += ["--ell", str(self.ell), "--formula", self.formula]
        if self.reference_runs:
            args += ["--reference-runs", str(self.reference_runs)]
        return args + ["--out", out]

    def size(self) -> dict:
        """Everything but the name and reason; goldens hold only for this size."""
        fields = dataclasses.asdict(self)
        del fields["name"], fields["why"]
        return fields

    @property
    def run_steps(self) -> int:
        """Kernel steps simulated into the estimate (check simulates ell*N runs)."""
        runs = self.ell * self.runs if self.command == "check" else self.runs
        return runs * self.steps


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tanks-check",
            "the everyday check; simulation is most of it, so a kernel gain shows here",
            "check",
            f"{INPUTS}/three-tanks-scenario-1.cfg",
            steps=150,
            runs=100,
            ell=10,
            formula=f"{INPUTS}/recover-from-overflow-risk.evtl",
        ),
        Workload(
            "chain-long-horizon",
            "few runs over a long series with wide windows; until and atom sampling lead",
            "check",
            f"{INPUTS}/chain-drift.cfg",
            steps=2000,
            runs=10,
            ell=2,
            formula=f"{INPUTS}/long-horizon.evtl",
        ),
        Workload(
            "tanks-reference-stats",
            "streaming run_moments over a 2-worker pool at constant memory; scenario 2",
            "stats",
            f"{INPUTS}/three-tanks-scenario-2.cfg",
            steps=150,
            runs=100,
            reference_runs=2048,
            workers=2,
        ),
        Workload(
            "tanks-estimate-csv",
            "a 7 MB estimate CSV, so the output writers carry a large share",
            "estimate",
            f"{INPUTS}/three-tanks-scenario-1.cfg",
            steps=150,
            runs=500,
        ),
    )
}


class BenchError(Exception):
    """The benchmark cannot run here (program missing, probe broken)."""


# --------------------------------------------------------------------------
# output checks


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def golden_for(w: Workload, seed: int, goldens: dict) -> str | None:
    entry = goldens.get(w.name)
    if entry is None or entry["size"] != w.size():
        return None
    return entry["sha256"].get(str(seed))


def _series_rows(out: Path) -> list[tuple[int, float, int]]:
    lines = out.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "time,robustness,reliable":
        raise ValueError("series header is not time,robustness,reliable")
    rows = []
    for line in lines[1:]:
        t, r, ok = line.split(",")
        rows.append((int(t), float(r), int(ok)))
    return rows


def _verdict_matches_series(out: Path, stdout: str) -> str | None:
    """The JSON verdict's robustness must equal row 0 of the series CSV."""
    try:
        verdict = json.loads(stdout.strip().splitlines()[-1])
        row0 = _series_rows(out)[0]
    except (ValueError, IndexError) as exc:
        return f"unreadable verdict or series: {exc}"
    if verdict.get("robustness") != row0[1]:
        return f"JSON robustness {verdict.get('robustness')!r} != series row 0 {row0[1]!r}"
    return None


def _series_invariants(w: Workload, out: Path) -> str | None:
    rows = _series_rows(out)
    if [t for t, _, _ in rows] != list(range(w.steps + 1)):
        return f"series times are not 0..{w.steps}"
    bad = [t for t, r, ok in rows if not -1.0 <= r <= 1.0 or ok not in (0, 1)]
    if bad:
        return f"robustness outside [-1, 1] or bad flag at times {bad[:5]}"
    return None


def _estimate_invariants(w: Workload, out: Path) -> str | None:
    import numpy as np

    with open(out, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if header != ["run", "time", *TANK_DOMAIN]:
        return f"estimate header {header}"
    arr = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    k = w.steps + 1
    if arr.shape != (w.runs * k, 2 + len(TANK_DOMAIN)):
        return f"estimate shape {arr.shape}"
    if not (
        np.array_equal(arr[:, 0], np.repeat(np.arange(w.runs), k))
        and np.array_equal(arr[:, 1], np.tile(np.arange(k), w.runs))
    ):
        return "estimate rows are not in (run, time) order"
    for col, (name, (lo, hi)) in enumerate(TANK_DOMAIN.items(), start=2):
        if not np.all((arr[:, col] >= lo) & (arr[:, col] <= hi)):
            return f"estimate values of {name} outside [{lo}, {hi}]"
    return None


def _stats_invariants(w: Workload, out: Path) -> str | None:
    lines = out.read_text(encoding="utf-8").splitlines()
    if lines[0] != "time,variable,mean,stddev,stderr,z,within95":
        return "stats header"
    expected = [(t, v) for t in range(w.steps + 1) for v in TANK_DOMAIN]
    rows = [line.split(",") for line in lines[1:]]
    if [(int(r[0]), r[1]) for r in rows] != expected:
        return "stats rows are not one per (time, variable)"
    for t, var, mean, std, stderr, z, w95 in rows:
        lo, hi = TANK_DOMAIN[var]
        mean, std, stderr = float(mean), float(std), float(stderr)
        if not lo <= mean <= hi or std < 0.0:
            return f"stats row ({t}, {var}): mean outside domain or negative stddev"
        if not math.isclose(stderr, std / math.sqrt(w.runs), rel_tol=1e-12, abs_tol=0.0):
            return f"stats row ({t}, {var}): stderr != stddev / sqrt(runs)"
        if (z == "") != (w95 == ""):
            return f"stats row ({t}, {var}): z and within95 disagree on blank"
        if z and (not math.isfinite(float(z)) or int(w95) != int(abs(float(z)) <= 1.96)):
            return f"stats row ({t}, {var}): within95 does not match z"
    return None


def invariants(w: Workload, out: Path) -> str | None:
    """Properties every output of the workload has, whatever the seed."""
    try:
        if w.command == "check":
            return _series_invariants(w, out)
        if w.command == "estimate":
            return _estimate_invariants(w, out)
        return _stats_invariants(w, out)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return f"unreadable output: {exc}"


def mtime(path: Path) -> int | None:
    return path.stat().st_mtime_ns if path.exists() else None


def check_output(
    w: Workload, seed: int, out: Path, stdout: str, goldens: dict, before: int | None
) -> str | None:
    """Failure reason for one call's output, or None when it is correct.

    ``before`` is the output file's mtime before the call, so that a file
    left by an earlier call does not pass for this one.
    """
    if not out.exists() or mtime(out) == before:
        return "no output written"
    if w.command == "check":
        reason = _verdict_matches_series(out, stdout)
        if reason:
            return reason
    golden = golden_for(w, seed, goldens)
    if golden is None:
        return invariants(w, out)
    got = sha256_file(out)
    return None if got == golden else f"sha256 {got} != golden {golden}"


# --------------------------------------------------------------------------
# calls into the program


@dataclass
class Ops:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = dataclasses.field(default_factory=list)

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def invoke(argv: list[str]) -> tuple[float, str, str | None]:
    """Run ``evtl.cli.main`` in this process: (seconds, stdout, error)."""
    gc.collect()
    t0 = time.perf_counter()
    stdout, error = call_cli(argv)
    return time.perf_counter() - t0, stdout, error


def run_call(w: Workload, seed: int, ops: Ops, goldens: dict) -> tuple[float, str | None]:
    """One checked in-process call; returns its wall time and failure, if any."""
    out = WORK / f"{w.name}.out"
    before = mtime(out)
    seconds, stdout, error = invoke(w.argv(seed, str(out.relative_to(ROOT))))
    reason = error or check_output(w, seed, out, stdout, goldens, before)
    ops.record(reason)
    return seconds, reason


def probe(*args: str) -> dict:
    """Run ``bench/probe.py`` in a fresh interpreter and parse its JSON line.

    The probe runs in a session of its own, so that on any way out of here
    its whole process group (the probe and its pool workers) is killed, and
    the probe is waited for.
    """
    proc = subprocess.Popen(
        [sys.executable, str(PROBE), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=150)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"probe {args[0]} failed: {stderr.strip()[-500:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure_setup(w: Workload) -> list[dict]:
    args = ["setup", w.config] + ([w.formula] if w.formula else [])
    return [probe(*args) for _ in range(SETUP_PROBES)]


def measure_rss(w: Workload, seed: int, ops: Ops, goldens: dict) -> dict:
    """Peak memory of a fresh process running the workload once (one operation)."""
    out = WORK / f"{w.name}.rss.out"
    before = mtime(out)
    got = probe("run", *w.argv(seed, str(out.relative_to(ROOT))))
    reason = got["error"] or check_output(w, seed, out, got["stdout"], goldens, before)
    ops.record(reason)
    # fork-started pool workers are waited for, so the children figure is the
    # largest worker's peak; every worker of one pool does the same work
    workers_kb = got["children_maxrss_kb"] * w.workers if got["children_maxrss_kb"] else 0
    return {
        "main_kb": got["self_maxrss_kb"],
        "largest_worker_kb": got["children_maxrss_kb"],
        "peak_rss_mb": (got["self_maxrss_kb"] + workers_kb) / 1024.0,
    }


# --------------------------------------------------------------------------
# tracing


def _count_samples(counts: Counter, args: tuple, result) -> None:
    counts["reference_samples"] += len(result)


def _count_sorted(counts: Counter, args: tuple, result) -> None:
    counts["samples_sorted"] += len(args[0]) + len(args[1])


# (module, attribute path, layer, extra counter); each path is the name the
# caller looks up, so wrapping it catches every call into the layer
TRACE_POINTS: list[tuple[str, str, str, Callable | None]] = [
    ("evtl.cli", "load_config", "config.load", None),
    ("evtl.cli", "build_model", "config.build_model", None),
    ("evtl.cli", "load_formula", "parsing.load_formula", None),
    ("evtl.cli", "estimate", "simulation.estimate", None),
    ("evtl.monitor", "estimate", "simulation.estimate", None),
    ("evtl.cli", "run_moments", "simulation.run_moments", None),
    ("evtl.simulation", "RandomnessPlan.substream", "simulation.substream", None),
    ("evtl.monitor", "evaluate", "monitor.evaluate", None),
    ("evtl.monitor", "until_combine", "monitor.until_combine", None),
    ("evtl.formulas", "ProductNormal.sample", "formulas.reference_sample", _count_samples),
    ("evtl.formulas", "PointMass.sample", "formulas.reference_sample", _count_samples),
    ("evtl.formulas", "EmpiricalRef.sample", "formulas.reference_sample", _count_samples),
    ("evtl.monitor", "one_sided_wasserstein", "wasserstein.one_sided", _count_sorted),
    ("evtl.spaces", "Penalty.project", "spaces.penalty_project", None),
    ("evtl.cli", "error_report", "stats.error_report", None),
    ("evtl.cli", "save_series", "io.save", None),
    ("evtl.cli", "save_estimate", "io.save", None),
    ("evtl.cli", "save_error_report", "io.save", None),
]

LAYERS = list(dict.fromkeys(layer for _, _, layer, _ in TRACE_POINTS))


class Tracer:
    """In-memory spans around calls into each layer, one call id per CLI call.

    A span is (call, id, parent id, layer, start, end). Pool workers inherit
    the wrappers, but their spans stay in the worker; only this process's
    calls are seen.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.call = 0
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def _wrap(self, fn: Callable, layer: str, counter: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (self.call, sid, parent, layer, t0, t1)
            self.counts[layer] += 1
            if counter is not None:
                try:
                    counter(self.counts, args, result)
                except (TypeError, IndexError):
                    pass
            return result

        return traced

    def install(self) -> None:
        """Wrap every trace point; a name that no longer exists is recorded as absent."""
        self.absent = []
        for module, path, layer, counter in TRACE_POINTS:
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for name in owners:
                    owner = getattr(owner, name)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, layer, counter))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def self_times(self, call: int) -> tuple[dict[str, float], float, dict[str, float]]:
        """Per-layer self time, total root-span time and per-layer inclusive time."""
        spans = [s for s in self.spans if s is not None and s[0] == call]
        child_time: Counter = Counter()
        for _, _, parent, _, t0, t1 in spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        self_s: Counter = Counter()
        inclusive: Counter = Counter()
        roots = 0.0
        for _, sid, parent, layer, t0, t1 in spans:
            self_s[layer] += (t1 - t0) - child_time[sid]
            inclusive[layer] += t1 - t0
            if parent is None:
                roots += t1 - t0
        return dict(self_s), roots, dict(inclusive)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                call, sid, parent, layer, t0, t1 = span
                fh.write(
                    json.dumps(
                        {"call": call, "id": sid, "parent": parent, "layer": layer,
                         "start": t0, "end": t1}
                    )
                    + "\n"
                )


def formula_counts(w: Workload) -> tuple[int, int]:
    """(atom evaluations, until cells) of a check, from its inputs.

    Atoms count once per distinct atom, as evaluation shares repeated ones;
    until cells are (steps + 1) * window width summed over distinct untils.
    """
    if w.formula is None:
        return 0, 0
    from evtl.config import build_model, load_config
    from evtl.parsing import load_formula

    kernel, _, penalties = build_model(load_config(w.config))
    root = load_formula(w.formula, penalties, kernel.space)
    atoms, untils, todo, seen = 0, 0, [root], set()
    while todo:
        node = todo.pop()
        if node in seen:
            continue
        seen.add(node)
        kind = type(node).__name__
        if kind in ("Target", "Hazard"):
            atoms += 1
        elif kind == "Until":
            untils += (w.steps + 1) * (node.hi - node.lo + 1)
        todo += [getattr(node, a) for a in ("child", "left", "right") if hasattr(node, a)]
    return atoms * (w.steps + 1), untils


# --------------------------------------------------------------------------
# runs

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("config.load_s", "s"),
    ("config.build_model_s", "s"),
    ("parsing.load_formula_s", "s"),
    ("simulation.estimate_s", "s"),
    ("simulation.run_steps", "count"),
    ("simulation.ns_per_run_step", "ns"),
    ("simulation.run_moments_s", "s"),
    ("simulation.run_moments_run_steps", "count"),
    ("simulation.substream_s", "s"),
    ("simulation.substream_calls", "count"),
    ("monitor.evaluate_s", "s"),
    ("monitor.atom_evals", "count"),
    ("monitor.until_combine_s", "s"),
    ("monitor.until_cells", "count"),
    ("formulas.reference_sample_s", "s"),
    ("formulas.reference_samples", "count"),
    ("wasserstein.one_sided_s", "s"),
    ("wasserstein.one_sided_calls", "count"),
    ("wasserstein.samples_sorted", "count"),
    ("spaces.penalty_project_s", "s"),
    ("stats.error_report_s", "s"),
    ("io.save_s", "s"),
    ("io.bytes_written", "bytes"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.absent_names", "count"),
]


def _timed_loop(seconds: float, body: Callable[[], None]) -> None:
    """Run ``body`` at least once, and again while the next run fits in ``seconds``."""
    start = time.perf_counter()
    body()
    done = 1
    while (time.perf_counter() - start) * (done + 1) / done <= seconds:
        body()
        done += 1


@contextlib.contextmanager
def calibrator(processes: int):
    """Yield a function timing :func:`calibrate` on as many cores as a call uses.

    A call that runs a pool of N workers waits for the slowest of them, so
    for N > 1 the calibration runs in each of N forked processes at the
    same time and reports the slowest. Forked, as the program's own pool
    workers are; unlike spawn, fork starts no resource tracker process.
    """
    if processes <= 1:
        yield _calibrate_twice
        return
    ctx = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(processes, mp_context=ctx) as pool:
        yield lambda: max(pool.map(_calibrate_twice, range(processes)))


def _calibrate_twice(_: object = None) -> float:
    # the faster of two drops a preemption that hit only one of them
    return min(calibrate(), calibrate())


def calibrated(times: list[float], cals: list[float]) -> float:
    """Median of time / calibration, in seconds at the reference speed.

    The shared machine's speed drifts by tens of percent over minutes, and
    the program slows with it; the calibration measured next to each time
    slows the same way, so the ratio stays put.
    """
    return statistics.median(t / c for t, c in zip(times, cals)) * CAL_REF_S


def run_end_to_end(w: Workload, seed: int, seconds: float, ops: Ops, goldens: dict) -> tuple[dict, dict]:
    setup = measure_setup(w)
    rss = measure_rss(w, seed, ops, goldens)
    walls: list[float] = []
    with calibrator(w.workers) as calibrate_now:
        cals = [calibrate_now()]

        def call() -> None:
            walls.append(run_call(w, seed, ops, goldens)[0])
            cals.append(calibrate_now())

        _timed_loop(seconds, call)
    # each call is scaled by the mean of the calibrations either side of it
    around = [(a + b) / 2 for a, b in zip(cals, cals[1:])]
    metrics = {
        "wall_s": calibrated(walls, around),
        "setup_s": calibrated([s["setup_s"] for s in setup], [s["calibration_s"] for s in setup]),
        "peak_rss_mb": rss["peak_rss_mb"],
    }
    detail = {
        "wall_raw_median_s": statistics.median(walls),
        "wall_samples": walls,
        "calibration_samples": cals,
        "setup_samples": setup,
        "rss": rss,
    }
    return metrics, detail


def run_traced(w: Workload, seed: int, seconds: float, ops: Ops, goldens: dict) -> tuple[dict, dict]:
    tracer = Tracer()
    plain: list[float] = []
    traced: list[tuple[float, int, Counter]] = []
    out = WORK / f"{w.name}.out"

    def pair() -> None:
        plain.append(run_call(w, seed, ops, goldens)[0])
        tracer.call += 1
        tracer.counts = Counter()
        tracer.install()
        try:
            wall, _ = run_call(w, seed, ops, goldens)
        finally:
            tracer.uninstall()
        traced.append((wall, tracer.call, tracer.counts))

    _timed_loop(seconds, pair)
    traced.sort(key=lambda item: item[0])
    wall, call, counts = traced[(len(traced) - 1) // 2]
    self_s, roots, inclusive = tracer.self_times(call)
    atom_evals, until_cells = formula_counts(w)
    run_steps = w.run_steps
    metrics = {f"{layer}_s": self_s.get(layer, 0.0) for layer in LAYERS}
    metrics.update(
        {
            "simulation.run_steps": run_steps,
            "simulation.ns_per_run_step": inclusive.get("simulation.estimate", 0.0) * 1e9 / run_steps,
            "simulation.run_moments_run_steps": w.reference_runs * w.steps,
            "simulation.substream_calls": counts["simulation.substream"],
            "monitor.atom_evals": atom_evals,
            "monitor.until_cells": until_cells,
            "formulas.reference_samples": counts["reference_samples"],
            "wasserstein.one_sided_calls": counts["wasserstein.one_sided"],
            "wasserstein.samples_sorted": counts["samples_sorted"],
            "io.bytes_written": out.stat().st_size if out.exists() else 0,
            "cli.self_s": wall - roots,
            "trace.wall_s": wall,
            "trace.untraced_wall_s": statistics.median(plain),
            "trace.overhead_s": statistics.median(t for t, _, _ in traced) - statistics.median(plain),
            "trace.absent_names": len(tracer.absent),
        }
    )
    absent_layers = {
        layer
        for layer in LAYERS
        if all(f"{m}.{p}" in tracer.absent for m, p, lay, _ in TRACE_POINTS if lay == layer)
    }
    spans_file = RESULTS / f"trace-{w.name}-seed{seed}.jsonl"
    tracer.write(spans_file)
    detail = {
        "traced_calls": len(traced),
        "untraced_calls": len(plain),
        "layers": {layer: "absent" if layer in absent_layers else "ok" for layer in LAYERS},
        "absent_names": tracer.absent,
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, detail


def machine() -> dict:
    import numpy

    llc = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("cache size"):
                    llc = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "llc": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def import_program() -> None:
    """Import evtl from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "evtl" / "cli.py").is_file():
        raise BenchError(f"no evtl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import evtl

    if Path(evtl.__file__).resolve().parent != (SRC / "evtl").resolve():
        raise BenchError(f"imported evtl from {evtl.__file__}, not from {SRC}")


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, goldens: dict) -> tuple[dict, dict]:
    """Measure one workload; returns the result line and the detail line."""
    WORK.mkdir(parents=True, exist_ok=True)
    ops = Ops()
    runner = run_traced if trace else run_end_to_end
    start = time.perf_counter()
    # warm-up: lazy imports and first allocations are paid once per process,
    # which setup_s covers, not on every call
    run_call(w, seed, ops, goldens)
    values, detail = runner(w, seed, seconds - (time.perf_counter() - start), ops, goldens)
    units = dict(PER_LAYER if trace else END_TO_END)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "workload": w.name,
        "seed": seed,
        "check": "golden" if golden_for(w, seed, goldens) else "invariants",
        "processes": 1 + w.workers if w.workers > 1 else 1,
        "failures": ops.reasons,
        "machine": machine(),
        **detail,
    }
    return result, detail


def stop_children() -> None:
    """Wait for every child process this run started, so none outlives it.

    Pools are shut down where they are used; this also catches a pool left
    by an error, and the resource tracker that a spawn or forkserver pool
    would start (the program's pools fork, but that may change).
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    # collect dropped pools first, so that no semaphore left to unregister
    # restarts the tracker after it stops
    gc.collect()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    os.chdir(ROOT)
    try:
        import_program()
        result, detail = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), load_goldens()
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_children()
        for path in WORK.glob("*"):
            path.unlink()
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
