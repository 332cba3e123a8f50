"""Statistical robustness monitoring of formulas over evolution estimates.

Evaluation walks the formula tree once per node, producing a robustness
value in [-1, 1] for every start index 0..k of the estimate. Atom values
come from one-sided distances between freshly sampled reference
distributions and the estimated per-step samples, computed in blocks of
time indices. Each index draws its reference from its own stream, but a
block's draws come from one ``sample_block`` call and go through one
penalty projection and one row-wise sort, so only the generator call is
paid per index. Boolean and temporal structure is pure array algebra on
the children's series, with one array pass per until window offset.

Atom sampling draws from RNG streams keyed by the atom's printed form and
the time index, never by its position in the tree. Two consequences, both
deliberate: repeated atoms share draws, and the double-negation / De Morgan
identities hold exactly on the computed series, not just in distribution.

A start index is only trustworthy when the formula's whole window fits into
the simulated horizon: index i is reliable iff i + horizon(phi) <= k. Later
indices still get values (the truncated windows simply see fewer candidate
times) but are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Literal

import numpy as np

from ._io import write_csv
from .formulas import (
    Discount,
    Formula,
    Hazard,
    Not,
    Or,
    PointMass,
    Target,
    Truth,
    Until,
    content_words,
    horizon,
    validate,
)
from .simulation import EvolutionEstimate, MarkovKernel, RandomnessPlan, estimate
from .spaces import DataState, SampleSet

# one_sided_wasserstein is not called here; bench/run.py traces this name
from .wasserstein import one_sided_rows, one_sided_wasserstein  # noqa: F401

__all__ = [
    "UntilMode",
    "RobustnessSeries",
    "until_combine",
    "evaluate",
    "CheckResult",
    "check_formula",
    "save_series",
]

UntilMode = Literal["semantics", "figure"]


@dataclass(frozen=True)
class RobustnessSeries:
    """Robustness of one formula at every start index of an estimate."""

    values: np.ndarray
    formula_horizon: int
    until_mode: str = "semantics"

    @property
    def steps(self) -> int:
        return len(self.values) - 1

    @property
    def value(self) -> float:
        """Robustness at time 0, the usual verdict."""
        return float(self.values[0])

    def reliable(self, i: int) -> bool:
        return i + self.formula_horizon <= self.steps

    @property
    def reliable_steps(self) -> int:
        """Number of leading indices whose full window fits the horizon."""
        return max(self.steps - self.formula_horizon + 1, 0)

    @property
    def reliable_mask(self) -> np.ndarray:
        return np.arange(self.steps + 1) < self.reliable_steps


def until_combine(
    left: np.ndarray,
    right: np.ndarray,
    lo: int,
    hi: int,
    mode: UntilMode = "semantics",
) -> np.ndarray:
    """Series-level bounded until.

    For each start index i, candidates are the window offsets tau' in
    [i+lo, i+hi] clipped to the series end; each contributes the min of the
    right series at tau' and a running min of the left series, and the
    result is the best candidate (-1 when the clipped window is empty).

    The two modes differ in the left-min's range: ``semantics`` uses the
    half-open [i+lo, tau') (empty at the first offset), ``figure`` uses the
    inclusive [i, tau'].

    Cost: one array pass over all start indices per window offset, O(w)
    passes for width w. Min and max keep Python's tie rules (``min(a, b)``
    is ``a`` unless ``b < a``), not numpy's, so signed zeros stay as-is.
    """
    if left.shape != right.shape:
        raise ValueError("series lengths differ")
    if mode not in ("semantics", "figure"):
        raise ValueError(f"unknown until mode {mode!r}")
    n = len(left)
    best, run = np.full(n, -1.0), np.ones(n)
    for d in range(lo if mode == "semantics" else 0, min(hi, n - 1) + 1):
        # views onto start indices 0..n-1-d, whose offset-d time is i + d
        b, r, x, y = best[: n - d], run[: n - d], left[d:], right[d:]
        if mode == "figure":
            np.copyto(r, x, where=x < r)
        if d >= lo:
            cand = np.where(r < y, r, y)
            np.copyto(b, cand, where=cand > b)
        if mode == "semantics":
            np.copyto(r, x, where=x < r)
    return best


# states per block of time indices; no block temporary holds more states than this
_BLOCK_VALUES = 1 << 13


def _atom_values(
    atom: Target | Hazard,
    est: EvolutionEstimate,
    base_runs: int,
    plan: RandomnessPlan,
    discount: Discount,
) -> np.ndarray:
    """Robustness series of one atom, one block of time indices at a time.

    Per block: one ``sample_block`` call draws every index's reference from
    stream ``(1, *words, t)``, one projection scores those draws and one the
    estimate's samples, and ``one_sided_rows`` compares them row by row.
    """
    target = isinstance(atom, Target)
    n_ref, n_obs = (base_runs, est.runs) if target else (est.runs, base_runs)
    space, pen, words = est.space, atom.penalty, content_words(atom)
    # a block is one projection, so a time-dependent penalty gets one-index blocks
    width = 1 if pen.time_dependent else max(1, _BLOCK_VALUES // est.runs)
    dist = np.empty(est.steps + 1)
    point = isinstance(atom.dist, PointMass)
    streams = None if point else plan.substreams((1, *words), range(est.steps + 1))
    for t0 in range(0, est.steps + 1, width):
        t1 = min(t0 + width, est.steps + 1)
        # islice takes no stream past the block; a point mass takes none, one row serves all
        draws = atom.dist.sample_block(space, n_ref, (None,) if point else islice(streams, t1 - t0))
        ref = pen.project(SampleSet(space, draws.reshape(-1, space.dim)), t0).reshape(-1, n_ref)
        ref = np.broadcast_to(ref, (t1 - t0, n_ref))
        block = est.values[t0:t1, :n_obs].reshape(-1, space.dim)
        obs = pen.project(SampleSet(space, block), t0).reshape(t1 - t0, n_obs)
        dist[t0:t1] = one_sided_rows(ref, obs) if target else one_sided_rows(obs, ref)
    scale = np.array([discount(i) for i in range(est.steps + 1)])
    return atom.threshold - scale * dist if target else scale * dist - atom.threshold


def evaluate(
    est: EvolutionEstimate,
    formula: Formula,
    base_runs: int,
    plan: RandomnessPlan,
    discount: Discount = Discount(),
    until_mode: UntilMode = "semantics",
) -> RobustnessSeries:
    """Robustness series of a formula over an existing estimate.

    ``base_runs`` is the reference sample size N; the estimate must hold
    l*N runs for an integer oversampling ratio l >= 1. Target atoms compare
    N reference samples against all l*N estimate samples; hazard atoms
    compare the first N estimate samples against l*N reference samples.
    """
    if base_runs < 1 or est.runs % base_runs != 0:
        raise ValueError(f"estimate holds {est.runs} runs, not a multiple of N={base_runs}")
    validate(formula, est.space)
    cache: dict[Formula, np.ndarray] = {}

    def walk(f: Formula) -> np.ndarray:
        got = cache.get(f)
        if got is None:
            cache[f] = got = compute(f)
        return got

    def compute(f: Formula) -> np.ndarray:
        match f:
            case Truth():
                return np.ones(est.steps + 1)
            case Target() | Hazard():
                return _atom_values(f, est, base_runs, plan, discount)
            case Not(child=c):
                return -walk(c)
            case Or(left=l, right=r):
                return np.maximum(walk(l), walk(r))
            case Until(left=l, right=r, lo=lo, hi=hi):
                return until_combine(walk(l), walk(r), lo, hi, until_mode)
        raise TypeError(f"not a formula: {f!r}")

    return RobustnessSeries(walk(formula), horizon(formula), until_mode)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of checking one formula against one system."""

    series: RobustnessSeries
    formula: Formula
    base_runs: int
    ratio: int
    estimate: EvolutionEstimate = field(repr=False)

    @property
    def robustness(self) -> float:
        return self.series.value

    @property
    def satisfied(self) -> bool | None:
        """Sign verdict at time 0; None when the robustness is exactly 0."""
        r = self.robustness
        if r == 0.0:
            return None
        return r > 0.0


def check_formula(
    kernel: MarkovKernel,
    initial: DataState,
    formula: Formula,
    base_runs: int,
    ratio: int,
    plan: RandomnessPlan,
    steps: int | None = None,
    discount: Discount = Discount(),
    until_mode: UntilMode = "semantics",
) -> CheckResult:
    """Estimate the system for ratio * N runs and score the formula.

    ``steps`` defaults to the formula horizon, the shortest run for which
    the verdict at time 0 is reliable.
    """
    if ratio < 1:
        raise ValueError("oversampling ratio must be >= 1")
    k = horizon(formula) if steps is None else steps
    est = estimate(kernel, initial, k, ratio * base_runs, plan)
    series = evaluate(est, formula, base_runs, plan, discount, until_mode)
    return CheckResult(series, formula, base_runs, ratio, est)


def save_series(dest, series: RobustnessSeries) -> None:
    """CSV of the series: time, robustness, reliable flag."""
    columns = (np.arange(series.steps + 1), series.values, series.reliable_mask)
    write_csv(dest, ("time", "robustness", "reliable"), "%d,%.17g,%d", [columns])
