"""Statistical robustness monitoring of formulas over evolution estimates.

:func:`robustness` is the robustness semantics: through ``formulas.fold`` it
computes each distinct subformula once, as a value in [-1, 1] for every
start index 0..k, by array algebra on its children's series (sliding-window
maxima for ``F`` and ``G``, one array pass per window offset for a general
until). The atoms' series come from the function it is given, so the exact
chain oracle folds the same way over its own atom values.

Statistical atom values come from one-sided distances between freshly
sampled reference distributions and the estimated per-step samples.
:func:`evaluate` reads these as ``est.blocks(width)`` of a stored estimate
or, in a check, of a ``Simulation``, at ``simulation._block_width``,
variable-major (dim, width, runs): the layout the kernels step in, and a
penalty reads only the rows of its own variables. Each index draws its
reference from its own stream, but a block's draws come from one
``sample_block`` call for just those variables and go through one penalty
projection and one row-wise sort, so only the generator call is paid per
index. Atoms that share a penalty share the projection of the block's
observed rows. Kernel steps and penalty scores raise their own numeric
failures under any error state.

Atom sampling draws from RNG streams keyed by the atom's printed form and
the time index, never by its position in the tree. Two consequences, both
deliberate: repeated atoms share draws, and the double-negation / De Morgan
identities hold exactly on the computed series, not just in distribution.

A start index is only trustworthy when the formula's whole window fits into
the simulated horizon: index i is reliable iff i + horizon(phi) <= k. Later
indices still get values (the truncated windows simply see fewer candidate
times) but are flagged.

:func:`evaluate`, :func:`check_formula` and the exact ``chains.exact_robustness``
all return a :class:`RobustnessSeries`, whose ``satisfied`` is the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat
from typing import Callable, Literal

import numpy as np

from ._io import write_csv
from .formulas import (
    Discount,
    Formula,
    Hazard,
    PointMass,
    Target,
    atoms,
    content_words,
    fold,
    horizon,
    validate,
)
from .simulation import EvolutionEstimate, MarkovKernel, RandomnessPlan, Simulation, _block_width
from .spaces import DataState, Penalty

# estimate and one_sided_wasserstein are not called here; bench/run.py traces these names
from .simulation import estimate  # noqa: F401
from .wasserstein import one_sided_rows, one_sided_wasserstein  # noqa: F401

__all__ = [
    "UntilMode",
    "RobustnessSeries",
    "until_combine",
    "robustness",
    "evaluate",
    "check_formula",
    "save_series",
]

UntilMode = Literal["semantics", "figure"]


@dataclass(frozen=True)
class RobustnessSeries:
    """Robustness of one formula at every start index of an estimate."""

    values: np.ndarray
    formula_horizon: int

    @property
    def steps(self) -> int:
        return len(self.values) - 1

    @property
    def value(self) -> float:
        """Robustness at time 0, whose sign is the verdict."""
        return float(self.values[0])

    @property
    def satisfied(self) -> bool | None:
        """Sign verdict at time 0; None at a robustness of 0.0 or -0.0, or an unreliable index 0."""
        return None if self.value == 0.0 or self.reliable_steps == 0 else self.value > 0.0

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

    Min and max keep Python's tie rules (``min(a, b)`` is ``a`` unless
    ``b < a``), not numpy's, so signed zeros stay as-is.

    Cost: O(k) for k start indices when ``left`` is 1.0 everywhere, which is
    ``F`` and, through its dual, ``G``; O(k*w) for window width w otherwise,
    one array pass over all start indices per window offset.
    """
    if left.shape != right.shape:
        raise ValueError("series lengths differ")
    if mode not in ("semantics", "figure"):
        raise ValueError(f"unknown until mode {mode!r}")
    if np.all(left == 1.0):
        return _eventually(right, lo, hi)
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


def _eventually(right: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``until_combine`` for a left series of 1.0 everywhere, in either mode.

    The left-min then stays 1.0, so index i gets the first-wins max of
    ``min(1.0, right)`` over [i+lo, min(i+hi, k)], floored at -1.0. Sliding
    window maxima come from block prefix and suffix maxima on blocks of the
    window's width (van Herk), O(1) per index whatever the width. The loop's
    tie rules hold: a NaN candidate never wins, the initial -1.0 wins ties,
    and a max of zero takes the sign of the first zero in its window.
    """
    n = len(right)
    best = np.full(n, -1.0)
    w = min(hi, n - 1) - lo + 1
    if w < 1:
        return best
    cand = np.where(1.0 < right, 1.0, right)
    # NaN and anything at or below the floor lose to it
    cand = np.where(cand > -1.0, cand, -1.0)
    # whole blocks up to the last window's end, n + w - 2, padded with the floor
    blocks = np.full((n + 2 * w - 2) // w * w, -1.0)
    blocks[:n] = cand
    blocks = blocks.reshape(-1, w)
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    # windows [s, s+w-1] for s = i + lo <= k; later start indices see none
    best[: n - lo] = np.maximum(suffix[lo:n], prefix[lo + w - 1 : n + w - 1])
    zero = np.flatnonzero(best == 0.0)
    if len(zero):
        # index of the first zero candidate at or after each position
        idx = np.where(cand == 0.0, np.arange(n), n)
        first = np.minimum.accumulate(idx[::-1])[::-1]
        best[zero] = cand[first[zero + lo]]
    return best


def robustness(
    formula: Formula,
    steps: int,
    atom: Callable[[Target | Hazard], np.ndarray],
    until_mode: UntilMode = "semantics",
) -> RobustnessSeries:
    """Robustness series of a formula at start indices 0..steps.

    ``atom`` gives the series of a leaf; the rest, the same for every route, is
    one :func:`~evtl.formulas.fold`, so an atom that occurs twice is evaluated once.
    """
    until = partial(until_combine, mode=until_mode)
    values = fold(formula, np.ones(steps + 1), atom, np.negative, np.maximum, until)
    return RobustnessSeries(values, horizon(formula))


def evaluate(
    est: EvolutionEstimate | Simulation,
    formula: Formula,
    base_runs: int,
    plan: RandomnessPlan,
    discount: Discount = Discount(),
    until_mode: UntilMode = "semantics",
) -> RobustnessSeries:
    """Robustness series of a formula over a stored estimate or a ``Simulation``.

    ``base_runs`` is the reference sample size N; ``est`` must hold l*N runs
    for an integer oversampling ratio l >= 1. Target atoms compare N
    reference samples against all l*N estimate samples; hazard atoms
    compare the first N estimate samples against l*N reference samples.
    """
    if not 0 < base_runs <= est.runs or est.runs % base_runs != 0:
        raise ValueError(f"estimate holds {est.runs} runs, not a multiple of N={base_runs}")
    validate(formula, est.space)
    # a Simulation draws its noise here, before anything else sized by the steps is built
    blocks = est.blocks(_block_width(est.runs))
    space, steps = est.space, est.steps
    series = {a: np.empty(steps + 1) for a in atoms(formula)}
    # a point mass draws nothing, so it takes no streams; the others keep theirs across blocks
    keys = {a: (1, *content_words(a)) for a in series if not isinstance(a.dist, PointMass)}
    streams = {a: plan.substreams(key, range(steps + 1)) for a, key in keys.items()}
    # atoms by penalty, so one projection of a block's observed rows is alive at a time
    by_penalty: dict[Penalty, list[Target | Hazard]] = {}
    for a in series:
        by_penalty.setdefault(a.penalty, []).append(a)
    factors = discount.factors(steps)
    for t0, states in blocks:
        t1, runs = t0 + states.shape[1], states.shape[2]
        # one time index per row, broadcast against the row's states
        taus = np.arange(t0, t1)[:, None]
        scale = factors[t0:t1]
        for pen, group in by_penalty.items():
            # targets observe all l*N runs, hazards the first N
            n_obs = runs if any(isinstance(a, Target) for a in group) else base_runs
            seen = pen.project(states[[space.index(v) for v in pen.variables], :, :n_obs], taus)
            for a in group:
                target = isinstance(a, Target)
                # islice takes no stream past the block
                rngs = islice(streams.get(a, repeat(None)), t1 - t0)
                n_ref = base_runs if target else runs
                block = a.dist.sample_block(space, t1 - t0, n_ref, rngs, pen.variables)
                ref = pen.project(block, taus)
                obs = seen if target else seen[:, :base_runs]
                d = scale * (one_sided_rows(ref, obs) if target else one_sided_rows(obs, ref))
                series[a][t0:t1] = a.threshold - d if target else d - a.threshold
    return robustness(formula, steps, series.__getitem__, until_mode)


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
) -> RobustnessSeries:
    """Simulate ratio * N runs; return the formula's series, scored as the states come.

    ``steps`` defaults to the formula horizon, the shortest run for which
    the verdict at time 0 is reliable. As :func:`evaluate` of a ``Simulation``, the series is
    that of the stored estimate bit for bit.
    """
    if ratio < 1:
        raise ValueError("oversampling ratio must be >= 1")
    if base_runs < 1:
        raise ValueError("need at least one reference run")
    k = horizon(formula) if steps is None else steps
    sim = Simulation(kernel, initial, k, ratio * base_runs, plan)
    return evaluate(sim, formula, base_runs, plan, discount, until_mode)


def save_series(dest, series: RobustnessSeries) -> None:
    """CSV of the series: time, robustness, reliable flag."""
    columns = (np.arange(series.steps + 1), series.values, series.reliable_mask)
    write_csv(dest, ("time", "robustness", "reliable"), ("%d", "%.17g", "%d"), [columns])
