"""One-sided Wasserstein distances between penalty projections.

Both the exact form and the sampled estimator compute the same quantity: the
average amount by which the second distribution's penalty quantiles exceed
the first's,

    W(A -> B) = integral over r in (0, 1] of max(Q_B(r) - Q_A(r), 0) dr,

which is the minimum expected one-sided transport cost of rearranging A into
B. It is asymmetric by design: mass where B scores below A costs nothing.

``exact_one_sided_wasserstein`` evaluates the integral in closed form for
finite discrete distributions on the line and serves as the ground-truth
oracle for the sampled estimator, which only needs two sorted projections
with a matched integer size ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .spaces import Penalty, SampleSet
from .formulas import Discount

__all__ = [
    "exact_one_sided_wasserstein",
    "one_sided_rows",
    "one_sided_wasserstein",
    "DivergenceReport",
    "evolution_divergence",
]


def exact_one_sided_wasserstein(
    a_values: np.ndarray,
    a_weights: np.ndarray,
    b_values: np.ndarray,
    b_weights: np.ndarray,
) -> float:
    """Exact one-sided distance from A to B for finite discrete distributions.

    Values are support points on the line, weights their probabilities (must
    sum to 1 within 1e-12). Computed directly from the quantile integral by
    merging the two cumulative-weight ladders, so every constant segment of
    both quantile functions is visited exactly once.
    """
    av, aw = _checked(a_values, a_weights)
    bv, bw = _checked(b_values, b_weights)
    # a partial sum may round past 1, so the ladders are capped to stay sorted
    ca = np.minimum(np.cumsum(aw), 1.0)
    cb = np.minimum(np.cumsum(bw), 1.0)
    ca[-1] = 1.0
    cb[-1] = 1.0
    levels = np.union1d(ca, cb)
    ia = np.searchsorted(ca, levels, side="left")
    ib = np.searchsorted(cb, levels, side="left")
    widths = np.diff(np.concatenate(([0.0], levels)))
    gain = np.maximum(bv[ib] - av[ia], 0.0)
    return float(np.sum(widths * gain))


def _checked(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v = np.asarray(values, dtype=np.float64).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()
    if v.shape != w.shape or v.size == 0:
        raise ValueError("values and weights must be matching non-empty arrays")
    if np.any(w < 0.0):
        raise ValueError("negative weight")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise ValueError(f"weights sum to {w.sum()!r}, not 1")
    order = np.argsort(v, kind="stable")
    return v[order], w[order]


def one_sided_rows(omega: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Row-wise one-sided distance from A to B, given penalty projections.

    Row t of ``omega`` (T, n) and ``nu`` (T, l*n) is one comparison: the h-th
    smallest of ``nu[t]`` is paired against the ceil(h/l)-th smallest of
    ``omega[t]`` and the positive parts are averaged, the same bits per row
    as a one-row call.
    """
    (t, n), (t_nu, m) = omega.shape, nu.shape
    if t != t_nu or n == 0 or m == 0 or m % n != 0:
        raise ValueError(f"sample sizes {m} vs {n}: need an integer ratio")
    lower = np.repeat(np.sort(omega, axis=1), m // n, axis=1)
    return np.mean(np.maximum(np.sort(nu, axis=1) - lower, 0.0), axis=1)


def one_sided_wasserstein(
    a: SampleSet,
    b: SampleSet,
    penalty: Penalty,
    tau: int = 0,
) -> float:
    """Estimate the one-sided distance from A to B through a penalty.

    ``b`` must hold an integer multiple of ``a``'s samples; this is the
    one-row case of :func:`one_sided_rows`. Agrees exactly with
    :func:`exact_one_sided_wasserstein` on the corresponding uniform
    empirical distributions.
    """
    omega, nu = (penalty.project(e.space.rows(e.values, penalty.variables), tau) for e in (a, b))
    return float(one_sided_rows(omega[None], nu[None])[0])


@dataclass(frozen=True)
class DivergenceReport:
    """Discounted per-step divergence between two estimated evolutions."""

    times: tuple[int, ...]
    values: tuple[float, ...]

    @property
    def value(self) -> float:
        """Overall divergence: the peak discounted per-step distance."""
        return max(self.values)

    @property
    def peak_time(self) -> int:
        return self.times[int(np.argmax(self.values))]


def _observation_times(times: Iterable[int] | None, steps: int | None) -> tuple[int, ...]:
    """Sorted distinct ``times`` (every step 0..steps if None); ``ValueError`` if there are
    none or one lies outside 0..steps. ``steps=None`` sets no upper limit."""
    times = sorted(set(int(t) for t in (range(steps + 1) if times is None else times)))
    if not times:
        raise ValueError("no observation times")
    if times[0] < 0:
        raise ValueError(f"negative observation time {times[0]}")
    if steps is not None and times[-1] > steps:
        raise ValueError(f"observation times outside 0..{steps}")
    return tuple(times)


def evolution_divergence(
    a,
    b,
    penalty: Penalty,
    discount: Discount = Discount(),
    times: tuple[int, ...] | None = None,
) -> DivergenceReport:
    """Discounted one-sided divergence from evolution A to evolution B.

    ``a`` and ``b`` are evolution estimates over the same space; at every
    observed step the one-sided distance is scaled by the discount factor and
    the report keeps the whole profile. Symmetrize by taking the max with
    the swapped call when a two-sided comparison is wanted. The observed
    steps of each estimate are projected at once, every step at its own
    time index, and compared row by row.
    """
    if a.space != b.space:
        raise ValueError("estimates live on different spaces")
    times = _observation_times(times, min(a.steps, b.steps))
    at = np.array(times)
    omega, nu = (
        penalty.project(e.space.rows(e.values[at], penalty.variables), at[:, None]) for e in (a, b)
    )
    vals = tuple(discount(t) * d for t, d in zip(times, one_sided_rows(omega, nu).tolist()))
    return DivergenceReport(times, vals)
