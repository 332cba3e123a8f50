"""Batched simulation of discrete-time Markov kernels.

A kernel owns a data space and steps many runs at once: ``noise`` draws all
of one run's randomness from that run's generator, and ``step_batch`` maps
the (N, dim) states of N runs, given one noise value per run, to their
successors. Everything stochastic flows through a :class:`RandomnessPlan`,
which derives independent, reproducible generator streams from a single
master seed and a structured purpose key. Run j of an estimate always draws
from stream ``(0, j)``, so a run's states do not depend on which other runs
share its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Protocol, runtime_checkable

import numpy as np

from ._io import write_csv
from .spaces import DataSpace, DataState, SampleSet

__all__ = [
    "MarkovKernel",
    "RandomnessPlan",
    "EvolutionEstimate",
    "simulate",
    "estimate",
    "run_moments",
    "empirical_measure",
    "save_trajectory",
    "save_estimate",
]


@runtime_checkable
class MarkovKernel(Protocol):
    """One-step stochastic transition function over a data space, for a batch of runs."""

    @property
    def space(self) -> DataSpace: ...

    def noise(self, rng: np.random.Generator, steps: int) -> np.ndarray:
        """One run's draws for ``steps`` steps, one value per step."""
        ...

    def step_batch(self, values: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Successors of the (N, dim) states, run j consuming ``noise[j]``."""
        ...


@dataclass(frozen=True)
class RandomnessPlan:
    """Functional derivation of independent RNG streams from one master seed.

    Streams are addressed by integer tuples: equal keys give bitwise-equal
    streams, distinct keys give statistically independent ones. Simulation
    owns the ``(0, run)`` keys; formula evaluation derives everything else
    under ``(1, ...)``. ``scoped`` prefixes a namespace, yielding a plan
    whose whole key tree is disjoint from the parent's (used to keep
    reference runs independent of the runs they validate).
    """

    master_seed: int
    namespace: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.master_seed, int) or self.master_seed < 0:
            raise ValueError("master seed must be a non-negative integer")

    def scoped(self, *prefix: int) -> "RandomnessPlan":
        return RandomnessPlan(self.master_seed, self.namespace + prefix)

    def seed_sequence(self, *key: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.master_seed, spawn_key=self.namespace + tuple(key))

    def substream(self, *key: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed_sequence(*key)))


class EvolutionEstimate:
    """Per-step samples of the state distribution, one row per run.

    Stored as a (steps+1, runs, dim) array; ``at(i)`` views step i as a
    :class:`SampleSet` without copying. Row order is the run index, which the
    monitor relies on when it truncates a sample set to its first N rows.
    """

    __slots__ = ("space", "values")

    def __init__(self, space: DataSpace, values: np.ndarray):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != space.dim:
            raise ValueError(f"expected (steps+1, runs, {space.dim}) array, got {arr.shape}")
        self.space = space
        self.values = arr

    @property
    def steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def runs(self) -> int:
        return self.values.shape[1]

    def at(self, i: int) -> SampleSet:
        if not 0 <= i <= self.steps:
            raise IndexError(f"step {i} outside 0..{self.steps}")
        return SampleSet(self.space, self.values[i])

    def column(self, name: str) -> np.ndarray:
        """(steps+1, runs) slice of one variable."""
        return self.values[:, :, self.space.index(name)]


def _run_noise(kernel: MarkovKernel, plan: RandomnessPlan, steps: int, runs: range) -> np.ndarray:
    """(len(runs), steps) noise; row j holds the draws of run runs[j], from stream (0, run)."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    noise = np.empty((len(runs), steps))
    for row, j in enumerate(runs):
        noise[row] = kernel.noise(plan.substream(0, j), steps)
    return noise


def _paths(kernel: MarkovKernel, initial: DataState, noise: np.ndarray) -> Iterator[np.ndarray]:
    """States of a batch of runs at steps 0..steps, one (runs, dim) array per step.

    ``noise`` is (runs, steps): row j holds run j's draws, column i the draws
    the step to i+1 consumes. A run's states depend only on its own row, so
    any batching of runs gives the same bits.
    """
    if initial.space != kernel.space:
        raise ValueError("initial state space differs from kernel space")
    values = np.tile(np.asarray(initial.values, dtype=np.float64), (noise.shape[0], 1))
    yield values
    for z in noise.T:
        values = kernel.step_batch(values, z)
        yield values


def _collect(kernel: MarkovKernel, initial: DataState, noise: np.ndarray) -> EvolutionEstimate:
    """Every state of the runs whose noise is given, as an estimate."""
    runs, steps = noise.shape
    values = np.empty((steps + 1, runs, kernel.space.dim))
    for i, step_values in enumerate(_paths(kernel, initial, noise)):
        values[i] = step_values
    return EvolutionEstimate(kernel.space, values)


def simulate(
    kernel: MarkovKernel,
    initial: DataState,
    steps: int,
    rng: np.random.Generator,
) -> EvolutionEstimate:
    """Roll the kernel forward ``steps`` times from ``initial``, as a one-run estimate."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return _collect(kernel, initial, kernel.noise(rng, steps)[None, :])


def estimate(
    kernel: MarkovKernel,
    initial: DataState,
    steps: int,
    runs: int,
    plan: RandomnessPlan,
) -> EvolutionEstimate:
    """Simulate ``runs`` independent trajectories and collect them per step.

    Run j always uses stream ``(0, j)`` of the plan, so the first N runs of
    any larger estimate equal the N-run estimate.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    return _collect(kernel, initial, _run_noise(kernel, plan, steps, range(runs)))


# fixed accumulation block for run_moments; the float fold order, and so the
# last bits, depend on it
_MOMENT_BLOCK = 1024


def run_moments(
    kernel: MarkovKernel,
    initial: DataState,
    steps: int,
    runs: int,
    plan: RandomnessPlan,
) -> tuple[np.ndarray, np.ndarray]:
    """Streaming per-step mean and sample std over ``runs`` trajectories.

    Returns (mean, std), each (steps+1, dim). Uses running sums instead of
    materializing the estimate, so reference runs with very large N stay at
    constant memory. Uses the same ``(0, run)`` streams as :func:`estimate`.
    Each block of runs is summed per step in run order, and the block sums
    are added to the totals in block order.
    """
    if runs < 2:
        raise ValueError("need at least two runs for a sample std")
    total = np.zeros((steps + 1, kernel.space.dim))
    total_sq = np.zeros((steps + 1, kernel.space.dim))
    for a in range(0, runs, _MOMENT_BLOCK):
        noise = _run_noise(kernel, plan, steps, range(a, min(a + _MOMENT_BLOCK, runs)))
        for i, values in enumerate(_paths(kernel, initial, noise)):
            # a sum over the outer axis adds the rows one after another, so
            # each block sum is a fold in run order
            total[i] += values.sum(axis=0)
            total_sq[i] += (values * values).sum(axis=0)
    mean = total / runs
    var = np.maximum(total_sq / runs - mean * mean, 0.0) * (runs / (runs - 1))
    return mean, np.sqrt(var)


def empirical_measure(samples: SampleSet, predicate: Callable[[DataState], bool]) -> float:
    """Fraction of samples satisfying the predicate."""
    hits = sum(1 for s in samples.states() if predicate(s))
    return hits / len(samples)


def save_trajectory(dest, traj: EvolutionEstimate) -> None:
    """CSV of a one-run estimate: a time column, then one column per variable."""
    if traj.runs != 1:
        raise ValueError(f"a trajectory is one run, got {traj.runs}")
    columns = (np.arange(traj.steps + 1), traj.values[:, 0])
    write_csv(dest, ("time", *traj.space.names), "%d" + ",%.17g" * traj.space.dim, [columns])


def save_estimate(dest, est: EvolutionEstimate) -> None:
    """CSV with run and time columns, rows ordered by (run, time), one run per block."""
    time = np.arange(est.steps + 1)
    runs = ((np.full(len(time), j), time, est.values[:, j]) for j in range(est.runs))
    write_csv(dest, ("run", "time", *est.space.names), "%d,%d" + ",%.17g" * est.space.dim, runs)
