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

import operator
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Protocol, runtime_checkable

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


# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
# streams seeded per vectorised pass; bounds the seeding temporaries: on a
# preset-1 check, peak RSS grows by about 0.1 MB at 256 against 0.4 MB at
# 1024, for 0.4 us per stream more
_SEED_CHUNK = 256


def _n_words(n: int) -> int:
    """Number of 32-bit words SeedSequence splits a non-negative int into."""
    return max(1, -(-n.bit_length() // 32))


def _pcg64_states(pool: np.ndarray, hash_a: int, idx: list[int]) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of each stream whose entropy is the pool's plus one index.

    Replays ``SeedSequence``: the words of each index are mixed into a copy
    of the pool (``hash_a`` is the running hash constant after the pool's
    own entropy), then ``generate_state(4, uint64)`` and PCG64's seeding,
    ``pcg_setseq_128_srandom_r``, are applied. Vectorised over ``idx``.
    """
    if min(idx) < 0:
        raise ValueError("expected non-negative integer")
    n, width = len(idx), _n_words(max(idx))
    counts = np.array([_n_words(i) for i in idx]) if width > 1 else None
    mixer = np.repeat(pool[None, :], n, axis=0)
    h = hash_a
    for w in range(width):
        word = np.array([(i >> 32 * w) & _M32 for i in idx], dtype=np.uint32)
        for d in range(4):
            # hashmix(word) then mix(mixer[d], .), as mix_entropy does per pool word
            v = (word ^ np.uint32(h)) * np.uint32(h * _MULT_A & _M32)
            h = h * _MULT_A & _M32
            x = np.uint32(_MIX_L) * mixer[:, d] - np.uint32(_MIX_R) * (v ^ (v >> np.uint32(16)))
            x ^= x >> np.uint32(16)
            # an index with fewer words has no word w to mix
            mixer[:, d] = x if w == 0 else np.where(counts > w, x, mixer[:, d])
    out = np.empty((n, 8), dtype=np.uint32)
    h = _INIT_B
    for k in range(8):
        v = (mixer[:, k % 4] ^ np.uint32(h)) * np.uint32(h * _MULT_B & _M32)
        h = h * _MULT_B & _M32
        out[:, k] = v ^ (v >> np.uint32(16))
    states = []
    for a, b, c, d in out.astype("<u4").view("<u8").astype(np.uint64).tolist():
        inc = ((c << 64 | d) << 1 | 1) & _M128
        states.append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & _M128, inc))
    return states


@dataclass(frozen=True)
class RandomnessPlan:
    """Functional derivation of independent RNG streams from one master seed.

    Streams are addressed by integer tuples: equal keys give bitwise-equal
    streams, distinct keys give statistically independent ones. Simulation
    owns the ``(0, run)`` keys; formula evaluation derives everything else
    under ``(1, ...)``. ``scoped`` prefixes a namespace, yielding a plan
    whose whole key tree is disjoint from the parent's (used to keep
    reference runs independent of the runs they validate).

    The stream of key k is bit-identical to ``Generator(PCG64(SeedSequence(
    master_seed, spawn_key=namespace + k)))``, but streams are seeded in
    batches: :meth:`substreams` builds one ``SeedSequence`` per key prefix
    and derives the streams of up to 256 last key words at a time with
    numpy array arithmetic. The generator it yields is one object, reseeded
    for each stream, so each is valid only until the next one is taken.
    """

    master_seed: int
    namespace: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.master_seed, int) or self.master_seed < 0:
            raise ValueError("master seed must be a non-negative integer")

    def scoped(self, *prefix: int) -> "RandomnessPlan":
        return RandomnessPlan(self.master_seed, self.namespace + prefix)

    def substreams(
        self, prefix: tuple[int, ...], indices: Iterable[int]
    ) -> Iterator[np.random.Generator]:
        """The stream of key ``prefix + (i,)`` for each i in ``indices``, in order.

        Every stream is yielded as the same ``Generator``, reseeded in place:
        a yielded generator is valid only until the next one is taken.
        """
        key = self.namespace + tuple(prefix)
        seq = np.random.SeedSequence(self.master_seed, spawn_key=key)
        # the first 4 entropy words (the seed, zero-padded) take 16 hashmix steps, each later 4
        words = max(4, _n_words(self.master_seed)) + sum(_n_words(int(w)) for w in key)
        hash_a = _INIT_A * pow(_MULT_A, 16 + 4 * (words - 4), 1 << 32) & _M32
        bitgen = np.random.PCG64(seq)
        gen = np.random.Generator(bitgen)
        it = iter(indices)
        while chunk := [operator.index(i) for i in islice(it, _SEED_CHUNK)]:
            for state, inc in _pcg64_states(seq.pool, hash_a, chunk):
                bitgen.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
                yield gen

    def substream(self, *key: int) -> np.random.Generator:
        """The stream of a non-empty key, as a generator of its own."""
        if not key:
            raise ValueError("a stream key needs at least one word")
        return next(self.substreams(key[:-1], key[-1:]))


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
    for row, rng in zip(noise, plan.substreams((0,), runs)):
        row[:] = kernel.noise(rng, steps)
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
