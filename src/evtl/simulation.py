"""Batched simulation of discrete-time Markov kernels.

A kernel owns a data space and steps many runs at once: ``noise`` fills one
run's row of the noise block from that run's generator, and ``advance``
writes the states of w consecutive steps of N runs into a (dim, w, N) block,
given one noise value per run and step. A step's states are a (dim, N)
array, one contiguous row per variable, so a kernel updates each variable,
or a group of like variables, for every run in one wide array operation,
and it can keep its own per-block representation (a chain steps in state
indices) between the steps of a block. A :class:`Simulation`, a range of
runs, is the one place where runs are drawn and stepped: it steps again at
each read and splits into chunks of consecutive runs. Readers take states a
block of time indices at a time from the ``blocks(width)`` of a simulation or
a stored :class:`EvolutionEstimate`, sized by :func:`_block_width` (the CSV
writer reads every step of a chunk at once); no width or chunk changes a
bit. A kernel step raises ``FloatingPointError`` on an overflow, an invalid
operation or a division by zero under any error state; underflow to zero is
a value. Everything stochastic flows through a :class:`RandomnessPlan`,
which derives independent, reproducible generator streams from a single
master seed and a structured purpose key.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Iterator, Protocol, runtime_checkable

import numpy as np

from ._io import BLOCK_ROWS, write_csv
from .spaces import DataSpace, DataState, SampleSet

__all__ = [
    "MarkovKernel",
    "RandomnessPlan",
    "EvolutionEstimate",
    "Simulation",
    "estimate",
    "run_moments",
    "save_trajectory",
    "save_estimate",
]


@runtime_checkable
class MarkovKernel(Protocol):
    """Stochastic transition function over a data space, stepped for a batch of runs."""

    @property
    def space(self) -> DataSpace: ...

    def noise(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill ``out`` with one run's draws, one per step; arithmetic belongs in ``advance``."""
        ...

    def advance(self, values: np.ndarray, noise: np.ndarray, out: np.ndarray) -> None:
        """Step the (dim, N) states ``values`` w times, writing step i's
        successors to ``out[:, i]``, a (dim, w, N) block.

        Row v of a state holds variable v of every run; run j consumes
        ``noise[i, j]`` at step i, so ``noise`` is (w, N), and w may be 0.
        ``values`` is either disjoint from ``out`` or is ``out[:, -1]``, the
        last state of the previous block, so a kernel reads all of it
        before it writes any step.
        """
        ...


# numpy's SeedSequence hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = (1 << 32) - 1
# streams seeded per vectorised pass; bounds the seeding temporaries, a few
# (256, 8) uint32 arrays and a chunk's seed words, which its generators keep:
# 1024 seeds no faster per stream (numpy 2.4, 2-vCPU host)
_SEED_CHUNK = 256


def _n_words(n: int) -> int:
    """Number of 32-bit words SeedSequence splits a non-negative int into."""
    return max(1, -(-n.bit_length() // 32))


def _pcg64_seeds(pool: np.ndarray, hash_a: int, idx: list[int]) -> np.ndarray:
    """PCG64 seed words, one (4,) uint64 row per stream whose entropy is the pool's plus one index.

    Replays ``SeedSequence``: the words of each index are mixed into a copy
    of the pool (``hash_a`` is the running hash constant after the pool's
    own entropy), then ``generate_state(4, uint64)``. Vectorised over ``idx``.
    """
    if min(idx) < 0:
        raise ValueError("expected non-negative integer")
    width = _n_words(max(idx))
    counts = np.array([_n_words(i) for i in idx])[:, None] if width > 1 else None
    mixer = pool  # broadcast against the first word's (len(idx), 4) mix
    for w in range(width):
        word = np.array([(i >> 32 * w) & _M32 for i in idx] if width > 1 else idx, np.uint32)
        # hashmix(word) then mix(mixer[d], .) per pool word d, as mix_entropy does
        h = np.array([hash_a * _MULT_A ** (4 * w + j) & _M32 for j in range(5)], np.uint32)
        v = (word[:, None] ^ h[:4]) * h[1:]
        x = np.uint32(_MIX_L) * mixer - np.uint32(_MIX_R) * (v ^ (v >> np.uint32(16)))
        x ^= x >> np.uint32(16)
        # an index with fewer words has no word w to mix
        mixer = x if w == 0 else np.where(counts > w, x, mixer)
    # generate_state's eight hashmix steps; step k multiplies by the constant of step k + 1
    h = np.array([_INIT_B * _MULT_B**k & _M32 for k in range(9)], np.uint32)
    v = (np.tile(mixer, 2) ^ h[:8]) * h[1:]
    out = v ^ (v >> np.uint32(16))
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@dataclass(frozen=True)
class RandomnessPlan:
    """Functional derivation of independent RNG streams from one master seed.

    Streams are addressed by integer tuples: equal keys give bitwise-equal
    streams, distinct keys give statistically independent ones. ``scoped``
    prefixes a namespace, yielding a plan whose whole key tree is disjoint
    from the parent's. The whole key map, with namespaces written out:

    * ``(0, run)``: the noise of each simulated run (every command);
    * ``(1, *content_words(atom), t)``: an atom's reference draws at index t;
    * ``(2, 0, run)``: the ``stats --reference-runs`` runs, from ``scoped(2)``;
    * ``(3, s, 0, run)``: ``distance``'s runs of system s (0 the config,
      1 the ``--against`` system), from ``scoped(3, s)``.

    The stream of key k is bit-identical to ``Generator(PCG64(SeedSequence(
    master_seed, spawn_key=namespace + k)))``, but streams are seeded in
    batches: :meth:`substreams` builds one ``SeedSequence`` per key prefix
    and derives the PCG64 seed words of up to 256 last key words at a time
    with numpy array arithmetic; each stream is a generator of its own.
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

        Each stream is a new ``Generator``, independent of those yielded before it.
        """
        key = self.namespace + tuple(prefix)
        seq = np.random.SeedSequence(self.master_seed, spawn_key=key)
        # the first 4 entropy words (the seed, zero-padded) take 16 hashmix steps, each later 4
        words = max(4, _n_words(self.master_seed)) + sum(_n_words(int(w)) for w in key)
        hash_a = _INIT_A * pow(_MULT_A, 16 + 4 * (words - 4), 1 << 32) & _M32
        from ._seed_words import SeedWords  # on first use: it loads numpy.random
        generator, pcg64 = np.random.Generator, np.random.PCG64
        it = iter(indices)
        while chunk := [operator.index(i) for i in islice(it, _SEED_CHUNK)]:
            for row in _pcg64_seeds(seq.pool, hash_a, chunk):
                yield generator(pcg64(SeedWords(row)))

    def substream(self, *key: int) -> np.random.Generator:
        """The stream of a non-empty key, as a generator of its own."""
        if not key:
            raise ValueError("a stream key needs at least one word")
        return next(self.substreams(key[:-1], key[-1:]))


class EvolutionEstimate:
    """Per-step samples of the state distribution, one row per run.

    Stored as a (steps+1, runs, dim) array; ``at(i)`` views step i as a
    :class:`SampleSet` without copying. Row order is the run index, which the
    monitor relies on when a hazard atom reads only the first N runs of each
    of its ``blocks(width)`` (``block[:, :, :N]``).
    """

    __slots__ = ("space", "values")

    def __init__(self, space: DataSpace, values: np.ndarray):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != space.dim:
            raise ValueError(f"expected (steps+1, runs, {space.dim}) array, got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("steps must be >= 0")
        if arr.shape[1] < 1:
            raise ValueError("need at least one run")
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

    def blocks(self, width: int) -> Iterator[tuple[int, np.ndarray]]:
        """Steps 0..steps as ``(t0, block)``; ``block`` is a (dim, w, runs) view, w <= width."""
        if width < 1:
            raise ValueError("block width must be >= 1")
        values = np.moveaxis(self.values, -1, 0)
        return ((t0, values[:, t0 : t0 + width]) for t0 in range(0, self.steps + 1, width))

    def split(self, size: int) -> Iterator["EvolutionEstimate"]:
        """Views of up to ``size`` consecutive runs each, in run order."""
        if size < 1:
            raise ValueError("split size must be >= 1")
        starts = range(0, self.runs, size)
        return (EvolutionEstimate(self.space, self.values[:, a : a + size]) for a in starts)


def _run_noise(kernel: MarkovKernel, plan: RandomnessPlan, steps: int, runs: range) -> np.ndarray:
    """(len(runs), steps) noise; row j holds the draws of run runs[j], from stream (0, run)."""
    noise = np.empty((len(runs), steps))
    for row, rng in zip(noise, plan.substreams((0,), runs)):
        kernel.noise(rng, row)
    return noise


def _paths(
    kernel: MarkovKernel, initial: DataState, noise: np.ndarray, width: int
) -> Iterator[tuple[int, np.ndarray]]:
    """States of a batch of runs at steps 0..steps, as ``(t0, block)`` pairs.

    ``noise`` is (runs, steps): row j holds run j's draws, column i the draws
    the step to i+1 consumes. ``block`` is (dim, w, runs) with w <= ``width``:
    ``block[:, r]`` holds step t0 + r, read only until the next block is
    taken. A run's states depend only on its own row, so any batching of
    runs, and any width, gives the same bits.
    """
    runs, steps = noise.shape
    width = min(width, steps + 1)
    block = np.empty((kernel.space.dim, width, runs))
    block[:, 0] = np.asarray(initial.values, dtype=np.float64)[:, None]
    for t0 in range(0, steps + 1, width):
        w = min(width, steps + 1 - t0)
        s = int(t0 == 0)  # block 0 starts at the initial state, later ones step on from the last
        # an errstate held across the yield would leak into the reader's context
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            kernel.advance(block[:, s - 1], noise[:, t0 + s - 1 : t0 + w - 1].T, block[:, s:w])
        block = block[:, :w]
        yield t0, block


@dataclass(frozen=True)
class Simulation:
    """Runs ``first`` to ``first + runs - 1`` of a plan; checked when built, stepped per read.

    Run j always draws from stream ``(0, j)`` of the plan, whichever runs share
    its batch, so the first N runs of any larger simulation are the N-run one.
    """

    kernel: MarkovKernel
    initial: DataState
    steps: int
    runs: int
    plan: RandomnessPlan
    first: int = 0

    def __post_init__(self) -> None:
        if self.initial.space != self.kernel.space:
            raise ValueError("initial state space differs from kernel space")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.runs < 1:
            raise ValueError("need at least one run")
        if self.first < 0:
            raise ValueError("the first run must be >= 0")

    @property
    def space(self) -> DataSpace:
        return self.kernel.space

    def blocks(self, width: int) -> Iterator[tuple[int, np.ndarray]]:
        """The estimate's blocks bit for bit, from noise drawn now; each valid until the next."""
        if width < 1:
            raise ValueError("block width must be >= 1")
        runs = range(self.first, self.first + self.runs)
        noise = _run_noise(self.kernel, self.plan, self.steps, runs)
        return _paths(self.kernel, self.initial, noise, width)

    def split(self, size: int) -> Iterator["Simulation"]:
        """Simulations of up to ``size`` consecutive runs each, in run order."""
        if size < 1:
            raise ValueError("split size must be >= 1")
        starts = range(self.first, self.first + self.runs, size)
        return (replace(self, first=a, runs=min(size, self.first + self.runs - a)) for a in starts)


_BLOCK_VALUES = 1 << 13  # run states per block, for every reader of runs


def _block_width(runs: int) -> int:
    """Steps per block of a reader of ``runs`` runs; never changes a bit."""
    return max(1, _BLOCK_VALUES // max(runs, 1))


def estimate(source: EvolutionEstimate | Simulation) -> EvolutionEstimate:
    """A source's states at every step, stored in one array; row j is the source's j-th run."""
    values = np.empty((source.steps + 1, source.runs, source.space.dim))
    for t0, block in source.blocks(_block_width(source.runs)):
        values[t0 : t0 + block.shape[1]] = block.transpose(1, 2, 0)
    return EvolutionEstimate(source.space, values)


# runs per chunk for every reader of whole runs; run_moments's float fold order,
# and so its last bits, depend on it
_RUN_CHUNK = 1024


def run_moments(source: EvolutionEstimate | Simulation) -> np.ndarray:
    """Streaming per-step mean over a source's runs, as a (steps+1, dim) array.

    Uses a running sum instead of materializing the estimate, so reference
    runs with very large N stay at constant memory. Each chunk of runs is
    summed per step in run order, and the chunk sums are added to the total
    in chunk order.
    """
    steps, dim = source.steps, source.space.dim
    total = np.zeros((steps + 1, dim))
    # the run sum can overflow where no step does, near bounds of 1e308
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for chunk in source.split(_RUN_CHUNK):
            width = _block_width(chunk.runs)
            # one row per run, a spare zero column, then the block's (dim, w) values:
            # a reduce over the rows adds the runs one after another, column by
            # column, where numpy would sum a lone column pairwise. It starts from
            # 0.0, so a sum of -0.0 comes out 0.0, as adding it to the total does
            rows = np.zeros((chunk.runs, 1 + dim * min(width, steps + 1)))
            for t0, block in chunk.blocks(width):
                w = block.shape[1]
                cols = rows[:, : 1 + dim * w]
                cols[:, 1:].reshape(-1, dim, w)[...] = block.transpose(2, 0, 1)
                total[t0 : t0 + w] += np.add.reduce(cols, axis=0)[1:].reshape(dim, w).T
        return total / source.runs


def save_trajectory(dest, source: EvolutionEstimate | Simulation) -> None:
    """CSV of a one-run source: a time column, then one column per variable."""
    if source.runs != 1:
        raise ValueError(f"a trajectory is one run, got {source.runs}")
    [(_, states)] = source.blocks(source.steps + 1)  # (dim, steps + 1, 1)
    columns = (np.arange(source.steps + 1), states[:, :, 0].T)
    write_csv(dest, ("time", *source.space.names), ("%d", "%.17g"), [columns])


def save_estimate(dest, source: EvolutionEstimate | Simulation) -> None:
    """CSV with run and time columns, rows ordered by (run, time), runs counted from 0.

    The source is read one chunk of runs at a time, and a simulation steps a
    chunk only once the chunk before it is written, so it holds one chunk's
    states, and a failure in a later chunk leaves the earlier chunks written.
    Each block handed to the writer is a copy of whole runs, as many as fit
    in :data:`~evtl._io.BLOCK_ROWS` rows and at least one, so it keeps no chunk alive.
    """
    k = source.steps + 1
    per = max(1, BLOCK_ROWS // k)

    def blocks(chunk: EvolutionEstimate | Simulation, first: int):
        [(_, states)] = chunk.blocks(k)  # (dim, k, runs), freed when the chunk is written
        for a in range(0, chunk.runs, per):
            values = np.array(states[:, :, a : a + per].T, order="C").reshape(-1, chunk.space.dim)
            rows = np.arange((first + a) * k, (first + a) * k + len(values))
            yield np.stack(np.divmod(rows, k), axis=1), values  # run and time of each row

    chunks = enumerate(source.split(_RUN_CHUNK))
    rows = (b for i, chunk in chunks for b in blocks(chunk, i * _RUN_CHUNK))
    write_csv(dest, ("run", "time", *source.space.names), ("%d", "%.17g"), rows)
