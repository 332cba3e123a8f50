"""Batched simulation of discrete-time Markov kernels.

A kernel owns a data space and steps many runs at once: ``noise`` fills one
run's row of the noise block from that run's generator, and ``advance``
writes the states of w consecutive steps of N runs into a (dim, w, N) block,
given one noise value per run and step. A step's states are a (dim, N)
array, one contiguous row per variable, so a kernel updates each variable,
or a group of like variables, for every run in one wide array operation,
and it can keep its own per-block representation (a chain steps in state
indices) between the steps of a block. The consumers (:func:`estimate`,
:func:`run_moments` and ``monitor.check_formula``) read the states one
block of time indices at a time. Everything stochastic flows through a
:class:`RandomnessPlan`, which derives independent, reproducible generator
streams from a single master seed and a structured purpose key. Run j of
an estimate always draws from stream ``(0, j)``, so a run's states do not
depend on which other runs share its batch. An overflow, an invalid
operation or a division by zero inside a simulation raises
``FloatingPointError``; underflow to zero is a value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Protocol, runtime_checkable

import numpy as np

from ._io import BLOCK_ROWS, write_csv
from .spaces import DataSpace, DataState, SampleSet

__all__ = [
    "MarkovKernel",
    "RandomnessPlan",
    "EvolutionEstimate",
    "simulate",
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
        """Fill ``out`` with one run's draws, one value per step."""
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
        # one state record, refilled for each stream
        lcg = {"state": 0, "inc": 0}
        record = {"bit_generator": "PCG64", "state": lcg, "has_uint32": 0, "uinteger": 0}
        it = iter(indices)
        while chunk := [operator.index(i) for i in islice(it, _SEED_CHUNK)]:
            for lcg["state"], lcg["inc"] in _pcg64_states(seq.pool, hash_a, chunk):
                bitgen.state = record
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
    monitor relies on when a hazard atom reads only the first N runs
    (``values[t0:t1, :N]``).
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
    if initial.space != kernel.space:
        raise ValueError("initial state space differs from kernel space")
    runs, steps = noise.shape
    width = min(width, steps + 1)
    block = np.empty((kernel.space.dim, width, runs))
    block[:, 0] = np.asarray(initial.values, dtype=np.float64)[:, None]
    kernel.advance(block[:, 0], noise[:, : width - 1].T, block[:, 1:])
    yield 0, block
    for t0 in range(width, steps + 1, width):
        w = min(width, steps + 1 - t0)
        # the next block steps from the last state of this one, in place
        kernel.advance(block[:, -1], noise[:, t0 - 1 : t0 - 1 + w].T, block[:, :w])
        block = block[:, :w]
        yield t0, block


# floats per block of _collect and run_moments; a block is a copy next to what
# they keep, so it stays at one step of six variables over 1024 runs and moves
# no peak
_BLOCK_FLOATS = 1 << 13


def _width(space: DataSpace, runs: int) -> int:
    """Steps per block of _collect and run_moments."""
    return max(1, _BLOCK_FLOATS // (space.dim * runs))


def _collect(kernel: MarkovKernel, initial: DataState, noise: np.ndarray) -> EvolutionEstimate:
    """Every state of the runs whose noise is given, as an estimate."""
    runs, steps = noise.shape
    values = np.empty((steps + 1, runs, kernel.space.dim))
    for t0, block in _paths(kernel, initial, noise, _width(kernel.space, runs)):
        values[t0 : t0 + block.shape[1]] = block.transpose(1, 2, 0)
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
    noise = np.empty((1, steps))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        kernel.noise(rng, noise[0])
        return _collect(kernel, initial, noise)


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
    with np.errstate(over="raise", invalid="raise", divide="raise"):
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
) -> np.ndarray:
    """Streaming per-step mean over ``runs`` trajectories, as a (steps+1, dim) array.

    Uses a running sum instead of materializing the estimate, so reference
    runs with very large N stay at constant memory. Uses the same ``(0, run)``
    streams as :func:`estimate`. Each block of runs is summed per step in run
    order, and the block sums are added to the total in block order.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    total = np.zeros((steps + 1, kernel.space.dim))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for a in range(0, runs, _MOMENT_BLOCK):
            noise = _run_noise(kernel, plan, steps, range(a, min(a + _MOMENT_BLOCK, runs)))
            for t0, block in _paths(kernel, initial, noise, _width(kernel.space, len(noise))):
                # an accumulation's last entry adds the runs one after another; a
                # plain sum along the row would be pairwise and change the last bits
                total[t0 : t0 + block.shape[1]] += np.add.accumulate(block, axis=2)[:, :, -1].T
        return total / runs


def save_trajectory(dest, traj: EvolutionEstimate) -> None:
    """CSV of a one-run estimate: a time column, then one column per variable."""
    if traj.runs != 1:
        raise ValueError(f"a trajectory is one run, got {traj.runs}")
    columns = (np.arange(traj.steps + 1), traj.values[:, 0])
    write_csv(dest, ("time", *traj.space.names), ("%d", "%.17g"), [columns])


def save_estimate(dest, est: EvolutionEstimate) -> None:
    """CSV with run and time columns, rows ordered by (run, time).

    Each block handed to the writer holds whole runs, as many as fit in
    :data:`~evtl._io.BLOCK_ROWS` rows and at least one.
    """
    k = est.steps + 1
    per = max(1, BLOCK_ROWS // k)
    time = np.tile(np.arange(k), per)

    def blocks():
        for a in range(0, est.runs, per):
            values = est.values[:, a : a + per].swapaxes(0, 1).reshape(-1, est.space.dim)
            runs = np.repeat(np.arange(a, a + len(values) // k), k)
            yield np.stack([runs, time[: len(values)]], axis=1), values

    write_csv(dest, ("run", "time", *est.space.names), ("%d", "%.17g"), blocks())
