import os
import pickle
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evtl import simulation
from evtl._seed_words import SeedWords
from evtl.chains import FiniteChain, load_chain, transient_distributions
from evtl.simulation import (
    EvolutionEstimate,
    RandomnessPlan,
    Simulation,
    estimate,
    run_moments,
    save_estimate,
    save_trajectory,
)
from evtl.spaces import DataSpace, Interval
from evtl.tanks import TankKernel, TankParams

from conftest import two_state_chain, random_chain

REPO = Path(__file__).resolve().parents[1]


class WalkKernel:
    """Clamped unit-interval random walk, handy because it is cheap."""

    def __init__(self, step_std=0.1):
        self._space = DataSpace({"x": Interval(0.0, 1.0)})
        self.step_std = step_std

    @property
    def space(self):
        return self._space

    def noise(self, rng, out):
        rng.standard_normal(out=out)

    def advance(self, values, noise, out):
        for z, nxt in zip(noise, out.swapaxes(0, 1)):
            np.clip(values + self.step_std * z, 0.0, 1.0, out=nxt)
            values = nxt


def test_simulate_shapes_and_start():
    # the one-run simulation `evtl simulate --run 4` writes
    k = WalkKernel()
    d0 = k.space.state(x=0.5)
    [(t0, block)] = Simulation(k, d0, 10, 1, RandomnessPlan(1), first=4).blocks(11)
    assert t0 == 0 and block.shape == (1, 11, 1)
    assert block[0, 0, 0] == 0.5
    assert np.all(block >= 0.0) and np.all(block <= 1.0)


def test_plan_streams_are_reproducible_and_distinct():
    plan = RandomnessPlan(7)
    a = plan.substream(0, 3).standard_normal(4)
    b = plan.substream(0, 3).standard_normal(4)
    c = plan.substream(0, 4).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    # namespacing moves the whole key tree
    d = plan.scoped(2).substream(0, 3).standard_normal(4)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        RandomnessPlan(-1)


# --- batched stream seeding against SeedSequence ------------------------------


def oracle_stream(seed, key):
    """The stream of a key built the direct way, one SeedSequence per stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def fingerprint(gen):
    # the state first: the draws advance it
    return gen.bit_generator.state, gen.standard_normal(), gen.random()


def assert_streams_match(seed, namespace, prefix, indices):
    plan = RandomnessPlan(seed).scoped(*namespace)
    got = [fingerprint(g) for g in plan.substreams(prefix, indices)]
    want = [fingerprint(oracle_stream(seed, (*namespace, *prefix, i))) for i in indices]
    assert got == want


EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**128 + 1]
EDGE_WORDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1]
WORDS = st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**100))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**200)),
    namespace=st.lists(WORDS, max_size=3).map(tuple),
    prefix=st.lists(WORDS, max_size=3).map(tuple),
    indices=st.lists(WORDS, max_size=12),
)
def test_substreams_equal_seed_sequence_streams(seed, namespace, prefix, indices):
    assert_streams_match(seed, namespace, prefix, indices)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**200)),
    namespace=st.lists(WORDS, max_size=2).map(tuple),
    prefix=st.lists(WORDS, max_size=3).map(tuple),
    indices=st.lists(WORDS, max_size=12),
)
def test_substreams_hold_the_seed_sequence_words(seed, namespace, prefix, indices):
    # PCG64 seeds itself from these four words, so they are the whole stream
    plan = RandomnessPlan(seed).scoped(*namespace)
    # _seed_seq: numpy 1.24 has no public seed_seq property
    got = [g.bit_generator._seed_seq.generate_state(4, np.uint64)
           for g in plan.substreams(prefix, indices)]
    for words, i in zip(got, indices, strict=True):
        key = (*namespace, *prefix, i)
        want = np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)
        assert words.dtype == np.uint64 and words.tobytes() == want.tobytes()


def test_substreams_are_generators_of_their_own():
    # every stream taken before any is drawn from, across a seeding chunk boundary
    plan = RandomnessPlan(2**32).scoped(3)
    streams = list(plan.substreams((1, 2**64 + 1), range(300)))
    assert len({id(g) for g in streams}) == 300
    want = [fingerprint(oracle_stream(2**32, (3, 1, 2**64 + 1, i))) for i in range(300)]
    assert [fingerprint(g) for g in streams] == want


def test_a_stream_pickles():
    gen = RandomnessPlan(5).substream(1, 2**40, 3)
    clone = pickle.loads(pickle.dumps(gen))
    assert fingerprint(clone) == fingerprint(gen)
    # numpy 1.x pickles a bit generator from its state alone, without its seed sequence
    if isinstance(clone.bit_generator._seed_seq, SeedWords):
        assert clone.bit_generator._seed_seq.words.tobytes() == gen.bit_generator._seed_seq.words.tobytes()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_substreams_cross_a_chunk_boundary(seed):
    # 1025 indices cross seeding chunk boundaries; the second range mixes
    # one- and two-word indices inside a chunk
    assert_streams_match(seed, (2,), (1, 2**32 + 7), range(1025))
    assert_streams_match(seed, (), (0,), range(2**32 - 600, 2**32 + 425))
    assert list(RandomnessPlan(seed).substreams((0,), range(0))) == []


@pytest.mark.parametrize("key", [(0,), (0, 3), (1, 2**32, 2**64 + 1), (2**40, 0)])
def test_substream_is_the_seed_sequence_stream(key):
    for plan in (RandomnessPlan(7), RandomnessPlan(2**128 + 1).scoped(3, 1)):
        want = oracle_stream(plan.master_seed, plan.namespace + key)
        assert fingerprint(plan.substream(*key)) == fingerprint(want)


def test_negative_stream_keys_are_rejected():
    plan = RandomnessPlan(3)
    with pytest.raises(ValueError):
        plan.substream(0, -1)
    with pytest.raises(ValueError):
        plan.substream(-1, 0)
    with pytest.raises(ValueError):
        list(plan.substreams((0,), [4, -1]))
    with pytest.raises(ValueError):
        list(plan.scoped(-2).substreams((0,), [1]))
    with pytest.raises(ValueError):
        plan.substream()


@pytest.mark.parametrize(
    "kernel, draw",
    [
        (TankKernel(TankParams(), 2), np.random.Generator.standard_normal),
        (two_state_chain(0.3, 0.6), np.random.Generator.random),
    ],
)
def test_noise_fills_the_draws_of_one_stream(kernel, draw):
    # a row of the noise block holds what a sized draw from the same stream returns
    block = np.full((3, 7), np.nan)
    rng = RandomnessPlan(4).substream(0, 2)
    kernel.noise(rng, block[1])
    want = RandomnessPlan(4).substream(0, 2)
    assert block[1].tobytes() == draw(want, 7).tobytes()
    assert np.isnan(block[[0, 2]]).all()
    # and leaves the stream where the sized draw leaves it
    assert rng.bit_generator.state == want.bit_generator.state


# --- blocks of steps -----------------------------------------------------------


def stacked_paths(kernel, initial, noise, width):
    """Every block of ``_paths`` at one width, joined into a (dim, steps+1, runs) array."""
    steps = noise.shape[1]
    blocks = [(t0, block.copy()) for t0, block in simulation._paths(kernel, initial, noise, width)]
    assert [t0 for t0, _ in blocks] == list(range(0, steps + 1, width))
    assert all(block.shape[1] <= width for _, block in blocks)
    return np.concatenate([block for _, block in blocks], axis=1)


def assert_widths_agree(kernel, initial, runs=9, steps=20, seed=3):
    """``_paths`` gives the same bits at widths 1, 2, 7 and steps + 1."""
    noise = simulation._run_noise(kernel, RandomnessPlan(seed), steps, range(runs))
    want = stacked_paths(kernel, initial, noise, 1)
    assert want.shape == (kernel.space.dim, steps + 1, runs)
    assert np.array_equal(want[:, 0], np.tile(np.array(initial.values)[:, None], (1, runs)))
    for width in (2, 7, steps + 1):
        got = stacked_paths(kernel, initial, noise, width)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), width


SHUFFLED = load_chain(str(REPO / "tests" / "data" / "shuffled-chain.json"))


@pytest.mark.parametrize(
    "kernel, initial",
    [
        (TankKernel(TankParams(), 1), None),
        (TankKernel(TankParams(), 2), None),
        (SHUFFLED, SHUFFLED.initial_state()),
        (WalkKernel(step_std=0.3), WalkKernel().space.state(x=0.5)),
    ],
    ids=["tank-1", "tank-2", "chain", "walk"],
)
def test_paths_block_width_does_not_change_bits(kernel, initial):
    assert_widths_agree(kernel, initial or kernel.initial_state())


@pytest.mark.parametrize("width", [1, 3, 21])
def test_simulation_blocks_equal_the_estimates_blocks(width):
    kernel = TankKernel(TankParams(), 1)
    args = (kernel, kernel.initial_state(), 20, 7, RandomnessPlan(11))
    sim, est = Simulation(*args), estimate(*args)
    assert (sim.space, sim.steps, sim.runs) == (est.space, est.steps, est.runs)
    # a second read simulates again and gives the same bits
    for _ in range(2):
        got = [(t0, block.copy()) for t0, block in sim.blocks(width)]
        want = list(est.blocks(width))
        assert [t0 for t0, _ in got] == [t0 for t0, _ in want] == list(range(0, 21, width))
        for (_, a), (_, b) in zip(got, want):
            assert a.tobytes() == np.ascontiguousarray(b).tobytes()


class CountingKernel(WalkKernel):
    """The walk, counting its ``noise`` calls."""

    def __init__(self):
        super().__init__()
        self.draws = 0

    def noise(self, rng, out):
        self.draws += 1
        super().noise(rng, out)


MISMATCH = "^initial state space differs from kernel space$"
# each entry point, given a start from another space, and the error it must raise
DRAWING_ENTRY_POINTS = {
    "estimate": (lambda k, x0: estimate(k, x0, 50, 20, RandomnessPlan(1)), MISMATCH),
    "run_moments": (lambda k, x0: run_moments(k, x0, 50, 20, RandomnessPlan(1)), MISMATCH),
    "simulation-blocks": (
        lambda k, x0: Simulation(k, x0, 50, 20, RandomnessPlan(1)).blocks(4), MISMATCH
    ),
    "simulation-split": (
        lambda k, x0: Simulation(k, x0, 50, 20, RandomnessPlan(1)).split(4), MISMATCH
    ),
    # the one-run source of `evtl simulate --run 3`
    "simulate": (
        lambda k, x0: save_trajectory(None, Simulation(k, x0, 50, 1, RandomnessPlan(1), first=3)),
        MISMATCH,
    ),
    # a good start, but a first run that has no stream key
    "simulation-negative-first": (
        lambda k, _: Simulation(k, k.space.state(x=0.5), 50, 20, RandomnessPlan(1), -1).blocks(4),
        "^the first run must be >= 0$",
    ),
}


@pytest.mark.parametrize("call, match", DRAWING_ENTRY_POINTS.values(), ids=DRAWING_ENTRY_POINTS)
def test_a_mismatched_start_fails_before_any_noise_is_drawn(call, match):
    k = CountingKernel()
    start = DataSpace({"y": Interval(0.0, 1.0)}).state(y=0.5)
    with pytest.raises(ValueError, match=match):
        call(k, start)
    assert k.draws == 0


def test_simulation_checks_its_runs_and_steps_when_built():
    k = CountingKernel()
    fields = dict(kernel=k, initial=k.space.state(x=0.5), steps=5, runs=3, plan=RandomnessPlan(1))
    for change, match in (
        ({"initial": DataSpace({"y": Interval(0.0, 1.0)}).state(y=0.5)}, MISMATCH),
        ({"steps": -1}, "^steps must be >= 0$"),
        ({"runs": 0}, "^need at least one run$"),
        ({"first": -1}, "^the first run must be >= 0$"),
    ):
        with pytest.raises(ValueError, match=match):
            Simulation(**{**fields, **change})
        # a split rebuilds each part, so it cannot make one either
        with pytest.raises(ValueError, match=match):
            replace(Simulation(**fields), **change)
    assert k.draws == 0


def test_a_split_reads_the_runs_of_the_whole():
    k = WalkKernel()
    args = (k, k.space.state(x=0.5), 6, 7, RandomnessPlan(3))
    whole = estimate(*args)
    for source in (Simulation(*args), whole):
        parts = [np.array(block) for part in source.split(3) for _, block in part.blocks(7)]
        # consecutive runs in run order, the last part shorter
        assert [p.shape[2] for p in parts] == [3, 3, 1]
        assert np.concatenate(parts, axis=2).tobytes() == np.moveaxis(whole.values, -1, 0).tobytes()


@pytest.mark.parametrize("width", [0, -1])
@pytest.mark.parametrize("source", [Simulation, estimate])
def test_blocks_need_a_width_of_at_least_one(source, width):
    k = WalkKernel()
    evolution = source(k, k.space.state(x=0.5), 5, 3, RandomnessPlan(1))
    # raised when the blocks are asked for, before any is read
    with pytest.raises(ValueError, match="block width must be >= 1"):
        evolution.blocks(width)


def test_paths_with_no_steps_yield_the_initial_block():
    k = WalkKernel()
    [(t0, block)] = simulation._paths(k, k.space.state(x=0.25), np.empty((4, 0)), 7)
    assert t0 == 0 and block.shape == (1, 1, 4) and np.all(block == 0.25)


def test_estimate_rows_are_runs():
    k = WalkKernel()
    d0 = k.space.state(x=0.5)
    plan = RandomnessPlan(11)
    est = estimate(k, d0, 6, 5, plan)
    # row j of each per-step sample set is run j resimulated independently
    for j in range(5):
        [(_, block)] = Simulation(k, d0, 6, 1, plan, first=j).blocks(7)
        np.testing.assert_array_equal(est.values[:, j, 0], block[0, :, 0])
        # stepped by hand from stream (0, j)
        x, path = 0.5, [0.5]
        for z in plan.substream(0, j).standard_normal(6):
            x = min(max(x + 0.1 * z, 0.0), 1.0)
            path.append(x)
        assert est.values[:, j, 0].tolist() == path


def test_estimate_prefix_property():
    # the first N runs of a larger estimate equal the N-run estimate
    k = WalkKernel()
    d0 = k.space.state(x=0.5)
    plan = RandomnessPlan(5)
    small = estimate(k, d0, 4, 6, plan)
    large = estimate(k, d0, 4, 18, plan)
    np.testing.assert_array_equal(large.values[:, :6, :], small.values)


def test_run_moments_match_materialized_estimate():
    k = WalkKernel()
    d0 = k.space.state(x=0.5)
    plan = RandomnessPlan(9)
    est = estimate(k, d0, 12, 40, plan)
    mean = run_moments(k, d0, 12, 40, plan)
    np.testing.assert_allclose(mean, est.values.mean(axis=1), atol=1e-12)


@pytest.mark.parametrize("steps", [3, 8])
def test_run_moments_fold_runs_in_order_within_blocks(steps):
    # more runs than one chunk, so the chunk sums meet in the totals; each
    # chunk is folded run by run, then the chunk sums in chunk order. A chunk
    # of 1024 runs is read 8 steps a block, so 8 steps end in a block of one
    # value per run, where numpy would sum a run-major copy pairwise
    chunk = simulation._RUN_CHUNK
    runs = chunk + 6
    k = WalkKernel(step_std=0.3)
    d0 = k.space.state(x=0.5)
    plan = RandomnessPlan(21)
    mean = run_moments(k, d0, steps, runs, plan)
    xs = estimate(k, d0, steps, runs, plan).values[:, :, 0]
    folds = []
    for i in range(steps + 1):
        total = 0.0
        for a in range(0, runs, chunk):
            part = xs[i, a : a + chunk].tolist()
            s = part[0]
            for x in part[1:]:
                s += x
            total += s
            if a == 0:
                folds.append(s)
        assert mean[i, 0] == total / runs
    # numpy's pairwise sum of the first chunk differs from its run-order fold
    # at the last step, so a pairwise fold of the last block would fail the
    # oracle above
    assert np.sum(xs[steps, :chunk]) != folds[steps]


def test_trajectory_csv_format(tmp_path):
    k = WalkKernel()
    args = (k, k.space.state(x=0.0), 2, 1, RandomnessPlan(0))
    path = tmp_path / "t.csv"
    save_trajectory(str(path), Simulation(*args))
    lines = path.read_text().splitlines()
    assert lines[0] == "time,x"
    assert lines[1] == "0,0"
    assert len(lines) == 4
    # a stored one-run estimate writes the same bytes; a source of two runs is no trajectory
    stored = tmp_path / "s.csv"
    save_trajectory(str(stored), estimate(*args))
    assert stored.read_bytes() == path.read_bytes()
    with pytest.raises(ValueError, match="a trajectory is one run, got 2"):
        save_trajectory(str(stored), Simulation(k, k.space.state(x=0.0), 2, 2, RandomnessPlan(0)))


def test_estimate_csv_row_order(tmp_path):
    k = WalkKernel()
    est = estimate(k, k.space.state(x=0.0), 2, 3, RandomnessPlan(0))
    path = tmp_path / "e.csv"
    save_estimate(str(path), est)
    lines = path.read_text().splitlines()
    assert lines[0] == "run,time,x"
    heads = [tuple(l.split(",")[:2]) for l in lines[1:]]
    assert heads == [(str(j), str(i)) for j in range(3) for i in range(3)]


class FailingKernel(CountingKernel):
    """The walk, failing as it draws the noise of run ``fail_at``."""

    def __init__(self, fail_at):
        super().__init__()
        self.fail_at = fail_at

    def noise(self, rng, out):
        if self.draws == self.fail_at:
            raise FloatingPointError("overflow")
        super().noise(rng, out)


@pytest.mark.parametrize("fail_at", [0, 3, simulation._RUN_CHUNK])
def test_a_failed_chunk_leaves_the_earlier_chunks_whole_runs(fail_at, tmp_path):
    k = FailingKernel(fail_at)
    chunk = simulation._RUN_CHUNK
    path = tmp_path / "e.csv"
    with pytest.raises(FloatingPointError):
        sim = Simulation(k, k.space.state(x=0.5), 2, chunk + 5, RandomnessPlan(0))
        save_estimate(str(path), sim)
    if fail_at < chunk:  # the first chunk fails before the file is opened
        assert not path.exists()
    else:
        lines = path.read_text().splitlines()
        assert lines[0] == "run,time,x" and len(lines) == 1 + 3 * chunk
        assert lines[-1].startswith(f"{chunk - 1},2,")


def test_estimate_csv_counts_the_sources_runs_from_zero(tmp_path):
    k, plan = WalkKernel(), RandomnessPlan(4)
    x0 = k.space.state(x=0.5)
    later, stored = tmp_path / "later.csv", tmp_path / "stored.csv"
    save_estimate(str(later), Simulation(k, x0, 2, 3, plan, first=5))
    runs_5_to_7 = estimate(k, x0, 2, 8, plan).values[:, 5:]
    save_estimate(str(stored), EvolutionEstimate(k.space, runs_5_to_7))
    # runs 5..7 of the plan, numbered 0..2 in the file, as a stored estimate of them is
    assert later.read_bytes() == stored.read_bytes()
    assert later.read_text().splitlines()[-1].startswith("2,2,")


def test_long_runs_are_written_with_one_chunk_alive(monkeypatch):
    # past BLOCK_ROWS steps a writer block is one run; it must not view its chunk's states,
    # or the writer's last block keeps that chunk alive while the next one is stepped
    monkeypatch.setattr(simulation, "_RUN_CHUNK", 4)
    k = WalkKernel()
    peaks = []
    for runs in (4, 12):
        tracemalloc.start()
        sim = Simulation(k, k.space.state(x=0.5), 10_000, runs, RandomnessPlan(0))
        save_estimate(os.devnull, sim)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # a chunk's states are 320 kB, so a second chunk alive would show
    assert peaks[1] < peaks[0] + 200_000, peaks


def test_weak_convergence_on_uniform_chain():
    # kernel whose next value is uniform on three points: empirical per-step
    # frequencies approach the exact transients
    rng = np.random.default_rng(0)
    chain = random_chain(rng, 3, values=[0.0, 0.5, 1.0])
    # a simulation starts from one state, here the random chain's most likely one
    start = np.eye(3)[np.argmax(chain.initial)]
    chain = FiniteChain("x", chain.values, chain.transition, start, chain.penalty_values)
    est = estimate(chain, chain.initial_state(), 5, 10_000, RandomnessPlan(77))
    exact = transient_distributions(chain, 5)
    for t in range(6):
        for s, v in enumerate(chain.values):
            freq = float(np.mean(est.values[t, :, 0] == v))
            assert abs(freq - exact[t, s]) < 0.02
