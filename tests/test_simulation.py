from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evtl import simulation
from evtl.chains import ChainKernel, FiniteChain, load_chain, transient_distributions
from evtl.simulation import (
    RandomnessPlan,
    estimate,
    run_moments,
    save_estimate,
    save_trajectory,
    simulate,
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
    k = WalkKernel()
    d0 = k.space.state(x=0.5)
    traj = simulate(k, d0, 10, RandomnessPlan(1).substream(0, 0))
    assert traj.steps == 10 and traj.runs == 1
    assert traj.values.shape == (11, 1, 1)
    assert traj.at(0).state(0) == d0
    assert np.all(traj.values >= 0.0) and np.all(traj.values <= 1.0)


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
    # the state first: the draws advance it, and a yielded generator is reused
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
        (ChainKernel(two_state_chain(0.3, 0.6)), np.random.Generator.random),
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


SHUFFLED = ChainKernel(load_chain(str(REPO / "tests" / "data" / "shuffled-chain.json")))


@pytest.mark.parametrize(
    "kernel, initial",
    [
        (TankKernel(TankParams(), 1), None),
        (TankKernel(TankParams(), 2), None),
        (SHUFFLED, SHUFFLED.chain.initial_state()),
        (WalkKernel(step_std=0.3), WalkKernel().space.state(x=0.5)),
    ],
    ids=["tank-1", "tank-2", "chain", "walk"],
)
def test_paths_block_width_does_not_change_bits(kernel, initial):
    assert_widths_agree(kernel, initial or kernel.initial_state())


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
        traj = simulate(k, d0, 6, plan.substream(0, j))
        np.testing.assert_array_equal(est.values[:, j, :], traj.values[:, 0, :])


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


def test_run_moments_fold_runs_in_order_within_blocks():
    # more runs than one block, so the block sums meet in the totals; each
    # block is folded run by run, then the block sums in block order
    block = simulation._MOMENT_BLOCK
    runs, steps = block + 6, 3
    k = WalkKernel(step_std=0.3)
    d0 = k.space.state(x=0.5)
    plan = RandomnessPlan(21)
    mean = run_moments(k, d0, steps, runs, plan)
    xs = estimate(k, d0, steps, runs, plan).values[:, :, 0]
    folds = []
    for i in range(steps + 1):
        total = 0.0
        for a in range(0, runs, block):
            part = xs[i, a : a + block].tolist()
            s = part[0]
            for x in part[1:]:
                s += x
            total += s
            if a == 0:
                folds.append(s)
        assert mean[i, 0] == total / runs
    # numpy's pairwise sum of the first block differs from its run-order fold
    # at some step, so a pairwise fold would fail the oracle above
    assert any(np.sum(xs[i, :block]) != folds[i] for i in range(steps + 1))


def test_trajectory_csv_format(tmp_path):
    k = WalkKernel()
    traj = simulate(k, k.space.state(x=0.0), 2, RandomnessPlan(0).substream(0, 0))
    path = tmp_path / "t.csv"
    save_trajectory(str(path), traj)
    lines = path.read_text().splitlines()
    assert lines[0] == "time,x"
    assert lines[1] == "0,0"
    assert len(lines) == 4


def test_estimate_csv_row_order(tmp_path):
    k = WalkKernel()
    est = estimate(k, k.space.state(x=0.0), 2, 3, RandomnessPlan(0))
    path = tmp_path / "e.csv"
    save_estimate(str(path), est)
    lines = path.read_text().splitlines()
    assert lines[0] == "run,time,x"
    heads = [tuple(l.split(",")[:2]) for l in lines[1:]]
    assert heads == [(str(j), str(i)) for j in range(3) for i in range(3)]


def test_weak_convergence_on_uniform_chain():
    # kernel whose next value is uniform on three points: empirical per-step
    # frequencies approach the exact transients
    rng = np.random.default_rng(0)
    chain = random_chain(rng, 3, values=[0.0, 0.5, 1.0])
    # a simulation starts from one state, here the random chain's most likely one
    start = np.eye(3)[np.argmax(chain.initial)]
    chain = FiniteChain("x", chain.values, chain.transition, start, chain.penalty_values)
    est = estimate(ChainKernel(chain), chain.initial_state(), 5, 10_000, RandomnessPlan(77))
    exact = transient_distributions(chain, 5)
    for t in range(6):
        for s, v in enumerate(chain.values):
            freq = float(np.mean(est.values[t, :, 0] == v))
            assert abs(freq - exact[t, s]) < 0.02
