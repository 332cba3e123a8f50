from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import wasserstein_distance

from evtl import simulation
from evtl.config import RunConfig, apply_setting, build_model, load_config
from evtl.formulas import Discount
from evtl.simulation import RandomnessPlan, Simulation, estimate
from evtl.spaces import SampleSet
from evtl.wasserstein import (
    evolution_divergence,
    exact_one_sided_wasserstein,
    one_sided_rows,
    one_sided_wasserstein,
)

from conftest import unit_samples

REPO = Path(__file__).resolve().parents[1]


# --- exact oracle ----------------------------------------------------------


def test_exact_point_masses():
    assert exact_one_sided_wasserstein([0.0], [1.0], [1.0], [1.0]) == 1.0
    assert exact_one_sided_wasserstein([1.0], [1.0], [0.0], [1.0]) == 0.0
    assert exact_one_sided_wasserstein([0.3], [1.0], [0.3], [1.0]) == 0.0


def test_exact_two_point_uniforms():
    # quantiles differ only on the upper half: (3 - 1) * 0.5
    assert exact_one_sided_wasserstein([0, 1], [0.5, 0.5], [0, 3], [0.5, 0.5]) == pytest.approx(1.0)


def test_exact_mixed_weights_hand_case():
    # worked by hand over the merged cumulative ladder:
    # forward segments (0,.25]*(0.2-0.1) + (1/3,2/3]*(0.5-0.4) + (2/3,.75]*(0.8-0.4)
    a_v, a_w = [0.1, 0.4, 0.9], [0.25, 0.5, 0.25]
    b_v, b_w = [0.2, 0.5, 0.8], [1 / 3, 1 / 3, 1 / 3]
    assert exact_one_sided_wasserstein(a_v, a_w, b_v, b_w) == pytest.approx(11 / 120, abs=1e-15)
    assert exact_one_sided_wasserstein(b_v, b_w, a_v, a_w) == pytest.approx(1 / 24, abs=1e-15)


def test_exact_unsorted_input_is_sorted_internally():
    v = exact_one_sided_wasserstein([0.9, 0.1, 0.4], [0.25, 0.25, 0.5], [0.5, 0.2, 0.8], [1 / 3] * 3)
    assert v == pytest.approx(11 / 120, abs=1e-15)


def test_exact_validates_inputs():
    with pytest.raises(ValueError):
        exact_one_sided_wasserstein([0.0], [0.5], [1.0], [1.0])  # weights not 1
    with pytest.raises(ValueError):
        exact_one_sided_wasserstein([0.0, 1.0], [1.5, -0.5], [1.0], [1.0])
    with pytest.raises(ValueError):
        exact_one_sided_wasserstein([], [], [1.0], [1.0])


def test_exact_split_atoms_do_not_change_value():
    # splitting a support point into two halves leaves quantiles unchanged
    a = exact_one_sided_wasserstein([0.2, 0.7], [0.5, 0.5], [0.4], [1.0])
    b = exact_one_sided_wasserstein([0.2, 0.2, 0.7], [0.25, 0.25, 0.5], [0.4, 0.4], [0.5, 0.5])
    assert a == pytest.approx(b, abs=1e-15)


@st.composite
def weighted_values(draw):
    """Support points and weights: drawn and normalised, or built as an empirical
    reference builds them, each of k samples adding 1/k to its point in sample
    order, so that a point may weigh 0 and a partial sum may round past 1."""
    n = draw(st.integers(1, 8))
    values = draw(st.lists(st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n))
    if draw(st.booleans()):
        w = np.array(draw(st.lists(st.floats(0.01, 1), min_size=n, max_size=n)))
        return values, w / w.sum()
    picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    return values, np.bincount(picks, weights=np.full(len(picks), 1.0 / len(picks)), minlength=n)


@given(weighted_values(), weighted_values())
@settings(max_examples=300, deadline=None)
def test_exact_directions_sum_to_scipy_w1(a, b):
    (av, aw), (bv, bw) = a, b
    fwd = exact_one_sided_wasserstein(av, aw, bv, bw)
    rev = exact_one_sided_wasserstein(bv, bw, av, aw)
    assert fwd + rev == pytest.approx(wasserstein_distance(av, bv, aw, bw), abs=1e-10)


def test_exact_ladder_whose_partial_sum_rounds_past_one():
    # seven samples of weight s on six values: the partial sums reach
    # 1.0000000000000002 before the zero-weight last value
    s = 0.14285714285714288
    values, seven = np.arange(6.0), np.array([2 * s, s, 2 * s, s, s, 0.0])
    assert np.cumsum(seven)[-2] > 1.0
    uniform = np.full(6, 1 / 6)
    fwd = exact_one_sided_wasserstein(values, seven, values, uniform)
    rev = exact_one_sided_wasserstein(values, uniform, values, seven)
    assert rev == 0.0
    assert fwd + rev == pytest.approx(wasserstein_distance(values, values, seven, uniform))


# --- sampled estimator -----------------------------------------------------


def test_estimator_equals_oracle_on_uniform_empiricals(unit_space, unit_penalty):
    rng = np.random.default_rng(42)
    for _ in range(200):
        n, ell = int(rng.integers(1, 65)), int(rng.integers(1, 5))
        xa, xb = rng.random(n), rng.random(ell * n)
        est = one_sided_wasserstein(
            unit_samples(unit_space, xa), unit_samples(unit_space, xb), unit_penalty
        )
        exact = exact_one_sided_wasserstein(
            xa, np.full(n, 1 / n), xb, np.full(ell * n, 1 / (ell * n))
        )
        assert abs(est - exact) < 1e-12


def test_estimator_requires_integer_ratio(unit_space, unit_penalty):
    with pytest.raises(ValueError):
        one_sided_wasserstein(
            unit_samples(unit_space, [0.1, 0.2]), unit_samples(unit_space, [0.1] * 3), unit_penalty
        )


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_row_estimator_equals_one_dimensional_rows(data):
    # the one-dimensional formula the row-wise routine replaced, per row
    rows = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 40))
    ell = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    omega = rng.choice([-0.0, 0.0, 0.5, 1.0], size=(rows, n)) if seed % 2 else rng.random((rows, n))
    nu = rng.random((rows, ell * n))
    got = one_sided_rows(omega, nu)
    for t in range(rows):
        lower = np.repeat(np.sort(omega[t]), ell)
        want = float(np.mean(np.maximum(np.sort(nu[t]) - lower, 0.0)))
        assert got[t] == want


def test_row_estimator_requires_matching_rows_and_ratio():
    with pytest.raises(ValueError):
        one_sided_rows(np.zeros((2, 3)), np.zeros((3, 6)))
    with pytest.raises(ValueError):
        one_sided_rows(np.zeros((2, 3)), np.zeros((2, 7)))


def test_estimator_self_distance_is_zero(unit_space, unit_penalty):
    xs = unit_samples(unit_space, np.random.default_rng(1).random(32))
    assert one_sided_wasserstein(xs, xs, unit_penalty) == 0.0


def test_estimator_one_sidedness(unit_space, unit_penalty):
    rng = np.random.default_rng(2)
    lo = unit_samples(unit_space, rng.random(50) * 0.4)
    hi = unit_samples(unit_space, 0.6 + rng.random(50) * 0.4)
    assert one_sided_wasserstein(hi, lo, unit_penalty) == 0.0
    assert one_sided_wasserstein(lo, hi, unit_penalty) > 0.1


def test_estimator_permutation_invariance(unit_space, unit_penalty):
    rng = np.random.default_rng(3)
    xa, xb = rng.random(20), rng.random(60)
    base = one_sided_wasserstein(
        unit_samples(unit_space, xa), unit_samples(unit_space, xb), unit_penalty
    )
    for _ in range(5):
        pa, pb = rng.permutation(xa), rng.permutation(xb)
        v = one_sided_wasserstein(
            unit_samples(unit_space, pa), unit_samples(unit_space, pb), unit_penalty
        )
        assert v == base


def test_estimator_triangle_at_matched_sizes(unit_space, unit_penalty):
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        sets = [unit_samples(unit_space, rng.random(n)) for _ in range(3)]
        d = lambda i, j: one_sided_wasserstein(sets[i], sets[j], unit_penalty)
        assert d(0, 2) <= d(0, 1) + d(1, 2) + 1e-12


def test_continuous_uniform_shift_is_two_tenths(unit_space, unit_penalty):
    # U[0, 0.5] -> U[0.2, 0.7]: every quantile rises by exactly 0.2
    rng = np.random.default_rng(123)
    n = 100_000
    a = unit_samples(unit_space, rng.random(n) * 0.5)
    b = unit_samples(unit_space, 0.2 + rng.random(n) * 0.5)
    assert one_sided_wasserstein(a, b, unit_penalty) == pytest.approx(0.2, abs=0.01)
    # and nothing crosses in the other direction beyond sampling noise
    assert one_sided_wasserstein(b, a, unit_penalty) < 0.01


# --- evolution divergence --------------------------------------------------


def test_evolution_divergence_profile(unit_space, unit_penalty):
    from test_simulation import WalkKernel

    slow, fast = WalkKernel(0.05), WalkKernel(0.2)
    d0 = slow.space.state(x=0.0)
    plan = RandomnessPlan(6)
    est_a = estimate(Simulation(slow, d0, 10, 100, plan.scoped(0)))
    est_b = estimate(Simulation(fast, d0, 10, 200, plan.scoped(1)))
    rep = evolution_divergence(est_a, est_b, unit_penalty)
    assert rep.times == tuple(range(11))
    assert len(rep.values) == 11
    assert rep.value == max(rep.values)
    assert rep.values[rep.times.index(rep.peak_time)] == rep.value
    # the faster walk drifts above the slower one from a common start
    assert rep.values[0] == 0.0
    assert rep.value > 0.0


def test_evolution_divergence_discount_scales(unit_space, unit_penalty):
    from test_simulation import WalkKernel

    k = WalkKernel(0.1)
    d0 = k.space.state(x=0.0)
    plan = RandomnessPlan(8)
    est_a = estimate(Simulation(k, d0, 6, 50, plan.scoped(0)))
    est_b = estimate(Simulation(WalkKernel(0.3), d0, 6, 50, plan.scoped(1)))
    flat = evolution_divergence(est_a, est_b, unit_penalty)
    decayed = evolution_divergence(est_a, est_b, unit_penalty, Discount.exponential(0.5))
    for t, (u, v) in enumerate(zip(flat.values, decayed.values)):
        assert v == pytest.approx(u * 0.5**t, abs=1e-12)


def test_evolution_divergence_times_subset(unit_space, unit_penalty):
    from test_simulation import WalkKernel

    k = WalkKernel(0.1)
    d0 = k.space.state(x=0.5)
    plan = RandomnessPlan(9)
    est_a = estimate(Simulation(k, d0, 8, 20, plan.scoped(0)))
    est_b = estimate(Simulation(k, d0, 8, 20, plan.scoped(1)))
    rep = evolution_divergence(est_a, est_b, unit_penalty, times=(8, 0, 4, 4))
    assert rep.times == (0, 4, 8)
    for times, match in (((0, 99), "outside 0..8"), ((3, -2), "negative"), ((), "no obs")):
        with pytest.raises(ValueError, match=match):
            evolution_divergence(est_a, est_b, unit_penalty, times=times)


def system_pair(case):
    """Two systems on one space, each as (kernel, initial), and the penalty comparing them."""
    if case == "tanks":
        presets = REPO / "presets"
        cfgs = [load_config(str(presets / f"three-tanks-scenario-{i}.cfg")) for i in (1, 2)]
        name = "rho3"
    else:
        chain = apply_setting(RunConfig(), "model", "chain")
        files = (REPO / "chains" / f for f in ("drift.json", "drift-fast.json"))
        cfgs = [apply_setting(chain, "chain.file", str(f)) for f in files]
        name = "rho"
    (ka, ia, penalties), (kb, ib, _) = (build_model(cfg) for cfg in cfgs)
    return (ka, ia), (kb, ib), penalties[name]


# 630 states per block puts 7 time indices of 90 runs in a block: six blocks
# over 41 indices, three of which hold no time of the subset
@pytest.mark.parametrize("block_values", [simulation._BLOCK_VALUES, 630])
@pytest.mark.parametrize("case", ["tanks", "drift"])
def test_divergence_of_simulations_equals_the_stored_route(case, block_values, monkeypatch):
    monkeypatch.setattr(simulation, "_BLOCK_VALUES", block_values)
    (ka, ia), (kb, ib), penalty = system_pair(case)
    plan, discount = RandomnessPlan(17), Discount.exponential(0.95)
    sim_a = Simulation(ka, ia, 40, 30, plan.scoped(3, 0))
    sim_b = Simulation(kb, ib, 40, 90, plan.scoped(3, 1))
    est_a, est_b = estimate(sim_a), estimate(sim_b)
    for times in (None, (0, 3, 17, 18, 19, 40)):
        observed = range(41) if times is None else times
        # one one-row comparison per time, scaled by its factor
        want = [
            discount(t) * one_sided_wasserstein(est_a.at(t), est_b.at(t), penalty, t)
            for t in observed
        ]
        for a, b in ((sim_a, sim_b), (est_a, est_b), (sim_a, est_b), (est_a, sim_b)):
            got = evolution_divergence(a, b, penalty, discount, times)
            assert got.times == tuple(observed)
            assert np.array(got.values).tobytes() == np.array(want).tobytes()
