import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evtl.simulation import MarkovKernel, RandomnessPlan, Simulation, estimate
from evtl.spaces import DataState
from evtl.tanks import TankKernel, TankParams, tank_penalties, tank_space


def step(kernel, state, z=0.0):
    """One-run, one-step ``advance`` call with normal draw ``z``, read back as a state."""
    col = advance(kernel, np.array([state.values]).T, [z])[:, 0]
    return DataState(kernel.space, tuple(float(x) for x in col))


def advance(kernel, values, noise):
    """Successors of the (dim, N) states after one step with noise row ``noise``."""
    out = np.empty((len(values), 1, values.shape[1]))
    kernel.advance(values, np.array([noise]), out)
    return out[:, 0]


def mk_state(space, **kw):
    base = dict(l1=10.0, l2=10.0, l3=10.0, q1=0.0, q2=0.0, q0=0.0)
    base.update(kw)
    return space.state(**base)


@pytest.fixture
def kernel():
    return TankKernel(TankParams(), scenario=1)


def test_param_validation():
    with pytest.raises(ValueError):
        TankParams(goal=25.0)
    with pytest.raises(ValueError):
        TankParams(flow_step=7.0)
    with pytest.raises(ValueError):
        TankParams(inflow_variance=-1.0)
    with pytest.raises(ValueError):
        TankParams(loss12=1.5)
    with pytest.raises(ValueError):
        TankParams(inflow_mean=9.0)
    with pytest.raises(ValueError):
        TankKernel(TankParams(), scenario=3)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TankParams)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_param_validation_rejects_non_finite(field, value):
    # NaN slips past every ordering guard, so finiteness is checked first
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TankParams(**{field: value})


def test_space_and_initial_state(kernel):
    assert isinstance(kernel, MarkovKernel)
    assert kernel.space.names == ("l1", "l2", "l3", "q1", "q2", "q0")
    s0 = kernel.initial_state()
    assert s0.values == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert TankKernel(TankParams(level_min=2.0)).initial_state().values[:3] == (2.0, 2.0, 2.0)


def test_first_steps_from_empty_plant_frozen(kernel):
    # step 1: all levels equal so no pipe flow; the controller opens q1 by
    # one step and q2 takes its fresh draw (z = 0 -> the mean inflow)
    s1 = step(kernel, kernel.initial_state(), 0.0)
    assert s1.values == pytest.approx((0.0, 0.0, 0.0, 1.2, 3.0, 0.0), abs=1e-15)
    # step 2: q1 fills tank 1, q2 fills tank 3, controller opens q1 further
    s2 = step(kernel, s1, 0.0)
    assert s2.values == pytest.approx((0.12, 0.0, 0.3, 2.4, 3.0, 0.0), abs=1e-15)


def test_pipe_flow_follows_torricelli(kernel):
    space = kernel.space
    # level difference of 2 into an equal-level pair below: only the 1->2
    # pipe moves water, at loss * area * sqrt(2 g dh) = 0.375 * sqrt(39.24)
    s = step(kernel, mk_state(space, l1=11.0, l2=9.0, l3=9.0), 0.0)
    q12 = 0.375 * math.sqrt(2.0 * 9.81 * 2.0)
    assert q12 == pytest.approx(2.349069, abs=1e-6)
    assert s["l1"] == pytest.approx(11.0 - 0.1 * q12, abs=1e-12)
    # tank 2 receives q12 but also leaks into tank 3 over its own gap of 0
    # ... no: l2 == l3, so everything it gets stays
    assert s["l2"] == pytest.approx(9.0 + 0.1 * q12, abs=1e-12)
    assert s["l3"] == pytest.approx(9.0, abs=1e-12)


def test_pipe_flow_is_signed(kernel):
    # higher downstream level pushes water back
    s = step(kernel, mk_state(kernel.space, l1=9.0, l2=11.0, l3=11.0), 0.0)
    q12 = 0.375 * math.sqrt(2.0 * 9.81 * 2.0)
    assert s["l1"] == pytest.approx(9.0 + 0.1 * q12, abs=1e-12)
    assert s["l2"] < 11.0


def test_closed_system_conserves_volume(kernel):
    s = step(kernel, mk_state(kernel.space, l1=12.0, l2=9.0, l3=7.0, q2=0.0), -100.0)
    # q2 clamps to 0 under the huge negative draw, q1/q0 stay shut, so the
    # pipes only move water around
    assert s["q1"] == 0.0 and s["q2"] == 0.0 and s["q0"] == 0.0
    total = s["l1"] + s["l2"] + s["l3"]
    assert total == pytest.approx(28.0, abs=1e-12)


def test_levels_clamp_to_tank_range():
    kernel = TankKernel(TankParams(), scenario=1)
    s = step(kernel, mk_state(kernel.space, l1=19.99, l2=19.99, q1=6.0), 0.0)
    assert s["l1"] == 20.0
    s = step(kernel, mk_state(kernel.space, l1=0.005, l2=0.0, l3=0.0), 0.0)
    assert s["l1"] == 0.0 and s["l2"] > 0.0


def test_controller_band_and_steps(kernel):
    space = kernel.space
    # l1 above the band: inflow backs off, floored at zero
    assert step(kernel, mk_state(space, l1=10.6, q1=1.0))["q1"] == 0.0
    assert step(kernel, mk_state(space, l1=10.6, q1=3.0))["q1"] == pytest.approx(1.8)
    # l1 below the band: inflow opens, capped at flow_max
    assert step(kernel, mk_state(space, l1=9.2, q1=3.0))["q1"] == pytest.approx(4.2)
    assert step(kernel, mk_state(space, l1=9.2, q1=5.5))["q1"] == 6.0
    # inside the dead band: unchanged
    assert step(kernel, mk_state(space, l1=10.3, q1=3.0))["q1"] == 3.0
    # the outflow controller mirrors it on tank 3
    assert step(kernel, mk_state(space, l3=10.6, q0=3.0))["q0"] == pytest.approx(4.2)
    assert step(kernel, mk_state(space, l3=9.2, q0=3.0))["q0"] == pytest.approx(1.8)
    assert step(kernel, mk_state(space, l3=10.0, q0=3.0))["q0"] == 3.0


def test_controllers_read_pre_update_levels(kernel):
    # l1 starts inside the band but a big inflow pushes it out during the
    # step; the controller still sees the old level and leaves q1 alone
    s = step(kernel, mk_state(kernel.space, l1=10.4, l2=10.4, q1=6.0), 0.0)
    assert s["l1"] == pytest.approx(11.0)
    assert s["q1"] == 6.0


def test_scenario_inflows_differ():
    p = TankParams()
    space = tank_space(p)
    fresh = TankKernel(p, scenario=1)
    walk = TankKernel(p, scenario=2)
    st = mk_state(space, q2=6.0)
    # scenario 1 forgets the current inflow, scenario 2 carries it
    assert step(fresh, st, 0.0)["q2"] == 3.0
    assert step(walk, st, 0.0)["q2"] == 6.0
    # scenario 1 scales the draw by sqrt(variance)
    assert step(fresh, st, 2.0)["q2"] == pytest.approx(3.0 + 2.0 * math.sqrt(0.5))
    assert step(walk, st, -2.0)["q2"] == 4.0
    # both clamp into [0, flow_max]
    assert step(fresh, st, 80.0)["q2"] == 6.0
    assert step(walk, mk_state(space, q2=0.5), -3.0)["q2"] == 0.0


@pytest.mark.parametrize("scenario", [1, 2])
def test_batch_step_equals_one_row_steps(scenario):
    kernel = TankKernel(TankParams(), scenario)
    rng = np.random.default_rng(scenario)
    n = 64
    levels = rng.uniform(0.0, 20.0, (n, 3))
    flows = rng.uniform(0.0, 6.0, (n, 3))
    # rows on the clamp bounds and the controller band edges too
    levels[:8] = [[0.0, 0.0, 20.0], [20.0, 20.0, 0.0], [10.5, 9.5, 10.5], [9.5, 10.5, 9.5]] * 2
    flows[:4] = [[0.0, 6.0, 0.0], [6.0, 0.0, 6.0]] * 2
    values = np.hstack([levels, flows]).T
    noise = rng.standard_normal(n) * 3.0
    batch = advance(kernel, values, noise)
    for j in range(n):
        one = advance(kernel, values[:, j : j + 1], noise[j : j + 1])
        assert np.array_equal(batch[:, j : j + 1], one)


def oracle_step(p, scenario, l1, l2, l3, q1, q2, q0, z):
    """The balance equations of one run, in Python floats."""

    def clamp(x, lo, hi):
        return min(hi, max(lo, x))

    two_g, s = 2.0 * p.gravity, p.dt / p.area
    d12, d23 = l1 - l2, l2 - l3
    q12 = math.copysign(p.loss12 * p.pipe_area * math.sqrt(two_g * abs(d12)), d12)
    q23 = math.copysign(p.loss23 * p.pipe_area * math.sqrt(two_g * abs(d23)), d23)
    lo, hi = p.level_min, p.level_max
    levels = (
        clamp(l1 + (q1 - q12) * s, lo, hi),
        clamp(l2 + (q12 - q23) * s, lo, hi),
        clamp(l3 + (q2 + q23 - q0) * s, lo, hi),
    )
    up, down, qs = p.goal + p.band, p.goal - p.band, p.flow_step
    nq1 = q1 - qs if l1 > up else q1 + qs if l1 < down else q1
    nq0 = q0 + qs if l3 > up else q0 - qs if l3 < down else q0
    nq2 = p.inflow_mean + math.sqrt(p.inflow_variance) * z if scenario == 1 else q2 + z
    return levels + tuple(clamp(q, 0.0, p.flow_max) for q in (nq1, nq2, nq0))


# the clamp bounds, the band edges and the goal come up often, so equal
# levels (no pipe flow) and shut or full flows do too; -0.0 sits on a bound
# and tells the clamp's choice between equal values apart, and a NaN level or
# flow must come out of the clamps as the scalar max and min take it
LEVEL = st.one_of(
    st.sampled_from([0.0, -0.0, -5.0, 20.0, 9.5, 10.5, 10.0, math.nan]), st.floats(-5.0, 20.0)
)
FLOW = st.one_of(st.sampled_from([0.0, -0.0, 6.0, math.nan]), st.floats(0.0, 6.0))
RUN = st.tuples(LEVEL, LEVEL, LEVEL, FLOW, FLOW, FLOW, st.floats(-10.0, 10.0))


@settings(max_examples=200, deadline=None)
@given(
    scenario=st.sampled_from([1, 2]),
    # a lower level bound of -0.0 keeps a level of +0.0 at -0.0, so a clamp that
    # normalises signed zeros fails here
    level_min=st.sampled_from([0.0, -0.0, -5.0]),
    runs=st.lists(RUN, min_size=1, max_size=12),
)
@example(scenario=1, level_min=0.0, runs=[(10.0, 10.0, 10.0, 0.0, 6.0, 6.0, 0.0)])
@example(
    scenario=2,
    level_min=0.0,
    runs=[(0.0, 0.0, 20.0, 6.0, 0.0, 0.0, -1.0), (20.0, 20.0, 0.0, 6.0, 6.0, 0.0, 9.0)],
)
@example(
    scenario=1,
    level_min=0.0,
    runs=[(9.5, 10.5, 9.5, 0.0, 3.0, 6.0, 2.0), (10.5, 9.5, 10.5, 6.0, 3.0, 0.0, -2.0)],
)
@example(scenario=1, level_min=-0.0, runs=[(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)])
@example(scenario=2, level_min=-5.0, runs=[(math.nan, 10.0, -5.0, math.nan, 6.0, -0.0, 1.0)])
def test_step_batch_equals_scalar_balance_equations(scenario, level_min, runs):
    p = TankParams(level_min=level_min)
    kernel = TankKernel(p, scenario)
    cols = np.array(runs)
    got = advance(kernel, np.ascontiguousarray(cols[:, :6].T), cols[:, 6])
    for j, run in enumerate(runs):
        # bit for bit, so a signed zero must match too
        want = np.array(oracle_step(p, scenario, *run))
        assert got[:, j].tobytes() == want.tobytes()


def test_noise_is_one_normal_draw_per_step(kernel):
    a = np.empty(5)
    kernel.noise(RandomnessPlan(4).substream(0, 2), a)
    rng = RandomnessPlan(4).substream(0, 2)
    assert np.array_equal(a, [rng.standard_normal() for _ in range(5)])


def score(pen, state):
    return float(pen.project(state.space.rows(np.array([state.values]), pen.variables))[0])


def test_penalties_measure_goal_distance():
    p = TankParams()
    pens = tank_penalties(p)
    space = tank_space(p)
    assert set(pens) == {"rho1", "rho2", "rho3", "over1", "over2", "over3"}
    assert score(pens["rho1"], mk_state(space, l1=10.0)) == 0.0
    assert score(pens["rho1"], mk_state(space, l1=0.0)) == 1.0
    assert score(pens["rho2"], mk_state(space, l2=20.0)) == 1.0
    assert score(pens["rho3"], mk_state(space, l3=15.0)) == 0.5
    # projecting many states agrees with the formula written out per state
    k = TankKernel(p, 1)
    est = estimate(Simulation(k, k.initial_state(), 5, 50, RandomnessPlan(0)))
    samples = est.at(5)
    proj = pens["rho3"].project(samples.column("l3")[None], 5)
    expect = [min(1.0, abs(samples.state(i)["l3"] - 10.0) / 10.0) for i in range(50)]
    assert proj == pytest.approx(expect, abs=1e-15)
    # off-goal asymmetric ranges normalize by the wider side
    skew = tank_penalties(TankParams(goal=15.0))
    assert score(skew["rho1"], mk_state(space, l1=0.0)) == 1.0
    assert score(skew["rho1"], mk_state(space, l1=20.0)) == pytest.approx(1.0 / 3.0)


def test_over_penalties_score_only_levels_above_the_goal():
    p = TankParams()
    pens = tank_penalties(p)
    space = tank_space(p)
    assert score(pens["over1"], mk_state(space, l1=0.0)) == 0.0
    assert score(pens["over1"], mk_state(space, l1=10.0)) == 0.0
    assert score(pens["over2"], mk_state(space, l2=15.0)) == 0.5
    assert score(pens["over3"], mk_state(space, l3=20.0)) == 1.0
    # each reads its own level only
    assert score(pens["over3"], mk_state(space, l1=20.0, l2=20.0, l3=5.0)) == 0.0
    # normalised by the room above the goal, not the wider side
    skew = tank_penalties(TankParams(goal=15.0))
    assert score(skew["over1"], mk_state(space, l1=17.5)) == 0.5
    assert score(skew["over1"], mk_state(space, l1=0.0)) == 0.0


@pytest.mark.parametrize("scenario", [1, 2])
def test_plant_settles_near_goal(scenario):
    p = TankParams()
    k = TankKernel(p, scenario)
    est = estimate(Simulation(k, k.initial_state(), 150, 100, RandomnessPlan(42)))
    for var in ("l1", "l3"):
        late = est.column(var)[100:]
        assert 9.5 < late.mean() < 10.5
    # every sampled state stays inside its domain
    for i, var in enumerate(est.space.names):
        dom = est.space.domains[i]
        col = est.column(var)
        assert np.all(col >= dom.lo) and np.all(col <= dom.hi)
