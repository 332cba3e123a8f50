import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from evtl.chains import (
    ChainKernel,
    FiniteChain,
    _reference_weights,
    _snapped_weights,
    distinguishing_formula,
    exact_divergence,
    exact_robustness,
    load_chain,
    transient_distributions,
)
from evtl.formulas import (
    Discount,
    EmpiricalRef,
    Hazard,
    Not,
    PointMass,
    ProductNormal,
    Target,
    conj,
    eventually,
)
from evtl.monitor import evaluate
from evtl.simulation import RandomnessPlan, estimate, simulate
from evtl.spaces import DataSpace, Interval, Penalty, SampleSet
from evtl.wasserstein import exact_one_sided_wasserstein

from conftest import random_chain, two_state_chain

REPO = Path(__file__).resolve().parents[1]


def chain_pair(rng, n_states):
    """Two random chains sharing values and penalty table."""
    a = random_chain(rng, n_states)
    P = rng.random((n_states, n_states)) + 1e-3
    P /= P.sum(axis=1, keepdims=True)
    init = rng.random(n_states) + 1e-3
    init /= init.sum()
    b = FiniteChain("x", a.values, P, init, a.penalty_values)
    return a, b


# --- construction and transients -------------------------------------------


def test_chain_validation():
    with pytest.raises(ValueError):
        FiniteChain("x", [0.0, 0.0], np.eye(2), [1, 0], [0, 1])
    with pytest.raises(ValueError):
        FiniteChain("x", [0.0, 1.0], np.array([[0.5, 0.6], [0, 1]]), [1, 0], [0, 1])
    with pytest.raises(ValueError):
        FiniteChain("x", [0.0, 1.0], np.eye(2), [0.5, 0.6], [0, 1])
    with pytest.raises(ValueError):
        FiniteChain("x", [0.0, 1.0], np.eye(2), [1, 0], [0, 1.5])


CHAIN_FIELDS = {
    "values": [0.0, 1.0],
    "transition": [[0.5, 0.5], [0.0, 1.0]],
    "initial": [1.0, 0.0],
    "penalty": [0.0, 1.0],
}


@pytest.mark.parametrize("field", list(CHAIN_FIELDS))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_chain_validation_rejects_non_finite(field, value):
    # NaN slips past every ordering and sum guard, so finiteness is checked first
    doc = {k: np.array(v, dtype=float) for k, v in CHAIN_FIELDS.items()}
    doc[field].flat[0] = value
    with pytest.raises(ValueError, match=f"chain {field} must be finite"):
        FiniteChain("x", doc["values"], doc["transition"], doc["initial"], doc["penalty"])


def test_transients_match_hand_powers():
    # P = [[0.5, 0.5], [0.2, 0.8]] starting surely in state 0
    chain = two_state_chain(0.5, 0.2)
    got = transient_distributions(chain, 3)
    want = np.array([[1.0, 0.0], [0.5, 0.5], [0.35, 0.65], [0.305, 0.695]])
    assert got == pytest.approx(want, abs=1e-15)


def test_transients_match_matrix_power():
    rng = np.random.default_rng(0)
    chain = random_chain(rng, 5)
    got = transient_distributions(chain, 7)
    assert got[7] == pytest.approx(chain.initial @ np.linalg.matrix_power(chain.transition, 7))
    assert np.all(got >= 0) and got.sum(axis=1) == pytest.approx(np.ones(8))


def test_kernel_follows_deterministic_transitions():
    # 0 -> 1 -> 0 -> ... deterministically
    flip = FiniteChain("x", [0.0, 1.0], np.array([[0.0, 1.0], [1.0, 0.0]]), [1, 0], [0, 1])
    traj = simulate(ChainKernel(flip), flip.initial_state(), 6, RandomnessPlan(0).substream(0, 0))
    assert traj.values[:, 0, 0].tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]


def test_kernel_batch_step_equals_one_row_steps():
    rng = np.random.default_rng(3)
    # values listed out of order, so the value-to-row lookup is exercised
    chain = random_chain(rng, 4, values=[0.75, 0.0, 1.0, 0.25])
    kernel = ChainKernel(chain)
    values = rng.choice(chain.values, 50)[None, :]
    noise = rng.random((3, 50))
    batch = np.empty((1, 3, 50))
    kernel.advance(values, noise, batch)
    for j in range(50):
        one = np.empty((1, 3, 1))
        kernel.advance(values[:, j : j + 1], noise[:, j : j + 1], one)
        assert np.array_equal(batch[:, :, j : j + 1], one)


def test_kernel_step_matches_generator_choice():
    # one uniform per step, mapped as Generator.choice(n, p=row) maps it
    rng = np.random.default_rng(8)
    for n_states in (1, 2, 5, 40):
        chain = random_chain(rng, n_states)
        kernel = ChainKernel(chain)
        for i, value in enumerate(chain.values):
            for seed in range(20):
                want = np.random.default_rng(seed).choice(n_states, p=chain.transition[i])
                u = np.empty((1, 1))
                kernel.noise(np.random.default_rng(seed), u[0])
                got = np.empty((1, 1, 1))
                kernel.advance(np.array([[value]]), u, got)
                assert got[0, 0, 0] == chain.values[want]


def test_kernel_normalises_the_cdf_like_choice():
    # row 0 of drift.json sums to 1 - 1 ulp; dividing the cumulative row by
    # its last entry moves the first cut just above 0.6, so u = 0.6 stays in
    # state 0, where the raw cumulative row would move on to state 1
    drift = load_chain(str(REPO / "chains" / "drift.json"))
    row = drift.transition[0]
    assert row.sum() == 0.9999999999999999
    assert np.cumsum(row).searchsorted(0.6, "right") == 1
    got = np.empty((1, 1, 1))
    ChainKernel(drift).advance(np.array([[0.0]]), np.array([[0.6]]), got)
    assert got[0, 0, 0] == drift.values[0]


# drift.json's first row, which sums to 1 - 1 ulp
ULP_ROW = [0.6, 0.3, 0.1]


@st.composite
def chain_blocks(draw):
    """A chain of 1-40 states listed out of order, start states, and a block of noise.

    The weights and draws come from a numpy generator seeded by hypothesis;
    hypothesis picks the sizes, the value order, the share of zero
    transitions and whether a row is drift.json's 1 - 1 ulp row.
    """
    n = draw(st.integers(1, 40))
    values = [v / 8 for v in draw(st.permutations(range(n)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random((n, n)) * (rng.random((n, n)) >= draw(st.sampled_from([0.0, 0.5, 0.9])))
    weights[np.arange(n), rng.integers(0, n, n)] += weights.sum(axis=1) == 0.0
    rows = weights / weights.sum(axis=1, keepdims=True)
    if n >= 3 and draw(st.booleans()):
        rows[rng.integers(0, n)] = ULP_ROW + [0.0] * (n - 3)
    chain = FiniteChain("x", values, rows, np.eye(n)[0], np.zeros(n))
    runs, steps = draw(st.integers(1, 12)), draw(st.integers(0, 10))
    starts = rng.integers(0, n, runs)
    # the cuts of every row come up as draws too, so ties with the CDF are exercised
    cdf = np.cumsum(rows, axis=1)
    cuts = (cdf / cdf[:, -1:]).ravel()
    noise = rng.random((steps, runs))
    at_cut = rng.random((steps, runs)) < 0.3
    noise[at_cut] = rng.choice(cuts[cuts < 1.0], at_cut.sum()) if np.any(cuts < 1.0) else 0.0
    return chain, starts, noise


@settings(max_examples=150, deadline=None)
@given(case=chain_blocks())
def test_kernel_block_equals_per_run_inverse_cdf(case):
    chain, starts, noise = case
    kernel = ChainKernel(chain)
    values = np.array([[chain.values[i] for i in starts]])
    got = np.empty((1, *noise.shape))
    kernel.advance(values, noise, got)
    # each run on its own, searching its row's normalised CDF as Generator.choice does
    for j, state in enumerate(starts):
        for t, u in enumerate(noise[:, j]):
            cdf = np.cumsum(chain.transition[state])
            state = int(np.searchsorted(cdf / cdf[-1], u, side="right"))
            assert got[0, t, j] == chain.values[state]


def test_kernel_frequencies_approach_transients():
    chain = two_state_chain(0.3, 0.1)
    est = estimate(ChainKernel(chain), chain.initial_state(), 10, 4000, RandomnessPlan(5))
    exact = transient_distributions(chain, 10)
    freq_state1 = (est.column("x") == 1.0).mean(axis=1)
    assert freq_state1 == pytest.approx(exact[:, 1], abs=0.03)


# --- exact reference weights ----------------------------------------------


def test_snapped_normal_weights_match_cdf_oracle():
    chain = FiniteChain("x", [0.0, 0.5, 1.0], np.eye(3), [1, 0, 0], [0, 0.5, 1])
    w = _snapped_weights(chain, 0.5, 0.04)
    # snap midpoints are 0.25 and 0.75 for a std-0.2 normal at 0.5
    lo = norm.cdf(0.25, loc=0.5, scale=0.2)
    hi = 1.0 - norm.cdf(0.75, loc=0.5, scale=0.2)
    assert w == pytest.approx([lo, 1.0 - lo - hi, hi], abs=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_snapped_weights_handle_degenerate_and_far_means():
    chain = FiniteChain("x", [0.0, 0.5, 1.0], np.eye(3), [1, 0, 0], [0, 0.5, 1])
    assert _snapped_weights(chain, 0.6, 0.0).tolist() == [0.0, 1.0, 0.0]
    assert _snapped_weights(chain, 25.0, 1e-6).tolist() == [0.0, 0.0, 1.0]


def test_snapped_weights_on_unsorted_values():
    # value order in the chain does not have to be sorted
    chain = FiniteChain("x", [1.0, 0.0, 0.5], np.eye(3), [1, 0, 0], [1, 0, 0.5])
    w = _snapped_weights(chain, 0.5, 0.04)
    ws = _snapped_weights(
        FiniteChain("x", [0.0, 0.5, 1.0], np.eye(3), [1, 0, 0], [0, 0.5, 1]), 0.5, 0.04
    )
    assert w.tolist() == [ws[2], ws[0], ws[1]]


def test_reference_weights_all_kinds():
    chain = FiniteChain("x", [0.0, 0.5, 1.0], np.eye(3), [1, 0, 0], [0, 0.5, 1])
    assert _reference_weights(chain, PointMass((("x", 0.4),))).tolist() == [0, 1, 0]
    emp = EmpiricalRef(
        samples=SampleSet(chain.space, np.array([[0.0], [0.0], [1.0], [0.5]]))
    )
    assert _reference_weights(chain, emp).tolist() == [0.5, 0.25, 0.25]
    weighted = EmpiricalRef(
        samples=SampleSet(chain.space, np.array([[0.0], [1.0]])), weights=[0.7, 0.3]
    )
    assert _reference_weights(chain, weighted) == pytest.approx([0.7, 0.0, 0.3])
    with pytest.raises(ValueError):
        _reference_weights(chain, PointMass((("y", 0.0),)))


# --- exact robustness ------------------------------------------------------


def test_exact_atom_series_frozen():
    # state-1 mass is [0, 0.5, 0.65, 0.695]; a point reference at penalty 0
    # makes the target distance exactly that mass, and a point reference at
    # penalty 1 makes the hazard distance its complement
    chain = two_state_chain(0.5, 0.2)
    target = Target(PointMass((("x", 0.0),)), chain.penalty, 0.4)
    got = exact_robustness(chain, target, steps=3).values
    assert got == pytest.approx([0.4, -0.1, -0.25, -0.295], abs=1e-12)
    hazard = Hazard(PointMass((("x", 1.0),)), chain.penalty, 0.1)
    got = exact_robustness(chain, hazard, steps=3).values
    assert got == pytest.approx([0.9, 0.4, 0.25, 0.205], abs=1e-12)


def test_exact_robustness_discount_scales_distances():
    chain = two_state_chain(0.5, 0.2)
    atom = Target(PointMass((("x", 0.0),)), chain.penalty, 0.4)
    got = exact_robustness(chain, atom, discount=Discount.exponential(0.5), steps=3).values
    masses = [0.0, 0.5, 0.65, 0.695]
    want = [0.4 - 0.5**t * m for t, m in enumerate(masses)]
    assert got == pytest.approx(want, abs=1e-12)


def test_exact_robustness_defaults_steps_to_horizon():
    chain = two_state_chain(0.5, 0.2)
    atom = Target(PointMass((("x", 0.0),)), chain.penalty, 0.4)
    series = exact_robustness(chain, eventually(0, 4, atom))
    assert series.steps == 4
    assert series.value == pytest.approx(0.4)  # best offset is t=0


def test_exact_robustness_of_a_time_dependent_penalty():
    # the table value scaled by (tau + 1) / (k + 1), so every time scores the states differently
    rng = np.random.default_rng(12)
    k, discount = 6, Discount.exponential(0.9)
    chain = random_chain(rng, 4, values=[0.75, 0.0, 1.0, 0.25])
    late = Penalty("late", ("x",), lambda v, tau: chain.penalty.fn(v, tau) * (tau + 1) / (k + 1))
    marginals = transient_distributions(chain, k)
    for dist in (ProductNormal((("x", 0.4, 0.05),)), PointMass((("x", 0.6),))):
        ref_w = _reference_weights(chain, dist)
        for kind in (Target, Hazard):
            atom = kind(dist, late, 0.2)
            want = []
            for t in range(k + 1):
                scores = chain.penalty_values * (t + 1) / (k + 1)
                if kind is Target:
                    d = exact_one_sided_wasserstein(scores, ref_w, scores, marginals[t])
                    want.append(0.2 - discount(t) * d)
                else:
                    d = exact_one_sided_wasserstein(scores, marginals[t], scores, ref_w)
                    want.append(discount(t) * d - 0.2)
            assert exact_robustness(chain, atom, discount, steps=k).values.tolist() == want


def test_penalty_scores_take_a_column_of_times():
    chain = random_chain(np.random.default_rng(4), 3, values=[0.5, 0.0, 1.0])
    late = Penalty("late", ("x",), lambda v, tau: chain.penalty.fn(v, tau) * (tau + 1) / 8)
    rows = chain.penalty_scores(late, np.arange(8)[:, None])
    assert rows.shape == (8, 3)
    for t in range(8):
        assert np.array_equal(rows[t], chain.penalty_scores(late, t))
    assert np.array_equal(rows[7], chain.penalty_values)
    assert np.array_equal(chain.penalty_scores(), chain.penalty_values)


def test_statistical_monitor_converges_to_exact():
    chain = two_state_chain(0.4, 0.15)
    f = eventually(
        0,
        4,
        conj(
            Target(ProductNormal((("x", 0.0, 0.09),)), chain.penalty, 0.5),
            Hazard(PointMass((("x", 1.0),)), chain.penalty, 0.6),
        ),
    )
    exact = exact_robustness(chain, f, steps=6).values
    est = estimate(ChainKernel(chain), chain.initial_state(), 6, 2 * 2000, RandomnessPlan(9))
    stat = evaluate(est, f, 2000, RandomnessPlan(9)).values
    assert stat == pytest.approx(exact, abs=0.05)


@pytest.mark.parametrize(
    "threshold, negate, want",
    [(0.3, False, True), (0.3, True, False), (0.0, False, None), (0.0, True, None)],
)
def test_statistical_and_exact_series_give_one_verdict(threshold, negate, want):
    # the chain starts in state 0, whose penalty is the point's, so index 0
    # has distance 0 on both routes and the robustness is +-threshold
    chain = two_state_chain(0.4, 0.15)
    atom = Target(PointMass((("x", 0.0),)), chain.penalty, threshold)
    f = Not(atom) if negate else atom
    est = estimate(ChainKernel(chain), chain.initial_state(), 3, 20, RandomnessPlan(9))
    for series in (exact_robustness(chain, f, steps=3), evaluate(est, f, 10, RandomnessPlan(9))):
        assert series.value == (-threshold if negate else threshold)
        # 0.0 and -0.0 are both a tie
        assert math.copysign(1.0, series.value) == (-1.0 if negate else 1.0)
        assert series.satisfied is want


# --- divergence and the witness atom ---------------------------------------


def test_divergence_of_identical_chains_is_zero():
    chain = two_state_chain(0.3, 0.3)
    fwd, rev = exact_divergence(chain, chain, steps=5)
    assert fwd.values == (0.0,) * 6 and rev.values == (0.0,) * 6
    assert fwd.value == 0.0


def test_divergence_frozen_hand_case():
    # A holds state 0 forever; B jumps to state 1 at t=1 and stays
    stay = FiniteChain("x", [0.0, 1.0], np.eye(2), [1, 0], [0, 1])
    jump = FiniteChain("x", [0.0, 1.0], np.array([[0.0, 1.0], [0.0, 1.0]]), [1, 0], [0, 1])
    fwd, rev = exact_divergence(stay, jump, steps=3)
    assert fwd.values == (0.0, 1.0, 1.0, 1.0)
    assert rev.values == (0.0, 0.0, 0.0, 0.0)
    assert fwd.value == 1.0 and fwd.peak_time == 1

    fwd, rev = exact_divergence(stay, jump, discount=Discount.exponential(0.5), steps=3)
    assert fwd.values == (0.0, 0.5, 0.25, 0.125)
    assert fwd.peak_time == 1


def test_divergence_requires_shared_structure():
    a = two_state_chain(0.3, 0.3)
    b = FiniteChain("x", [0.0, 2.0], np.eye(2), [1, 0], [0, 1])
    with pytest.raises(ValueError):
        exact_divergence(a, b, steps=2)
    c = FiniteChain("x", [0.0, 1.0], np.eye(2), [1, 0], [0, 0.5])
    with pytest.raises(ValueError):
        exact_divergence(a, c, steps=2)


def reversed_listing(chain):
    """The same chain with its states listed in reverse order."""
    r = slice(None, None, -1)
    return FiniteChain(
        chain.variable, chain.values[r], chain.transition[r, r], chain.initial[r],
        chain.penalty_values[r],
    )


def test_divergence_does_not_depend_on_state_listing_order():
    rng = np.random.default_rng(8)
    for n_states in (2, 4):
        a, b = chain_pair(rng, n_states)
        want = exact_divergence(a, b, Discount.exponential(0.9), steps=6)
        got = exact_divergence(a, reversed_listing(b), Discount.exponential(0.9), steps=6)
        # the transients of a relisted chain sum in another order, so the last bits differ
        for g, w in zip(got, want):
            assert g.values == pytest.approx(w.values, rel=1e-12, abs=1e-15)
        # the same listed penalties on reversed states are a different table
        flipped = FiniteChain("x", b.values[::-1], b.transition, b.initial, b.penalty_values)
        with pytest.raises(ValueError):
            exact_divergence(a, flipped, steps=2)


def test_divergence_normalises_its_times():
    drift = load_chain(str(REPO / "chains" / "drift.json"))
    fast = load_chain(str(REPO / "chains" / "drift-fast.json"))
    full = exact_divergence(drift, fast, steps=3)
    # sorted and distinct, whatever order they are asked in
    for got, want in zip(exact_divergence(drift, fast, times=(3, 1, 3)), full):
        assert got.times == (1, 3)
        assert got.values == (want.values[1], want.values[3])
    # a negative time used to read a marginal from the end of the table
    for times, match in (((3, -2), "negative"), ((-1,), "negative"), ((), "no observation")):
        with pytest.raises(ValueError, match=match):
            exact_divergence(drift, fast, times=times)
        with pytest.raises(ValueError, match=match):
            distinguishing_formula(drift, fast, times=times)


def test_exact_robustness_with_a_seven_sample_reference():
    # seven equal weights, normalised by their sum, add up past 1 before the
    # last state's zero weight
    chain = FiniteChain("x", np.arange(6.0), np.full((6, 6), 1 / 6), np.full(6, 1 / 6),
                        np.arange(6) / 5)
    samples = SampleSet(chain.space, np.array([[0.0], [0.0], [1.0], [2.0], [2.0], [3.0], [4.0]]))
    ref = EmpiricalRef(samples=samples, weights=np.full(7, 1 / 7))
    assert _reference_weights(chain, ref).cumsum()[-2] > 1.0
    for cls in (Target, Hazard):
        series = exact_robustness(chain, cls(ref, chain.penalty, 0.1), steps=2)
        assert np.isfinite(series.values).all()


def test_divergence_scores_the_states_once(monkeypatch):
    a, b = chain_pair(np.random.default_rng(3), 3)
    calls = []
    real = FiniteChain.penalty_scores
    monkeypatch.setattr(
        FiniteChain, "penalty_scores", lambda self, *k, **kw: calls.append(k) or real(self, *k, **kw)
    )
    exact_divergence(a, b, steps=12)
    assert len(calls) == 1


def test_distinguishing_formula_hits_exact_gap():
    rng = np.random.default_rng(42)
    for n_states in (2, 3, 5):
        for _ in range(8):
            a, b = chain_pair(rng, n_states)
            d = distinguishing_formula(a, b, steps=6)
            assert d.gap == max(d.forward.value, d.reverse.value)
            fav, other = (a, b) if d.favored == "a" else (b, a)
            rob_fav = exact_robustness(fav, d.formula, steps=d.eval_time).values[d.eval_time]
            rob_other = exact_robustness(other, d.formula, steps=d.eval_time).values[d.eval_time]
            assert rob_fav == pytest.approx(d.formula.threshold, abs=1e-12)
            assert rob_other == pytest.approx(d.formula.threshold - d.gap, abs=1e-12)


def test_atom_robustness_is_distance_lipschitz():
    # moving to a chain at distance g changes any atom's robustness by at
    # most g, at every time where both are exact
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = chain_pair(rng, 4)
        fwd, rev = exact_divergence(a, b, steps=5)
        atom = Target(
            ProductNormal((("x", float(rng.random()), float(rng.random() * 0.2)),)),
            a.penalty,
            float(rng.random()),
        )
        ra = exact_robustness(a, atom, steps=5).values
        rb = exact_robustness(b, atom, steps=5).values
        for t in range(6):
            bound = max(fwd.values[t], rev.values[t])
            assert abs(ra[t] - rb[t]) <= bound + 1e-12


# --- files ------------------------------------------------------------------


def test_load_shipped_chains():
    drift = load_chain(str(REPO / "chains" / "drift.json"))
    fast = load_chain(str(REPO / "chains" / "drift-fast.json"))
    assert drift.space == fast.space
    assert np.array_equal(drift.penalty_values, fast.penalty_values)
    fwd, rev = exact_divergence(drift, fast, steps=10)
    assert max(fwd.value, rev.value) > 0.1


@pytest.mark.parametrize("name", ["drift.json", "drift-fast.json"])
def test_array_penalty_equals_scalar_penalty_in_any_state_order(name):
    chain = load_chain(str(REPO / "chains" / name))
    rng = np.random.default_rng(8)
    for _ in range(5):
        perm = rng.permutation(chain.n_states)
        shuffled = FiniteChain(
            chain.variable,
            [chain.values[i] for i in perm],
            chain.transition[np.ix_(perm, perm)],
            chain.initial[perm],
            chain.penalty_values[perm],
        )
        states = rng.permutation(np.repeat(shuffled.values, 4))
        got = shuffled.penalty.project(states[None])
        want = [shuffled.penalty_values[shuffled.values.index(v)] for v in states]
        assert got.tolist() == want


def test_state_index_maps_an_array_of_values_to_listed_states():
    chain = FiniteChain("x", [1.0, 0.0, 0.5], np.eye(3), [1, 0, 0], [1, 0, 0.5])
    values = np.array([[0.5, 1.0], [0.0, 0.5]])
    assert chain.state_index(values).tolist() == [[2, 0], [1, 2]]
    assert chain.state_index(0.0) == 1
    for stray in (0.25, -1.0, 7.0, np.nan):
        with pytest.raises(KeyError):
            chain.state_index(np.array([0.0, stray]))


def test_array_penalty_rejects_a_value_that_is_no_state():
    chain = two_state_chain(0.3, 0.2)
    for stray in (0.5, 7.0, np.nan):
        with pytest.raises(KeyError):
            chain.penalty.project(np.array([[0.0, stray]]))


def test_load_chain_reports_missing_fields(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"variable": "x", "values": [0, 1]}')
    with pytest.raises(ValueError, match="missing chain field"):
        load_chain(str(p))
