import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evtl import monitor
from evtl.chains import ChainKernel, load_chain
from evtl.config import apply_setting, build_model, load_config
from evtl.formulas import (
    Discount,
    EmpiricalRef,
    Hazard,
    Not,
    Or,
    PointMass,
    ProductNormal,
    Target,
    Truth,
    Until,
    always,
    atoms,
    conj,
    content_words,
    eventually,
    horizon,
)
from evtl.monitor import (
    RobustnessSeries,
    check_formula,
    evaluate,
    robustness,
    save_series,
    until_combine,
)
from evtl.parsing import load_formula
from evtl.simulation import EvolutionEstimate, RandomnessPlan, estimate, run_moments, simulate
from evtl.spaces import DataSpace, FiniteSet, Interval, Penalty, SampleSet, identity_penalty
from evtl.wasserstein import one_sided_wasserstein

from test_simulation import WalkKernel, assert_widths_agree

REPO = Path(__file__).resolve().parents[1]

LEFT = np.array([0.5, 0.4, 0.3, 0.2])
RIGHT = np.array([-1.0, -1.0, 0.35, -1.0])


class HoldKernel:
    """Deterministic kernel: the state never moves."""

    def __init__(self, space: DataSpace):
        self.space = space

    def noise(self, rng: np.random.Generator, out: np.ndarray) -> None:
        out[:] = 0.0

    def advance(self, values: np.ndarray, noise: np.ndarray, out: np.ndarray) -> None:
        out[...] = values[:, None]


def test_hold_kernel_paths_do_not_depend_on_block_width():
    space = DataSpace({"x": Interval(0.0, 1.0), "y": Interval(0.0, 1.0)})
    assert_widths_agree(HoldKernel(space), space.state(x=0.25, y=0.75))


@pytest.fixture
def unit():
    space = DataSpace({"x": Interval(0.0, 1.0)})
    pen = identity_penalty(space, "x", name="px")
    return space, pen


def hold_estimate(space, value=0.5, steps=6, runs=40):
    kernel = HoldKernel(space)
    start = space.state(x=value)
    return estimate(kernel, start, steps, runs, RandomnessPlan(7))


# --- until combinator, frozen by hand --------------------------------------
#
# left  = [0.5, 0.4, 0.3, 0.2], right = [-1, -1, 0.35, -1], window [1,2].
# At i=0 the only positive candidate is offset 2: min(right[2]=0.35,
# left over [1,2) = 0.4) = 0.35. The figure variant also folds left[0]
# and left[2] into the running min, capping the same candidate at 0.3.


def test_until_hand_example_semantics():
    out = until_combine(LEFT, RIGHT, 1, 2, "semantics")
    assert out.tolist() == [0.35, 0.35, -1.0, -1.0]


def test_until_hand_example_figure():
    out = until_combine(LEFT, RIGHT, 1, 2, "figure")
    assert out.tolist() == [0.3, 0.3, -1.0, -1.0]


def test_until_empty_window_scores_bottom():
    out = until_combine(LEFT, RIGHT, 5, 9, "semantics")
    assert out.tolist() == [-1.0] * 4


def test_until_zero_offset_sees_right_directly():
    # at lo=0 the first candidate has an empty left-run, so the result
    # is at least right[i]
    right = np.array([0.2, -0.4, 0.9])
    left = np.full(3, -1.0)
    out = until_combine(left, right, 0, 2, "semantics")
    assert out.tolist() == [0.2, -0.4, 0.9]


def test_until_rejects_mismatched_series():
    with pytest.raises(ValueError):
        until_combine(LEFT, RIGHT[:3], 0, 1)
    with pytest.raises(ValueError):
        until_combine(LEFT, RIGHT, 0, 1, mode="strict")


def scalar_until(left, right, lo, hi, mode):
    """The per-cell Python loop that until_combine replaced, kept as its oracle."""
    k = len(left) - 1
    out = np.full(k + 1, -1.0)
    for i in range(k + 1):
        best = -1.0
        run = 1.0
        if mode == "semantics":
            for j in range(i + lo, min(i + hi, k) + 1):
                best = max(best, min(float(right[j]), run))
                run = min(run, float(left[j]))
        else:
            for j in range(i, min(i + hi, k) + 1):
                run = min(run, float(left[j]))
                if j >= i + lo:
                    best = max(best, min(float(right[j]), run))
        out[i] = best
    return out


# ties and signed zeros are where np.minimum/np.maximum and Python's
# min/max part ways, so the values come mostly from a small pool
_SERIES_VALUE = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0]) | st.floats(-1.0, 1.0)


@settings(max_examples=400, deadline=None)
@given(
    pairs=st.lists(st.tuples(_SERIES_VALUE, _SERIES_VALUE), min_size=1, max_size=14),
    lo=st.integers(0, 16),
    width=st.integers(-1, 16),
    mode=st.sampled_from(["semantics", "figure"]),
)
def test_until_matches_the_scalar_loop_bit_for_bit(pairs, lo, width, mode):
    # lo past the series end, hi past it and empty windows (width -1) included
    left = np.array([a for a, _ in pairs])
    right = np.array([b for _, b in pairs])
    got = until_combine(left, right, lo, lo + width, mode)
    assert got.tobytes() == scalar_until(left, right, lo, lo + width, mode).tobytes()


# the right operand of F and G: the tie pool plus NaN, infinities and values
# outside [-1, 1], which a left of ones caps at 1.0 and floors at -1.0. Each
# series draws from a palette of a few values. Half the palettes hold both
# zeros and nothing above them, so windows whose maximum is a signed zero,
# or a NaN beside the floor, come up often
_RIGHT_VALUE = (
    st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0, np.nan, np.inf, -np.inf, -3.0, 2.5])
    | st.floats(-1.5, 1.5)
)
_NON_POSITIVE = st.sampled_from([-1.0, -0.5, np.nan, -np.inf, -3.0])
_RIGHT_SERIES = (
    st.lists(_RIGHT_VALUE, min_size=1, max_size=5)
    | st.lists(_NON_POSITIVE, max_size=2).map(lambda rest: [-0.0, 0.0, *rest])
).flatmap(lambda palette: st.lists(st.sampled_from(palette), min_size=1, max_size=120))


@settings(max_examples=300, deadline=None)
@given(
    right=_RIGHT_SERIES,
    # narrow windows near the start too, where a signed zero can be a maximum
    lo=st.integers(0, 4) | st.integers(0, 130),
    width=st.integers(-1, 4) | st.integers(-1, 130),
    mode=st.sampled_from(["semantics", "figure"]),
)
def test_until_of_a_true_left_matches_the_scalar_loop_bit_for_bit(right, lo, width, mode):
    # a left of ones takes the sliding-maximum path; windows as wide as the
    # series and lo past its end included
    right = np.array(right)
    left = np.ones(len(right))
    got = until_combine(left, right, lo, lo + width, mode)
    assert got.tobytes() == scalar_until(left, right, lo, lo + width, mode).tobytes()


# --- the one formula walk against recursive oracles ------------------------

_FOLD_STEPS = 12
_FOLD_SPACE = DataSpace({"x": Interval(0.0, 1.0)})
_FOLD_PEN = identity_penalty(_FOLD_SPACE, "x", name="px")
# five atoms with fixed series; signed zeros and ties, so min/max rules show
_FOLD_ATOMS = [
    kind(PointMass((("x", v),)), _FOLD_PEN, 0.25)
    for kind, v in ((Target, 0.0), (Target, 0.5), (Hazard, 0.0), (Hazard, 1.0), (Target, 1.0))
]
_FOLD_TABLE = {
    a: np.random.default_rng(i).choice([-1.0, -0.5, -0.0, 0.0, 0.25, 0.7, 1.0], _FOLD_STEPS + 1)
    for i, a in enumerate(_FOLD_ATOMS)
}


# up to 30 pool steps, each read from four bytes of one draw: a draw per
# choice made generating a DAG cost more than checking it
_STEPS = st.integers(0, 30)


@st.composite
def formula_dags(draw):
    """A formula whose nodes are drawn from a growing pool, so subtrees and atoms repeat.

    Half the steps take the newest node as left child, so the DAG grows deep;
    the rest take any node of the pool, Truth included, so F and G shapes
    over older subtrees come up. The right child is any node of the pool.
    """
    pool = [Truth(), *draw(st.lists(st.sampled_from(_FOLD_ATOMS), min_size=1, max_size=4))]
    steps = draw(_STEPS)
    for code in np.frombuffer(draw(st.binary(min_size=4 * steps, max_size=4 * steps)), ">u4"):
        shape = (3, 2, len(pool), len(pool), 7, 9)
        kind, anywhere, i, j, lo, width = map(
            int, np.unravel_index(int(code) % int(np.prod(shape)), shape)
        )
        left, right = pool[i] if anywhere else pool[-1], pool[j]
        if kind == 0:
            pool.append(Not(left))
        elif kind == 1:
            pool.append(Or(left, right))
        else:
            pool.append(Until(left, right, lo, lo + width))
    return pool[-1]


def _by_identity(oracle):
    """Memoise a recursive oracle by node identity, so it stays linear on a DAG.

    Each entry keeps its node alive, so no later node can reuse its id.
    """
    memo = {}

    def cached(f, *args):
        key = (id(f), *args)
        if key not in memo:
            memo[key] = f, oracle(f, *args)
        return memo[key][1]

    return cached


@_by_identity
def oracle_horizon(f):
    match f:
        case Truth() | Target() | Hazard():
            return 0
        case Not(child=c):
            return oracle_horizon(c)
        case Or(left=l, right=r):
            return max(oracle_horizon(l), oracle_horizon(r))
        case Until(left=l, right=r, hi=hi):
            return hi + max(oracle_horizon(l), oracle_horizon(r))


@_by_identity
def oracle_atoms(f):
    """Depth-first; a repeat is dropped, which keeps the list linear in the DAG."""
    match f:
        case Target() | Hazard():
            return [f]
        case Not(child=c):
            return oracle_atoms(c)
        case Or(left=l, right=r) | Until(left=l, right=r):
            return list(dict.fromkeys(oracle_atoms(l) + oracle_atoms(r)))
    return []


@_by_identity
def oracle_robustness(f, mode):
    match f:
        case Truth():
            return np.ones(_FOLD_STEPS + 1)
        case Target() | Hazard():
            return _FOLD_TABLE[f]
        case Not(child=c):
            return -oracle_robustness(c, mode)
        case Or(left=l, right=r):
            return np.maximum(oracle_robustness(l, mode), oracle_robustness(r, mode))
        case Until(left=l, right=r, lo=lo, hi=hi):
            left, right = oracle_robustness(l, mode), oracle_robustness(r, mode)
            return until_combine(left, right, lo, hi, mode)


@settings(max_examples=200, deadline=None)
@given(formula=formula_dags(), mode=st.sampled_from(["semantics", "figure"]))
# F and G over composites, the shapes the shipped properties use most
@example(formula=eventually(0, 3, Or(_FOLD_ATOMS[0], _FOLD_ATOMS[2])), mode="semantics")
@example(formula=always(1, 4, Until(_FOLD_ATOMS[1], Not(_FOLD_ATOMS[3]), 0, 2)), mode="figure")
def test_fold_matches_the_recursive_walks(formula, mode):
    assert horizon(formula) == oracle_horizon(formula)
    assert atoms(formula) == tuple(dict.fromkeys(oracle_atoms(formula)))
    calls = []
    got = robustness(formula, _FOLD_STEPS, lambda a: calls.append(a) or _FOLD_TABLE[a], mode)
    assert got.values.tobytes() == oracle_robustness(formula, mode).tobytes()
    assert got.formula_horizon == oracle_horizon(formula)
    # each distinct atom is asked for once, however often it occurs
    assert sorted(map(_FOLD_ATOMS.index, calls)) == sorted(map(_FOLD_ATOMS.index, atoms(formula)))


def test_fold_rejects_a_non_formula():
    with pytest.raises(TypeError, match="not a formula"):
        horizon(Not("x"))


def test_until_keeps_python_tie_rules_on_signed_zeros():
    # min(-0.0, run=0.0) keeps -0.0 and max(-1.0, -0.0) takes it
    left = np.array([0.0, 0.0])
    right = np.array([-0.0, 0.0])
    out = until_combine(left, right, 0, 1, "semantics")
    assert out.tobytes() == np.array([-0.0, 0.0]).tobytes()


# --- atom values on a deterministic system ---------------------------------


def test_target_value_is_exact_on_held_state(unit):
    space, pen = unit
    est = hold_estimate(space, 0.5)
    plan = RandomnessPlan(3)
    # reference below the held state: every sample pays 0.5 - 0.0
    far = Target(PointMass((("x", 0.0),)), pen, 0.3)
    assert evaluate(est, far, 8, plan).values.tolist() == [-0.2] * 7
    # reference above: the one-sided distance is zero
    near = Target(PointMass((("x", 1.0),)), pen, 0.3)
    assert evaluate(est, near, 8, plan).values.tolist() == [0.3] * 7


def test_hazard_value_is_exact_on_held_state(unit):
    space, pen = unit
    est = hold_estimate(space, 0.5)
    plan = RandomnessPlan(3)
    above = Hazard(PointMass((("x", 1.0),)), pen, 0.2)
    assert evaluate(est, above, 8, plan).values.tolist() == [0.3] * 7
    below = Hazard(PointMass((("x", 0.0),)), pen, 0.2)
    assert evaluate(est, below, 8, plan).values.tolist() == [-0.2] * 7


def test_hazard_is_not_negated_target(unit):
    # both compare against the same reference, but in opposite directions;
    # on a held state one direction is 0.5 and the other 0
    space, pen = unit
    est = hold_estimate(space, 0.5)
    plan = RandomnessPlan(3)
    ref = PointMass((("x", 0.0),))
    t = evaluate(est, Target(ref, pen, 0.3), 8, plan).values
    h = evaluate(est, Hazard(ref, pen, 0.3), 8, plan).values
    assert not np.array_equal(h, -t)


def test_discount_scales_atom_distance(unit):
    space, pen = unit
    est = hold_estimate(space, 0.5)
    plan = RandomnessPlan(3)
    d = Discount.exponential(0.5)
    atom = Target(PointMass((("x", 0.0),)), pen, 0.3)
    got = evaluate(est, atom, 8, plan, discount=d).values
    want = [0.3 - 0.5**i * 0.5 for i in range(7)]
    assert got == pytest.approx(want, abs=1e-15)


# --- algebra on a genuinely random system ----------------------------------


def stochastic_setup(steps=8, runs=60):
    kernel = WalkKernel()
    space = kernel.space
    pen = identity_penalty(space, "x", name="px")
    est = estimate(kernel, space.state(x=0.5), steps, runs, RandomnessPlan(11))
    a = Target(ProductNormal((("x", 0.4, 0.05),)), pen, 0.6)
    b = Hazard(ProductNormal((("x", 0.9, 0.01),)), pen, 0.3)
    return est, a, b


def test_values_stay_in_unit_band():
    est, a, b = stochastic_setup()
    f = eventually(0, 3, conj(a, Not(b)))
    vals = evaluate(est, f, 12, RandomnessPlan(5)).values
    assert np.all(vals >= -1.0) and np.all(vals <= 1.0)


def test_double_negation_is_bitwise_exact():
    est, a, b = stochastic_setup()
    plan = RandomnessPlan(5)
    f = Or(a, Until(Truth(), b, 0, 3))
    once = evaluate(est, f, 12, plan).values
    twice = evaluate(est, Not(Not(f)), 12, plan).values
    assert np.array_equal(once, twice)


def test_de_morgan_is_bitwise_exact():
    est, a, b = stochastic_setup()
    plan = RandomnessPlan(5)
    va = evaluate(est, a, 12, plan).values
    vb = evaluate(est, b, 12, plan).values
    assert np.array_equal(evaluate(est, Or(a, b), 12, plan).values, np.maximum(va, vb))
    assert np.array_equal(evaluate(est, conj(a, b), 12, plan).values, np.minimum(va, vb))


def test_target_and_hazard_with_equal_fields_stay_distinct():
    # the two atoms share one base record; equality and the fold's cache
    # must still tell them apart by kind
    est, a, _ = stochastic_setup()
    t, h = Target(a.dist, a.penalty, 0.05), Hazard(a.dist, a.penalty, 0.05)
    assert t != h and t == Target(a.dist, a.penalty, 0.05)
    plan = RandomnessPlan(5)
    vt, vh = (evaluate(est, f, 12, plan).values for f in (t, h))
    # each atom leads at some index, so the max differs from both series
    assert np.any(vt > vh) and np.any(vh > vt)
    assert np.array_equal(evaluate(est, Or(t, h), 12, plan).values, np.maximum(vt, vh))
    # printed forms and stream keys as before the atoms shared a base
    assert t.pretty() == "target(normal(x; 0.4, 0.05), px, 0.05)"
    assert h.pretty() == "hazard(normal(x; 0.4, 0.05), px, 0.05)"
    assert content_words(t) == (2008692515, 497809184, 2435581115, 1297196005)
    assert content_words(h) == (934689536, 2809844028, 869518163, 2362105941)


def test_shared_atoms_share_reference_draws():
    # max(v, -v) = |v| only holds when both occurrences of the atom see
    # the same reference samples
    est, a, _ = stochastic_setup()
    plan = RandomnessPlan(5)
    va = evaluate(est, a, 12, plan).values
    vor = evaluate(est, Or(a, Not(a)), 12, plan).values
    assert np.array_equal(vor, np.abs(va))


def test_evaluation_is_reproducible_and_seed_sensitive():
    est, a, b = stochastic_setup()
    f = eventually(0, 4, Or(a, b))
    v1 = evaluate(est, f, 12, RandomnessPlan(5)).values
    v2 = evaluate(est, f, 12, RandomnessPlan(5)).values
    v3 = evaluate(est, f, 12, RandomnessPlan(6)).values
    assert np.array_equal(v1, v2)
    assert not np.array_equal(v1, v3)


def test_evaluate_enforces_run_multiple():
    est, a, _ = stochastic_setup(runs=60)
    with pytest.raises(ValueError):
        evaluate(est, a, 25, RandomnessPlan(0))
    with pytest.raises(ValueError):
        evaluate(est, a, 0, RandomnessPlan(0))


def test_evaluate_validates_variables(unit):
    space, pen = unit
    est = hold_estimate(space)
    stray = Target(ProductNormal((("z", 0.0, 1.0),)), pen, 0.5)
    with pytest.raises(KeyError):
        evaluate(est, stray, 8, RandomnessPlan(0))


# --- batched atom route against the per-index route -------------------------


def per_index_atom(atom, est, base_runs, plan, discount, sample=None):
    """One reference draw and one one-sided distance per time index.

    ``sample(dist, space, n, rng)`` draws one index's reference; it defaults
    to the distribution's own ``sample``.
    """
    sample = sample or (lambda dist, space, n, rng: dist.sample(space, n, rng))
    words = content_words(atom)
    out = np.empty(est.steps + 1)
    for i in range(est.steps + 1):
        rng = plan.substream(1, *words, i)
        if isinstance(atom, Target):
            ref = sample(atom.dist, est.space, base_runs, rng)
            dist = one_sided_wasserstein(ref, est.at(i), atom.penalty, i)
            out[i] = atom.threshold - discount(i) * dist
        else:
            ref = sample(atom.dist, est.space, est.runs, rng)
            dist = one_sided_wasserstein(est.at(i).take(base_runs), ref, atom.penalty, i)
            out[i] = discount(i) * dist - atom.threshold
    return out


DISCOUNTS = [Discount(), Discount.constant(0.7), Discount.exponential(0.9)]


@pytest.mark.parametrize("block_values", [1 << 14, 70])
@pytest.mark.parametrize("ell", [1, 3])
@pytest.mark.parametrize("discount", DISCOUNTS, ids=lambda d: d.spec())
@pytest.mark.parametrize("kind", [Target, Hazard])
def test_atom_series_equals_the_per_index_route(kind, discount, ell, block_values, monkeypatch):
    # 1 << 14 states (like the default, 1 << 13) put the whole horizon in one
    # block; 70 penalty values per block splits it into uneven blocks
    monkeypatch.setattr(monitor, "_BLOCK_VALUES", block_values)
    base_runs = 12
    est, _, _ = stochastic_setup(steps=20, runs=ell * base_runs)
    pen = identity_penalty(est.space, "x", name="px")
    plan = RandomnessPlan(5)
    for dist in (ProductNormal((("x", 0.4, 0.05),)), PointMass((("x", 0.3),))):
        atom = kind(dist, pen, 0.2)
        got = evaluate(est, atom, base_runs, plan, discount).values
        assert np.array_equal(got, per_index_atom(atom, est, base_runs, plan, discount))


def written_out_sample(dist, space, n, rng):
    """One index's reference draws, spelled out draw by draw without blocks.

    The sample holds the reference's own variables, with the space's
    domains. A normal draws its entries in the listed order, n at a time; an
    empirical reference picks n stored rows; every column is clamped into
    its domain.
    """
    own = DataSpace([(var, space.domain(var)) for var in dist.variables()])
    out = np.empty((n, own.dim))
    if isinstance(dist, ProductNormal):
        for j, (var, mean, variance) in enumerate(dist.entries):
            draws = mean + np.sqrt(variance) * rng.standard_normal(n)
            out[:, j] = own.domains[j].clamp_array(draws)
    else:
        rows = rng.choice(len(dist.samples), size=n, replace=True, p=dist.weights)
        for j in range(own.dim):
            out[:, j] = own.domains[j].clamp_array(dist.samples.values[rows, j])
    return SampleSet(own, out)


# x on an interval, g on a finite set, y on a wider interval
MIXED = DataSpace([("x", Interval(0.0, 1.0)), ("g", FiniteSet((0.0, 0.3, 0.6, 1.0))),
                   ("y", Interval(-1.0, 1.0))])
# stored rows partly outside the domains, so resampled values are clamped
STORED = np.array([[0.1, 0.2, 0.9], [0.45, 0.7, -1.5], [1.7, 0.5, 0.2], [0.8, 0.0, 0.35]])
STORED_SPACE = DataSpace([(n, Interval(-2.0, 2.0)) for n in MIXED.names])
# columns y and x only, in that order: no reference value of g exists
SUBSET = SampleSet(DataSpace([("y", Interval(-2.0, 2.0)), ("x", Interval(-2.0, 2.0))]),
                   STORED[:, [2, 0]])
BLOCK_DISTS = {
    # two entries listed against the space order, one on the finite domain
    "normal-2d": (MIXED.names[:2], ProductNormal((("g", 0.4, 0.09), ("x", 0.5, 0.04)))),
    # y and x sit at other positions here than in the space and in DIFF_VARIABLES
    "normal-3d": (
        MIXED.names,
        ProductNormal((("x", 0.3, 0.04), ("y", 0.6, 0.2), ("g", 0.4, 0.09))),
    ),
    "empirical": (MIXED.names, EmpiricalRef(SampleSet(STORED_SPACE, STORED))),
    "empirical-weighted": (
        MIXED.names,
        EmpiricalRef(SampleSet(STORED_SPACE, STORED), weights=[0.1, 0.5, 0.15, 0.25]),
    ),
    "empirical-subset": (MIXED.names, EmpiricalRef(SUBSET)),
}


# an asymmetric penalty reads these in this order, against the space's order
DIFF_VARIABLES = {MIXED.names: ("y", "x"), MIXED.names[:2]: ("g", "x")}


def mixed_estimate(names, steps, runs):
    """Uniform states on the first ``names`` of the mixed space, snapped into their domains."""
    space = DataSpace([(n, MIXED.domain(n)) for n in names])
    raw = np.random.default_rng(23).uniform(-1.2, 1.2, size=(steps + 1, runs, space.dim))
    for j, dom in enumerate(space.domains):
        raw[:, :, j] = dom.clamp_array(raw[:, :, j])
    return EvolutionEstimate(space, raw)


@pytest.mark.parametrize("block_values", [monitor._BLOCK_VALUES, 70])
@pytest.mark.parametrize("ell", [1, 3])
@pytest.mark.parametrize("kind", [Target, Hazard])
@pytest.mark.parametrize("case", sorted(BLOCK_DISTS))
def test_block_draws_equal_written_out_draws(case, kind, ell, block_values, monkeypatch):
    monkeypatch.setattr(monitor, "_BLOCK_VALUES", block_values)
    names, dist = BLOCK_DISTS[case]
    est = mixed_estimate(names, steps=20, runs=ell * 12)
    # the average reads every variable that both the estimate and the reference hold
    shared = tuple(v for v in names if v in dist.variables())
    avg = Penalty("avg", shared, lambda rows, tau: rows.mean(axis=0))
    diff = Penalty("diff", DIFF_VARIABLES[names], lambda rows, tau: rows[0] - rows[1])
    plan, discount = RandomnessPlan(5), Discount.exponential(0.9)
    for pen in (avg, diff):
        atom = kind(dist, pen, 0.2)
        got = evaluate(est, atom, 12, plan, discount).values
        want = per_index_atom(atom, est, 12, plan, discount, written_out_sample)
        assert np.array_equal(got, want)


# (case, requested variables); None asks for every variable of the space
# that the reference constrains, in the space's order
SAMPLE_BLOCK_CASES = {case: (case, None) for case in BLOCK_DISTS} | {
    # the normal's first entry is not read, but its draws are still taken
    "normal-2d-x": ("normal-2d", ("x",)),
    "normal-3d-y-x": ("normal-3d", ("y", "x")),
    # one of the two stored columns, and only it is gathered
    "empirical-subset-x": ("empirical-subset", ("x",)),
}


@pytest.mark.parametrize("case", sorted(SAMPLE_BLOCK_CASES))
def test_sample_block_rows_are_one_generator_each(case):
    case, variables = SAMPLE_BLOCK_CASES[case]
    names, dist = BLOCK_DISTS[case]
    space = mixed_estimate(names, 0, 1).space
    variables = variables or tuple(v for v in space.names if v in dist.variables())
    rngs = [np.random.default_rng(s) for s in range(4)]
    block = dist.sample_block(space, 9, iter(rngs), variables)
    written = [np.random.default_rng(s) for s in range(4)]
    samples = [written_out_sample(dist, space, 9, rng) for rng in written]
    want = np.stack([ss.values for ss in samples])
    assert block.shape == (len(variables), 4, 9)
    assert np.array_equal(block, samples[0].space.rows(want, variables))
    # each generator is left where the written-out route leaves it
    assert [rng.random() for rng in rngs] == [rng.random() for rng in written]


def test_point_mass_atom_is_sampled_once_without_streams(monkeypatch):
    est, _, _ = stochastic_setup(steps=15, runs=24)
    pen = identity_penalty(est.space, "x", name="px")
    plan = RandomnessPlan(5)
    pair = [kind(PointMass((("x", 0.6),)), pen, 0.1) for kind in (Target, Hazard)]
    want = [per_index_atom(a, est, 12, plan, Discount()) for a in pair]
    streams = []
    for name in ("substream", "substreams"):
        real = getattr(RandomnessPlan, name)
        record = lambda self, *k, real=real: streams.append(k) or real(self, *k)  # noqa: E731
        monkeypatch.setattr(RandomnessPlan, name, record)
    for atom, series in zip(pair, want):
        assert np.array_equal(evaluate(est, atom, 12, plan).values, series)
    assert streams == []


@pytest.mark.parametrize("vectorised", [True, False])
def test_time_dependent_penalty_sees_each_rows_tau(vectorised, monkeypatch):
    # 40 states per block and 20 runs: two time indices per block
    monkeypatch.setattr(monitor, "_BLOCK_VALUES", 40)
    est, _, _ = stochastic_setup(steps=12, runs=20)
    if vectorised:
        fn = lambda rows, tau: rows[0] * (tau + 1) / 13  # noqa: E731
    else:
        # a scalar rule lifted elementwise: it sees one (x, tau) pair at a time
        lifted = np.vectorize(lambda x, tau: x * (int(tau) + 1) / 13, otypes=[np.float64])
        fn = lambda rows, tau: lifted(rows[0], tau)  # noqa: E731
    late = Penalty("late", ("x",), fn)
    plan = RandomnessPlan(9)
    for dist in (ProductNormal((("x", 0.5, 0.05),)), PointMass((("x", 0.2),))):
        for atom in (Target(dist, late, 0.3), Hazard(dist, late, 0.1)):
            got = evaluate(est, atom, 10, plan, Discount.exponential(0.95)).values
            want = per_index_atom(atom, est, 10, plan, Discount.exponential(0.95))
            assert np.array_equal(got, want)


# --- series bookkeeping -----------------------------------------------------


def test_reliability_window():
    s = RobustnessSeries(np.zeros(11), formula_horizon=4)
    assert s.steps == 10
    assert s.reliable_steps == 7
    assert s.reliable_mask.tolist() == [True] * 7 + [False] * 4
    assert RobustnessSeries(np.zeros(3), formula_horizon=9).reliable_steps == 0


def test_check_formula_defaults_steps_to_horizon(unit):
    space, pen = unit
    f = eventually(0, 5, Target(PointMass((("x", 1.0),)), pen, 0.4))
    res = check_formula(HoldKernel(space), space.state(x=0.5), f, 10, 3, RandomnessPlan(1))
    assert res.steps == horizon(f) == 5
    est = estimate(HoldKernel(space), space.state(x=0.5), 5, 30, RandomnessPlan(1))
    assert np.array_equal(res.values, evaluate(est, f, 10, RandomnessPlan(1)).values)
    assert res.reliable_steps == 1
    assert res.value == 0.4
    assert res.satisfied is True


def test_check_formula_sign_verdicts(unit):
    space, pen = unit
    bad = Target(PointMass((("x", 0.0),)), pen, 0.2)
    res = check_formula(HoldKernel(space), space.state(x=0.5), bad, 10, 1, RandomnessPlan(1))
    assert res.value == pytest.approx(-0.3)
    assert res.satisfied is False
    res0 = check_formula(HoldKernel(space), space.state(x=0.5), Or(bad, Not(bad)), 10, 1, RandomnessPlan(1))
    assert res0.value == 0.3  # |v|, not a tie
    with pytest.raises(ValueError):
        check_formula(HoldKernel(space), space.state(x=0.5), bad, 10, 0, RandomnessPlan(1))


def test_check_formula_rejects_a_penalty_that_scores_nan(unit):
    # a NaN series used to read as unsatisfied for a formula and its negation
    space, _ = unit
    pen = Penalty("hole", ("x",), lambda rows, tau: np.where(rows[0] > 0.7, np.nan, rows[0]))
    atom = Target(PointMass((("x", 1.0),)), pen, 0.2)
    for f in (atom, Not(atom), eventually(0, 5, atom)):
        with pytest.raises(ValueError, match="penalty 'hole' returned NaN"):
            check_formula(HoldKernel(space), space.state(x=0.5), f, 10, 1, RandomnessPlan(1))


def walk_case():
    """Normal, point-mass and empirical references on the walk; one atom occurs twice."""
    kernel = WalkKernel()
    pen = identity_penalty(kernel.space, "x", name="px")
    stored = SampleSet(kernel.space, np.array([[0.2], [0.45], [0.8]]))
    twice = Target(ProductNormal((("x", 0.4, 0.05),)), pen, 0.2)
    settle = eventually(0, 3, conj(twice, Not(Hazard(PointMass((("x", 0.9),)), pen, 0.3))))
    reach = Until(
        Target(EmpiricalRef(stored), pen, 0.1),
        Hazard(ProductNormal((("x", 0.7, 0.02),)), pen, 0.25),
        1,
        4,
    )
    return kernel, kernel.space.state(x=0.5), Or(Or(settle, reach), Not(twice))


def chain_case():
    chain = load_chain(str(REPO / "chains" / "drift.json"))
    pen, x = chain.penalty, chain.variable
    twice = Target(ProductNormal(((x, 0.5, 0.09),)), pen, 0.4)
    f = Or(Until(twice, Hazard(PointMass(((x, 1.0),)), pen, 0.5), 0, 5), Not(twice))
    return ChainKernel(chain), chain.initial_state(), f


def tank_case():
    """Six state variables, so a block's states are (6, width, runs)."""
    kernel, initial, penalties = build_model(
        load_config(str(REPO / "presets" / "three-tanks-scenario-1.cfg"))
    )
    path = REPO / "properties" / "recover-from-overflow-risk.evtl"
    return kernel, initial, load_formula(str(path), penalties, kernel.space)


@pytest.mark.parametrize("preset", ["three-tanks-scenario-1", "three-tanks-scenario-2"])
def test_overflow_hazards_hold_at_time_0_from_the_empty_plant(preset):
    # an empty tank is as far from overflow as a level can be, so no hazard
    # of the shipped overflow property may flag it
    kernel, initial, penalties = build_model(load_config(str(REPO / "presets" / f"{preset}.cfg")))
    path = REPO / "properties" / "recover-from-overflow-risk.evtl"
    formula = load_formula(str(path), penalties, kernel.space)
    hazards = [a for a in atoms(formula) if isinstance(a, Hazard)]
    assert len(hazards) == 3 and initial.values[:3] == (0.0, 0.0, 0.0)
    for a in hazards:
        assert check_formula(kernel, initial, a, 100, 2, RandomnessPlan(42), 0).value > 0.0


def tank_diff_case():
    """An asymmetric penalty on l3 and l1; rho2 is read by a hazard only."""
    kernel, initial, penalties = build_model(
        load_config(str(REPO / "presets" / "three-tanks-scenario-1.cfg"))
    )
    # l3 and l1 sit at other positions here than in the space and in the normal
    diff = Penalty("diff", ("l3", "l1"), lambda rows, tau: (rows[0] - rows[1]) / 4 + 0.5)
    normal = ProductNormal((("l2", 1.0, 0.3), ("l1", 1.5, 0.4), ("l3", 1.0, 0.2)))
    near = Target(normal, diff, 0.2)
    f = Or(
        Until(near, Hazard(normal, diff, 0.1), 0, 6),
        Not(Hazard(PointMass((("l2", 2.0),)), penalties["rho2"], 0.3)),
    )
    return kernel, initial, Or(f, Not(near))


STREAM_CASES = {
    "walk": walk_case,
    "chain": chain_case,
    "tanks": tank_case,
    "tanks-diff": tank_diff_case,
}


@pytest.mark.parametrize("width", [1, 4, 64], ids=["width-1", "width-4", "one-block"])
@pytest.mark.parametrize("ell", [1, 3])
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_streamed_check_equals_evaluate_on_the_stored_estimate(case, ell, width, monkeypatch):
    kernel, initial, formula = STREAM_CASES[case]()
    base_runs, steps, plan, discount = 8, 20, RandomnessPlan(13), Discount.exponential(0.9)
    est = estimate(kernel, initial, steps, ell * base_runs, plan)
    want = evaluate(est, formula, base_runs, plan, discount)
    # width time indices per block: 4 does not divide the 21 indices, 64 holds them all
    monkeypatch.setattr(monitor, "_BLOCK_VALUES", width * ell * base_runs)
    got = check_formula(kernel, initial, formula, base_runs, ell, plan, steps, discount)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.formula_horizon == want.formula_horizon


def test_check_memory_stays_below_a_stored_estimate():
    # numpy reports its buffers to tracemalloc, so the peak counts every array
    kernel, initial, formula = tank_case()
    runs, ell, steps = 400, 10, 150
    stored = (steps + 1) * ell * runs * kernel.space.dim * 8
    tracemalloc.start()
    try:
        check_formula(kernel, initial, formula, runs, ell, RandomnessPlan(42), steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stored / 3, f"traced peak {peak} bytes against a {stored}-byte estimate"


class NoNoiseKernel(HoldKernel):
    """Fails the test if any run's noise is drawn."""

    def noise(self, rng, out):
        raise AssertionError("noise was drawn")


def test_check_formula_rejects_bad_input_before_drawing_noise():
    space = DataSpace({"x": Interval(0.0, 1.0), "y": Interval(0.0, 1.0)})
    pen = identity_penalty(space, "x", name="px")
    kernel, start = NoNoiseKernel(space), space.state(x=0.5, y=0.5)
    ok = Target(PointMass((("x", 1.0),)), pen, 0.4)
    with pytest.raises(ValueError, match="oversampling ratio must be >= 1"):
        check_formula(kernel, start, ok, 10, 0, RandomnessPlan(1))
    with pytest.raises(ValueError, match="need at least one reference run"):
        check_formula(kernel, start, ok, 0, 3, RandomnessPlan(1))
    with pytest.raises(KeyError):
        stray = Target(ProductNormal((("z", 0.0, 1.0),)), pen, 0.5)
        check_formula(kernel, start, stray, 10, 3, RandomnessPlan(1))
    with pytest.raises(ValueError, match="does not constrain"):
        floor = Target(PointMass((("y", 1.0),)), pen, 0.4)
        check_formula(kernel, start, Or(ok, floor), 10, 3, RandomnessPlan(1))


def overflow_case():
    """Preset 1 with a finite gravity of 1e308, which passes the config checks."""
    cfg = load_config(str(REPO / "presets" / "three-tanks-scenario-1.cfg"))
    kernel, initial, penalties = build_model(apply_setting(cfg, "tanks.gravity", "1e308"))
    path = REPO / "properties" / "recover-from-overflow-risk.evtl"
    return kernel, initial, load_formula(str(path), penalties, kernel.space)


OVERFLOW_CALLS = {
    "simulate": lambda k, x0, f: simulate(k, x0, 5, np.random.default_rng(1)),
    "estimate": lambda k, x0, f: estimate(k, x0, 5, 8, RandomnessPlan(1)),
    "run_moments": lambda k, x0, f: run_moments(k, x0, 5, 8, RandomnessPlan(1)),
    "check_formula": lambda k, x0, f: check_formula(k, x0, f, 4, 2, RandomnessPlan(1), 5),
}


@pytest.mark.parametrize("call", sorted(OVERFLOW_CALLS))
def test_overflow_raises_and_restores_the_error_state(call):
    # the level clamp would turn the NaN flows into bounds and a confident verdict
    before = np.geterr()
    with pytest.raises(FloatingPointError):
        OVERFLOW_CALLS[call](*overflow_case())
    assert np.geterr() == before


def test_save_series_format():
    s = RobustnessSeries(np.array([0.25, -1.0, 0.5]), formula_horizon=1)
    buf = io.StringIO()
    save_series(buf, s)
    assert buf.getvalue().splitlines() == [
        "time,robustness,reliable",
        "0,0.25,1",
        "1,-1,1",
        "2,0.5,0",
    ]
