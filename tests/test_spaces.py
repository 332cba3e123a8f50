import numpy as np
import pytest
from hypothesis import given, strategies as st

from evtl.spaces import (
    DataSpace,
    DataState,
    FiniteSet,
    Interval,
    Penalty,
    SampleSet,
    identity_penalty,
    load_samples,
    penalty_gap,
    save_samples,
)


def test_interval_contains_and_clamp():
    dom = Interval(-1.0, 2.0)
    assert dom.contains(-1.0) and dom.contains(2.0) and dom.contains(0.3)
    assert not dom.contains(2.0000001)
    assert dom.clamp(5.0) == 2.0
    assert dom.clamp(-5.0) == -1.0
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(0.0, float("inf"))


def test_finite_set_sorts_and_snaps():
    dom = FiniteSet((2.0, 0.0, 1.0))
    assert dom.values == (0.0, 1.0, 2.0)
    assert dom.contains(1.0) and not dom.contains(0.5001)
    # ties snap to the lower value
    assert dom.clamp(0.5) == 0.0
    assert dom.clamp(0.51) == 1.0
    assert list(dom.clamp_array(np.array([-3.0, 0.6, 9.0]))) == [0.0, 1.0, 2.0]
    with pytest.raises(ValueError):
        FiniteSet((1.0, 1.0))


def test_space_state_construction():
    space = DataSpace({"a": Interval(0, 1), "b": FiniteSet((0.0, 2.0))})
    d = space.state(a=0.5, b=2.0)
    assert d["a"] == 0.5 and d["b"] == 2.0
    with pytest.raises(ValueError):
        space.state(a=1.5, b=0.0)  # out of domain
    with pytest.raises(KeyError):
        space.state(a=0.5)  # missing b
    with pytest.raises(KeyError):
        space.state(a=0.5, b=0.0, c=1.0)
    assert d == space.state(a=0.5, b=2.0)
    assert hash(d) == hash(space.state(a=0.5, b=2.0))


def test_space_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        DataSpace([("a", Interval(0, 1)), ("a", Interval(0, 1))])
    with pytest.raises(ValueError):
        DataSpace({})


def test_penalty_clamps_into_unit_interval():
    pen = Penalty("p", ("x",), lambda rows, tau: rows[0])
    assert pen.project(np.array([[5.0, -5.0, 0.25]])).tolist() == [1.0, 0.0, 0.25]
    # any leading shape after the variable axis, as long as the scores keep it
    assert pen.project(np.array([[[5.0, 0.5]]])).tolist() == [[1.0, 0.5]]
    with pytest.raises(ValueError, match="shape"):
        Penalty("bad", ("x",), lambda rows, tau: rows).project(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="reads 1 variables, got 2 rows"):
        pen.project(np.zeros((2, 3)))


def test_penalty_rejects_a_nan_score():
    pen = Penalty("hole", ("x",), lambda rows, tau: np.where(rows[0] > 0.7, np.nan, rows[0]))
    assert pen.project(np.array([[0.5, 0.7]])).tolist() == [0.5, 0.7]
    with pytest.raises(ValueError, match="penalty 'hole' returned NaN"):
        pen.project(np.array([[0.5, 0.75]]))


def test_penalty_rows_follow_its_own_variable_order():
    space = DataSpace({"x": Interval(0.0, 1.0), "y": Interval(0.0, 1.0), "z": Interval(0.0, 1.0)})
    states = np.array([[0.75, 0.1, 1.0], [0.25, 0.6, 0.0]])
    rows = space.rows(states, ("z", "x"))
    assert rows.tolist() == [[1.0, 0.0], [0.75, 0.25]]
    # the leading shape follows the variable axis
    assert space.rows(states[None], ("y",)).shape == (1, 1, 2)
    diff = Penalty("diff", ("z", "x"), lambda rows, tau: rows[0] - rows[1] + 0.5)
    assert diff.project(rows).tolist() == [0.75, 0.25]
    with pytest.raises(KeyError):
        space.rows(states, ("w",))


def test_time_dependent_penalty_receives_tau():
    pen = Penalty("late", ("x",), lambda rows, tau: np.where(tau >= 5, rows[0], 0.0))
    rows = np.array([[0.75, 0.5]])
    assert pen.project(rows, 0).tolist() == [0.0, 0.0]
    assert pen.project(rows, 7).tolist() == [0.75, 0.5]
    # a (T, 1) column of time indices scores the (1, T, n) rows at their own times
    block = np.broadcast_to(rows[:, None], (1, 3, 2))
    assert pen.project(block, np.array([[0], [5], [9]])).tolist() == [
        [0.0, 0.0], [0.75, 0.5], [0.75, 0.5]
    ]


def test_sample_set_row_order_and_take(unit_space):
    ss = SampleSet(unit_space, np.array([[0.1], [0.9], [0.5]]))
    assert len(ss) == 3
    assert ss.state(1)["x"] == 0.9
    assert ss.column("x").tolist() == [0.1, 0.9, 0.5]
    assert ss.take(2).column("x").tolist() == [0.1, 0.9]
    with pytest.raises(ValueError):
        ss.take(4)


def test_sample_csv_round_trip(tmp_path, unit_space):
    ss = SampleSet(unit_space, np.array([[0.25], [0.7500000000000001], [1.0 / 3.0]]))
    path = tmp_path / "samples.csv"
    save_samples(str(path), ss)
    # the inferred domains cover the data
    inferred = load_samples(str(path))
    assert inferred.space.names == ("x",)
    np.testing.assert_array_equal(inferred.values, ss.values)


# --- hemimetric laws -------------------------------------------------------

finite_vals = st.floats(0.0, 1.0, allow_nan=False)


@given(finite_vals, finite_vals, finite_vals)
def test_penalty_gap_hemimetric_laws(a, b, c):
    space = DataSpace({"x": Interval(0.0, 1.0)})
    pen = identity_penalty(space, "x")
    da, db, dc = (space.state(x=v) for v in (a, b, c))
    # identity of indiscernibles, one direction
    assert penalty_gap(pen, da, da) == 0.0
    # non-negativity
    assert penalty_gap(pen, da, db) >= 0.0
    # triangle inequality
    assert penalty_gap(pen, da, db) <= penalty_gap(pen, da, dc) + penalty_gap(pen, dc, db) + 1e-12


def test_penalty_gap_is_asymmetric():
    space = DataSpace({"x": Interval(0.0, 1.0)})
    pen = identity_penalty(space, "x")
    lo, hi = space.state(x=0.2), space.state(x=0.9)
    assert penalty_gap(pen, lo, hi) == pytest.approx(0.7)
    assert penalty_gap(pen, hi, lo) == 0.0
