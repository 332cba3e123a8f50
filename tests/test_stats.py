import io
from pathlib import Path

import numpy as np
import pytest

from evtl.config import build_model, load_config
from evtl.simulation import EvolutionEstimate, RandomnessPlan, Simulation, estimate, run_moments
from evtl.spaces import DataSpace, Interval
from evtl.stats import SWEEP_RUNS, error_report, error_reports, save_error_report

from test_simulation import WalkKernel

REPO = Path(__file__).resolve().parents[1]


def fixed_estimate(rows):
    """Estimate holding the given (steps+1, runs) values of one variable x."""
    arr = np.asarray(rows, dtype=float)[:, :, None]
    space = DataSpace({"x": Interval(-100.0, 100.0)})
    return EvolutionEstimate(space, arr)


def test_moments_frozen_two_runs():
    # runs {9, 11}: mean 10, sample std sqrt(2), stderr exactly 1
    rep = error_report(fixed_estimate([[9.0, 11.0]]))
    assert rep.mean[0, 0] == 10.0
    assert rep.std[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert rep.stderr[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert np.isnan(rep.z[0, 0])


def test_z_scores_against_reference():
    rep = error_report(fixed_estimate([[9.0, 11.0], [5.0, 5.0]]), np.array([[12.0], [5.0]]))
    # (10 - 12) / 1 = -2: outside the 95% band
    assert rep.z[0, 0] == pytest.approx(-2.0)
    assert rep.within95[0, 0] == 0.0
    # zero spread leaves z undefined even with a reference
    assert np.isnan(rep.z[1, 0]) and np.isnan(rep.within95[1, 0])
    assert rep.fraction_within() == 0.0
    rep2 = error_report(fixed_estimate([[9.0, 11.0]]), np.array([[10.5]]))
    assert rep2.z[0, 0] == pytest.approx(-0.5)
    assert rep2.fraction_within("x") == 1.0


def test_reference_shape_is_checked():
    with pytest.raises(ValueError):
        error_report(fixed_estimate([[9.0, 11.0]]), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        error_report(fixed_estimate([[9.0]]))


def test_fraction_within_requires_defined_scores():
    rep = error_report(fixed_estimate([[9.0, 11.0]]))
    with pytest.raises(ValueError):
        rep.fraction_within()


def test_report_matches_streaming_moments():
    kernel = WalkKernel()
    start = kernel.space.state(x=0.5)
    sim = Simulation(kernel, start, 5, 300, RandomnessPlan(1))
    rep = error_report(estimate(sim))
    s_mean = run_moments(sim)
    assert rep.mean == pytest.approx(s_mean, abs=1e-12)


def _system(name: str):
    """A dim-1 walk, or the six-variable scenario-2 tank system."""
    if name == "walk":
        kernel = WalkKernel()
        return kernel, kernel.space.state(x=0.5)
    cfg = load_config(str(REPO / "presets" / "three-tanks-scenario-2.cfg"))
    kernel, initial, _ = build_model(cfg)
    return kernel, initial


# (runs, first n read, steps): one block or several, a whole source or its first n runs
# as the stats sweep reads them, and a last block that is shorter than the others
@pytest.mark.parametrize("runs, n, steps", [(300, 300, 40), (300, 120, 40), (1100, 1024, 12)])
@pytest.mark.parametrize("system", ["walk", "tanks"])
def test_report_of_a_simulation_is_the_report_of_its_estimate(system, runs, n, steps):
    sim = Simulation(*_system(system), steps, runs, RandomnessPlan(6))
    est = estimate(sim)
    # the moments over the stored runs, as numpy reduces a (steps+1, n, dim) array
    stored = est.values[:, :n]
    for source in (sim, est):
        rep = error_report(next(source.split(n)))
        assert rep.mean.tobytes() == stored.mean(axis=1).tobytes()
        assert rep.std.tobytes() == stored.std(axis=1, ddof=1).tobytes()


# (runs, counts, steps): blocks of several steps, one block for the whole series, and
# one-step blocks (8192 runs or more), where numpy sums a dim-1 column pairwise
@pytest.mark.parametrize(
    "runs, counts, steps",
    [(1100, (2, 100, 1024, 1100), 40), (500, (3, 250, 500), 12), (9000, (2, 8192, 9000), 6)],
)
@pytest.mark.parametrize("system", ["walk", "tanks"])
def test_each_count_is_the_report_of_that_many_stored_runs(system, runs, counts, steps):
    sim = Simulation(*_system(system), steps, runs, RandomnessPlan(8))
    est = estimate(sim)
    reference = est.values.mean(axis=1) + 0.01
    for source in (sim, est):
        for n, rep in zip(counts, error_reports(source, counts, reference), strict=True):
            want = error_report(next(est.split(n)), reference)
            for got, expected in zip(vars(rep).values(), vars(want).values()):
                assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
            # and as numpy reduces the stored (steps+1, n, dim) array
            assert rep.mean.tobytes() == est.values[:, :n].mean(axis=1).tobytes()
            assert rep.std.tobytes() == est.values[:, :n].std(axis=1, ddof=1).tobytes()


def test_error_reports_needs_two_to_all_runs():
    sim = Simulation(WalkKernel(), WalkKernel().space.state(x=0.5), 3, 10, RandomnessPlan(0))
    for counts in [(1,), (2, 1), (0, 5), (11,), (5, 11)]:
        with pytest.raises(ValueError):
            error_reports(sim, counts)
    assert [r.mean.shape for r in error_reports(sim, (2, 10))] == [(4, 1), (4, 1)]


def test_stderr_shrinks_with_run_count():
    kernel = WalkKernel()
    start = kernel.space.state(x=0.5)
    small = error_report(estimate(Simulation(kernel, start, 4, 500, RandomnessPlan(2))))
    large = error_report(estimate(Simulation(kernel, start, 4, 2000, RandomnessPlan(2))))
    # 4x the runs should halve the standard error, up to sampling noise
    ratio = small.stderr[1:] / large.stderr[1:]
    assert np.median(ratio) == pytest.approx(2.0, rel=0.2)


def test_sweep_runs_are_increasing():
    assert list(SWEEP_RUNS) == sorted(SWEEP_RUNS)
    assert len(set(SWEEP_RUNS)) == len(SWEEP_RUNS)


def test_save_error_report_format():
    rep = error_report(fixed_estimate([[9.0, 11.0], [5.0, 5.0]]), np.array([[12.0], [5.0]]))
    buf = io.StringIO()
    save_error_report(buf, rep)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "time,variable,mean,stddev,stderr,z,within95"
    assert lines[1] == "0,x,10,1.4142135623730951,1,-2,0"
    # undefined z leaves both trailing columns blank
    assert lines[2] == "1,x,5,0,0,,"
    assert len(lines) == 3
