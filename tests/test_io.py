"""The batched CSV writer prints the bytes of per-value formatting.

Every writer used to format one value at a time with
``",".join("%.17g" % x for x in row)`` and write one line per row. Those
loops are kept here as oracles; the batched writer must match them byte for
byte, across one row, one block and many blocks.
"""

from __future__ import annotations

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evtl._io import BLOCK_ROWS, write_csv
from evtl.simulation import EvolutionEstimate, save_estimate
from evtl.spaces import DataSpace, Interval
from evtl.stats import ErrorReport, save_error_report

EDGE = [
    0.0,
    -0.0,
    np.inf,
    -np.inf,
    np.nan,
    5e-324,
    1e308,
    2.0**53 + 1.0,
    0.1 + 0.2,
    1 / 3,
    -2.2250738585072014e-308,
    9.8765432109876543e-5,
]

floats = st.one_of(st.sampled_from(EDGE), st.floats(allow_nan=True, allow_infinity=True))


def oracle_timed(values: np.ndarray) -> str:
    """A time column, then every value through ``%.17g``, one line per row."""
    lines = ["time," + ",".join(f"v{c}" for c in range(values.shape[1])) + "\n"]
    for i, row in enumerate(values):
        lines.append(str(i) + "," + ",".join("%.17g" % x for x in row) + "\n")
    return "".join(lines)


def batched_timed(values: np.ndarray, rows: int) -> str:
    """The same table through ``write_csv``, handed over ``rows`` rows a block."""
    buf = io.StringIO()
    header = ("time", *(f"v{c}" for c in range(values.shape[1])))
    time = np.arange(len(values))
    blocks = [(time[a : a + rows], values[a : a + rows]) for a in range(0, len(values), rows)]
    write_csv(buf, header, "%d" + ",%.17g" * values.shape[1], blocks)
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    values=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.integers(1, 4)),
        elements=floats,
    ),
    rows=st.integers(1, 50),
)
def test_batched_rows_equal_per_value_formatting(values, rows):
    # rows >= len(values) is one block, fewer is several, one row is one row
    assert batched_timed(values, rows) == oracle_timed(values)


def test_edge_values_in_one_row_one_block_and_many_blocks():
    values = np.array(EDGE).reshape(-1, 3)
    for data, rows in ((values[:1], 1), (values, BLOCK_ROWS), (values, 1), (values, 3)):
        assert batched_timed(data, rows) == oracle_timed(data)
    # one block handed over, cut into several by the writer
    long = np.tile(values, (BLOCK_ROWS, 1))
    assert batched_timed(long, len(long)) == oracle_timed(long)
    assert "-0," in oracle_timed(values) and "4.9406564584124654e-324" in oracle_timed(values)


def test_estimate_rows_equal_the_per_value_loop():
    space = DataSpace([("a", Interval(-1.0, 1.0)), ("b", Interval(0.0, 2.0))])
    rng = np.random.default_rng(4)
    # more rows per run than one block, with time numbers past 1000
    values = rng.random((BLOCK_ROWS + 30, 3, 2))
    values.flat[: len(EDGE)] = EDGE
    est = EvolutionEstimate(space, values)
    want = ["run,time,a,b\n"]
    for j in range(est.runs):
        for i in range(est.steps + 1):
            row = ",".join("%.17g" % x for x in est.values[i, j])
            want.append(f"{j},{i},{row}\n")
    buf = io.StringIO()
    save_estimate(buf, est)
    assert buf.getvalue() == "".join(want)


def oracle_error_report(report: ErrorReport) -> str:
    """The per-row stats writer: blank z and within95 where z is NaN."""
    out = ["time,variable,mean,stddev,stderr,z,within95\n"]
    w95 = report.within95
    for t in range(report.steps + 1):
        for j, name in enumerate(report.names):
            zval = report.z[t, j]
            if np.isnan(zval):
                ztxt, wtxt = "", ""
            else:
                ztxt = "%.17g" % zval
                wtxt = "%d" % int(w95[t, j])
            out.append(
                "%d,%s,%.17g,%.17g,%.17g,%s,%s\n"
                % (t, name, report.mean[t, j], report.std[t, j], report.stderr[t, j], ztxt, wtxt)
            )
    return "".join(out)


def error_report_with(z: np.ndarray, rng: np.random.Generator) -> ErrorReport:
    mean, std = rng.normal(size=z.shape), rng.random(z.shape)
    return ErrorReport(("x", "level"), 9, mean, std, std / 3, z, None)


def test_error_report_with_nan_z_over_several_blocks():
    rng = np.random.default_rng(2)
    steps = BLOCK_ROWS  # two variables per time: more rows than one block
    z = rng.normal(scale=2.0, size=(steps + 1, 2))
    z[::7, 0] = np.nan
    z[1, :] = np.nan
    z[2] = (-0.0, 1.96)
    report = error_report_with(z, rng)
    buf = io.StringIO()
    save_error_report(buf, report)
    text = buf.getvalue()
    assert text == oracle_error_report(report)
    assert text.splitlines()[3].endswith(",,")


@settings(max_examples=100, deadline=None)
@given(
    z=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(2)), elements=floats),
    seed=st.integers(0, 2**16),
)
def test_error_report_rows_equal_the_per_row_loop(z, seed):
    report = error_report_with(z, np.random.default_rng(seed))
    buf = io.StringIO()
    save_error_report(buf, report)
    assert buf.getvalue() == oracle_error_report(report)
