"""The batched CSV writer prints the bytes of per-value formatting.

Every writer used to format one value at a time with
``",".join("%.17g" % x for x in row)`` and write one line per row. Those
loops are kept here as oracles; the array formatter must match them byte
for byte, across one row, one block and many blocks, in the kernel's domain,
on its boundaries and in the cells it hands to ``%`` one at a time.
"""

from __future__ import annotations

import io
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evtl._io import _POW10, BLOCK_ROWS, _exponent, _tables, write_csv
from evtl.config import RunConfig, build_model, load_config
from evtl.simulation import EvolutionEstimate, RandomnessPlan, Simulation, estimate, save_estimate
from evtl.spaces import DataSpace, Interval
from evtl.stats import ErrorReport, save_error_report

REPO = Path(__file__).resolve().parents[1]

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
    write_csv(buf, header, ("%d", "%.17g"), blocks)
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
    return ErrorReport(("x", "level"), mean, std, std / 3, z)


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


def oracle_rows(row_fmt: str, columns) -> str:
    """``%`` on each row's values, as Python values, one line per row."""
    rows = zip(*(np.asarray(c, dtype=object).tolist() for c in columns))
    return "".join((row_fmt + "\n") % row for row in rows)


def batched_rows(row_fmt: str, columns, rows: int = BLOCK_ROWS) -> str:
    buf = io.StringIO()
    n = len(columns[0])
    blocks = [tuple(c[a : a + rows] for c in columns) for a in range(0, n, rows)]
    write_csv(buf, [f"c{i}" for i in range(len(columns))], tuple(row_fmt.split(",")), blocks)
    head, body = buf.getvalue().split("\n", 1)
    return body


INTS = np.array([0, 7, 10, 99_999_999, 10**8, 10**12, -1, -(10**8), 2**62, -(2**63)])


def test_int_cells_equal_percent_d():
    # kernel cells (0 .. 10**8 - 1) and per-cell ones (negative, large) in one block
    floats = np.array([3.0, 3.7, -3.7, 0.5, -0.5, -0.0, 1e8 - 0.5, 1e8, 1e20, 2.0**63])
    bools = np.array([True, False] * 5)
    huge = np.array([1, 2**70, -(2**70), 0, 5, 10**30, 6, 7, 8, 9], dtype=object)
    columns = (INTS, floats, bools, huge)
    assert batched_rows("%d,%d,%d,%d", columns) == oracle_rows("%d,%d,%d,%d", columns)
    assert batched_rows("%d,%d,%d,%d", columns, rows=3) == oracle_rows("%d,%d,%d,%d", columns)
    assert batched_rows("%d", (floats,)).splitlines()[:3] == ["3", "3", "-3"]


@pytest.mark.parametrize("value, error", [(np.nan, ValueError), (np.inf, OverflowError)])
def test_int_cell_of_nan_or_inf_raises_as_percent_d(value, error):
    with pytest.raises(error):
        "%d" % value
    with pytest.raises(error):
        batched_rows("%d", (np.array([1.0, value]),))


def test_text_cells_equal_percent_s():
    texts = np.array(["", "x", "caf\u00e9", "\u65e5\u672c\u8a9e", "", "a b", "\u00e9" * 30])
    mixed = np.array([1.5, np.nan, 2e-5, -0.0, 1e300, 0.1, np.inf])
    columns = (INTS[: len(texts)], texts, mixed, texts[::-1])
    assert batched_rows("%d,%s,%.17g,%s", columns) == oracle_rows("%d,%s,%.17g,%s", columns)
    blank = np.array([""] * 4)
    assert batched_rows("%s,%s", (blank, blank)) == ",\n" * 4


def test_one_format_per_column_or_value_error():
    # a 2-D column is one column with one format, whatever its width
    columns = (np.arange(3), np.ones((3, 4)))
    assert batched_rows("%d,%.17g", columns) == "0,1,1,1,1\n1,1,1,1,1\n2,1,1,1,1\n"
    for formats in (("%d",), ("%d", "%.17g", "%d")):
        with pytest.raises(ValueError):
            write_csv(io.StringIO(), ("a", "b"), formats, [columns])


@settings(max_examples=100, deadline=None)
@given(
    ints=hnp.arrays(np.int64, st.integers(1, 30), elements=st.integers(-(2**63), 2**63 - 1)),
    data=st.data(),
)
def test_int_and_float_columns_in_d_equal_percent_d(ints, data):
    elements = st.floats(-1e12, 1e12, allow_nan=False) | st.sampled_from([0.0, -0.0, 99999999.5])
    floats = data.draw(hnp.arrays(np.float64, len(ints), elements=elements))
    small = np.abs(ints) % 10**9
    columns = (ints, floats, small)
    assert batched_rows("%d,%d,%d", columns) == oracle_rows("%d,%d,%d", columns)


def _ulp_neighbours() -> st.SearchStrategy[float]:
    """k-ulp neighbours of 10**e, e in -6..18: the exponent and carry edges."""
    return st.builds(
        lambda e, k: float((np.array(float(f"1e{e}")).view(np.int64) + k).view(np.float64)),
        st.integers(-6, 18),
        st.integers(-3, 3),
    )


def _ties(e: int) -> st.SearchStrategy[float]:
    """Doubles in [10**e, 10**(e+1)) of exactly 18 significant digits, the last a 5."""
    k = 17 - e  # m / 2**k has k decimals and e + 1 + k = 18 significant digits
    lo = math.ceil(Fraction(10) ** e * 2**k)
    hi = min(math.ceil(Fraction(10) ** (e + 1) * 2**k), 2**53)
    return st.integers(lo // 2, (hi - 1) // 2).map(lambda j: (2 * j + 1) / 2**k)


CARRIES = [
    9.9999999999999999e15,
    0.99999999999999999,
    0.099999999999999999,
    9.9999999999999999e-5,
    99999999999999999.0,
    99999999999999984.0,
    999999999999999.94,
    1 + 2**-17,
    1e-4,
    1e17,
]

boundary = st.one_of(
    _ulp_neighbours(),
    st.integers(-4, 15).flatmap(_ties),
    st.sampled_from(CARRIES),
).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=300, deadline=None)
@given(values=hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 3)), elements=boundary))
def test_kernel_boundaries_equal_per_value_formatting(values):
    assert batched_timed(values, len(values)) == oracle_timed(values)


def test_exact_ties_round_to_even():
    # 18 digits ending in 5: the 17th digit stays even, as dtoa rounds
    ties = np.array([[1 + 2**-17, 1 + 3 * 2**-17, 2**-17 * 8191]])
    assert batched_timed(ties, 1) == oracle_timed(ties)
    assert "1.0000076293945312," in batched_timed(ties, 1)


def test_lookup_tables_equal_their_definitions():
    tables = _tables()
    text = ["%04d" % g for g in range(10**4)]
    assert tables.groups.view(np.uint8).tobytes() == "".join(text).encode()
    # digits of a significand up to the last non-zero one of group i+1 (digits 4i+2 .. 4i+5)
    for i in range(4):
        want = [4 * i + 1 + len(t.rstrip("0")) if g else 0 for g, t in enumerate(text)]
        assert tables.sig[i].tolist() == want, i
    # where the digits of an 8-digit %d canvas start, if in that group; a zero keeps one
    assert tables.int_start[0].tolist() == [8 - len(str(g)) if g else 7 for g in range(10**4)]
    assert tables.int_start[1].tolist() == [4 - len(str(g)) if g else 8 for g in range(10**4)]
    scale, hi, lo = tables.scale
    assert scale.tolist() == [float(f"1e{16 - x}") for x in range(-4, 21)]
    assert np.array_equal(hi + lo, scale) and np.all(np.abs(lo) <= np.abs(hi) * 2.0**-26)
    # lay distinct letters where the digits go, so a wrong position shows
    letters = b"ABCDEFGHIJKLMNOPQ"
    assert tables.float_canvas.tobytes() == b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b","
    canvas = tables.float_canvas.copy()
    canvas[6:23] = np.frombuffer(letters, np.uint8)
    canvas[24:40] = np.frombuffer(letters[1:], np.uint8)
    d = letters.decode()
    for x in range(-4, 17):
        for s in range(1, 18):
            for neg in (0, 1):
                if x < 0:
                    text = "0." + "0" * (-x - 1) + d[:s]
                else:
                    text = d[: x + 1] + ("." + d[x + 1 : s] if s > x + 1 else "")
                row = tables.float_masks[((x + 4) * 17 + s - 1) * 2 + neg]
                assert canvas[row].tobytes().decode() == "-" * neg + text + ",", (x, s, neg)


def test_exponent_from_bits_equals_the_power_table_rule():
    # the oracle: the number of _POW10 entries at or below a, each the least double >= 10**k
    def oracle(a):
        return np.searchsorted(_POW10, a, side="right") - 5

    powers = np.array([float(f"1e{k}") for k in range(-4, 18)]).view(np.int64)
    near = (powers[:, None] + np.arange(-3, 4)).ravel().view(np.float64)
    near = near[(near >= 1e-4) & (near < 1e17)]
    rng = np.random.default_rng(11)
    drawn = 10.0 ** rng.uniform(-4, 17, 10**6)
    drawn = drawn[drawn < 1e17]
    for a in (near, drawn):
        assert np.array_equal(_exponent(a), oracle(a))
    # and the oracle itself, in exact arithmetic, at the boundaries
    exact = [max(k for k in range(-4, 17) if Fraction(a) >= Fraction(10) ** k) for a in near.tolist()]
    assert oracle(near).tolist() == exact


def _exponent_and_digits(text: str) -> tuple[int, str]:
    """Decimal exponent and 17-digit significand of a ``%.17g`` text without an exponent."""
    whole, _, frac = text.lstrip("-").partition(".")
    digits = (whole + frac).lstrip("0").ljust(17, "0")
    if whole != "0" or not frac:
        return len(whole) - 1, digits
    return len(frac.lstrip("0")) - len(frac) - 1, digits


def _grid_value(x: int, s: int) -> float:
    """The first double whose ``%.17g`` has exponent x and s significant digits."""
    for m in range(10 ** (s - 1), 10**s):
        value = float(f"{m}e{x - s + 1}")
        x_got, digits = _exponent_and_digits("%.17g" % value)
        if m % 10 and (x_got, len(digits.rstrip("0"))) == (x, s):
            return value
    raise AssertionError((x, s))


def _fraction_value(rest: str) -> float:
    """A double whose ``%.17g`` digits are d, then ``rest``, the last non-zero one after the point."""
    s = 1 + len(rest.rstrip("0"))
    for d, x in itertools.product("123456789", range(-4, s - 1)):
        value = float(f"{d}.{rest}e{x}")
        if _exponent_and_digits("%.17g" % value) == (x, (d + rest).ljust(17, "0")):
            return value
    raise AssertionError(rest)


def test_digit_grid_equals_percent_cell_by_cell():
    # every exponent, significant-digit count and sign of the kernel's domain: every mask row
    grid = [sign * _grid_value(x, s) for x in range(-4, 17) for s in range(1, 18) for sign in (1, -1)]
    # every entry of sig[0..2] deciding a cell: group i+1 is g, the last non-zero group, in
    # the fraction; a non-zero sig[3] entry decides every cell it is in (the draws below)
    last = [_fraction_value("0" * 4 * i + "%04d" % g) for i in range(3) for g in range(1, 10**4)]
    rng = np.random.default_rng(5)
    drawn = 10.0 ** rng.uniform(-4, 17, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    values = np.concatenate([grid, [0.0, -0.0], last, drawn[np.abs(drawn) < 1e17]])
    buf = io.StringIO()
    write_csv(buf, ["v"] * 8, ["%.17g"], [(np.pad(values, (0, -len(values) % 8)).reshape(-1, 8),)])
    cells = buf.getvalue().replace("\n", ",").split(",")[8 : 8 + len(values)]
    want = ["%.17g" % v for v in values.tolist()]
    assert cells == want
    rows, groups = set(), [set() for _ in range(4)]
    for v, text in zip(values.tolist(), want):
        x, digits = _exponent_and_digits(text)
        rows.add((x, len(digits.rstrip("0")) or 1, math.copysign(1.0, v)))
        for i, seen in enumerate(groups):
            seen.add(int(digits[4 * i + 1 : 4 * i + 5]))
    assert rows == {(x, s, sign) for x in range(-4, 17) for s in range(1, 18) for sign in (1.0, -1.0)}
    assert all(seen == set(range(10**4)) for seen in groups)


def oracle_estimate(est: EvolutionEstimate) -> str:
    want = ["run,time," + ",".join(est.space.names) + "\n"]
    for j in range(est.runs):
        for i in range(est.steps + 1):
            want.append(f"{j},{i}," + ",".join("%.17g" % x for x in est.values[i, j]) + "\n")
    return "".join(want)


@pytest.mark.parametrize(
    "cfg",
    [
        load_config(str(REPO / "presets" / "three-tanks-scenario-2.cfg")),
        RunConfig(model="chain", chain_file=str(REPO / "chains" / "drift.json")),
    ],
    ids=["tanks-scenario-2", "drift-chain"],
)
def test_estimate_csv_equals_the_per_value_oracle(cfg):
    kernel, init, _ = build_model(cfg)
    # 23 runs of 61 rows: blocks of whole runs, the last one shorter
    est = estimate(Simulation(kernel, init, 60, 23, RandomnessPlan(7)))
    buf = io.StringIO()
    save_estimate(buf, est)
    assert buf.getvalue() == oracle_estimate(est)
