import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evtl.formulas import (
    Not,
    Or,
    PointMass,
    ProductNormal,
    Target,
    Truth,
    Until,
    conj,
    eventually,
    horizon,
    implies,
)
from evtl.parsing import FormulaError, load_formula, parse_formula
from evtl.spaces import DataSpace, Interval, SampleSet, identity_penalty, save_samples
from evtl.tanks import TankParams, tank_penalties, tank_space

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def space():
    return DataSpace({"x": Interval(0.0, 1.0), "y": Interval(-1.0, 1.0)})


@pytest.fixture
def pens(space):
    return {
        "px": identity_penalty(space, "x", name="px"),
        "py": identity_penalty(space, "y", name="py"),
    }


def p(text, pens, space=None):
    return parse_formula(text, pens, space)


def test_atom_and_literals(pens):
    f = p("target(normal(x; 0.5, 0.04), px, 0.3)", pens)
    assert f == Target(ProductNormal((("x", 0.5, 0.04),)), pens["px"], 0.3)
    assert p("true", pens) == Truth()
    f2 = p("hazard(point(x=0.25, y=-0.5), py, 0.1)", pens)
    assert f2.dist == PointMass((("x", 0.25), ("y", -0.5)))


def test_multi_entry_normal(pens):
    f = p("target(normal(x; 0.5, 0.04, y; 0.0, 1e-2), px, 0.3)", pens)
    assert f.dist == ProductNormal((("x", 0.5, 0.04), ("y", 0.0, 0.01)))


def test_macro_expansion_matches_helpers(pens):
    a = "target(normal(x; 0.5, 0.04), px, 0.3)"
    b = "hazard(normal(x; 0.9, 0.01), px, 0.2)"
    fa, fb = p(a, pens), p(b, pens)
    assert p(f"{a} && {b}", pens) == conj(fa, fb)
    assert p(f"{a} -> {b}", pens) == implies(fa, fb)
    assert p(f"F[1,4] {a}", pens) == eventually(1, 4, fa)
    assert p(f"G[0,2] {a}", pens) == Not(Until(Truth(), Not(fa), 0, 2))
    assert p(f"!{a}", pens) == Not(fa)


def test_precedence_and_associativity(pens):
    a = "target(point(x=0.1), px, 0.1)"
    b = "target(point(x=0.2), px, 0.2)"
    c = "target(point(x=0.3), px, 0.3)"
    fa, fb, fc = (p(t, pens) for t in (a, b, c))
    # ! binds tighter than U, U tighter than &&, && tighter than ||, || tighter than ->
    assert p(f"!{a} U[0,2] {b}", pens) == Until(Not(fa), fb, 0, 2)
    assert p(f"{a} U[0,2] {b} && {c}", pens) == conj(Until(fa, fb, 0, 2), fc)
    assert p(f"{a} && {b} || {c}", pens) == Or(conj(fa, fb), fc)
    assert p(f"{a} || {b} -> {c}", pens) == implies(Or(fa, fb), fc)
    # binary connectives associate to the right
    assert p(f"{a} || {b} || {c}", pens) == Or(fa, Or(fb, fc))
    assert p(f"{a} -> {b} -> {c}", pens) == implies(fa, implies(fb, fc))
    assert p(f"{a} U[0,1] {b} U[2,3] {c}", pens) == Until(fa, Until(fb, fc, 2, 3), 0, 1)
    # parentheses override
    assert p(f"({a} || {b}) && {c}", pens) == conj(Or(fa, fb), fc)


def test_prefix_operators_chain(pens):
    a = "target(point(x=0.1), px, 0.1)"
    fa = p(a, pens)
    assert p(f"F[0,5] G[0,3] {a}", pens) == eventually(0, 5, Not(Until(Truth(), Not(fa), 0, 3)))
    assert p(f"!F[0,5] {a}", pens) == Not(eventually(0, 5, fa))


def test_comments_and_whitespace(pens):
    text = """
    # outer check
    F[0,5] (          # eventually...
        target(normal(x; 0.5, 0.04), px, 0.3)
        || true       # ...or trivially
    )
    """
    f = p(text, pens)
    assert horizon(f) == 5
    assert isinstance(f, Until)


def test_round_trip_via_pretty(pens):
    texts = [
        "target(normal(x; 0.5, 0.04), px, 0.3)",
        "!(target(point(x=1.0), px, 0.2) || hazard(normal(y; 0.0, 0.25), py, 0.1))",
        "target(point(x=0.1), px, 0.1) U[2,7] true",
        "F[0,4] G[1,3] target(normal(x; 0.5, 0.04, y; 0.0, 1.0), px, 0.3)",
        "target(point(x=0.1), px, 0.1) && true -> F[0,2] true",
    ]
    for text in texts:
        f = p(text, pens)
        assert p(f.pretty(), pens) == f


def test_number_forms(pens):
    f = p("target(normal(x; .5, 4e-2), px, 0.3)", pens)
    assert f.dist == ProductNormal((("x", 0.5, 0.04),))
    f2 = p("target(point(y=-0.75), py, 0.3)", pens)
    assert f2.dist == PointMass((("y", -0.75),))


def test_empirical_reference(tmp_path, pens, space):
    rows = SampleSet(DataSpace({"x": Interval(0.0, 1.0)}), np.array([[0.2], [0.8]]))
    path = tmp_path / "ref.csv"
    save_samples(str(path), rows)
    f = p(f'target(empirical("{path}"), px, 0.4)', pens, space)
    got = f.dist.sample(space, 400, np.random.default_rng(0))
    assert set(got.column("x")) == {0.2, 0.8}


def test_error_positions(pens):
    with pytest.raises(FormulaError) as err:
        p("target(normal(x; 0.5, 0.04), nope, 0.3)", pens)
    assert err.value.line == 1 and err.value.col == 30
    assert "unknown penalty" in str(err.value)

    with pytest.raises(FormulaError) as err:
        p("true ||\n  true ||\n  %", pens)
    assert err.value.line == 3

    for bad, want in [
        ("", "expected a formula"),
        ("true true", "trailing input"),
        ("F[3,1] true", "empty window"),
        ("F[0.5,1] true", "non-negative integer"),
        ("target(normal(x; 0.5, -1.0), px, 0.3)", "variance"),
        ("target(normal(x; 0.5, 0.04), px, 1.5)", "threshold"),
        ("target(gamma(x; 1.0), px, 0.3)", "unknown distribution"),
        ("target(empirical(x), px, 0.3)", "quoted file path"),
        ('target(empirical("no/such/file.csv"), px, 0.3)', "cannot load"),
    ]:
        with pytest.raises(FormulaError) as err:
            p(bad, pens)
        assert want in str(err.value), bad


@pytest.mark.parametrize(
    "text, col",
    [
        # 200 nested parentheses parse; the 201st opens one call too deep
        ("(" * 201 + "true" + ")" * 201, 202),
        # 202 disjuncts: the last is the 201st right operand nested at once
        (" || ".join(["true"] * 202), 8 * 201 + 1),
        # 100 G over true is 301 levels; the outermost G is the one too high
        ("G[0,1] " * 100 + "true", 1),
        # 300 negations over true is 301 levels: the first one is too high
        ("!" * 300 + "true", 1),
    ],
)
def test_nesting_limits_fail_at_the_token_too_deep(text, col, pens):
    with pytest.raises(FormulaError, match="formula nested too deeply") as err:
        p(text, pens)
    assert (err.value.line, err.value.col) == (1, col)


def test_nesting_just_inside_the_limits_parses(pens):
    assert p("(" * 200 + "true" + ")" * 200, pens) == Truth()
    assert p("G[0,1] " * 99 + "true", pens).pretty().count("U[0,1]") == 99
    f = p("!" * 299 + "true", pens)
    for _ in range(299):
        f = f.child
    assert f == Truth()


def test_validation_against_space(pens, space):
    with pytest.raises(FormulaError) as err:
        p("target(normal(z; 0.5, 0.04), px, 0.3)", pens, space)
    assert "z" in str(err.value)
    # fine without a space: validation is deferred
    p("target(normal(z; 0.5, 0.04), px, 0.3)", pens)


def test_shipped_property_files_load():
    space = tank_space(TankParams())
    pens = tank_penalties(TankParams())
    settle = load_formula(str(REPO / "properties" / "settle-on-goal.evtl"), pens, space)
    recover = load_formula(
        str(REPO / "properties" / "recover-from-overflow-risk.evtl"), pens, space
    )
    assert horizon(settle) == 50
    assert horizon(recover) == 60


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_non_utf8_byte_reports_its_line_and_column(newline, tmp_path):
    p = tmp_path / "latin1.evtl"
    p.write_bytes(newline.join([b"true", b"# ok", b"# caf\xe9 x", b""]))
    with pytest.raises(FormulaError, match="not UTF-8") as info:
        load_formula(str(p), {})
    assert (info.value.line, info.value.col) == (3, 6)


_GAP = st.sampled_from(["", " ", "\n", "\t", "\n\n    ", " \n "])
_ATOMS = st.sampled_from(
    ["true", "target(normal(x; 0.5, 0.04), px, 0.3)", "hazard(point(y=0.25), py, 1e2)"]
)


@st.composite
def _multiline_formulas(draw, depth=3):
    """Formula text with free whitespace, newlines included, between its tokens."""
    gap = lambda: draw(_GAP)
    if depth == 0 or draw(st.booleans()):
        return draw(_ATOMS)
    sub = lambda: draw(_multiline_formulas(depth - 1))
    op = draw(st.sampled_from(["&&", "||", "->", "U[0,2]", "!", "F[1,3]", "G[0,4]", "()"]))
    if op == "()":
        return f"({gap()}{sub()}{gap()})"
    if op in ("!", "F[1,3]", "G[0,4]"):
        return f"{op}{gap()}{sub()}"
    return f"{sub()} {gap()}{op}{gap()} {sub()}"


@settings(max_examples=300, deadline=None)
@given(_multiline_formulas(), st.data(), st.sampled_from(["\n", "\r\n", "\r"]))
def test_error_position_matches_a_line_count(tmp_path_factory, text, data, newline):
    # a % splitting a two-character operator would leave its first half as the bad character
    inside = {m.start() + 1 for m in re.finditer(r"&&|\|\||->", text)}
    p = data.draw(st.integers(0, len(text)).filter(lambda i: i not in inside))
    bad = text[:p] + "%" + text[p:]
    head = text[:p].split("\n")
    want = (len(head), len(head[-1]) + 1)
    with pytest.raises(FormulaError, match="unexpected character '%'") as info:
        parse_formula(bad, {})
    assert (info.value.line, info.value.col) == want
    path = tmp_path_factory.getbasetemp() / "bad-position.evtl"
    path.write_bytes(bad.replace("\n", newline).encode("utf-8"))
    with pytest.raises(FormulaError, match="unexpected character '%'") as info:
        load_formula(str(path), {})
    assert (info.value.line, info.value.col) == want
