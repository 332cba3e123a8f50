import pickle
from copy import deepcopy

import numpy as np
import pytest

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
    conj,
    content_words,
    eventually,
    horizon,
    atoms,
    implies,
    validate,
)
from evtl.monitor import robustness
from evtl.spaces import DataSpace, FiniteSet, Interval, Penalty, SampleSet, identity_penalty


@pytest.fixture
def space():
    return DataSpace({"x": Interval(0.0, 1.0), "y": Interval(-1.0, 1.0)})


@pytest.fixture
def pen(space):
    return identity_penalty(space, "x", name="px")


def atom(pen, thr=0.3):
    return Target(ProductNormal((("x", 0.5, 0.04),)), pen, thr)


# --- discounts -------------------------------------------------------------


def test_discount_constant_and_exponential():
    assert Discount()(0) == 1.0 and Discount()(99) == 1.0
    d = Discount.exponential(0.9, scale=0.5)
    assert d(0) == 0.5
    assert d(2) == pytest.approx(0.5 * 0.81)


def test_discount_parse_round_trip():
    for text in ("const:1.0", "const:0.25", "exp:0.97", "exp:0.9,0.5"):
        d = Discount.parse(text)
        assert Discount.parse(d.spec()) == d
    with pytest.raises(ValueError):
        Discount.parse("linear:1")
    with pytest.raises(ValueError):
        Discount.parse("const:0")  # outside (0, 1]
    with pytest.raises(ValueError):
        Discount.parse("exp:1.5")


def test_discount_parse_rejects_a_third_field():
    with pytest.raises(ValueError, match="bad discount spec"):
        Discount.parse("exp:0.9,0.5,0.1")


@pytest.mark.parametrize(
    "discount",
    [Discount(), Discount.constant(0.3), Discount.exponential(0.97), Discount.exponential(0.9, 0.5),
     Discount.exponential(1e-3)],
    ids=lambda d: d.spec(),
)
def test_discount_factors_are_the_scalar_factors(discount):
    factors = discount.factors(600)
    want = np.array([discount(t) for t in range(601)])
    assert factors.dtype == np.float64 and factors.tobytes() == want.tobytes()
    assert discount.factors(0).tobytes() == np.array([discount(0)]).tobytes()


def test_discount_is_non_increasing():
    d = Discount.exponential(0.99)
    vals = [d(t) for t in range(50)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(0 < v <= 1 for v in vals)


# --- reference distributions -----------------------------------------------


def test_product_normal_sampling_clamps_and_floors(space):
    dist = ProductNormal((("x", 0.5, 1.0),))
    rng = np.random.default_rng(0)
    ss = dist.sample(space, 500, rng)
    assert np.all(ss.column("x") >= 0.0) and np.all(ss.column("x") <= 1.0)
    # y is unconstrained, so the sample holds x alone
    assert ss.space.names == ("x",)


def test_product_normal_variance_is_variance_not_std(space):
    # with variance 0.04 the std is 0.2; on an unbounded-enough domain the
    # sample std should match 0.2, not 0.04
    wide = DataSpace({"x": Interval(-100.0, 100.0)})
    ss = ProductNormal((("x", 0.0, 0.04),)).sample(wide, 40_000, np.random.default_rng(1))
    assert np.std(ss.column("x")) == pytest.approx(0.2, rel=0.05)


def test_product_normal_zero_variance_is_point(space):
    ss = ProductNormal((("x", 0.25, 0.0),)).sample(space, 8, np.random.default_rng(2))
    assert np.all(ss.column("x") == 0.25)


def test_product_normal_rejects_bad_entries():
    with pytest.raises(ValueError):
        ProductNormal(())
    with pytest.raises(ValueError):
        ProductNormal((("x", 0.0, -1.0),))
    with pytest.raises(ValueError):
        ProductNormal((("x", 0.0, 1.0), ("x", 1.0, 1.0)))


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("field", ["mean", "variance"])
def test_product_normal_rejects_non_finite_parameters(field, bad):
    entry = ("x", bad, 1.0) if field == "mean" else ("x", 0.5, bad)
    with pytest.raises(ValueError, match="must be finite"):
        ProductNormal((("y", 0.0, 1.0), entry))


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_point_mass_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="must be finite"):
        PointMass((("y", 0.0), ("x", bad)))


def test_point_mass_sampling(space):
    ss = PointMass((("x", 0.75), ("y", 0.5))).sample(space, 3, np.random.default_rng(0))
    assert np.all(ss.column("x") == 0.75) and np.all(ss.column("y") == 0.5)
    # out-of-domain values snap into the domain
    ss2 = PointMass((("x", 7.0),)).sample(space, 2, np.random.default_rng(0))
    assert np.all(ss2.column("x") == 1.0)


def test_point_mass_on_finite_domain_snaps():
    grid = DataSpace({"x": FiniteSet((0.0, 0.5, 1.0))})
    ss = PointMass((("x", 0.4),)).sample(grid, 4, np.random.default_rng(0))
    assert np.all(ss.column("x") == 0.5)


def test_empirical_ref_resamples_stored_rows(space):
    stored = SampleSet(DataSpace({"x": Interval(0.0, 1.0)}), np.array([[0.1], [0.9]]))
    ref = EmpiricalRef(samples=stored)
    ss = ref.sample(space, 1000, np.random.default_rng(3))
    vals = set(ss.column("x"))
    assert vals == {0.1, 0.9}
    assert ss.space.names == ("x",)
    # roughly uniform over the two rows
    assert np.mean(ss.column("x") == 0.9) == pytest.approx(0.5, abs=0.06)


# each reference lists y before x, against the space's order; none constrains z
XYZ = DataSpace([("x", Interval(0.0, 1.0)), ("y", Interval(-1.0, 1.0)), ("z", Interval(0.0, 2.0))])
OWN_REFERENCES = {
    "normal": ProductNormal((("y", 0.2, 0.09), ("x", 0.5, 0.04))),
    "point": PointMass((("y", 0.4), ("x", 0.75))),
    "empirical": EmpiricalRef(
        SampleSet(DataSpace({"y": Interval(-2.0, 2.0), "x": Interval(-2.0, 2.0)}),
                  np.array([[0.1, 1.5], [-1.5, 0.3]]))
    ),
}


@pytest.mark.parametrize("kind", sorted(OWN_REFERENCES))
def test_reference_samples_only_the_variables_it_constrains(kind):
    dist = OWN_REFERENCES[kind]
    rngs = [np.random.default_rng(0)]
    with pytest.raises(KeyError):
        dist.sample_block(XYZ, 1, 4, rngs, ("x", "z"))
    ss = dist.sample(XYZ, 4, np.random.default_rng(0))
    assert ss.space.names == dist.variables()
    # the domains are the space's, and every draw is clamped into them
    assert ss.space.domains == (XYZ.domain("y"), XYZ.domain("x"))
    for row in ss.values.tolist():
        ss.space.state(dict(zip(ss.space.names, row)))


@pytest.mark.parametrize("kind", ["normal", "empirical"])
def test_sample_block_draws_each_generator_before_taking_the_next(kind):
    taken = []

    def rngs():
        for seed in range(3):
            if taken:
                fresh = np.random.default_rng(seed - 1).bit_generator.state
                assert taken[-1].bit_generator.state != fresh
            taken.append(np.random.default_rng(seed))
            yield taken[-1]

    assert OWN_REFERENCES[kind].sample_block(XYZ, 3, 4, rngs(), ("y",)).shape == (1, 3, 4)
    # fewer generators than rows
    with pytest.raises(ValueError):
        OWN_REFERENCES[kind].sample_block(XYZ, 3, 4, iter(taken[:2]), ("y",))


def test_empirical_ref_weights(space):
    stored = SampleSet(DataSpace({"x": Interval(0.0, 1.0)}), np.array([[0.1], [0.9]]))
    ref = EmpiricalRef(samples=stored, weights=[0.9, 0.1])
    ss = ref.sample(space, 2000, np.random.default_rng(4))
    assert np.mean(ss.column("x") == 0.1) == pytest.approx(0.9, abs=0.03)
    with pytest.raises(ValueError):
        EmpiricalRef(samples=stored, weights=[0.5, 0.2])


def test_empirical_ref_equality_is_content_based(space):
    a = np.array([[0.1], [0.9]])
    sub = DataSpace({"x": Interval(0.0, 1.0)})
    r1 = EmpiricalRef(samples=SampleSet(sub, a))
    r2 = EmpiricalRef(samples=SampleSet(sub, a.copy()))
    r3 = EmpiricalRef(samples=SampleSet(sub, a * 0.5))
    assert r1 == r2 and hash(r1) == hash(r2)
    assert r1 != r3


# --- formula structure -----------------------------------------------------


def test_threshold_validation(pen):
    with pytest.raises(ValueError):
        Target(PointMass((("x", 0.5),)), pen, 1.5)
    with pytest.raises(ValueError):
        Hazard(PointMass((("x", 0.5),)), pen, -0.1)


def test_until_window_validation(pen):
    a = atom(pen)
    with pytest.raises(ValueError):
        Until(a, a, 3, 2)
    with pytest.raises(ValueError):
        Until(a, a, -1, 2)


def test_macros_expand_into_core(pen):
    a, b = atom(pen, 0.2), atom(pen, 0.7)
    assert conj(a, b) == Not(Or(Not(a), Not(b)))
    assert implies(a, b) == Or(Not(a), b)
    assert eventually(1, 4, a) == Until(Truth(), a, 1, 4)
    assert always(1, 4, a) == Not(Until(Truth(), Not(a), 1, 4))


def test_horizon_cases(pen):
    a = atom(pen)
    assert horizon(Truth()) == 0
    assert horizon(a) == 0
    assert horizon(Not(a)) == 0
    assert horizon(Until(a, a, 2, 5)) == 5
    assert horizon(Or(Until(a, a, 0, 3), Until(a, a, 1, 7))) == 7
    # nesting adds up
    inner = eventually(0, 20, a)
    assert horizon(always(0, 40, inner)) == 60
    assert horizon(Until(inner, a, 1, 4)) == 24


def test_atoms_distinct_in_order_of_first_occurrence(pen):
    a, b = atom(pen, 0.1), atom(pen, 0.9)
    f = Or(Not(a), Until(b, a, 0, 2))
    assert atoms(f) == (a, b)


# --- construction: one nesting limit, hash and height computed once ----------

LIMIT = 300  # tree levels a formula may have, parsed or built in the library


def negations(levels, pen):
    """A formula ``levels`` high: negations over an atom."""
    f = atom(pen)
    for _ in range(levels - 1):
        f = Not(f)
    return f


@pytest.mark.parametrize(
    "build, adds",
    [
        (Not, 1),
        (lambda f: Or(Truth(), f), 1),
        (lambda f: Or(f, Truth()), 1),
        (lambda f: Until(f, Truth(), 0, 1), 1),
        (lambda f: Until(Truth(), f, 0, 1), 1),
        (lambda f: always(0, 1, f), 3),
        (lambda f: conj(Truth(), f), 3),
    ],
    ids=["not", "or-left", "or-right", "until-left", "until-right", "always", "conj"],
)
def test_a_node_one_level_over_the_limit_fails_when_built(pen, build, adds):
    assert atoms(build(negations(LIMIT - adds, pen))) == (atom(pen),)
    with pytest.raises(ValueError, match="^formula nested too deeply$"):
        build(negations(LIMIT - adds + 1, pen))


def test_a_formula_at_the_limit_builds_and_walks(pen):
    a, b = atom(pen, 0.1), atom(pen, 0.9)

    def build():
        f = a
        for i in range(LIMIT - 1):
            f = (Not(f), Or(f, b), Until(f, b, 0, 2))[i % 3]
        return f

    f = build()
    assert horizon(f) == 2 * 99
    assert atoms(f) == (a, b)
    assert f.pretty().count("U[0,2]") == 99
    # two trees built apart: equality walks all 300 levels
    assert f == build() and hash(f) == hash(build())
    with pytest.raises(ValueError, match="nested too deeply"):
        Not(f)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Not("x"),
        lambda: Or(Truth(), "x"),
        lambda: Until("x", Truth(), 0, 1),
        lambda: always(0, 1, "x"),
    ],
    ids=["not", "or", "until", "always"],
)
def test_a_non_formula_child_is_a_type_error(build):
    with pytest.raises(TypeError, match="not a formula: 'x'"):
        build()


class CountingPenalty(Penalty):
    """A penalty that counts how often it is hashed."""

    def __init__(self, *args):
        super().__init__(*args)
        self.hashes = 0

    def __hash__(self):
        self.hashes += 1
        return object.__hash__(self)


def test_an_atom_hashes_its_penalty_once_when_built():
    pen = CountingPenalty("px", ("x",), lambda rows, tau: rows[0])
    a = Target(PointMass((("x", 0.5),)), pen, 0.3)
    assert pen.hashes == 1
    f = Or(Until(a, Not(a), 0, 3), always(0, 2, Or(a, Hazard(a.dist, pen, 0.3))))
    assert pen.hashes == 2
    for _ in range(3):
        assert horizon(f) == 3
        assert len(atoms(f)) == 2
        robustness(f, 4, lambda _: np.zeros(5), "semantics")
    assert pen.hashes == 2


def test_a_copied_node_hashes_like_one_built_from_its_fields():
    # a deep copy holds a new penalty, hashed by identity, so the copy may not keep the old hash
    pen = Penalty("px", ("x",), lambda rows, tau: rows[0])
    a = Target(PointMass((("x", 0.5),)), pen, 0.3)
    copy = deepcopy(a)
    rebuilt = Target(copy.dist, copy.penalty, copy.threshold)
    assert copy != a and copy == rebuilt and hash(copy) == hash(rebuilt)
    f = Until(Truth(), Not(Truth()), 1, 2)
    assert pickle.loads(pickle.dumps(f)) == f and hash(pickle.loads(pickle.dumps(f))) == hash(f)


def test_content_words_identify_atoms_not_positions(pen):
    a = atom(pen)
    assert content_words(a) == content_words(Target(ProductNormal((("x", 0.5, 0.04),)), pen, 0.3))
    assert content_words(a) != content_words(atom(pen, 0.4))
    assert content_words(Not(a)) != content_words(a)
    assert len(content_words(a)) == 4
    assert all(0 <= w < 2**32 for w in content_words(a))


def test_pretty_forms(pen):
    a = atom(pen)
    assert a.pretty() == "target(normal(x; 0.5, 0.04), px, 0.3)"
    assert Not(a).pretty() == "!target(normal(x; 0.5, 0.04), px, 0.3)"
    assert Or(Truth(), a).pretty() == "(true || target(normal(x; 0.5, 0.04), px, 0.3))"
    assert Until(Truth(), a, 1, 3).pretty().startswith("(true U[1,3] ")
    assert Hazard(PointMass((("x", 1.0),)), pen, 0.2).pretty() == "hazard(point(x=1.0), px, 0.2)"


def test_validate_checks_variables(space, pen):
    ok = Target(ProductNormal((("x", 0.5, 0.01),)), pen, 0.5)
    validate(ok, space)
    with pytest.raises(KeyError):
        validate(Target(ProductNormal((("z", 0.0, 1.0),)), pen, 0.5), space)
    # penalty reading a variable the reference does not constrain
    ypen = identity_penalty(space, "y", name="py")
    bad = Target(ProductNormal((("x", 0.5, 0.01),)), ypen, 0.5)
    with pytest.raises(ValueError):
        validate(bad, space)
    # an empirical reference is held to the same rule: y is no stored column
    stored = SampleSet(DataSpace({"x": Interval(0.0, 1.0)}), np.array([[0.5]]))
    with pytest.raises(ValueError, match="does not constrain"):
        validate(Target(EmpiricalRef(samples=stored), ypen, 0.5), space)
