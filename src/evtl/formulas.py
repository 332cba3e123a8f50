"""Formula trees for the evolution logic, plus reference distributions.

The core grammar has five node kinds: truth, the two distribution atoms
(target and hazard), negation, disjunction, and bounded until. Conjunction,
implication, eventually and always are macros that expand into the core, so
everything downstream (monitoring, exact evaluation) only ever sees the five.

Atoms compare the estimated state distribution at the current time against a
reference distribution through a penalty function:

* a target atom is satisfied (robustness ``p - d``) when the distance ``d``
  from the reference to the state distribution stays below the threshold;
* a hazard atom is satisfied (robustness ``d - p``) when the state
  distribution stays far enough from a dangerous reference.

Distances are discounted by a non-increasing factor of the time index, so
later deviations can be made to matter less.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence, TypeVar, Union

import numpy as np

from .spaces import DataSpace, Penalty, SampleSet, load_samples

__all__ = [
    "Discount",
    "ProductNormal",
    "PointMass",
    "EmpiricalRef",
    "Distribution",
    "Truth",
    "Target",
    "Hazard",
    "Not",
    "Or",
    "Until",
    "Formula",
    "conj",
    "implies",
    "eventually",
    "always",
    "fold",
    "horizon",
    "atoms",
    "content_words",
    "validate",
]


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the float."""
    return repr(float(x))


# --------------------------------------------------------------------------
# discounting


@dataclass(frozen=True)
class Discount:
    """Non-increasing discount factor tau -> (0, 1].

    ``const`` is a flat factor; ``exp`` decays as scale * rate**tau. The
    default, constant 1, leaves distances undiscounted.
    """

    kind: str = "const"
    base: float = 1.0
    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("const", "exp"):
            raise ValueError(f"unknown discount kind {self.kind!r}")
        if not 0.0 < self.base <= 1.0:
            raise ValueError("discount base must lie in (0, 1]")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("discount rate must lie in (0, 1]")

    @classmethod
    def constant(cls, value: float = 1.0) -> "Discount":
        return cls("const", value, 1.0)

    @classmethod
    def exponential(cls, rate: float, scale: float = 1.0) -> "Discount":
        return cls("exp", scale, rate)

    @classmethod
    def parse(cls, text: str) -> "Discount":
        """Parse ``const:c`` or ``exp:r`` (optionally ``exp:r,scale``)."""
        kind, _, arg = text.strip().partition(":")
        try:
            if kind == "const":
                return cls.constant(float(arg))
            if kind == "exp":
                # a third field is left in the scale, which then fails to parse
                rate, sep, scale = arg.partition(",")
                return cls.exponential(float(rate), float(scale) if sep else 1.0)
        except ValueError as exc:
            raise ValueError(f"bad discount spec {text!r}: {exc}") from None
        raise ValueError(f"bad discount spec {text!r} (want const:c or exp:r)")

    def __call__(self, tau: int) -> float:
        if self.kind == "const":
            return self.base
        return self.base * self.rate**tau

    def factors(self, steps: int) -> np.ndarray:
        """The factors at tau = 0..steps."""
        return np.array([self(tau) for tau in range(steps + 1)])

    def spec(self) -> str:
        if self.kind == "const":
            return f"const:{_fmt(self.base)}"
        if self.base == 1.0:
            return f"exp:{_fmt(self.rate)}"
        return f"exp:{_fmt(self.rate)},{_fmt(self.base)}"


# --------------------------------------------------------------------------
# reference distributions


Generators = Iterable["np.random.Generator"]


class Distribution:
    """Reference distribution, sampled variable-major.

    ``sample_block(space, rows, n, rngs, variables)`` returns a ``(k, rows, n)``
    array for the k requested ``variables``: ``out[i, r]`` holds n draws of
    ``variables[i]`` from the r-th generator of ``rngs`` alone, which yields
    ``rows``. Each is drawn from before the next is taken, so none is kept
    once its row is written. Asking for a variable that the reference does
    not constrain raises ``KeyError``. ``sample`` is the one-row case over
    the reference's own ``variables()``, with their domains taken from the space.
    """

    __slots__ = ()

    def sample(self, space: DataSpace, n: int, rng: np.random.Generator | None) -> SampleSet:
        names = self.variables()
        own = DataSpace([(var, space.domain(var)) for var in names])
        return SampleSet(own, self.sample_block(space, 1, n, (rng,), names)[:, 0].T)


@dataclass(frozen=True)
class ProductNormal(Distribution):
    """Independent normals on selected variables.

    Each entry is (variable, mean, variance). The second moment parameter is
    a VARIANCE, not a standard deviation; samplers take its square root.
    Draws are clamped into the variable's domain.
    """

    entries: tuple[tuple[str, float, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("product normal needs at least one variable")
        seen = set()
        for var, mean, variance in self.entries:
            if var in seen:
                raise ValueError(f"variable {var!r} listed twice")
            seen.add(var)
            if not (np.isfinite(mean) and np.isfinite(variance)):
                raise ValueError(f"mean and variance of {var!r} must be finite")
            if variance < 0:
                raise ValueError(f"negative variance for {var!r}")

    def variables(self) -> tuple[str, ...]:
        return tuple(var for var, _, _ in self.entries)

    def sample_block(
        self, space: DataSpace, rows: int, n: int, rngs: Generators, variables: Sequence[str]
    ) -> np.ndarray:
        """Per generator, n draws of every entry in listed order, requested or not."""
        z = np.empty((rows, len(self.entries), n))
        for row, rng in zip(z, rngs, strict=True):
            rng.standard_normal(out=row)
        at = {var: (mu, s2, z[:, e]) for e, (var, mu, s2) in enumerate(self.entries)}
        out = np.empty((len(variables), rows, n))
        for i, var in enumerate(variables):
            mu, s2, z_var = at[var]
            out[i] = space.domain(var).clamp_array(mu + np.sqrt(s2) * z_var)
        return out

    def pretty(self) -> str:
        inner = ", ".join(f"{v}; {_fmt(m)}, {_fmt(s)}" for v, m, s in self.entries)
        return f"normal({inner})"


@dataclass(frozen=True)
class PointMass(Distribution):
    """Deterministic reference: the listed variables at fixed values."""

    assignments: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.assignments:
            raise ValueError("point mass needs at least one assignment")
        names = [v for v, _ in self.assignments]
        if len(set(names)) != len(names):
            raise ValueError("variable assigned twice")
        if not all(np.isfinite(x) for _, x in self.assignments):
            raise ValueError("point mass values must be finite")

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.assignments)

    def sample_block(
        self, space: DataSpace, rows: int, n: int, rngs: Iterable[object], variables: Sequence[str]
    ) -> np.ndarray:
        """The point in every row; takes nothing from ``rngs``."""
        fixed = dict(self.assignments)
        out = np.empty((len(variables), rows, n))
        for i, var in enumerate(variables):
            out[i] = space.domain(var).clamp(fixed[var])
        return out

    def pretty(self) -> str:
        inner = ", ".join(f"{v}={_fmt(x)}" for v, x in self.assignments)
        return f"point({inner})"


class EmpiricalRef(Distribution):
    """Reference given by stored samples, resampled with replacement.

    Usually loaded from a CSV file; can also wrap an in-memory sample set,
    optionally weighted (the exact oracles use weights to embed closed-form
    finite distributions). Printing an in-memory reference yields a digest
    placeholder that identifies the data but does not reparse.
    """

    __slots__ = ("samples", "weights", "path", "_key")

    def __init__(
        self,
        samples: SampleSet | None = None,
        path: str | None = None,
        weights: Sequence[float] | None = None,
    ):
        if samples is None:
            if path is None:
                raise ValueError("need samples or a path")
            samples = load_samples(path)
        self.samples = samples
        self.path = path
        if weights is None:
            self.weights = None
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (len(samples),):
                raise ValueError("one weight per sample required")
            if np.any(w < 0) or not np.isclose(w.sum(), 1.0, atol=1e-9):
                raise ValueError("weights must be non-negative and sum to 1")
            self.weights = w / w.sum()
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.samples.values).tobytes())
        digest.update(repr(self.samples.space.names).encode())
        if self.weights is not None:
            digest.update(np.ascontiguousarray(self.weights).tobytes())
        self._key = digest.hexdigest()[:16]

    def variables(self) -> tuple[str, ...]:
        return self.samples.space.names

    def sample_block(
        self, space: DataSpace, rows: int, n: int, rngs: Generators, variables: Sequence[str]
    ) -> np.ndarray:
        """Per generator, n stored row picks; a column is gathered only if it is requested."""
        picks = np.empty((rows, n), dtype=np.intp)
        for row, rng in zip(picks, rngs, strict=True):
            row[:] = rng.choice(len(self.samples), size=n, p=self.weights)
        out = np.empty((len(variables), *picks.shape))
        for i, var in enumerate(variables):
            column = self.samples.values[picks, self.samples.space.index(var)]
            out[i] = space.domain(var).clamp_array(column)
        return out

    def pretty(self) -> str:
        if self.path is not None:
            return f'empirical("{self.path}")'
        return f"empirical(@{self._key})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EmpiricalRef) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"EmpiricalRef({self.pretty()})"


# --------------------------------------------------------------------------
# formula nodes

_MAX_HEIGHT = 300  # levels of a formula, parsed or built; a walk takes about two frames a level


def _node(cls: type) -> type:
    """Frozen dataclass node; its fields' hash and its height are set once, when built or copied."""
    check = cls.__dict__.get("__post_init__", lambda self: None)
    kids = [k for k in ("child", "left", "right") if k in cls.__dict__.get("__annotations__", ())]

    def __post_init__(self) -> None:
        check(self)
        height = 1
        for kid in map(self.__getattribute__, kids):
            if not isinstance(kid, Formula):
                raise TypeError(f"not a formula: {kid!r}")
            height = max(height, kid._height + 1)
        if height > _MAX_HEIGHT:
            raise ValueError("formula nested too deeply")
        vars(self).update(_height=height, _hash=hash(tuple(vars(self).values())))

    cls.__post_init__ = __post_init__
    cls.__hash__ = lambda self: self._hash  # set before ``dataclass``, which then keeps it
    cls.__reduce__ = lambda self: (type(self), tuple(getattr(self, f.name) for f in fields(self)))
    return dataclass(frozen=True)(cls)


@_node
class Truth:
    def pretty(self) -> str:
        return "true"


@_node
class _Atom:
    """A reference distribution, a penalty and a threshold in [0, 1].

    Subclasses differ only in the direction of the one-sided distance, and
    equality tells them apart.
    """

    dist: Distribution
    penalty: Penalty
    threshold: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")

    def pretty(self) -> str:
        kind = type(self).__name__.lower()
        return f"{kind}({self.dist.pretty()}, {self.penalty.name}, {_fmt(self.threshold)})"


class Target(_Atom):
    """Satisfied when the state distribution is near the reference.

    Robustness at time tau: threshold - discount(tau) * dist(ref -> state).
    """


class Hazard(_Atom):
    """Satisfied when the state distribution stays away from the reference.

    Robustness at time tau: discount(tau) * dist(state -> ref) - threshold.
    Not expressible as a negated target: the two atoms use opposite
    directions of the one-sided distance.
    """


@_node
class Not:
    child: "Formula"

    def pretty(self) -> str:
        return f"!{self.child.pretty()}"


@_node
class Or:
    left: "Formula"
    right: "Formula"

    def pretty(self) -> str:
        return f"({self.left.pretty()} || {self.right.pretty()})"


@_node
class Until:
    """Bounded until over window offsets [lo, hi]."""

    left: "Formula"
    right: "Formula"
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError(f"bad until window [{self.lo}, {self.hi}]")

    def pretty(self) -> str:
        return f"({self.left.pretty()} U[{self.lo},{self.hi}] {self.right.pretty()})"


Formula = Union[Truth, Target, Hazard, Not, Or, Until]
T = TypeVar("T")


# macro constructors


def conj(left: Formula, right: Formula) -> Formula:
    """left && right, expanded through De Morgan into the core."""
    return Not(Or(Not(left), Not(right)))


def implies(left: Formula, right: Formula) -> Formula:
    return Or(Not(left), right)


def eventually(lo: int, hi: int, child: Formula) -> Formula:
    """F[lo,hi] phi, as truth-until."""
    return Until(Truth(), child, lo, hi)


def always(lo: int, hi: int, child: Formula) -> Formula:
    """G[lo,hi] phi, the dual of eventually."""
    return Not(eventually(lo, hi, Not(child)))


def fold(
    formula: Formula,
    truth: T,
    atom: Callable[[Target | Hazard], T],
    neg: Callable[[T], T],
    or_: Callable[[T, T], T],
    until: Callable[[T, T, int, int], T],
) -> T:
    """The one walk over a formula: its value in the algebra given by the five rules.

    ``until`` also takes the window's ``lo`` and ``hi``; no rule returns None,
    which the cache reads as a miss. Each distinct subformula is computed once
    (the cache is keyed by equality; a node's hash is computed when it is built),
    and the walk takes two frames a level, which ``_MAX_HEIGHT`` keeps well inside Python's.
    """
    cache: dict[Formula, T] = {}

    def walk(f: Formula) -> T:
        got = cache.get(f)
        if got is None:
            cache[f] = got = compute(f)
        return got

    def compute(f: Formula) -> T:
        match f:
            case Truth():
                return truth
            case Target() | Hazard():
                return atom(f)
            case Not(child=c):
                return neg(walk(c))
            case Or(left=l, right=r):
                return or_(walk(l), walk(r))
            case Until(left=l, right=r, lo=lo, hi=hi):
                return until(walk(l), walk(r), lo, hi)
        raise TypeError(f"not a formula: {f!r}")

    return walk(formula)


def horizon(formula: Formula) -> int:
    """Number of future steps the formula can look at."""
    return fold(formula, 0, lambda a: 0, lambda c: c, max, lambda l, r, lo, hi: hi + max(l, r))


def atoms(formula: Formula) -> tuple[Target | Hazard, ...]:
    """The distinct distribution atoms, in order of first occurrence."""

    def union(left: tuple, right: tuple, *window: int) -> tuple:
        return tuple(dict.fromkeys(left + right))

    return fold(formula, (), lambda a: (a,), lambda c: c, union, union)


def content_words(formula: Formula) -> tuple[int, ...]:
    """Stable 4-word digest of the formula's canonical printed form.

    Used to key RNG substreams for atom sampling: syntactically identical
    atoms share draws wherever they occur, which makes the double-negation
    and De Morgan identities hold exactly rather than only in expectation.
    """
    digest = hashlib.sha256(formula.pretty().encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[4 * i : 4 * i + 4], "big") for i in range(4))


def validate(formula: Formula, space: DataSpace) -> None:
    """Check that every atom is evaluable on the given space.

    Verifies that distribution and penalty variables exist in the space and
    that the penalty only reads variables the reference actually constrains:
    a normal's entries, a point's coordinates, an empirical file's columns.
    """
    for atom in atoms(formula):
        for var in (*atom.dist.variables(), *atom.penalty.variables):
            space.index(var)
        unconstrained = set(atom.penalty.variables) - set(atom.dist.variables())
        if unconstrained:
            raise ValueError(
                f"penalty {atom.penalty.name!r} reads {sorted(unconstrained)} "
                f"which the reference distribution does not constrain"
            )
