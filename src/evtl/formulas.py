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
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

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
    "horizon",
    "iter_atoms",
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
                parts = arg.split(",")
                rate = float(parts[0])
                scale = float(parts[1]) if len(parts) > 1 else 1.0
                return cls.exponential(rate, scale)
        except (ValueError, IndexError) as exc:
            raise ValueError(f"bad discount spec {text!r}: {exc}") from None
        raise ValueError(f"bad discount spec {text!r} (want const:c or exp:r)")

    def __call__(self, tau: int) -> float:
        if self.kind == "const":
            return self.base
        return self.base * self.rate**tau

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

    ``sample_block(space, n, rngs, variables)`` returns a ``(k, rows, n)``
    array for the k requested ``variables``: ``out[i, r]`` holds n draws of
    ``variables[i]`` from the r-th generator of ``rngs``, and each generator
    is drawn from before the next is taken. A requested variable that the
    reference leaves unset sits at its domain floor. ``sample`` is the
    one-row case over every variable of the space.
    """

    __slots__ = ()

    def sample(self, space: DataSpace, n: int, rng: np.random.Generator | None) -> SampleSet:
        return SampleSet(space, self.sample_block(space, n, (rng,), space.names)[:, 0].T)


def _variable_rows(
    space: DataSpace,
    variables: Sequence[str],
    shape: tuple[int, ...],
    row: Callable[[str], np.ndarray | float | None],
) -> np.ndarray:
    """(k, *shape) array of the requested variables: ``row(var)``, or the floor if that is None."""
    out = np.empty((len(variables), *shape))
    for i, var in enumerate(variables):
        got = row(var)
        out[i] = space.floor[space.index(var)] if got is None else got
    return out


@dataclass(frozen=True)
class ProductNormal(Distribution):
    """Independent normals on selected variables, others at their domain floor.

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
        self, space: DataSpace, n: int, rngs: Generators, variables: Sequence[str]
    ) -> np.ndarray:
        """Per generator, n draws of every entry in listed order, requested or not."""
        z = np.array([rng.standard_normal((len(self.entries), n)) for rng in rngs])
        at = {var: (mu, s2, z[:, e]) for e, (var, mu, s2) in enumerate(self.entries)}

        def row(var: str) -> np.ndarray | None:
            if var not in at:
                return None
            mu, s2, z_var = at[var]
            return space.domain(var).clamp_array(mu + np.sqrt(s2) * z_var)

        return _variable_rows(space, variables, (len(z), n), row)

    def pretty(self) -> str:
        inner = ", ".join(f"{v}; {_fmt(m)}, {_fmt(s)}" for v, m, s in self.entries)
        return f"normal({inner})"


@dataclass(frozen=True)
class PointMass(Distribution):
    """Deterministic reference: listed variables fixed, others at domain floor."""

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
        self, space: DataSpace, n: int, rngs: Iterable[object], variables: Sequence[str]
    ) -> np.ndarray:
        """The point, once per entry of ``rngs``; draws nothing."""
        fixed = dict(self.assignments)

        def row(var: str) -> float | None:
            return space.domain(var).clamp(fixed[var]) if var in fixed else None

        return _variable_rows(space, variables, (sum(1 for _ in rngs), n), row)

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
        self, space: DataSpace, n: int, rngs: Generators, variables: Sequence[str]
    ) -> np.ndarray:
        """Per generator, n stored row picks; a column is gathered only if it is requested."""
        picks = np.array([rng.choice(len(self.samples), size=n, p=self.weights) for rng in rngs])
        stored = self.samples.space.names

        def row(var: str) -> np.ndarray | None:
            if var not in stored:
                return None
            return space.domain(var).clamp_array(self.samples.values[picks, stored.index(var)])

        return _variable_rows(space, variables, picks.shape, row)

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


@dataclass(frozen=True)
class Truth:
    def pretty(self) -> str:
        return "true"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Not:
    child: "Formula"

    def pretty(self) -> str:
        return f"!{self.child.pretty()}"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"

    def pretty(self) -> str:
        return f"({self.left.pretty()} || {self.right.pretty()})"


@dataclass(frozen=True)
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


def horizon(formula: Formula) -> int:
    """Number of future steps the formula can look at."""
    match formula:
        case Truth() | Target() | Hazard():
            return 0
        case Not(child=c):
            return horizon(c)
        case Or(left=l, right=r):
            return max(horizon(l), horizon(r))
        case Until(left=l, right=r, hi=hi):
            return hi + max(horizon(l), horizon(r))
    raise TypeError(f"not a formula: {formula!r}")


def iter_atoms(formula: Formula) -> Iterator[Target | Hazard]:
    """All distribution atoms, in depth-first order (duplicates retained)."""
    match formula:
        case Target() | Hazard():
            yield formula
        case Not(child=c):
            yield from iter_atoms(c)
        case Or(left=l, right=r) | Until(left=l, right=r):
            yield from iter_atoms(l)
            yield from iter_atoms(r)
        case Truth():
            return
        case _:
            raise TypeError(f"not a formula: {formula!r}")


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
    that the penalty only reads variables the reference actually constrains
    (empirical references are exempt; their columns are remapped by name).
    """
    for atom in iter_atoms(formula):
        for var in atom.dist.variables():
            space.index(var)
        for var in atom.penalty.variables:
            space.index(var)
        if not isinstance(atom.dist, EmpiricalRef):
            unconstrained = set(atom.penalty.variables) - set(atom.dist.variables())
            if unconstrained:
                raise ValueError(
                    f"penalty {atom.penalty.name!r} reads {sorted(unconstrained)} "
                    f"which the reference distribution leaves at the domain floor"
                )
