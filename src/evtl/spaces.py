"""Finite-dimensional data spaces, states, and penalty functions.

A data space fixes an ordered set of named real variables, each ranging over
its own domain (a closed interval or a finite set of reals). States are
immutable assignments of one in-domain value per variable. A penalty scores a
state in [0, 1] by how far it is from some target condition; penalties induce
the one-sided gap used everywhere else in the package.

Penalties read variable-major rows: one array per variable they name, in
their own order. Code that holds states as ``values[..., dim]`` picks a
penalty's rows with :meth:`DataSpace.rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._io import read_text, write_csv

__all__ = [
    "Interval",
    "FiniteSet",
    "DataSpace",
    "DataState",
    "SampleSet",
    "Penalty",
    "penalty_gap",
    "identity_penalty",
    "save_samples",
    "load_samples",
]


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("interval bounds must be finite")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def clamp(self, x: float) -> float:
        return min(self.hi, max(self.lo, x))

    def clamp_array(self, xs: np.ndarray) -> np.ndarray:
        return np.clip(xs, self.lo, self.hi)


@dataclass(frozen=True)
class FiniteSet:
    """Finite set of admissible real values, kept sorted and distinct."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(sorted(float(v) for v in self.values))
        if not vals:
            raise ValueError("finite domain needs at least one value")
        if len(set(vals)) != len(vals):
            raise ValueError("finite domain values must be distinct")
        object.__setattr__(self, "values", vals)

    def contains(self, x: float) -> bool:
        return any(x == v for v in self.values)

    def clamp(self, x: float) -> float:
        """Snap to the nearest admissible value (ties go low)."""
        arr = np.asarray(self.values)
        return float(arr[np.argmin(np.abs(arr - x))])

    def clamp_array(self, xs: np.ndarray) -> np.ndarray:
        arr = np.asarray(self.values)
        idx = np.argmin(np.abs(xs[..., None] - arr[None, :]), axis=-1)
        return arr[idx]


Domain = Interval | FiniteSet


class DataSpace:
    """Ordered collection of named variables with their domains."""

    __slots__ = ("names", "domains", "_index")

    def __init__(self, variables: Mapping[str, Domain] | Sequence[tuple[str, Domain]]):
        items = list(variables.items()) if isinstance(variables, Mapping) else list(variables)
        if not items:
            raise ValueError("a data space needs at least one variable")
        names = tuple(name for name, _ in items)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names: tuple[str, ...] = names
        self.domains: tuple[Domain, ...] = tuple(dom for _, dom in items)
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}; space has {', '.join(self.names)}") from None

    def domain(self, name: str) -> Domain:
        return self.domains[self.index(name)]

    def rows(self, values: np.ndarray, variables: Iterable[str]) -> np.ndarray:
        """The (k, *lead) rows of the named variables of states ``values[..., dim]``."""
        return np.moveaxis(np.asarray(values), -1, 0)[[self.index(v) for v in variables]]

    def state(self, values: Mapping[str, float] | None = None, **kwargs: float) -> "DataState":
        """Build a state from a full mapping of variable values.

        Every variable must be given exactly once and lie in its domain.
        """
        given = dict(values or {})
        given.update(kwargs)
        extra = set(given) - set(self.names)
        if extra:
            raise KeyError(f"unknown variables: {sorted(extra)}")
        missing = set(self.names) - set(given)
        if missing:
            raise KeyError(f"missing variables: {sorted(missing)}")
        vec = tuple(float(given[name]) for name in self.names)
        for name, dom, x in zip(self.names, self.domains, vec):
            if not dom.contains(x):
                raise ValueError(f"value {x} out of domain for variable {name!r}")
        return DataState(self, vec)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DataSpace)
            and self.names == other.names
            and self.domains == other.domains
        )

    def __hash__(self) -> int:
        return hash((self.names, self.domains))

    def __repr__(self) -> str:
        return f"DataSpace({', '.join(self.names)})"


class DataState:
    """Immutable point of a data space. Access values by variable name."""

    __slots__ = ("space", "values")

    def __init__(self, space: DataSpace, values: tuple[float, ...]):
        self.space = space
        self.values = values

    def __getitem__(self, name: str) -> float:
        return self.values[self.space.index(name)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DataState)
            and self.space == other.space
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.space, self.values))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v:g}" for n, v in zip(self.space.names, self.values))
        return f"DataState({inner})"


class SampleSet:
    """A batch of states of one space, stored as an (N, dim) float array.

    Row order is meaningful: estimation code relies on row j of every per-step
    sample set belonging to simulation run j.
    """

    __slots__ = ("space", "values")

    def __init__(self, space: DataSpace, values: np.ndarray):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != space.dim:
            raise ValueError(f"expected an (N, {space.dim}) array, got shape {arr.shape}")
        self.space = space
        self.values = arr

    def __len__(self) -> int:
        return self.values.shape[0]

    def state(self, i: int) -> DataState:
        return DataState(self.space, tuple(float(x) for x in self.values[i]))

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.space.index(name)]

    def take(self, n: int) -> "SampleSet":
        """First n rows, preserving stored order."""
        if not 0 <= n <= len(self):
            raise ValueError(f"cannot take {n} of {len(self)} samples")
        return SampleSet(self.space, self.values[:n])

    def __repr__(self) -> str:
        return f"SampleSet(n={len(self)}, space={self.space!r})"


class Penalty:
    """Named scoring function mapping states into [0, 1].

    ``fn(rows, tau)`` gets the states' values of the penalty's own
    ``variables``, variable-major: ``rows[i]`` holds ``variables[i]`` and
    ``rows`` has shape ``(k, *lead)`` for k variables. It returns raw scores
    of shape ``lead``, one per state. ``tau`` is the time index: an int, or
    an integer array that broadcasts over ``lead``, so one call can score
    the states of many time indices. Scores are clamped to [0, 1]; a NaN
    score raises ``ValueError``, a numeric failure ``FloatingPointError``.
    """

    __slots__ = ("name", "variables", "fn")

    def __init__(
        self,
        name: str,
        variables: Iterable[str],
        fn: Callable[[np.ndarray, int | np.ndarray], np.ndarray],
    ):
        self.name = name
        self.variables = tuple(variables)
        self.fn = fn

    def project(self, rows: np.ndarray, tau: int | np.ndarray = 0) -> np.ndarray:
        """Penalty of every state in ``rows[k, *lead]``, in [0, 1], one per ``lead`` index."""
        if len(rows) != len(self.variables):
            n = len(self.variables)
            raise ValueError(f"penalty {self.name!r} reads {n} variables, got {len(rows)} rows")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            raw = np.asarray(self.fn(rows, tau), dtype=np.float64)
        if raw.shape != rows.shape[1:]:
            raise ValueError(f"penalty {self.name!r} returned shape {raw.shape} for {rows.shape}")
        scores = np.clip(raw, 0.0, 1.0)
        # a NaN survives the clip and makes every comparison false; one sum finds it
        if np.isnan(scores.sum()):
            raise ValueError(f"penalty {self.name!r} returned NaN")
        return scores

    def __repr__(self) -> str:
        return f"Penalty({self.name!r})"


def penalty_gap(penalty: Penalty, d_from: DataState, d_to: DataState, tau: int = 0) -> float:
    """One-sided penalty gap max(rho(d_to) - rho(d_from), 0).

    Zero when the second state scores no worse than the first; this is a
    hemimetric on states (identity and triangle hold, symmetry does not).
    """
    rows = d_from.space.rows(np.array([d_from.values, d_to.values]), penalty.variables)
    lo, hi = penalty.project(rows, tau).tolist()
    return max(hi - lo, 0.0)


def identity_penalty(space: DataSpace, variable: str, name: str | None = None) -> Penalty:
    """Penalty reading one variable directly (clamped into [0, 1])."""
    space.index(variable)  # an unknown variable fails here, not at the first projection
    return Penalty(name or variable, (variable,), lambda rows, tau: rows[0])


def save_samples(dest, samples: SampleSet) -> None:
    """Write a sample set as CSV: header of variable names, one row per sample."""
    write_csv(dest, samples.space.names, ("%.17g",), [(samples.values,)])


def load_samples(path: str) -> SampleSet:
    """Read a sample-set CSV written by :func:`save_samples`.

    The space is inferred: its domains are the per-column sample ranges.
    """
    header, *lines = read_text(path).split("\n")
    header = header.strip()
    if not header:
        raise ValueError(f"{path}: empty sample file")
    names = [c.strip() for c in header.split(",")]
    rows = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(names):
            raise ValueError(f"{path}:{lineno}: expected {len(names)} columns")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if not np.isfinite(row).all():
            raise ValueError(f"{path}:{lineno}: sample values must be finite")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no sample rows")
    data = np.asarray(rows, dtype=np.float64)
    doms = [
        (n, Interval(float(np.min(data[:, i])), float(np.max(data[:, i]))))
        for i, n in enumerate(names)
    ]
    return SampleSet(DataSpace(doms), data)
