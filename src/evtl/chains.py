"""Finite Markov chains with closed-form evaluation.

Chains double as test oracles: their per-step state distributions are exact
matrix-vector transients, every reference distribution in an atom reduces to
a finite discrete distribution (normals are pushed through the domain
snapping the samplers also apply), and robustness follows from the exact
one-sided distances. The same chain can be run through the statistical
pipeline via :class:`ChainKernel`, which is what the convergence checks
compare against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spaces import DataSpace, DataState, FiniteSet, Penalty, SampleSet
from .formulas import (
    Discount,
    EmpiricalRef,
    Formula,
    Hazard,
    PointMass,
    ProductNormal,
    Target,
    horizon,
)
from .monitor import RobustnessSeries, UntilMode, robustness
from .wasserstein import DivergenceReport, _observation_times, exact_one_sided_wasserstein

__all__ = [
    "FiniteChain",
    "ChainKernel",
    "load_chain",
    "transient_distributions",
    "exact_robustness",
    "exact_divergence",
    "DistinguishingFormula",
    "distinguishing_formula",
]


class FiniteChain:
    """Markov chain on finitely many values of a single variable."""

    __slots__ = ("variable", "values", "transition", "initial", "penalty_values", "space",
                 "penalty", "_order", "_sorted")

    def __init__(
        self,
        variable: str,
        values: Sequence[float],
        transition: np.ndarray,
        initial: np.ndarray,
        penalty_values: Sequence[float],
        penalty_name: str = "rho",
    ):
        vals = tuple(float(v) for v in values)
        P = np.asarray(transition, dtype=np.float64)
        pi0 = np.asarray(initial, dtype=np.float64)
        rho = np.asarray(penalty_values, dtype=np.float64)
        # NaN slips past every ordering and sum guard, so finiteness is checked first
        for field, arr in (("values", vals), ("transition", P), ("initial", pi0), ("penalty", rho)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"chain {field} must be finite")
        if len(set(vals)) != len(vals) or not vals:
            raise ValueError("chain values must be distinct and non-empty")
        n = len(vals)
        if P.shape != (n, n):
            raise ValueError(f"transition matrix must be {n}x{n}")
        if np.any(P < 0) or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("transition rows must be distributions (sum 1 within 1e-9)")
        if pi0.shape != (n,) or np.any(pi0 < 0) or abs(pi0.sum() - 1.0) > 1e-9:
            raise ValueError("initial distribution must sum to 1 within 1e-9")
        if rho.shape != (n,) or np.any(rho < 0) or np.any(rho > 1):
            raise ValueError("penalty values must lie in [0, 1], one per state")
        self.variable = variable
        self.values = vals
        self.transition = P
        self.initial = pi0 / pi0.sum()
        self.penalty_values = rho
        self.space = DataSpace({variable: FiniteSet(vals)})
        # values need not be listed in order, so states are found by sorted value
        self._order = np.argsort(vals)
        self._sorted = np.asarray(vals)[self._order]
        self.penalty = Penalty(
            penalty_name, (variable,), lambda rows, tau: rho[self.state_index(rows[0])]
        )

    @property
    def n_states(self) -> int:
        return len(self.values)

    def state(self, value: float) -> DataState:
        return self.space.state({self.variable: value})

    def state_index(self, values: float | np.ndarray) -> np.ndarray:
        """Listed index of each value; ``KeyError`` if any value is not a state."""
        pos = np.minimum(self._sorted.searchsorted(values), self.n_states - 1)
        if not np.array_equal(self._sorted[pos], values):
            raise KeyError("value is not a state of the chain")
        return self._order[pos]

    def initial_state(self) -> DataState:
        """The initial value; a simulated run cannot start from a distribution."""
        support = np.flatnonzero(self.initial)
        if len(support) != 1:
            raise ValueError(
                f"chain initial weighs {len(support)} states; a simulation starts from one"
            )
        return self.state(self.values[support[0]])

    def penalty_scores(
        self, penalty: Penalty | None = None, tau: int | np.ndarray = 0
    ) -> np.ndarray:
        """Penalty score of each chain value, in listed order, from one projection.

        An array ``tau`` adds its leading axes: a ``(T, 1)`` column of time
        indices gives one row of scores per time.
        """
        pen = penalty or self.penalty
        shape = np.broadcast_shapes(np.shape(tau), (self.n_states,)) + (1,)
        states = np.broadcast_to(np.asarray(self.values)[:, None], shape)
        return pen.project(self.space.rows(states, pen.variables), tau)


class ChainKernel:
    """Simulation view of a chain: one step samples each run's next state from its row.

    A block of steps runs in state-index space: the values are mapped to
    listed state indices once, each step maps indices to indices, and the
    indices are mapped back to values once.
    """

    def __init__(self, chain: FiniteChain):
        self.chain = chain
        self._values = np.asarray(chain.values)
        # inverse-CDF sampling as Generator.choice does it, dividing each
        # cumulative row by its last entry: a row summing to 1 - 1 ulp must
        # still pick the same state as choice for every uniform draw. The
        # rows are stored transposed, (S next, S current), so the runs'
        # current states pick their rows with one column take
        cdf = np.cumsum(chain.transition, axis=1)
        self._cdf = np.ascontiguousarray((cdf / cdf[:, -1:]).T)

    @property
    def space(self) -> DataSpace:
        return self.chain.space

    def noise(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """One uniform draw per step, the one ``Generator.choice`` would consume."""
        rng.random(out=out)

    def advance(self, values: np.ndarray, noise: np.ndarray, out: np.ndarray) -> None:
        runs = values.shape[1]
        index = np.empty((len(noise), runs), dtype=np.intp)
        cdf = np.empty((len(self._cdf), runs))
        cut = np.empty(cdf.shape, dtype=bool)
        state = self.chain.state_index(values[0])
        for u, nxt in zip(noise, index):
            # unchecked here: the take back to values checks every index row
            self._cdf.take(state, axis=1, out=cdf, mode="clip")
            # searchsorted(cdf_row, u, side="right"), one column per run
            np.less_equal(cdf, u, out=cut)
            np.add.reduce(cut, axis=0, out=nxt)
            state = nxt
        self._values.take(index, out=out[0])


def _numbers(x: object, depth: int) -> bool:
    """Whether ``x`` is a JSON array nested ``depth`` deep with numbers at the bottom."""
    if depth == 0:
        return isinstance(x, float)
    return isinstance(x, list) and all(_numbers(v, depth - 1) for v in x)


def load_chain(path: str) -> FiniteChain:
    """Read a chain from JSON.

    Schema: ``{"variable": str, "values": [...], "transition": [[...]],
    "initial": [...], "penalty": [...], "penalty_name": str?}``. A document
    of another shape raises ``ValueError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        # integers read as floats, so one too large for a float becomes inf
        doc = json.load(fh, parse_int=float)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a chain file holds one JSON object")
    doc = {"penalty_name": "rho", **doc}
    args = []
    # FiniteChain's arguments in order, each with its array depth (None: a string)
    for key, depth in (
        ("variable", None), ("values", 1), ("transition", 2), ("initial", 1), ("penalty", 1),
        ("penalty_name", None),
    ):
        if key not in doc:
            raise ValueError(f"{path}: missing chain field {key!r}")
        if not (isinstance(doc[key], str) if depth is None else _numbers(doc[key], depth)):
            want = "a string" if depth is None else f"numbers in arrays {depth} deep"
            raise ValueError(f"{path}: chain {key} must be {want}")
        if depth == 2 and len({len(row) for row in doc[key]}) > 1:
            raise ValueError(f"{path}: chain {key} rows must have equal lengths")
        args.append(doc[key])
    return FiniteChain(*args)


def transient_distributions(chain: FiniteChain, steps: int) -> np.ndarray:
    """(steps+1, S) matrix of exact per-step state distributions."""
    out = np.empty((steps + 1, chain.n_states))
    out[0] = chain.initial
    for t in range(steps):
        out[t + 1] = out[t] @ chain.transition
    return out


def _snapped_weights(chain: FiniteChain, mean: float, variance: float) -> np.ndarray:
    """Exact distribution of a normal draw snapped to the chain's values.

    Mirrors the sampler: draws land on the nearest admissible value, so each
    value owns the interval between the midpoints to its sorted neighbours.
    """
    w = np.zeros(chain.n_states)
    if variance == 0.0:
        w[chain.state_index(chain.space.domains[0].clamp(mean))] = 1.0
        return w
    std = math.sqrt(variance)
    cuts = (chain._sorted[:-1] + chain._sorted[1:]) / 2.0
    # the normal CDF at each cut
    cdf = np.array([0.5 * (1.0 + math.erf((c - mean) / std / math.sqrt(2.0))) for c in cuts])
    w[chain._order] = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    return w


def _reference_weights(chain: FiniteChain, dist) -> np.ndarray:
    """Exact state distribution a reference induces on the chain's space."""
    var = chain.variable
    if not isinstance(dist, (ProductNormal, PointMass, EmpiricalRef)):
        raise TypeError(f"unsupported reference distribution {dist!r}")
    if var not in dist.variables():
        raise ValueError(f"reference does not constrain chain variable {var!r}")
    if isinstance(dist, ProductNormal):
        _, mean, variance = dist.entries[dist.variables().index(var)]
        return _snapped_weights(chain, mean, variance)
    if isinstance(dist, PointMass):
        return _snapped_weights(chain, dict(dist.assignments)[var], 0.0)
    col = dist.samples.column(var)
    sample_w = dist.weights if dist.weights is not None else np.full(len(col), 1.0 / len(col))
    # bincount adds each state's sample weights in sample order
    idx = chain.state_index(chain.space.domains[0].clamp_array(col))
    return np.bincount(idx, weights=sample_w, minlength=chain.n_states)


def exact_robustness(
    chain: FiniteChain,
    formula: Formula,
    discount: Discount = Discount(),
    steps: int | None = None,
    until_mode: UntilMode = "semantics",
) -> RobustnessSeries:
    """Closed-form robustness series of a formula on a chain.

    Atom distances are exact one-sided distances between finite penalty
    distributions; the formula's structure goes through the same
    :func:`~evtl.monitor.robustness` the statistical monitor uses. This is the
    convergence target for the sampled pipeline.
    """
    k = horizon(formula) if steps is None else steps
    marginals = transient_distributions(chain, k)

    def atom_series(atom: Target | Hazard) -> np.ndarray:
        ref_w = _reference_weights(chain, atom.dist)
        # row t scores the states at time t; the reference and the marginal weigh the same states
        scores = chain.penalty_scores(atom.penalty, np.arange(k + 1)[:, None])
        if isinstance(atom, Target):
            return atom.threshold - _profile(discount, range(k + 1), scores, ref_w, marginals)
        return _profile(discount, range(k + 1), scores, marginals, ref_w) - atom.threshold

    return robustness(formula, k, atom_series, until_mode)


def _profile(
    discount: Discount, times: Sequence[int], scores: np.ndarray,
    w_from: np.ndarray, w_to: np.ndarray,
) -> np.ndarray:
    """Discounted exact one-sided distance from ``w_from`` to ``w_to`` at each time.

    Row t of each argument scores or weighs the states at time t; a 1-D
    argument serves every time.
    """
    scores, w_from, w_to = np.broadcast_arrays(scores, w_from, w_to)
    return np.array([
        discount(t) * exact_one_sided_wasserstein(scores[t], w_from[t], scores[t], w_to[t])
        for t in times
    ])


def exact_divergence(
    a: FiniteChain,
    b: FiniteChain,
    discount: Discount = Discount(),
    steps: int = 0,
    times: tuple[int, ...] | None = None,
) -> tuple[DivergenceReport, DivergenceReport]:
    """Exact discounted divergence profiles (a to b, b to a).

    Both chains must share the state space and penalty table, though they
    may list the states in different orders; the overall two-sided
    evolution distance is the max of the two report values. ``times`` are checked as
    :func:`~evtl.wasserstein.evolution_divergence` checks them, with no upper limit.
    """
    if a.space != b.space:
        raise ValueError("chains live on different spaces")
    # b's states in a's listed order, so one scoring serves both chains
    order = b.state_index(np.asarray(a.values))
    if not np.array_equal(a.penalty_values, b.penalty_values[order]):
        raise ValueError("chains disagree on the penalty table")
    times = _observation_times(times, steps if times is None else None)
    marg_a = transient_distributions(a, times[-1])
    marg_b = transient_distributions(b, times[-1])[:, order]
    # the chain penalty is its table, so the scores do not depend on the time
    scores = a.penalty_scores()
    fwd = _profile(discount, times, scores, marg_a, marg_b)
    rev = _profile(discount, times, scores, marg_b, marg_a)
    return tuple(DivergenceReport(times, tuple(p.tolist())) for p in (fwd, rev))


@dataclass(frozen=True)
class DistinguishingFormula:
    """A single target atom that separates two chains by their exact distance.

    Evaluating the atom at ``eval_time`` gives the favored chain robustness
    ``threshold`` and the other chain ``threshold - gap``; the gap equals
    the two-sided evolution distance.
    """

    formula: Target
    eval_time: int
    favored: str  # 'a' or 'b'
    gap: float
    forward: DivergenceReport
    reverse: DivergenceReport


def distinguishing_formula(
    a: FiniteChain,
    b: FiniteChain,
    discount: Discount = Discount(),
    steps: int = 0,
    times: tuple[int, ...] | None = None,
) -> DistinguishingFormula:
    """Construct the witness atom for the exact distance between two chains.

    The reference is the favored chain's exact state distribution at the
    peak divergence time, embedded as a weighted empirical reference; the
    threshold is the opposite direction's peak, so the favored chain sits
    exactly at the satisfaction boundary from above.
    """
    fwd, rev = exact_divergence(a, b, discount, steps, times)
    favored = "a" if fwd.value >= rev.value else "b"
    src, peak, threshold = (a, fwd, rev.value) if favored == "a" else (b, rev, fwd.value)
    t_star = peak.peak_time
    marg = transient_distributions(src, t_star)[t_star]
    support = SampleSet(src.space, np.asarray(src.values)[:, None])
    ref = EmpiricalRef(samples=support, weights=marg)
    atom = Target(ref, src.penalty, threshold)
    return DistinguishingFormula(atom, t_star, favored, max(fwd.value, rev.value), fwd, rev)
