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
    Not,
    Or,
    PointMass,
    ProductNormal,
    Target,
    Truth,
    Until,
    horizon,
)
from .monitor import RobustnessSeries, UntilMode, until_combine
from .wasserstein import DivergenceReport, exact_one_sided_wasserstein

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

    __slots__ = ("variable", "values", "transition", "initial", "penalty_values", "space", "penalty")

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
        table = {v: float(r) for v, r in zip(vals, rho)}
        col = 0
        # values need not be listed in order, so scores are found by sorted value
        order = np.argsort(vals)
        keys, scores = np.asarray(vals)[order], rho[order]

        def lookup(arr: np.ndarray, tau: int) -> np.ndarray:
            pos = np.minimum(np.searchsorted(keys, arr[:, col]), n - 1)
            if not np.array_equal(keys[pos], arr[:, col]):
                raise KeyError("value is not a state of the chain")
            return scores[pos]

        self.penalty = Penalty(
            penalty_name,
            (variable,),
            lambda d: table[d.values[col]],
            array_fn=lookup,
        )

    @property
    def n_states(self) -> int:
        return len(self.values)

    def state(self, value: float) -> DataState:
        return self.space.state({self.variable: value})

    def state_index(self, value: float) -> int:
        return self.values.index(value)

    def initial_state(self) -> DataState:
        """Most likely initial value (ties to the earlier listed one)."""
        return self.state(self.values[int(np.argmax(self.initial))])

    def penalty_scores(self, penalty: Penalty | None = None, tau: int = 0) -> np.ndarray:
        """Penalty score of each chain value, one scalar call per state."""
        pen = penalty or self.penalty
        return np.array([pen(self.state(v), tau) for v in self.values])


class ChainKernel:
    """Simulation view of a chain: one step samples each run's next state from its row."""

    def __init__(self, chain: FiniteChain):
        self.chain = chain
        self._values = np.asarray(chain.values)
        self._order = np.argsort(self._values)
        self._sorted = self._values[self._order]
        # inverse-CDF sampling as Generator.choice does it, dividing each
        # cumulative row by its last entry: a row summing to 1 - 1 ulp must
        # still pick the same state as choice for every uniform draw
        cdf = np.cumsum(chain.transition, axis=1)
        self._cdf = cdf / cdf[:, -1:]

    @property
    def space(self) -> DataSpace:
        return self.chain.space

    def noise(self, rng: np.random.Generator, steps: int) -> np.ndarray:
        """One uniform draw per step, the one ``Generator.choice`` would consume."""
        return rng.random(steps)

    def step_batch(self, values: np.ndarray, noise: np.ndarray) -> np.ndarray:
        rows = self._order[np.searchsorted(self._sorted, values[:, 0])]
        # searchsorted(cdf_row, u, side="right"), one row per run
        nxt = (self._cdf[rows] <= noise[:, None]).sum(axis=1)
        return self._values[nxt][:, None]


def load_chain(path: str) -> FiniteChain:
    """Read a chain from JSON.

    Schema: ``{"variable": str, "values": [...], "transition": [[...]],
    "initial": [...], "penalty": [...], "penalty_name": str?}``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return FiniteChain(
            doc["variable"],
            doc["values"],
            np.asarray(doc["transition"], dtype=np.float64),
            np.asarray(doc["initial"], dtype=np.float64),
            doc["penalty"],
            doc.get("penalty_name", "rho"),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing chain field {exc}") from None


def transient_distributions(chain: FiniteChain, steps: int) -> np.ndarray:
    """(steps+1, S) matrix of exact per-step state distributions."""
    out = np.empty((steps + 1, chain.n_states))
    out[0] = chain.initial
    for t in range(steps):
        out[t + 1] = out[t] @ chain.transition
    return out


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _snapped_weights(chain: FiniteChain, mean: float, variance: float) -> np.ndarray:
    """Exact distribution of a normal draw snapped to the chain's values.

    Mirrors the sampler: draws land on the nearest admissible value, so each
    value owns the interval between the midpoints to its sorted neighbours.
    """
    order = np.argsort(chain.values)
    sorted_vals = np.asarray(chain.values)[order]
    if variance == 0.0:
        w = np.zeros(chain.n_states)
        snapped = FiniteSet(chain.values).clamp(mean)
        w[chain.state_index(snapped)] = 1.0
        return w
    std = math.sqrt(variance)
    cuts = (sorted_vals[:-1] + sorted_vals[1:]) / 2.0
    cdf = np.array([_normal_cdf((c - mean) / std) for c in cuts])
    probs_sorted = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    w = np.zeros(chain.n_states)
    w[order] = probs_sorted
    return w


def _reference_weights(chain: FiniteChain, dist) -> np.ndarray:
    """Exact state distribution a reference induces on the chain's space."""
    var = chain.variable
    snap = FiniteSet(chain.values)
    if isinstance(dist, ProductNormal):
        for v, mean, variance in dist.entries:
            if v == var:
                return _snapped_weights(chain, mean, variance)
        raise ValueError(f"reference does not constrain chain variable {var!r}")
    if isinstance(dist, PointMass):
        for v, value in dist.assignments:
            if v == var:
                w = np.zeros(chain.n_states)
                w[chain.state_index(snap.clamp(value))] = 1.0
                return w
        raise ValueError(f"reference does not constrain chain variable {var!r}")
    if isinstance(dist, EmpiricalRef):
        names = dist.samples.space.names
        if var not in names:
            raise ValueError(f"reference does not constrain chain variable {var!r}")
        col = dist.samples.values[:, names.index(var)]
        sample_w = (
            dist.weights
            if dist.weights is not None
            else np.full(len(col), 1.0 / len(col))
        )
        w = np.zeros(chain.n_states)
        for x, wx in zip(col, sample_w):
            w[chain.state_index(snap.clamp(float(x)))] += wx
        return w
    raise TypeError(f"unsupported reference distribution {dist!r}")


def exact_robustness(
    chain: FiniteChain,
    formula: Formula,
    discount: Discount = Discount(),
    steps: int | None = None,
    until_mode: UntilMode = "semantics",
) -> RobustnessSeries:
    """Closed-form robustness series of a formula on a chain.

    Atom distances are exact one-sided distances between finite penalty
    distributions; the rest of the evaluation is the same series algebra the
    statistical monitor uses. This is the convergence target for the
    sampled pipeline.
    """
    k = horizon(formula) if steps is None else steps
    marginals = transient_distributions(chain, k)
    cache: dict[Formula, np.ndarray] = {}

    def atom_series(atom: Target | Hazard) -> np.ndarray:
        ref_w = _reference_weights(chain, atom.dist)
        out = np.empty(k + 1)
        for t in range(k + 1):
            # the reference and the marginal weigh the same scored states
            scores = chain.penalty_scores(atom.penalty, t)
            if isinstance(atom, Target):
                d = exact_one_sided_wasserstein(scores, ref_w, scores, marginals[t])
                out[t] = atom.threshold - discount(t) * d
            else:
                d = exact_one_sided_wasserstein(scores, marginals[t], scores, ref_w)
                out[t] = discount(t) * d - atom.threshold
        return out

    def walk(f: Formula) -> np.ndarray:
        got = cache.get(f)
        if got is not None:
            return got
        match f:
            case Truth():
                r = np.ones(k + 1)
            case Target() | Hazard():
                r = atom_series(f)
            case Not(child=c):
                r = -walk(c)
            case Or(left=l, right=rr):
                r = np.maximum(walk(l), walk(rr))
            case Until(left=l, right=rr, lo=lo, hi=hi):
                r = until_combine(walk(l), walk(rr), lo, hi, until_mode)
            case _:
                raise TypeError(f"not a formula: {f!r}")
        cache[f] = r
        return r

    return RobustnessSeries(walk(formula), horizon(formula), until_mode)


def _directional_profile(
    discount: Discount,
    times: tuple[int, ...],
    scores: np.ndarray,
    marg_a: np.ndarray,
    marg_b: np.ndarray,
) -> tuple[float, ...]:
    """Discounted one-sided distance from a to b at each time; both chains share ``scores``."""
    return tuple(
        discount(t) * exact_one_sided_wasserstein(scores, marg_a[t], scores, marg_b[t])
        for t in times
    )


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
    evolution distance is the max of the two report values.
    """
    if a.space != b.space:
        raise ValueError("chains live on different spaces")
    # b's states in a's listed order, so one scoring serves both chains
    order = [b.state_index(v) for v in a.values]
    if not np.array_equal(a.penalty_values, b.penalty_values[order]):
        raise ValueError("chains disagree on the penalty table")
    if times is None:
        times = tuple(range(steps + 1))
    steps = max(times)
    marg_a = transient_distributions(a, steps)
    marg_b = transient_distributions(b, steps)[:, order]
    # the chain penalty is its table, so the scores do not depend on the time
    scores = a.penalty_scores()
    fwd = _directional_profile(discount, times, scores, marg_a, marg_b)
    rev = _directional_profile(discount, times, scores, marg_b, marg_a)
    return DivergenceReport(times, fwd), DivergenceReport(times, rev)


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
