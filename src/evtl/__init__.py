"""Statistical model checking of evolution temporal logic.

Simulate discrete-time stochastic systems, estimate how their state
distribution evolves, and score distribution-level temporal properties with
a quantitative robustness degree in [-1, 1].
"""

from .spaces import (
    DataSpace,
    DataState,
    FiniteSet,
    Interval,
    Penalty,
    SampleSet,
    identity_penalty,
    penalty_gap,
)
from .simulation import (
    EvolutionEstimate,
    MarkovKernel,
    RandomnessPlan,
    empirical_measure,
    estimate,
    simulate,
)
from .formulas import (
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
    eventually,
    horizon,
    implies,
)
from .wasserstein import (
    DivergenceReport,
    evolution_divergence,
    exact_one_sided_wasserstein,
    one_sided_wasserstein,
)

__version__ = "0.1.0"

__all__ = [
    "DataSpace",
    "DataState",
    "FiniteSet",
    "Interval",
    "Penalty",
    "SampleSet",
    "identity_penalty",
    "penalty_gap",
    "EvolutionEstimate",
    "MarkovKernel",
    "RandomnessPlan",
    "empirical_measure",
    "estimate",
    "simulate",
    "Discount",
    "EmpiricalRef",
    "Hazard",
    "Not",
    "Or",
    "PointMass",
    "ProductNormal",
    "Target",
    "Truth",
    "Until",
    "always",
    "conj",
    "eventually",
    "horizon",
    "implies",
    "DivergenceReport",
    "evolution_divergence",
    "exact_one_sided_wasserstein",
    "one_sided_wasserstein",
    "__version__",
]
