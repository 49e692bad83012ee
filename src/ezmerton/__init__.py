"""Numerical laboratory for infinite-horizon Epstein-Zin stochastic
differential utility in a constant-parameter Black-Scholes-Merton market:
closed-form policies and values, a lattice solver for utility
processes, sub/supersolution residual checks, and scripted experiments."""

__version__ = "0.1.0"

from .preferences import (  # noqa: F401
    Market,
    Preferences,
    Regime,
    RegimeKind,
    ValueSign,
    classify_regime,
    numeraire_shift,
    transformed_aggregator,
    transformed_consumption,
)
from .closed_form import (  # noqa: F401
    CandidatePolicy,
    PiecewiseExponentialStream,
    ProportionalStrategy,
    RootReport,
    candidate_policy,
    crra_bubble_quantities,
    decay_rate,
    deterministic_utility,
    difference_form_roots,
    exponential_stream_utility,
    max_transversal_consumption,
    optimal_consumption_rate,
    proportional_utility,
)
from .lattice import (  # noqa: F401
    AdaptedGrid,
    Lattice,
    TailClosure,
    build_lattice,
    candidate_lattice,
    consumption_grid,
    mc_drift_check,
    step_expectation,
    transformed_consumption_grid,
    unconditional_expectation,
)
from .solver import (  # noqa: F401
    OrderCertificate,
    ResidualReport,
    SolveReport,
    apply_recursion,
    check_solution,
    compare,
    generalized_utility,
    order_check,
    picard_solve,
)
