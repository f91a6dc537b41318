"""Bayesian profitability evaluation and planning toolkit for airline route networks.

Evaluates a route network's probability of profitability as a total
probability over weighted driver components, attributes realized outcomes
back to the drivers, optimizes driver weights within bounds, selects routes
under fleet availability, and sizes single-leg revenue management policies.
"""

__version__ = "0.1.0"

from . import errors
from .bayes import (
    DEFAULT_DRIVERS,
    Evaluation,
    Hypothesis,
    HypothesisSet,
    LikelihoodVector,
    WeightVector,
    posterior,
    total_probability,
    uniform_weights,
    validate_simplex,
)
from .economics import (
    AnchorPair,
    FleetRequirement,
    FleetType,
    Route,
    ScoringAnchors,
    aircraft_required,
    component_likelihoods,
    fleet_requirement,
    range_feasible,
    required_frequency,
    route_profit,
)
from .optimizer import BoxConstraints, OptimizationResult, optimize_weights
from .planner import (
    FleetAvailability,
    NetworkPlan,
    RouteCandidate,
    score_candidate,
    select_routes,
)
from .pipeline import run_pipeline
from .report import Report, emit_report
from .rm import (
    DemandModel,
    LegRMProblem,
    LegSimulationSummary,
    RMPolicy,
    expected_revenue,
    fcfs_baseline,
    littlewood_protection,
    overbooking_limit,
    simulate_leg,
)
from .scenario import Scenario, dump_scenario, load_scenario, scenario_from_dict, write_scenario

__all__ = [
    "__version__",
    "errors",
    "DEFAULT_DRIVERS",
    "Evaluation",
    "Hypothesis",
    "HypothesisSet",
    "LikelihoodVector",
    "WeightVector",
    "posterior",
    "total_probability",
    "uniform_weights",
    "validate_simplex",
    "AnchorPair",
    "FleetRequirement",
    "FleetType",
    "Route",
    "ScoringAnchors",
    "aircraft_required",
    "component_likelihoods",
    "fleet_requirement",
    "range_feasible",
    "required_frequency",
    "route_profit",
    "BoxConstraints",
    "OptimizationResult",
    "optimize_weights",
    "FleetAvailability",
    "NetworkPlan",
    "RouteCandidate",
    "score_candidate",
    "select_routes",
    "run_pipeline",
    "Report",
    "emit_report",
    "DemandModel",
    "LegRMProblem",
    "LegSimulationSummary",
    "RMPolicy",
    "expected_revenue",
    "fcfs_baseline",
    "littlewood_protection",
    "overbooking_limit",
    "simulate_leg",
    "Scenario",
    "dump_scenario",
    "load_scenario",
    "scenario_from_dict",
    "write_scenario",
]
