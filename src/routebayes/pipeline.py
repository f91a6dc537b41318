"""Pipeline orchestration: evaluate -> optimize -> plan -> rm over one scenario.

Stages always execute in that fixed order. Requesting ``plan`` implies the
evaluate computation (and ``optimize`` needs it too); the report still
contains only the sections that were requested. When optimize runs, the
optimized weights feed the plan stage's probability-weighted scores,
otherwise the scenario's prior weights do. Reports are deterministic for a
fixed scenario, stage set, trial count, and seed; only the timestamp varies.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable

import numpy as np

from . import __version__
from .bayes import Evaluation, LikelihoodVector, WeightVector, posterior, total_probability
from .economics import FleetRequirement, FleetType, Route, component_likelihoods, fleet_requirement, range_feasible, route_profit
from .errors import RouteBayesError, ValidationError
from .optimizer import BoxConstraints, OptimizationResult, optimize_weights
from .planner import NetworkPlan, RouteCandidate, score_candidate, select_routes
from .report import Report
from .rm import MAX_TRIALS, RMPolicy, expected_revenue, fcfs_baseline, littlewood_protection, overbooking_limit, simulate_leg
from .scenario import Scenario, round_tree

STAGES = ("evaluate", "optimize", "plan", "rm")
DEFAULT_TRIALS = 10_000


@dataclass(frozen=True)
class RouteEvaluation:
    """Everything the pipeline derives for one route."""

    route: Route
    fleet: FleetType
    requirement: FleetRequirement
    profit: float
    likelihoods: LikelihoodVector
    evaluation: Evaluation
    score: float


def _normalize_stages(stages: Iterable[str]) -> tuple[str, ...]:
    requested = set(stages)
    unknown = requested - set(STAGES)
    if unknown:
        raise ValueError(f"unknown stages: {sorted(unknown)}; valid stages are {STAGES}")
    return tuple(s for s in STAGES if s in requested)


@contextmanager
def _stage_context(name: str):
    """Prefix toolkit errors with the stage they surfaced in, keeping the type."""
    try:
        yield
    except RouteBayesError as exc:
        exc.args = (f"stage {name}: {exc}",) + exc.args[1:]
        raise


def _each(section: str, records, work, figures) -> list:
    """``work(index, record)`` per record; errors, numpy overflow and non-finite ``figures(result)`` name the record."""
    results = []
    for index, record in enumerate(records):
        try:
            with np.errstate(over="raise", invalid="raise"):
                result = work(index, record)
            for name, value in figures(result).items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{name} is not finite: {value!r}")
        except (ValueError, ArithmeticError) as exc:
            raise ValidationError(f"{section}[{record.id}]", str(exc)) from exc
        results.append(result)
    return results


def _assign_fleet(scenario: Scenario, route: Route) -> tuple[FleetType, FleetRequirement, float]:
    """The pinned fleet, else the most profitable one in range (ties by name), sized."""
    pinned = scenario.pinned_fleets.get(route.id)
    if pinned is not None:
        fleets = [scenario.fleet_by_name(pinned)]
    else:
        fleets = [f for f in scenario.fleets if range_feasible(route, f)]
    options = []
    for fleet in fleets:
        req = fleet_requirement(route, fleet, scenario.target_load_factor)
        options.append((fleet, req, route_profit(route, fleet, req.flights_per_week)))
    return min(options, key=lambda option: (-option[2], option[0].name))


def _evaluate_route(scenario: Scenario, route: Route) -> RouteEvaluation:
    fleet, req, profit = _assign_fleet(scenario, route)
    likelihoods = component_likelihoods(route, profit, scenario.anchors)
    ev = posterior(scenario.weights, likelihoods)
    return RouteEvaluation(
        route=route,
        fleet=fleet,
        requirement=req,
        profit=profit,
        likelihoods=likelihoods,
        evaluation=ev,
        score=ev.total_probability * profit,
    )


def evaluate_routes(scenario: Scenario) -> list[RouteEvaluation]:
    """Assign fleets, size the operation, and score every route in order."""
    return _each("routes", scenario.routes, lambda _, route: _evaluate_route(scenario, route), vars)


def mean_likelihoods(rows: list[RouteEvaluation]) -> LikelihoodVector:
    """Per-driver mean of the route likelihood vectors.

    The total probability is linear in the weights, so optimizing against the
    mean vector maximizes the network-average total probability.
    """
    if not rows:
        raise ValidationError("routes", "optimization requires at least one route")
    n = len(rows[0].likelihoods)
    means = tuple(
        math.fsum(row.likelihoods[i] for row in rows) / len(rows) for i in range(n)
    )
    return LikelihoodVector(means)


def _optimize(scenario: Scenario, rows: list[RouteEvaluation]):
    likelihoods = mean_likelihoods(rows)
    constraints = scenario.constraints
    if constraints is None:
        constraints = BoxConstraints.full(len(scenario.hypotheses))
    return optimize_weights(likelihoods, constraints), likelihoods


def build_candidates(rows: list[RouteEvaluation], weights: WeightVector) -> list[RouteCandidate]:
    return [
        RouteCandidate(
            route_id=row.route.id,
            fleet_name=row.fleet.name,
            profit_per_week=row.profit,
            total_probability=total_probability(weights, row.likelihoods),
            aircraft_needed=row.requirement.aircraft_count,
        )
        for row in rows
    ]


def _leg_seed(base_seed: int, index: int) -> int:
    """Stable 64-bit per-leg stream seed derived from (scenario seed, leg index)."""
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1, np.uint64)[0])


def _top_driver(ids: tuple[str, ...], evaluation: Evaluation) -> str:
    """Id of the driver with the largest posterior share, the first one on ties."""
    shares = evaluation.posterior.values
    return ids[shares.index(max(shares))]


def _evaluation_section(scenario: Scenario, rows: list[RouteEvaluation]) -> dict:
    return round_tree(
        {
            "hypotheses": list(scenario.hypotheses.ids),
            "weights": list(scenario.weights.values),
            "target_load_factor": scenario.target_load_factor,
            "routes": [
                {
                    "route_id": row.route.id,
                    "fleet": row.fleet.name,
                    "flights_per_week": row.requirement.flights_per_week,
                    "aircraft": row.requirement.aircraft_count,
                    "achieved_load_factor": row.requirement.achieved_load_factor,
                    "profit": row.profit,
                    "likelihoods": list(row.likelihoods.values),
                    "total_probability": row.evaluation.total_probability,
                    "posterior": list(row.evaluation.posterior.values),
                    "top_driver": _top_driver(scenario.hypotheses.ids, row.evaluation),
                    "score": row.score,
                }
                for row in rows
            ],
        }
    )


def _optimization_section(scenario: Scenario, result: OptimizationResult, likelihoods: LikelihoodVector) -> dict:
    return round_tree(
        {
            "hypotheses": list(scenario.hypotheses.ids),
            "weights": list(result.weights.values),
            "objective": result.objective,
            "active_bounds": list(result.active_bounds),
            # moving mass eps from driver j to driver i changes the linear objective by
            # eps * (L[i] - L[j]), so the transfer coefficients are the likelihoods
            "sensitivity": list(likelihoods.values),
        }
    )


def _plan_section(scenario: Scenario, plan: NetworkPlan, weights_label: str) -> dict:
    return round_tree(
        {
            "weights_used": weights_label,
            "selected": list(plan.selected),
            "used": dict(plan.used),
            "availability": dict(scenario.availability.counts),
            "total_score": plan.total_score,
            "per_route_scores": dict(plan.per_route_scores),
            "heuristic": plan.heuristic,
        }
    )


def _rm_leg(leg, trials: int, seed: int) -> dict:
    problem = leg.problem
    protection = littlewood_protection(problem)
    limit = overbooking_limit(problem)
    policy = RMPolicy(protection_level=protection, booking_limit=limit)
    expected = expected_revenue(problem, policy)
    fcfs = fcfs_baseline(problem)
    uplift = 100.0 * (expected - fcfs) / fcfs if fcfs != 0.0 else None
    summary = simulate_leg(problem, policy, trials, seed)
    return {
        "leg_id": leg.id,
        "protection_level": protection,
        "booking_limit": limit,
        "expected_revenue": expected,
        "fcfs_revenue": fcfs,
        "uplift_pct": uplift,
        "simulation": {
            "mean_revenue": summary.mean_revenue,
            "mean_load_factor": summary.mean_load_factor,
            "denied_rate": summary.denied_rate,
            "spill_rate": summary.spill_rate,
            "mean_revenue_se": summary.mean_revenue_se,
        },
    }


def _rm_section(scenario: Scenario, trials: int, seed: int) -> dict:
    legs = _each("rm_legs", scenario.rm_legs, lambda index, leg: _rm_leg(leg, trials, _leg_seed(seed, index)),
                 lambda leg: leg | leg["simulation"])
    return round_tree({"trials": trials, "seed": seed, "legs": legs})


def run_pipeline(
    scenario: Scenario,
    stages: Iterable[str],
    trials: int = DEFAULT_TRIALS,
    seed: int | None = None,
) -> Report:
    """Run the requested stages and assemble the report."""
    requested = _normalize_stages(stages)
    rm_seed = scenario.seed if seed is None else seed
    if rm_seed < 0:
        raise ValidationError("seed", f"must be >= 0, got {rm_seed!r}")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValidationError("trials", f"must be >= 1 and <= {MAX_TRIALS}, got {trials!r}")
    meta = {
        "schema_version": scenario.schema_version,
        "seed": scenario.seed,
        "stages": list(requested),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    needs_rows = any(s in requested for s in ("evaluate", "optimize", "plan"))
    rows = []
    if needs_rows:
        with _stage_context("evaluate"):
            rows = evaluate_routes(scenario)
    evaluation = _evaluation_section(scenario, rows) if "evaluate" in requested else None
    optimization = None
    plan_weights = scenario.weights
    weights_label = "prior"
    if "optimize" in requested:
        with _stage_context("optimize"):
            result, coeffs = _optimize(scenario, rows)
        optimization = _optimization_section(scenario, result, coeffs)
        plan_weights = result.weights
        weights_label = "optimized"
    plan = None
    if "plan" in requested:
        with _stage_context("plan"):
            candidates = build_candidates(rows, plan_weights)
            # every subset sum, the planner's table included, stays within the positive total
            if not math.isfinite(positive := sum(max(score_candidate(c), 0.0) for c in candidates)):
                raise ValidationError("routes", f"the positive scores sum to {positive!r}, past the float range")
            network = select_routes(candidates, scenario.availability)
        plan = _plan_section(scenario, network, weights_label)
    rm = None
    if "rm" in requested:
        with _stage_context("rm"):
            rm = _rm_section(scenario, trials, rm_seed)
    return Report(meta=meta, evaluation=evaluation, optimization=optimization, plan=plan, rm=rm)
