"""Pipeline orchestration: evaluate -> optimize -> plan -> rm over one scenario.

Stages always execute in that fixed order. Requesting ``plan`` implies the evaluate computation (and ``optimize``
needs it too); the report still contains only the sections that were requested. ``evaluate_routes`` scores every
route at once in float64 columns and names the first failing route in file order with its first error. When optimize
runs, the optimized weights feed the plan stage's probability-weighted scores, otherwise the scenario's prior weights
do; ``planner.plan_routes`` plans over the route columns. Reports are deterministic for a fixed scenario, stage set,
trial count, and seed; only the timestamp varies. Section builders round each float to 12 significant digits, the
evaluation section's in one pass (``round12_columns``); ``uplift_pct`` uses unrounded values.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from datetime import datetime, timezone
from itertools import starmap
from typing import Iterable

import numpy as np

from . import __version__
from .bayes import LikelihoodVector, WeightVector, left_sum, weighted
from .economics import RouteColumns, check_finite, evaluate_routes
from .errors import RouteBayesError, ValidationError, at
from .optimizer import BoxConstraints, OptimizationResult, optimize_weights
from .planner import NetworkPlan, RouteCandidate, plan_routes
from .report import Report
from .rm import (MAX_TRIALS, RMPolicy, expected_revenue, fcfs_baseline, littlewood_protection, overbooking_limit,
                 simulate_leg)
from .scenario import Scenario, round12, round12_columns

STAGES = ("evaluate", "optimize", "plan", "rm")
DEFAULT_TRIALS = 10_000


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


def mean_likelihoods(rows: RouteColumns) -> LikelihoodVector:
    """Per-driver mean of the route likelihood vectors.

    The total probability is linear in the weights, so optimizing against the
    mean vector maximizes the network-average total probability.
    """
    n = len(rows.route_ids)
    if not n:
        raise ValidationError("routes", "the mean likelihood needs at least one route")
    return LikelihoodVector(tuple(math.fsum(row) / n for row in rows.likelihoods.tolist()))


def _candidate_columns(rows: RouteColumns, weights: WeightVector) -> list[list]:
    """The planner's candidate columns, in the field order of ``RouteCandidate``."""
    probabilities = left_sum(weighted(weights.values, rows.likelihoods))
    return [rows.route_ids, rows.fleets, rows.profit.tolist(), probabilities.tolist(),
            list(map(int, rows.aircraft.tolist()))]


def build_candidates(rows: RouteColumns, weights: WeightVector) -> list[RouteCandidate]:
    return list(starmap(RouteCandidate, zip(*_candidate_columns(rows, weights))))


def _leg_seed(base_seed: int, index: int) -> int:
    """Stable 64-bit per-leg stream seed derived from (scenario seed, leg index)."""
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1, np.uint64)[0])


def _evaluation_section(scenario: Scenario, rows: RouteColumns) -> dict:
    ids = scenario.hypotheses.ids
    n = len(ids)
    # one row of rounded figures per route: load factor, profit, total, score, then likelihoods and posterior
    figures = round12_columns(np.vstack([rows.load_factor, rows.profit, rows.total_probability, rows.score,
                                         rows.likelihoods, rows.posterior]))
    columns = zip(rows.route_ids, rows.fleets, map(int, rows.flights.tolist()), map(int, rows.aircraft.tolist()),
                  figures.T.tolist(), rows.posterior.argmax(0).tolist())  # argmax: the first driver on ties
    return {
        "hypotheses": list(ids),
        "weights": list(map(round12, scenario.weights.values)),
        "target_load_factor": round12(scenario.target_load_factor),
        "routes": [
            {"route_id": route_id, "fleet": fleet, "flights_per_week": flights, "aircraft": aircraft,
             "achieved_load_factor": figure[0], "profit": figure[1], "likelihoods": figure[4:4 + n],
             "total_probability": figure[2], "posterior": figure[4 + n:], "top_driver": ids[top], "score": figure[3]}
            for route_id, fleet, flights, aircraft, figure, top in columns
        ],
    }


def _optimization_section(scenario: Scenario, result: OptimizationResult, likelihoods: LikelihoodVector) -> dict:
    return {
        "hypotheses": list(scenario.hypotheses.ids),
        "weights": list(map(round12, result.weights.values)),
        "objective": round12(result.objective),
        "active_bounds": list(result.active_bounds),
        # moving mass eps from driver j to driver i changes the linear objective by
        # eps * (L[i] - L[j]), so the transfer coefficients are the likelihoods
        "sensitivity": list(map(round12, likelihoods.values)),
    }


def _plan_section(scenario: Scenario, plan: NetworkPlan, weights_label: str) -> dict:
    return {"weights_used": weights_label, "selected": list(plan.selected), "used": dict(plan.used),
            "availability": dict(scenario.availability.counts), "total_score": round12(plan.total_score),
            "per_route_scores": {rid: round12(score) for rid, score in plan.per_route_scores.items()},
            "heuristic": plan.heuristic}


def _rm_leg(leg, trials: int, seed: int) -> dict:
    problem = leg.problem
    try:  # an overflow in the kernels raises: numpy's under _rm_section's errstate, math.fsum's always
        protection = littlewood_protection(problem)
        limit = overbooking_limit(problem)
        policy = RMPolicy(protection_level=protection, booking_limit=limit)
        expected = expected_revenue(problem, policy)
        fcfs = fcfs_baseline(problem)
        summary = simulate_leg(problem, policy, trials, seed)
    except ArithmeticError as exc:
        raise ValueError(f"a revenue figure at fare_high {problem.fare_high!r}, fare_low {problem.fare_low!r} and "
                         f"denied_cost {problem.denied_cost!r} passes the float range") from exc
    uplift = round12(100.0 * (expected - fcfs) / fcfs) if fcfs != 0.0 else None
    row = {
        "leg_id": leg.id,
        "protection_level": protection,
        "booking_limit": limit,
        "expected_revenue": round12(expected),
        "fcfs_revenue": round12(fcfs),
        "uplift_pct": uplift,
        "simulation": {name: round12(value) for name, value in vars(summary).items() if name != "trials"},
    }
    check_finite(row | row["simulation"])
    return row


def _rm_section(scenario: Scenario, trials: int, seed: int) -> dict:
    """One row per leg; an error, an overflow or a non-finite figure names the leg."""
    with np.errstate(over="raise", invalid="raise"):
        legs = [at(f"rm_legs[{leg.id}]", _rm_leg, leg, trials, _leg_seed(seed, i))
                for i, leg in enumerate(scenario.rm_legs)]
    return {"trials": trials, "seed": seed, "legs": legs}


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
    rows = None
    if any(s in requested for s in STAGES[:-1]):  # the route stages
        with _stage_context("evaluate"):
            rows = evaluate_routes(scenario)
    evaluation = _evaluation_section(scenario, rows) if "evaluate" in requested else None
    optimization = None
    plan_weights = scenario.weights
    weights_label = "prior"
    if "optimize" in requested:
        with _stage_context("optimize"):
            # with no route, the network-average likelihood is 0 for every driver the scenario declares
            coeffs = mean_likelihoods(rows) if rows.route_ids else LikelihoodVector((0.0,) * len(scenario.hypotheses))
            result = optimize_weights(coeffs, scenario.constraints or BoxConstraints.full(len(scenario.hypotheses)))
        optimization = _optimization_section(scenario, result, coeffs)
        plan_weights = result.weights
        weights_label = "optimized"
    plan = None
    if "plan" in requested:
        with _stage_context("plan"):
            network = at("routes", plan_routes, *_candidate_columns(rows, plan_weights), scenario.availability)
        plan = _plan_section(scenario, network, weights_label)
    rm = None
    if "rm" in requested:
        with _stage_context("rm"):
            rm = _rm_section(scenario, trials, rm_seed)
    return Report(meta=meta, evaluation=evaluation, optimization=optimization, plan=plan, rm=rm)
