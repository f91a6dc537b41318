"""Metamorphic relations of the plan and rm stages over documents drawn from ``test_pipeline.plannable()``.

A metamorphic test runs two related inputs and checks a relation between their outputs, where no oracle gives
either output (Chen, Cheung and Yiu, HKUST-CS98-01, 1998). Each relation holds in float64:

* shuffling the route records keeps the selection and ``total_score``;
* appending a copy of a route with ``average_fare`` 0, whose score is never positive, keeps both under the prior
  weights;
* raising one fleet's availability by one aircraft never lowers the total score, up to n·u relative, because the
  planning table sums the scores in another order than ``total_score``'s left sum;
* halving every money field halves every money figure exactly and keeps every other figure, as long as each sum
  and product stays 0 or normal: a power of two scales them all without rounding.
"""

import sys
from dataclasses import astuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from routebayes.economics import ScoringAnchors
from routebayes.errors import PlanTooLarge, RouteBayesError
from routebayes.pipeline import _candidate_columns, evaluate_routes, run_pipeline
from routebayes.planner import FleetAvailability, plan_routes
from routebayes.rm import (RMPolicy, expected_revenue, fcfs_baseline, littlewood_protection, overbooking_limit,
                           simulate_leg)
from routebayes.scenario import scenario_from_dict
from test_pipeline import FLEETS, LEG, plannable

SETTINGS = settings(max_examples=150, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
UNIT = sys.float_info.epsilon / 2
# A leg of LEG at modest fares and denied cost.
MODEST_LEG = st.tuples(LEG, st.floats(1, 1000), st.floats(1, 1000), st.floats(0, 1000)).map(
    lambda drawn: drawn[0] | {"fare_low": min(drawn[1:3]), "fare_high": max(drawn[1:3]), "denied_cost": drawn[3]})
MONEY = {"routes": ("average_fare", "cost_per_block_hour", "fixed_cost_per_flight"),
         "rm_legs": ("fare_high", "fare_low", "denied_cost")}
def planned(doc, stages=("evaluate", "optimize", "plan")):
    """The plan's selection and total score, or None where the document fails to load or to run."""
    try:
        plan = run_pipeline(scenario_from_dict(doc), stages).plan
    except RouteBayesError:
        return None
    return plan["selected"], plan["total_score"]


@SETTINGS
@given(plannable(), st.randoms(use_true_random=False))
def test_shuffled_routes_keep_the_plan(doc, random):
    want = planned(doc)
    random.shuffle(doc["routes"])
    assert planned(doc) == want


@SETTINGS
@given(plannable(), st.integers(0, 2))
def test_a_route_with_no_fare_changes_no_plan(doc, i):
    """The new route copies one that evaluates, so it evaluates too; with no fare its profit is never positive."""
    want = planned(doc, ["evaluate", "plan"])
    if want is not None and doc["routes"]:
        doc["routes"].append(doc["routes"][i % len(doc["routes"])] | {"id": "unsold", "average_fare": 0})
        assert planned(doc, ["evaluate", "plan"]) == want


@SETTINGS
@given(plannable(), st.sampled_from(FLEETS))
def test_one_more_aircraft_never_lowers_the_total(doc, fleet):
    try:
        scenario = scenario_from_dict(doc)
        columns = _candidate_columns(evaluate_routes(scenario), scenario.weights)
        before = plan_routes(*columns, scenario.availability).total_score
    except (RouteBayesError, ValueError):
        return
    counts = scenario.availability.counts
    try:
        after = plan_routes(*columns, FleetAvailability(counts | {fleet: counts[fleet] + 1})).total_score
    except PlanTooLarge:  # the wider table passes the cell limit
        return
    assert after >= before - len(scenario.routes) * UNIT * abs(before)


def halved(doc):
    """``doc`` with every money field halved: the route fares and costs, the cost anchors, the leg fares and the
    denied cost."""
    anchors = doc.get("anchors", {})
    cost = {end: value / 2 for end, value in anchors.get("cost", vars(ScoringAnchors().cost)).items()}
    records = {key: [record | {name: record[name] / 2 for name in names} for record in doc[key]]
               for key, names in MONEY.items()}
    return doc | records | {"anchors": anchors | {"cost": cost}}


def in_normal_range(doc):
    """Every route number and cost anchor 0 or within 1e-100..1e100 in magnitude, so that no sum or product of the
    evaluation is subnormal or overflows; the leg's figures are modest."""
    cost = doc.get("anchors", {}).get("cost", {})
    numbers = [value for route in doc["routes"] for value in route.values() if isinstance(value, float)]
    return all(value == 0 or 1e-100 <= abs(value) <= 1e100 for value in numbers + list(cost.values()))


@SETTINGS
@given(plannable(), MODEST_LEG)
def test_halving_every_money_field_halves_every_money_figure(doc, leg):
    doc = doc | {"rm_legs": [leg]}
    if not in_normal_range(doc):
        return
    try:
        whole = scenario_from_dict(doc)
        rows = evaluate_routes(whole)
        plan = plan_routes(*_candidate_columns(rows, whole.weights), whole.availability)
    except (RouteBayesError, ValueError):
        return
    half = scenario_from_dict(halved(doc))
    half_rows = evaluate_routes(half)
    assert half_rows.fleets == rows.fleets
    for name in ("flights", "aircraft", "load_factor", "likelihoods", "total_probability", "posterior"):
        assert np.array_equal(getattr(half_rows, name), getattr(rows, name))
    for name in ("profit", "score"):
        assert np.array_equal(getattr(half_rows, name), getattr(rows, name) / 2)
    half_plan = plan_routes(*_candidate_columns(half_rows, half.weights), half.availability)
    assert (half_plan.selected, half_plan.used) == (plan.selected, plan.used)
    assert half_plan.total_score == plan.total_score / 2

    (problem,), (half_problem,) = ([record.problem for record in scenario.rm_legs] for scenario in (whole, half))
    policy = RMPolicy(littlewood_protection(problem), overbooking_limit(problem))
    assert (littlewood_protection(half_problem), overbooking_limit(half_problem)) == astuple(policy)
    assert expected_revenue(half_problem, policy) == expected_revenue(problem, policy) / 2
    assert fcfs_baseline(half_problem) == fcfs_baseline(problem) / 2
    summary, half_summary = (simulate_leg(p, policy, 200, 3) for p in (problem, half_problem))
    assert (half_summary.mean_revenue, half_summary.mean_revenue_se) == (summary.mean_revenue / 2,
                                                                          summary.mean_revenue_se / 2)
    rates = ("mean_load_factor", "denied_rate", "spill_rate")
    assert [getattr(half_summary, name) for name in rates] == [getattr(summary, name) for name in rates]
