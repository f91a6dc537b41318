"""Metamorphic relations of the plan stage over documents drawn from ``test_pipeline.DOCUMENT``.

A metamorphic test runs two related inputs and checks a relation between their outputs, where no oracle gives
either output (Chen, Cheung and Yiu, HKUST-CS98-01, 1998). Each relation holds in float64:

* shuffling the route records keeps the selection and ``total_score``;
* appending a copy of a route with ``average_fare`` 0, whose score is never positive, keeps both under the prior
  weights;
* raising one fleet's availability by one aircraft never lowers the total score, up to n·u relative, because the
  planning table sums the scores in another order than ``total_score``'s left sum.
"""

import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from routebayes.errors import PlanTooLarge, RouteBayesError
from routebayes.pipeline import _candidate_columns, evaluate_routes, run_pipeline
from routebayes.planner import FleetAvailability, plan_routes
from routebayes.scenario import scenario_from_dict
from test_pipeline import DOCUMENT, FLEETS

SETTINGS = settings(max_examples=150, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
UNIT = sys.float_info.epsilon / 2
# Routes of modest figures, so that many plans select some of them and leave others out; a route may copy an
# earlier one's figures, which ties their scores, and each fleet of DOCUMENT ties with the other on every route.
FIGURES = st.fixed_dictionaries(
    {"origin": st.just("A"), "destination": st.just("B"), "distance_km": st.floats(1, 5000),
     "demand_pax_per_week": st.floats(0, 2000), "average_fare": st.floats(50, 500),
     "block_hours_per_flight": st.floats(0.5, 12), "cost_per_block_hour": st.floats(0, 3000),
     "fixed_cost_per_flight": st.floats(0, 3000), "service_score": st.floats(0, 1), "tied_capital": st.floats(0, 1e7)},
    optional={"fleet": st.sampled_from(FLEETS)})


@st.composite
def plannable(draw):
    """A DOCUMENT with a few aircraft of each fleet and, most of the time, modest routes in place of its own. The
    legs and the seed, which no plan reads, are left out."""
    doc = {key: value for key, value in draw(DOCUMENT).items() if key not in ("rm_legs", "seed")}
    doc["availability"] = draw(st.fixed_dictionaries({name: st.integers(0, 12) for name in FLEETS}))
    if draw(st.integers(0, 3)):
        routes = []
        for i in range(draw(st.integers(1, 6))):
            routes.append(dict(draw(st.sampled_from(routes)) if routes and draw(st.booleans()) else draw(FIGURES),
                               id=f"r{i}"))
        doc["routes"] = routes
    return doc


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
