"""The route columns against a route-by-route evaluation in Python scalars.

``tests/_oracles.evaluate_route_by_route`` is the per-route evaluation the
pipeline ran before routes became columns. Every figure must agree with
``==`` and with the same ``repr`` (so a signed zero counts), and a scenario
that fails must fail at the same route with the same error text.
"""

import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import evaluate_route_by_route, sized_route
from routebayes.economics import FleetType, Route, aircraft_required, required_frequency, route_profit
from routebayes.errors import RouteBayesError
from routebayes.pipeline import evaluate_routes
from routebayes.scenario import scenario_from_dict

MAX = sys.float_info.max
# Modest figures, figures anywhere in the finite range, and the edges between.
AMOUNT = st.one_of(st.just(0.0), st.floats(0, 1e4), st.floats(0, MAX), st.sampled_from([5e-324, 1e-300, 1e300]))
POSITIVE = st.one_of(st.floats(0.1, 100), st.floats(0, MAX, exclude_min=True), st.sampled_from([5e-324, 1e300]))
SEATS = st.one_of(st.integers(1, 400), st.integers(1, 2**53))
NAMES = ("jet", "prop", "turbo", "widebody")
SETTINGS = settings(max_examples=400, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@st.composite
def fleets(draw):
    """1-4 fleets in any order of names; some are copies of another under a new name, so profits tie."""
    names = draw(st.permutations(NAMES).map(lambda p: p[: draw(st.integers(1, len(NAMES)))]))
    specs = []
    for i, name in enumerate(names):
        if specs and draw(st.booleans()):
            spec = dict(draw(st.sampled_from(specs)), name=name)
        else:
            spec = {"name": name, "seats": draw(SEATS), "utilization_block_hours_per_week": draw(POSITIVE),
                    "range_km": MAX if i == 0 else draw(st.one_of(st.just(MAX), st.floats(1, 1e4)))}
        specs.append(spec)
    return specs


@st.composite
def documents(draw):
    fleet_docs = draw(fleets())
    routes = []
    for i in range(draw(st.integers(1, 4))):
        route = {"id": f"r{i}", "origin": "A", "destination": "B", "distance_km": draw(st.floats(1, 2e4)),
                 "demand_pax_per_week": draw(AMOUNT), "average_fare": draw(AMOUNT),
                 "block_hours_per_flight": draw(POSITIVE), "cost_per_block_hour": draw(AMOUNT),
                 "fixed_cost_per_flight": draw(AMOUNT), "service_score": draw(st.floats(0, 1)),
                 "tied_capital": draw(AMOUNT)}
        in_range = [f["name"] for f in fleet_docs if route["distance_km"] <= f["range_km"]]
        if draw(st.integers(0, 4)) == 0:
            route["fleet"] = draw(st.sampled_from(in_range))
        routes.append(route)
    doc = {"schema_version": "1", "fleets": fleet_docs, "routes": routes,
           "target_load_factor": draw(st.one_of(st.just(0.8), st.floats(0, 1, exclude_min=True)))}
    if draw(st.booleans()):
        doc["anchors"] = {
            key: draw(st.tuples(st.floats(-MAX, MAX), st.floats(-MAX, MAX)).filter(lambda p: p[0] != p[1])
                      .map(lambda p: {"worst": p[0], "best": p[1]}))
            for key in ("service", "capital", "cost")
        } | {"epsilon": draw(st.one_of(st.floats(0, 0.5, exclude_min=True, exclude_max=True), st.just(5e-324)))}
    raw = draw(st.lists(st.floats(0, 1), min_size=3, max_size=3).filter(lambda w: sum(w) > 0))
    doc["weights"] = [w / sum(raw) for w in raw]
    return doc


def outcome(evaluate, scenario):
    try:
        return evaluate(scenario)
    except RouteBayesError as exc:
        return type(exc).__name__, str(exc)


def column_rows(scenario):
    c = evaluate_routes(scenario)
    ids = scenario.hypotheses.ids
    return [
        {"route_id": route_id, "fleet": fleet, "flights_per_week": int(flights), "aircraft": int(aircraft),
         "achieved_load_factor": load_factor, "profit": profit, "likelihoods": likelihoods,
         "total_probability": total, "posterior": posterior, "top_driver": ids[top], "score": score}
        for (route_id, fleet, flights, aircraft, load_factor, profit, likelihoods, total, posterior, top, score)
        in zip(c.route_ids, c.fleets, c.flights.tolist(), c.aircraft.tolist(), c.load_factor.tolist(),
               c.profit.tolist(), c.likelihoods.T.tolist(), c.total_probability.tolist(), c.posterior.T.tolist(),
               c.posterior.argmax(0).tolist(), c.score.tolist())
    ]


@SETTINGS
@given(documents())
def test_columns_match_the_route_by_route_oracle(doc):
    try:
        scenario = scenario_from_dict(doc)
    except RouteBayesError:
        return
    want = outcome(evaluate_route_by_route, scenario)
    got = outcome(column_rows, scenario)
    assert got == want
    assert repr(got) == repr(want)


def test_fleet_listed_out_of_name_order_on_a_profit_tie():
    # identical fleets tie on every figure, so the smaller name wins wherever it is listed
    fleet = {"seats": 150, "range_km": 5000, "utilization_block_hours_per_week": 60}
    doc = {"schema_version": "1", "fleets": [{"name": "zulu", **fleet}, {"name": "alpha", **fleet}],
           "routes": [{"id": "r", "origin": "A", "destination": "B", "distance_km": 800,
                       "demand_pax_per_week": 900, "average_fare": 150, "block_hours_per_flight": 2,
                       "cost_per_block_hour": 3000, "fixed_cost_per_flight": 500, "service_score": 0.5,
                       "tied_capital": 1e5}]}
    scenario = scenario_from_dict(doc)
    assert evaluate_routes(scenario).fleets == ["alpha"]
    assert column_rows(scenario) == evaluate_route_by_route(scenario)


def scalar_outcome(route, fleet, target_load_factor):
    """Flights, aircraft and profit from the public one-route functions, or the error they raise."""
    try:
        flights = required_frequency(route.demand_pax_per_week, fleet.seats, target_load_factor)
        aircraft = aircraft_required(flights, route.block_hours_per_flight, fleet.utilization_block_hours_per_week)
        return flights, aircraft, route_profit(route, fleet, flights)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def oracle_outcome(route, fleet, target_load_factor):
    try:
        requirement, profit = sized_route(route, fleet, target_load_factor)
        return requirement.flights_per_week, requirement.aircraft_count, profit
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


ROUTES = st.builds(Route, id=st.just("r"), origin=st.just("A"), destination=st.just("B"),
                   distance_km=st.floats(1, 5000), demand_pax_per_week=AMOUNT, average_fare=AMOUNT,
                   block_hours_per_flight=POSITIVE, cost_per_block_hour=AMOUNT, fixed_cost_per_flight=AMOUNT,
                   service_score=st.floats(0, 1), tied_capital=AMOUNT)
FLEETS = st.builds(FleetType, name=st.just("f"), seats=SEATS, range_km=st.just(5000.0),
                   utilization_block_hours_per_week=POSITIVE)


@SETTINGS
@given(ROUTES, FLEETS, st.floats(0, 1, exclude_min=True))
def test_scalar_functions_match_the_oracle(route, fleet, target_load_factor):
    want = oracle_outcome(route, fleet, target_load_factor)
    got = scalar_outcome(route, fleet, target_load_factor)
    assert repr(got) == repr(want)  # a NaN profit (fare and costs past the float range) fails ==, not repr
