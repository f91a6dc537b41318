import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routebayes.economics import (
    AnchorPair,
    FleetType,
    Route,
    ScoringAnchors,
    aircraft_required,
    evaluate_routes,
    range_feasible,
    required_frequency,
    route_profit,
)
from routebayes.scenario import scenario_from_dict


def make_route(**overrides):
    fields = dict(
        id="r1",
        origin="AAA",
        destination="BBB",
        distance_km=1500.0,
        demand_pax_per_week=1400.0,
        average_fare=120.0,
        block_hours_per_flight=5.0,
        cost_per_block_hour=4000.0,
        fixed_cost_per_flight=2000.0,
        service_score=0.8,
        tied_capital=600000.0,
    )
    fields.update(overrides)
    return Route(**fields)


A320 = FleetType("a320", 180, 5000.0, 70.0)

ANCHORS = ScoringAnchors(
    service=AnchorPair(0.0, 1.0),
    capital=AnchorPair(1_000_000.0, 0.0),
    cost=AnchorPair(-100_000.0, 100_000.0),
)
EMPTY = scenario_from_dict({"schema_version": "1"})


def evaluate_one(route, fleet=A320, target_load_factor=0.8, anchors=ANCHORS):
    """``evaluate_routes`` on a scenario of the one route and fleet, under uniform weights."""
    scenario = replace(EMPTY, routes=(route,), fleets=(fleet,), target_load_factor=target_load_factor, anchors=anchors)
    return evaluate_routes(scenario)


def likelihoods(route, anchors=ANCHORS):
    """The route's (service, capital, cost) likelihoods; a zero demand makes its profit 0.0."""
    return evaluate_one(route, anchors=anchors).likelihoods[:, 0].tolist()


class TestRequiredFrequency:
    def test_zero_demand(self):
        assert required_frequency(0, 180, 0.8) == 0

    def test_ceiling_rule(self):
        assert required_frequency(1400, 180, 0.8) == 10

    def test_exactly_one_full_flight(self):
        assert required_frequency(144, 180, 0.8) == 1

    def test_underflowing_quotient_still_needs_one_flight(self):
        assert type(required_frequency(5e-324, 180, 0.8)) is int
        assert required_frequency(5e-324, 180, 0.8) == 1

    def test_invalid_load_factor(self):
        with pytest.raises(ValueError, match="target load factor must be in"):
            required_frequency(100, 180, 0.0)
        with pytest.raises(ValueError, match="target load factor must be in"):
            required_frequency(100, 180, 1.2)


class TestAircraftRequired:
    def test_zero_flights(self):
        assert aircraft_required(0, 5.0, 70.0) == 0

    def test_one_aircraft(self):
        assert aircraft_required(10, 5.0, 70.0) == 1

    def test_three_aircraft(self):
        assert aircraft_required(30, 5.0, 70.0) == 3

    def test_underflowing_product_still_needs_one_aircraft(self):
        assert aircraft_required(1, 5e-324, 70.0) == 1

    def test_nonpositive_utilization(self):
        with pytest.raises(ValueError, match="utilization must be > 0"):
            aircraft_required(10, 5.0, 0.0)

    @pytest.mark.parametrize("args", [(math.nan, 5.0, 70.0), (10, math.nan, 70.0), (10, 5.0, math.nan)])
    def test_nan_breaks_every_argument_rule(self, args):
        with pytest.raises(ValueError, match=r"must be .* got nan$"):
            aircraft_required(*args)


@settings(derandomize=True, deadline=None)
@given(st.integers(0, 10**6), st.one_of(st.floats(0, 1e300, exclude_min=True), st.just(math.inf)),
       st.one_of(st.floats(0, 1e300, exclude_min=True), st.just(math.inf)))
@example(0, math.inf, 70.0)
def test_aircraft_required_is_a_count_or_the_float_range_error(flights, block_hours, utilization):
    try:
        assert aircraft_required(flights, block_hours, utilization) >= (flights > 0)
    except ValueError as exc:
        assert str(exc).endswith("need more aircraft than the float range holds")


@pytest.mark.parametrize("name", ["distance_km", "demand_pax_per_week", "average_fare", "block_hours_per_flight",
                                  "cost_per_block_hour", "fixed_cost_per_flight", "service_score", "tied_capital"])
def test_nan_breaks_every_route_number_rule(name):
    with pytest.raises(ValueError, match=f"^{name} must be .* got nan$"):
        make_route(**{name: math.nan})


class TestFleetType:
    def test_seats_bounded_where_float64_counts_are_exact(self):
        assert FleetType("f", 2**53, 1000.0, 60.0).seats == 2**53
        with pytest.raises(ValueError, match=r"seats must be <= 2\*\*53"):
            FleetType("f", 2**53 + 1, 1000.0, 60.0)

    def test_nan_breaks_the_range_and_utilization_rules(self):
        with pytest.raises(ValueError, match=r"^range_km must be > 0, got nan$"):
            FleetType("f", 100, math.nan, 60.0)
        with pytest.raises(ValueError, match=r"^utilization_block_hours_per_week must be > 0, got nan$"):
            FleetType("f", 100, 1000.0, math.nan)


class TestRangeFeasible:
    def test_within_range(self):
        assert range_feasible(make_route(distance_km=500.0), FleetType("f", 100, 3000.0, 60.0))

    def test_boundary_inclusive(self):
        assert range_feasible(make_route(distance_km=3000.0), FleetType("f", 100, 3000.0, 60.0))

    def test_beyond_range(self):
        assert not range_feasible(make_route(distance_km=3001.0), FleetType("f", 100, 3000.0, 60.0))


class TestRouteProfit:
    def test_zero_flights_zero_profit(self):
        assert route_profit(make_route(), A320, 0) == 0.0

    def test_loss_making_example(self):
        assert route_profit(make_route(), A320, 10) == pytest.approx(-52000.0)

    def test_profitable_example(self):
        assert route_profit(make_route(average_fare=200.0), A320, 10) == pytest.approx(60000.0)

    def test_range_infeasible(self):
        with pytest.raises(ValueError, match=r"is 6000\.0 km but"):
            route_profit(make_route(distance_km=6000.0), A320, 1)

    def test_carried_capped_by_seats(self):
        profit = route_profit(make_route(demand_pax_per_week=10000.0), A320, 1)
        assert profit == 180 * 120.0 - (5.0 * 4000.0 + 2000.0)


class TestFleetRequirement:
    """A route's weekly flights, aircraft and load factor, as ``evaluate_routes`` sizes them."""

    def test_worked_sizing(self):
        columns = evaluate_one(make_route())
        assert columns.flights.tolist() == [10]
        assert columns.aircraft.tolist() == [1]
        assert columns.load_factor[0] == pytest.approx(1400 / 1800)

    def test_zero_demand(self):
        columns = evaluate_one(make_route(demand_pax_per_week=0.0))
        assert columns.flights.tolist() == columns.aircraft.tolist() == [0]
        assert columns.load_factor.tolist() == columns.profit.tolist() == [0.0]


class TestComponentLikelihoods:
    """A route's per-driver likelihoods, as ``evaluate_routes`` scores them."""

    def test_at_best_anchor_clamps(self):
        assert likelihoods(make_route(service_score=1.0, demand_pax_per_week=0.0))[0] == pytest.approx(0.99)

    def test_midway_scores_half(self):
        assert likelihoods(make_route(tied_capital=500_000.0, demand_pax_per_week=0.0))[1] == pytest.approx(0.5)

    def test_direct_minmax(self):
        assert likelihoods(make_route(service_score=0.9, demand_pax_per_week=0.0))[0] == pytest.approx(0.9)

    def test_worked_vector(self):
        # 1,400 passengers at 120 on 10 flights of 5 x 4,000 + 4,800: a profit of -80,000
        route = make_route(fixed_cost_per_flight=4800.0)
        assert evaluate_one(route).profit.tolist() == [-80000.0]
        assert likelihoods(route) == pytest.approx([0.8, 0.4, 0.1])

    def test_capital_orientation(self):
        low_cap = likelihoods(make_route(tied_capital=100_000.0, demand_pax_per_week=0.0))
        high_cap = likelihoods(make_route(tied_capital=900_000.0, demand_pax_per_week=0.0))
        assert low_cap[1] > high_cap[1]

    def test_degenerate_anchors(self):
        with pytest.raises(ValueError, match="anchors must differ"):
            AnchorPair(0.5, 0.5)

    def test_epsilon_bounds_everything(self):
        anchors = ScoringAnchors(
            service=AnchorPair(0.0, 1.0),
            capital=AnchorPair(1.0, 0.0),
            cost=AnchorPair(-1.0, 1.0),
            epsilon=0.05,
        )
        assert all(0.05 <= v <= 0.95 for v in likelihoods(make_route(service_score=0.0, tied_capital=50.0), anchors))


@given(
    st.floats(min_value=0, max_value=1e6),
    st.floats(min_value=0, max_value=1e6),
    st.integers(1, 400),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_frequency_monotone_in_demand(d1, d2, seats, lf):
    lo, hi = sorted((d1, d2))
    assert required_frequency(lo, seats, lf) <= required_frequency(hi, seats, lf)


@given(
    st.integers(0, 500),
    st.floats(min_value=0.1, max_value=20.0),
    st.floats(min_value=1.0, max_value=120.0),
    st.floats(min_value=1.0, max_value=120.0),
)
def test_aircraft_monotone_in_utilization(flights, bh, u1, u2):
    lo, hi = sorted((u1, u2))
    assert aircraft_required(flights, bh, hi) <= aircraft_required(flights, bh, lo)


@given(
    st.floats(min_value=0.0, max_value=1e5),
    st.integers(1, 400),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_ceiling_consistency(demand, seats, lf):
    flights = required_frequency(demand, seats, lf)
    if demand == 0:
        assert flights == 0
    else:
        quotient = demand / (seats * lf)
        # a positive demand whose quotient underflows to 0 still needs one flight
        assert flights - 1 < quotient <= flights or (quotient == 0 and flights == 1)


@given(
    st.floats(min_value=0.0, max_value=1e5),
    st.integers(1, 400),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_load_factor_never_above_one(demand, seats, lf):
    route = make_route(demand_pax_per_week=demand, distance_km=100.0)
    columns = evaluate_one(route, FleetType("f", seats, 1000.0, 60.0), lf)
    (load_factor,), (flights,) = columns.load_factor.tolist(), columns.flights.tolist()
    assert 0.0 <= load_factor <= 1.0
    assert (flights > 0) == (demand > 0)
