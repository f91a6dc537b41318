"""Route and fleet economics: sizing, weekly profit, and driver likelihood scoring.

Everything is planned on a weekly period. Frequencies and aircraft counts are integers (ceiling rule); the profit
model is linear in block hours plus a fixed cost per flight. KPI-to-likelihood scoring is min-max between configurable
anchors with epsilon clamping, the stand-in for a data-collection model that upstream data pipelines would normally
supply.

``evaluate_routes`` scores every route at once in float64 columns; the one-route functions run the same sizing
helpers, numpy operations that act alike on floats and on columns, so the two agree bit for bit. The one-route
functions hold the float-range checks, and ``evaluate_routes`` runs them to name how a failing route fails. The loader
checks route columns by ``ROUTE_RULES``, which ``Route`` applies, and by ``fleet_candidates``, the route-fleet rule
as a mask that evaluate_routes applies too; ``check_route_fleet`` names how a route breaks that rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain, compress
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from .bayes import LikelihoodVector, left_sum, posterior, weighted
from .errors import DanglingReference, ValidationError, at


@dataclass(frozen=True)
class Route:
    """One candidate city pair with weekly demand and cost structure."""

    id: str
    origin: str
    destination: str
    distance_km: float
    demand_pax_per_week: float
    average_fare: float
    block_hours_per_flight: float
    cost_per_block_hour: float
    fixed_cost_per_flight: float
    service_score: float
    tied_capital: float
    fleet: str | None = None  # the fleet type the route must fly, else the most profitable one in range

    def __post_init__(self):
        if not self.id:
            raise ValueError("route id must be nonempty")
        for name, bound, holds in ROUTE_RULES:
            if not holds(value := getattr(self, name)):
                raise ValueError(f"{name} must be {bound}, got {value!r}")


#: Route's value rules in the order it checks them: (field, bound, test of an interval that NaN fails).
ROUTE_RULES = (
    ("distance_km", "> 0", lambda x: x > 0),
    ("block_hours_per_flight", "> 0", lambda x: x > 0),
    ("service_score", "in [0, 1]", lambda x: (0.0 <= x) & (x <= 1.0)),
    *((name, ">= 0", lambda x: x >= 0) for name in
      ("demand_pax_per_week", "average_fare", "cost_per_block_hour", "fixed_cost_per_flight", "tied_capital")),
)


@dataclass(frozen=True)
class FleetType:
    """An aircraft type available to the airline."""

    name: str
    seats: int
    range_km: float
    utilization_block_hours_per_week: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("fleet name must be nonempty")
        if self.seats < 1:
            raise ValueError(f"seats must be >= 1, got {self.seats!r}")
        if self.seats > 2**53:  # every count up to here is exact in a float64 column
            raise ValueError(f"seats must be <= 2**53, got {self.seats!r}")
        if not self.range_km > 0:
            raise ValueError(f"range_km must be > 0, got {self.range_km!r}")
        if not self.utilization_block_hours_per_week > 0:
            raise ValueError(
                f"utilization_block_hours_per_week must be > 0, got {self.utilization_block_hours_per_week!r}")


@dataclass(frozen=True)
class AnchorPair:
    """Worst/best KPI values mapped to likelihood 0 and 1 before clamping."""

    worst: float
    best: float

    def __post_init__(self):
        if self.worst == self.best:
            raise ValueError(f"worst and best anchors must differ, both are {self.worst!r}")


@dataclass(frozen=True)
class ScoringAnchors:
    """Anchors per driver (service, capital, cost) plus the clamp epsilon.

    Orientation lives in the anchor values: for tied-up capital the worst
    anchor is the larger figure, so lower capital scores higher. The default
    scales are placeholders; real studies should set anchors that match
    their currency scale.
    """

    service: AnchorPair = AnchorPair(0.0, 1.0)
    capital: AnchorPair = AnchorPair(10_000_000.0, 0.0)
    cost: AnchorPair = AnchorPair(-100_000.0, 100_000.0)
    epsilon: float = 0.01

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.5):
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon!r}")


def _flights(demand, seats, target_load_factor):
    return np.maximum(np.ceil(demand / (seats * target_load_factor)), demand > 0)


def _aircraft(flights, block_hours_per_flight, utilization):
    return np.maximum(np.ceil(flights * block_hours_per_flight / utilization), flights > 0)


def _profit(route, flights, carried):
    return carried * route.average_fare - flights * (
        route.block_hours_per_flight * route.cost_per_block_hour + route.fixed_cost_per_flight)


def required_frequency(demand_pax_per_week: float, seats: int, target_load_factor: float) -> int:
    """Weekly flights for the demand: ceil(demand / (seats * target_load_factor)), at least 1 for a positive one."""
    if not (0.0 < target_load_factor <= 1.0):
        raise ValueError(f"target load factor must be in (0, 1], got {target_load_factor!r}")
    if seats < 1:
        raise ValueError(f"seats must be >= 1, got {seats!r}")
    if not demand_pax_per_week >= 0:  # NaN too
        raise ValueError(f"demand must be >= 0, got {demand_pax_per_week!r}")
    flights = _flights(demand_pax_per_week, seats, target_load_factor)
    if not math.isfinite(flights):
        raise ValueError(f"demand {demand_pax_per_week!r} at load factor {target_load_factor!r} needs more flights "
                         f"of {seats} seats a week than the float range holds")
    return int(flights)


def aircraft_required(flights_per_week: int, block_hours_per_flight: float, utilization: float) -> int:
    """Aircraft for the weekly flights: ceil(flights * block_hours / utilization), at least 1 for a flight."""
    if not utilization > 0:
        raise ValueError(f"utilization must be > 0, got {utilization!r}")
    if not flights_per_week >= 0:
        raise ValueError(f"flights must be >= 0, got {flights_per_week!r}")
    if not block_hours_per_flight > 0:
        raise ValueError(f"block hours must be > 0, got {block_hours_per_flight!r}")
    aircraft = _aircraft(flights_per_week, block_hours_per_flight, utilization)
    if not math.isfinite(aircraft):
        raise ValueError(f"{float(flights_per_week)!r} flights a week of {block_hours_per_flight!r} block hours at "
                         f"{utilization!r} block hours per aircraft need more aircraft than the float range holds")
    return int(aircraft)


def range_feasible(route: Route, fleet: FleetType) -> bool:
    return route.distance_km <= fleet.range_km


def check_route_fleet(route: Route, fleets_by_name: dict, path: str) -> Route:
    """The route if its pin names a declared fleet in range, or it is unpinned and some fleet is in range."""
    if route.fleet is None:
        if not any(range_feasible(route, fleet) for fleet in fleets_by_name.values()):
            raise ValidationError(path, "no fleet with sufficient range for this route")
    elif (pinned := fleets_by_name.get(route.fleet)) is None:
        raise DanglingReference(f"{path}.fleet", f"unknown fleet {route.fleet!r}")
    elif not range_feasible(route, pinned):
        raise ValidationError(f"{path}.fleet", f"fleet {route.fleet!r} ranges {pinned.range_km!r} km, "
                                               f"route is {route.distance_km!r} km")
    return route


def route_profit(route: Route, fleet: FleetType, flights_per_week: int) -> float:
    """Weekly profit of operating the route at the given frequency.

    Revenue is carried passengers (demand capped by offered seats) times the
    average fare; cost is per-flight block-hour cost plus the fixed cost per
    flight. May be negative.
    """
    if flights_per_week < 0:
        raise ValueError(f"flights must be >= 0, got {flights_per_week!r}")
    if flights_per_week == 0:
        return 0.0
    if not range_feasible(route, fleet):
        raise ValueError(f"route {route.id} is {route.distance_km!r} km but {fleet.name} ranges {fleet.range_km!r} km")
    if not math.isfinite(float(flights_per_week) * fleet.seats):
        raise ValueError(f"demand {route.demand_pax_per_week!r} needs {float(flights_per_week)!r} flights of "
                         f"{fleet.seats} seats a week, more seats than the float range holds")
    return _profit(route, flights_per_week, min(route.demand_pax_per_week, flights_per_week * fleet.seats))


@dataclass(frozen=True)
class RouteColumns:
    """Every route's evaluation, in file order: float64 per route, and drivers x routes for the vectors."""

    route_ids: list[str]
    fleets: list[str]
    flights: np.ndarray
    aircraft: np.ndarray
    load_factor: np.ndarray
    profit: np.ndarray
    likelihoods: np.ndarray
    total_probability: np.ndarray
    posterior: np.ndarray
    score: np.ndarray


#: The numeric fields of ``Route`` and of ``FleetType``, which evaluate_routes reads as columns.
ROUTE_NUMBERS = tuple(f.name for f in fields(Route) if f.type == "float")
_FLEET_NUMBERS = tuple(f.name for f in fields(FleetType) if f.type in ("int", "float"))


def _columns(records, names, shape=(-1,)) -> SimpleNamespace:
    """A float64 column of the given shape per field in ``names`` (two or more), gathered from ``records`` at once."""
    table = np.fromiter(chain.from_iterable(map(attrgetter(*names), records)), float, len(records) * len(names))
    return SimpleNamespace(**{name: col.reshape(shape) for name, col in zip(names, table.reshape(-1, len(names)).T)})


def fleet_candidates(distance_km, pins, fleets) -> np.ndarray:
    """The route-fleet rule as a fleets x routes mask, True where a route (its distance and its pin, a fleet name or
    None) may fly a fleet; a route with none breaks the rule, and ``check_route_fleet`` says how."""
    index = {fleet.name: k for k, fleet in enumerate(fleets)}
    # each route's pinned fleet index: -1 when unpinned, len(fleets), which no fleet matches, for an unknown name
    pinned = np.array([-1 if pin is None else index.get(pin, len(fleets)) for pin in pins], int)
    in_range = range_feasible(SimpleNamespace(distance_km=distance_km),
                              SimpleNamespace(range_km=np.array([fleet.range_km for fleet in fleets], float)[:, None]))
    return in_range & ((pinned < 0) | (np.arange(len(fleets))[:, None] == pinned))


def evaluate_routes(scenario) -> RouteColumns:
    """Every route's fleet choice, sizing, profit, likelihoods and posterior at once.

    A route takes exactly ``min(key=(-profit, name))`` over the fleets in range that its pin allows, in scenario
    order, so a NaN profit neither replaces nor is replaced. The first failing route in file order raises a
    ValidationError at ``routes[<id>]``: ``check_route_fleet``, then ``required_frequency``, ``aircraft_required``
    and ``route_profit`` on each candidate in scenario order, then a non-finite likelihood, zero total probability,
    profit or score.
    The first two kinds are decided before any route's figures are gathered by its fleet.
    """
    routes, fleets, weights, anchors = scenario.routes, scenario.fleets, scenario.weights, scenario.anchors
    r, f = _columns(routes, ROUTE_NUMBERS), _columns(fleets, _FLEET_NUMBERS, (-1, 1))
    candidates = fleet_candidates(r.distance_km, [route.fleet for route in routes], fleets)
    demand, eps = r.demand_pax_per_week, anchors.epsilon

    def fault(i):
        route, path = routes[i], f"routes[{routes[i].id}]"
        check_route_fleet(route, {fleet.name: fleet for fleet in fleets}, path)
        for option in compress(fleets, candidates[:, i]):
            n = at(path, required_frequency, route.demand_pax_per_week, option.seats, scenario.target_load_factor)
            at(path, aircraft_required, n, route.block_hours_per_flight, option.utilization_block_hours_per_week)
            at(path, route_profit, route, option, n)
        at(path, posterior, weights, at(path, LikelihoodVector, likelihoods[:, i].tolist()))
        at(path, check_finite, {"profit": chosen[i].item(), "score": columns.score[i].item()})

    with np.errstate(all="ignore"):
        flights = _flights(demand, f.seats, scenario.target_load_factor)
        aircraft = _aircraft(flights, r.block_hours_per_flight, f.utilization_block_hours_per_week)
        idle = flights == 0
        load_factor = np.where(idle, 0.0, np.minimum(1.0, demand / (flights * f.seats)))
        profit = np.where(idle, 0.0, _profit(r, flights, np.minimum(demand, flights * f.seats)))
        sized = np.isfinite(flights) & np.isfinite(aircraft) & np.isfinite(flights * f.seats)
        failed = ~candidates.any(0) | (candidates & ~sized).any(0)
        if failed.all() and routes:  # no route has a fleet to gather by (none is declared, say): the first fails
            fault(0)
        rank = np.array([sorted(fleet.name for fleet in fleets).index(x.name) for x in fleets], int)
        fleet, each = np.full(len(routes), -1), np.arange(len(routes))
        for k in range(len(fleets)):
            best = profit[fleet, each]
            take = (fleet < 0) | (profit[k] > best) | ((profit[k] == best) & (rank[k] < rank[fleet]))
            fleet[candidates[k] & take] = k
        chosen = profit[fleet, each]
        scores = [(value - pair.worst) / (pair.best - pair.worst) for value, pair in (
            (r.service_score, anchors.service), (r.tied_capital, anchors.capital), (chosen, anchors.cost))]
        likelihoods = np.minimum(np.maximum(scores, eps), 1.0 - eps)
        contributions = weighted(weights.values, likelihoods)
        total = left_sum(contributions)
        columns = RouteColumns([route.id for route in routes], [fleets[k].name for k in fleet.tolist()],
                               flights[fleet, each], aircraft[fleet, each], load_factor[fleet, each], chosen,
                               likelihoods, total, np.divide(contributions, total), total * chosen)
    failed |= (total == 0) | ~np.isfinite([*likelihoods, chosen, columns.score]).all(0)
    for i in np.flatnonzero(failed)[:1]:
        fault(i)
    return columns


def check_finite(figures: dict) -> None:
    """Raise ValueError naming the first float among ``figures`` that is not finite."""
    for name, value in figures.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value!r}")
