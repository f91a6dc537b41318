"""Route and fleet economics: sizing, weekly profit, and driver likelihood scoring.

Everything is planned on a weekly period. Frequencies and aircraft counts are
integers (ceiling rule); the profit model is linear in block hours plus a
fixed cost per flight. KPI-to-likelihood scoring is min-max between
configurable anchors with epsilon clamping, the stand-in for a data-collection
model that upstream data pipelines would normally supply. All functions are
pure over immutable inputs, so routes can be evaluated in parallel with
order-independent results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bayes import LikelihoodVector


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

    def __post_init__(self):
        if not self.id:
            raise ValueError("route id must be nonempty")
        if self.distance_km <= 0:
            raise ValueError(f"distance_km must be > 0, got {self.distance_km!r}")
        if self.block_hours_per_flight <= 0:
            raise ValueError(
                f"block_hours_per_flight must be > 0, got {self.block_hours_per_flight!r}"
            )
        if not (0.0 <= self.service_score <= 1.0):
            raise ValueError(f"service_score must be in [0, 1], got {self.service_score!r}")
        for name in ("demand_pax_per_week", "average_fare", "cost_per_block_hour",
                     "fixed_cost_per_flight", "tied_capital"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")


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
        if self.range_km <= 0:
            raise ValueError(f"range_km must be > 0, got {self.range_km!r}")
        if self.utilization_block_hours_per_week <= 0:
            raise ValueError(
                "utilization_block_hours_per_week must be > 0, "
                f"got {self.utilization_block_hours_per_week!r}"
            )


@dataclass(frozen=True)
class FleetRequirement:
    """Weekly frequency, aircraft count, and the load factor actually achieved."""

    flights_per_week: int
    aircraft_count: int
    achieved_load_factor: float

    def __post_init__(self):
        if self.flights_per_week < 0 or self.aircraft_count < 0:
            raise ValueError("flights and aircraft counts must be >= 0")
        if (self.aircraft_count == 0) != (self.flights_per_week == 0):
            raise ValueError("aircraft_count is 0 exactly when flights_per_week is 0")
        if not (0.0 <= self.achieved_load_factor <= 1.0):
            raise ValueError("achieved_load_factor must be in [0, 1]")


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


def required_frequency(demand_pax_per_week: float, seats: int, target_load_factor: float) -> int:
    """Weekly flights needed to carry the demand at the target load factor.

    ceil(demand / (seats * target_load_factor)); zero demand needs zero flights.
    """
    if not (0.0 < target_load_factor <= 1.0):
        raise ValueError(f"target load factor must be in (0, 1], got {target_load_factor!r}")
    if seats < 1:
        raise ValueError(f"seats must be >= 1, got {seats!r}")
    if demand_pax_per_week < 0:
        raise ValueError(f"demand must be >= 0, got {demand_pax_per_week!r}")
    if demand_pax_per_week == 0:
        return 0
    return math.ceil(demand_pax_per_week / (seats * target_load_factor))


def aircraft_required(flights_per_week: int, block_hours_per_flight: float, utilization: float) -> int:
    """Aircraft needed to fly the weekly frequency at the given utilization."""
    if utilization <= 0:
        raise ValueError(f"utilization must be > 0, got {utilization!r}")
    if flights_per_week < 0:
        raise ValueError(f"flights must be >= 0, got {flights_per_week!r}")
    if block_hours_per_flight <= 0:
        raise ValueError(f"block hours must be > 0, got {block_hours_per_flight!r}")
    if flights_per_week == 0:
        return 0
    return math.ceil(flights_per_week * block_hours_per_flight / utilization)


def range_feasible(route: Route, fleet: FleetType) -> bool:
    return route.distance_km <= fleet.range_km


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
        raise ValueError(
            f"route {route.id} is {route.distance_km!r} km but {fleet.name} "
            f"ranges {fleet.range_km!r} km"
        )
    carried = min(route.demand_pax_per_week, flights_per_week * fleet.seats)
    revenue = carried * route.average_fare
    cost = flights_per_week * (
        route.block_hours_per_flight * route.cost_per_block_hour
        + route.fixed_cost_per_flight
    )
    return revenue - cost


def fleet_requirement(route: Route, fleet: FleetType, target_load_factor: float) -> FleetRequirement:
    """Size the weekly operation of ``route`` with ``fleet``."""
    flights = required_frequency(route.demand_pax_per_week, fleet.seats, target_load_factor)
    aircraft = aircraft_required(
        flights, route.block_hours_per_flight, fleet.utilization_block_hours_per_week
    )
    if flights == 0:
        load_factor = 0.0
    else:
        load_factor = min(1.0, route.demand_pax_per_week / (flights * fleet.seats))
    return FleetRequirement(flights, aircraft, load_factor)


def _anchor_score(value: float, pair: AnchorPair, epsilon: float) -> float:
    raw = (value - pair.worst) / (pair.best - pair.worst)
    return min(max(raw, epsilon), 1.0 - epsilon)


def component_likelihoods(route: Route, profit: float, anchors: ScoringAnchors) -> LikelihoodVector:
    """Score the route's KPIs into per-driver likelihoods (service, capital, cost).

    Min-max between the anchors, clamped into [epsilon, 1 - epsilon] so that a
    boundary KPI can never zero out the whole evaluation.
    """
    return LikelihoodVector(
        (
            _anchor_score(route.service_score, anchors.service, anchors.epsilon),
            _anchor_score(route.tied_capital, anchors.capital, anchors.epsilon),
            _anchor_score(profit, anchors.cost, anchors.epsilon),
        )
    )
