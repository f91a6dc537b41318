"""Network selection: pick routes maximizing probability-weighted profit under fleet limits.

Each candidate arrives with a pre-assigned fleet and an integer aircraft need, and scores add up, so the multi-fleet
0/1 knapsack splits into one knapsack per fleet. Each is solved exactly by an O(candidates x aircraft) dynamic
program (Martello & Toth 1990, ch. 2) while its table holds at most MAX_PLAN_CELLS cells; a larger one raises
PlanTooLarge rather than exhaust memory. Of two tied plans, the one holding the smallest id where they differ wins.
Selection is a pure function of its inputs. ``plan_routes`` is the one planner, over candidate columns;
``select_routes`` hands it ``RouteCandidate`` records, whose constructor is the one place their rules are checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .bayes import left_sum
from .errors import PlanTooLarge

# Largest per-fleet DP table (candidates x aircraft levels) a plan may build.
MAX_PLAN_CELLS = 10**8


@dataclass(frozen=True)
class RouteCandidate:
    """A route with its assigned fleet, weekly profit, and success probability."""

    route_id: str
    fleet_name: str
    profit_per_week: float
    total_probability: float
    aircraft_needed: int

    def __post_init__(self):
        if not self.route_id:
            raise ValueError("route_id must be nonempty")
        if not (0.0 <= self.total_probability <= 1.0):
            raise ValueError(f"total_probability must be in [0, 1], got {self.total_probability!r}")
        if self.aircraft_needed < 0:
            raise ValueError(f"aircraft_needed must be >= 0, got {self.aircraft_needed!r}")


@dataclass(frozen=True)
class FleetAvailability:
    """Aircraft available per fleet type."""

    counts: dict[str, int]

    def __post_init__(self):
        object.__setattr__(self, "counts", dict(self.counts))
        for name, count in self.counts.items():
            if count < 0:
                raise ValueError(f"availability for {name!r} must be >= 0, got {count!r}")


@dataclass(frozen=True)
class NetworkPlan:
    """Selected routes, fleet usage, and the achieved total score."""

    selected: tuple[str, ...]
    used: dict[str, int]
    total_score: float
    per_route_scores: dict[str, float]
    heuristic = False  # a constant, not a field: every plan is exact; kept so report readers find the key


def score_candidate(candidate: RouteCandidate) -> float:
    """Probability-weighted expected weekly profit."""
    return _score(candidate.total_probability, candidate.profit_per_week)


def _score(probability, profit):
    return probability * profit


def _fleet_select(fleet: str, items: list[int], needs: list[int], scores: list[float], available: int) -> list[int]:
    """Exact 0/1 knapsack over one fleet's candidates ``items``, in id order, each of which fits alone.

    A backward pass over the candidates in reverse id order fills
    ``best[c]``, the top score of the remaining candidates within ``c``
    aircraft, and marks where taking candidate i scores ``>=`` skipping it.
    Backtracking forward from full availability then takes every tied
    candidate it can, in id order, as the tie rule asks.
    """
    if sum(needs[i] for i in items) <= available:
        return items
    width = available + 1
    if len(items) * width > MAX_PLAN_CELLS:
        raise PlanTooLarge(
            f"fleet {fleet!r}: {len(items)} candidates x {width} aircraft levels "
            f"exceeds the {MAX_PLAN_CELLS} cell planning table"
        )
    best = np.zeros(width)
    take = np.zeros((len(items), width), dtype=bool)
    for row in range(len(items) - 1, -1, -1):
        need = needs[items[row]]
        with_it = best[: width - need] + scores[items[row]]
        np.greater_equal(with_it, best[need:], out=take[row, need:])
        np.maximum(best[need:], with_it, out=best[need:])
    chosen = []
    level = width - 1
    for row, i in enumerate(items):
        if take[row, level]:
            chosen.append(i)
            level -= needs[i]
    return chosen


def plan_routes(route_ids: list[str], fleets: list[str], profits: list[float], probabilities: list[float],
                aircraft: list[int], availability: FleetAvailability) -> NetworkPlan:
    """``select_routes`` over candidate columns, in the field order of ``RouteCandidate``, whose rules they meet (the
    probabilities up to rounding): its callers pass checked records or the columns ``evaluate_routes`` made."""
    counts = availability.counts
    if len(set(route_ids)) != len(route_ids) or not counts.keys() >= set(fleets):  # find the first fault in order
        for i, (route_id, fleet) in enumerate(zip(route_ids, fleets)):
            if route_ids.index(route_id) < i:
                raise ValueError(f"duplicate candidate route_id {route_id!r}")
            if fleet not in counts:
                raise ValueError(f"candidate {route_id!r} needs fleet {fleet!r}, which availability does not list")
    scores = list(map(_score, probabilities, profits))
    if not math.isfinite(positive := sum(max(s, 0.0) for s in scores)):
        raise ValueError(f"the positive scores sum to {positive!r}, past the float range")
    by_fleet = {name: [] for name in counts}
    for i in sorted(range(len(route_ids)), key=route_ids.__getitem__):
        if scores[i] > 0.0 and aircraft[i] <= counts[fleets[i]]:
            by_fleet[fleets[i]].append(i)
    chosen = sorted((i for name, items in by_fleet.items()
                     for i in _fleet_select(name, items, aircraft, scores, counts[name])), key=route_ids.__getitem__)
    used = dict.fromkeys(by_fleet, 0)
    for i in chosen:
        used[fleets[i]] += aircraft[i]
    return NetworkPlan(tuple(route_ids[i] for i in chosen), used, left_sum(scores[i] for i in chosen),
                       dict(zip(route_ids, scores)))


def select_routes(
    candidates: list[RouteCandidate],
    availability: FleetAvailability | Mapping[str, int],
) -> NetworkPlan:
    """Choose the subset of candidates maximizing total score within availability.

    Candidates with nonpositive score are never selected. Each fleet is
    solved exactly on its own; ``total_score`` is the left-to-right sum of
    the selected scores in route_id order. The positive scores must sum to a
    finite number, so that no subset sum, the DP table's included, overflows.
    """
    if not isinstance(availability, FleetAvailability):
        availability = FleetAvailability(dict(availability))
    return plan_routes(*([getattr(c, f.name) for c in candidates] for f in fields(RouteCandidate)), availability)
