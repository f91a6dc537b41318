"""Network selection: pick routes maximizing probability-weighted profit under fleet limits.

Each candidate arrives with a pre-assigned fleet and an integer aircraft
need, and scores add up, so the multi-fleet 0/1 knapsack splits into one
knapsack per fleet. Each is solved exactly, at any size, by an
O(candidates x aircraft) dynamic program (Martello & Toth 1990, ch. 2).
Of two tied plans, the one holding the smallest id where they differ wins.
A fleet whose table would exceed MAX_PLAN_CELLS raises PlanTooLarge rather
than exhaust memory. Selection is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import PlanTooLarge, UnknownFleet

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
            raise ValueError(
                f"total_probability must be in [0, 1], got {self.total_probability!r}"
            )
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

    def __contains__(self, name: str) -> bool:
        return name in self.counts

    def get(self, name: str) -> int:
        return self.counts[name]

    def items(self):
        return self.counts.items()


@dataclass(frozen=True)
class NetworkPlan:
    """Selected routes, fleet usage, and the achieved total score."""

    selected: tuple[str, ...]
    used: dict[str, int]
    total_score: float
    per_route_scores: dict[str, float]
    heuristic: bool = False
    """Always False: every plan is exact; kept so report readers find the key."""


def score_candidate(candidate: RouteCandidate) -> float:
    """Probability-weighted expected weekly profit."""
    return candidate.total_probability * candidate.profit_per_week


def _check_candidates(candidates: list[RouteCandidate], availability: FleetAvailability) -> None:
    seen = set()
    for c in candidates:
        if c.route_id in seen:
            raise ValueError(f"duplicate candidate route_id {c.route_id!r}")
        seen.add(c.route_id)
        if c.fleet_name not in availability:
            raise UnknownFleet(
                f"candidate {c.route_id!r} needs fleet {c.fleet_name!r}, "
                "which availability does not list"
            )


def _fleet_select(items: list[tuple[RouteCandidate, float]], available: int) -> list[RouteCandidate]:
    """Exact 0/1 knapsack over one fleet's id-sorted candidates that fit alone.

    A backward pass over the candidates in reverse id order fills
    ``best[c]``, the top score of the remaining candidates within ``c``
    aircraft, and marks where taking candidate i scores ``>=`` skipping it.
    Backtracking forward from full availability then takes every tied
    candidate it can, in id order, as the tie rule asks.
    """
    if sum(cand.aircraft_needed for cand, _ in items) <= available:
        return [cand for cand, _ in items]
    width = available + 1
    if len(items) * width > MAX_PLAN_CELLS:
        raise PlanTooLarge(
            f"fleet {items[0][0].fleet_name!r}: {len(items)} candidates x {width} aircraft levels "
            f"exceeds the {MAX_PLAN_CELLS} cell planning table"
        )
    best = np.zeros(width)
    take = np.zeros((len(items), width), dtype=bool)
    for i in range(len(items) - 1, -1, -1):
        cand, score = items[i]
        need = cand.aircraft_needed
        with_it = best[: width - need] + score
        np.greater_equal(with_it, best[need:], out=take[i, need:])
        np.maximum(best[need:], with_it, out=best[need:])
    chosen = []
    level = width - 1
    for i, (cand, _) in enumerate(items):
        if take[i, level]:
            chosen.append(cand)
            level -= cand.aircraft_needed
    return chosen


def select_routes(
    candidates: list[RouteCandidate],
    availability: FleetAvailability | Mapping[str, int],
) -> NetworkPlan:
    """Choose the subset of candidates maximizing total score within availability.

    Candidates with nonpositive score are never selected. Each fleet is
    solved exactly on its own; ``total_score`` is the left-to-right sum of
    the selected scores in route_id order.
    """
    if not isinstance(availability, FleetAvailability):
        availability = FleetAvailability(dict(availability))
    _check_candidates(candidates, availability)
    scores = {c.route_id: score_candidate(c) for c in candidates}
    by_fleet = {name: [] for name, _ in availability.items()}
    for c in sorted(candidates, key=lambda c: c.route_id):
        if scores[c.route_id] > 0.0 and c.aircraft_needed <= availability.get(c.fleet_name):
            by_fleet[c.fleet_name].append((c, scores[c.route_id]))
    chosen = sorted(
        (c for name, items in by_fleet.items() for c in _fleet_select(items, availability.get(name))),
        key=lambda c: c.route_id,
    )
    used = {name: 0 for name in by_fleet}
    total = 0.0
    for c in chosen:
        used[c.fleet_name] += c.aircraft_needed
        total += scores[c.route_id]
    return NetworkPlan(
        selected=tuple(c.route_id for c in chosen),
        used=used,
        total_score=total,
        per_route_scores=scores,
    )
