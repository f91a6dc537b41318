"""Seeded scenario generators for the benchmark workloads.

Every generator draws from ``random.Random`` seeded with the workload seed, so
one seed always yields byte-identical files. Sizes that set the cost of an
operation (route count, candidate count, leg capacity) follow fixed grids;
the seed moves the economics around them. That keeps the work per run close
across seeds while the program still sees fresh numbers each time.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import checks

NETWORK_ROUTES = 10_000
PLAN_POOL = 280                      # 40 instances of each candidate count 18..24
PLAN_POSITIVE = range(18, 25)
PLAN_NEGATIVE = 3
RM_CAPACITIES = (100, 126, 159, 200, 252, 317, 400, 504, 635, 800)   # 100 * 8 ** (i / 9)

#: Seed-independent leg whose Littlewood protection (83) exceeds its capacity
#: (50). The rm stage rejects it with InvalidPolicy until the pipeline clamps
#: the protection level, so every rm_legs round counts it as one failure.
FAILING_LEG = {
    "id": "over_protected_leg",
    "capacity": 50,
    "fare_high": 320,
    "fare_low": 110,
    "demand_high": {"kind": "poisson", "mean": 80},
    "demand_low": {"kind": "poisson", "mean": 180},
    "show_up_prob": 0.92,
    "denied_cost": 450,
}

_ANCHORS = {
    "service": {"worst": 0.0, "best": 1.0},
    "capital": {"worst": 3_000_000, "best": 0},
    "cost": {"worst": -300_000, "best": 300_000},
    "epsilon": 0.01,
}


def _r(x: float, digits: int = 2) -> float:
    return round(x, digits)


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _route(rng: random.Random, rid: str, distance: float, demand: float, fare: float) -> dict:
    return {
        "id": rid,
        "origin": "HUB",
        "destination": rid.upper(),
        "distance_km": _r(distance, 1),
        "demand_pax_per_week": _r(demand, 1),
        "average_fare": _r(fare),
        "block_hours_per_flight": _r(distance / 750.0 + 0.5),
        "cost_per_block_hour": _r(rng.uniform(2000, 9000)),
        "fixed_cost_per_flight": _r(rng.uniform(500, 12000)),
        "service_score": _r(rng.random(), 3),
        "tied_capital": _r(rng.uniform(50_000, 3_000_000)),
    }


def _poisson(mean: float) -> dict:
    return {"kind": "poisson", "mean": mean}


def network_doc(seed: int, n_routes: int = NETWORK_ROUTES) -> dict:
    """A three-fleet network of unpinned routes; more than 24 score positive."""
    rng = random.Random(seed)
    fleets = [
        {"name": "turboprop", "seats": 72, "range_km": 1500, "utilization_block_hours_per_week": 55},
        {"name": "narrowbody", "seats": 186, "range_km": 5700, "utilization_block_hours_per_week": 78},
        {"name": "widebody", "seats": 300, "range_km": 11000, "utilization_block_hours_per_week": 90},
    ]
    routes = []
    for i in range(n_routes):
        u = rng.random()
        if u < 0.4:
            distance = rng.uniform(200, 1400)
        elif u < 0.85:
            distance = rng.uniform(1400, 5500)
        else:
            distance = rng.uniform(5500, 10500)
        fare = (0.08 * distance + 50) * rng.uniform(0.6, 1.6)
        routes.append(_route(rng, f"r{i:05d}", distance, rng.uniform(150, 3500), fare))
    # Roughly 4 aircraft per 10 routes per fleet: the plan must leave routes out.
    share = n_routes * 4 // 10
    return {
        "schema_version": "1",
        "weights": [0.4, 0.35, 0.25],
        "constraints": {"lower": [0.1, 0.1, 0.1], "upper": [0.7, 0.6, 0.6]},
        "anchors": _ANCHORS,
        "target_load_factor": 0.8,
        "fleets": fleets,
        "availability": {"turboprop": share // 2, "narrowbody": share, "widebody": share // 2},
        "routes": routes,
        "seed": seed,
    }


def plan_doc(rng: random.Random, n_positive: int, n_fleets: int) -> dict:
    """Pinned routes with a known profit sign over 2-3 fleets, availability tight."""
    fleets = [
        {"name": f"f{k}", "seats": seats, "range_km": 12000, "utilization_block_hours_per_week": 60}
        for k, seats in enumerate((120, 180, 250)[:n_fleets])
    ]
    routes = []
    need = [0] * n_fleets
    for i in range(n_positive + PLAN_NEGATIVE):
        k = i % n_fleets
        fleet = fleets[k]
        distance = rng.uniform(400, 4000)
        demand = rng.uniform(0.5, 4.0) * fleet["seats"] * 7
        route = _route(rng, f"c{i:02d}", distance, demand, 0.0)
        flights = math.ceil(route["demand_pax_per_week"] / (fleet["seats"] * 0.8))
        aircraft = math.ceil(flights * route["block_hours_per_flight"] / 60)
        cost = flights * (route["block_hours_per_flight"] * route["cost_per_block_hour"]
                          + route["fixed_cost_per_flight"])
        margin = rng.uniform(1.1, 2.5) if i < n_positive else rng.uniform(0.3, 0.9)
        route["average_fare"] = _r(margin * cost / route["demand_pax_per_week"] + 0.01)
        route["fleet"] = fleet["name"]
        if i < n_positive:
            need[k] += aircraft
        routes.append(route)
    rng.shuffle(routes)
    return {
        "schema_version": "1",
        "weights": [0.3, 0.3, 0.4],
        "constraints": {"lower": [0.2, 0.2, 0.2], "upper": [0.5, 0.5, 0.6]},
        "anchors": _ANCHORS,
        "target_load_factor": 0.8,
        "fleets": fleets,
        "availability": {f["name"]: max(1, round(0.6 * n)) for f, n in zip(fleets, need)},
        "routes": routes,
    }


def rm_leg(rng: random.Random, index: int, capacity: int) -> dict:
    """A leg whose Littlewood protection stays below capacity at any seed.

    The demand means, which set the size of the revenue sums, stay within 2%
    of fixed shares of the capacity; fares, show-up and denied-boarding cost
    vary freely with the seed.
    """
    leg = {
        "id": f"leg{index:02d}",
        "capacity": capacity,
        "fare_high": _r(rng.uniform(250, 400)),
        "fare_low": _r(rng.uniform(80, 150)),
        "demand_high": _poisson(_r(capacity * rng.uniform(0.27, 0.29), 1)),
        "demand_low": _poisson(_r(capacity * rng.uniform(0.94, 0.96), 1)),
        "show_up_prob": _r(rng.uniform(0.88, 0.97), 3),
        "denied_cost": _r(rng.uniform(300, 600)),
    }
    protection = checks.littlewood(checks.poisson_pmf(leg["demand_high"]["mean"]),
                                   leg["fare_low"] / leg["fare_high"])
    if protection > capacity:
        raise AssertionError(f"generated leg {leg['id']} would be over-protected")
    return leg


def _small_doc(rng: random.Random, seed: int, legs: list[dict]) -> dict:
    """Demo-sized scenario: three routes, two fleets, weight constraints, RM legs."""
    fleets = [
        {"name": "a320", "seats": 180, "range_km": 5000, "utilization_block_hours_per_week": 70},
        {"name": "e190", "seats": 100, "range_km": 3200, "utilization_block_hours_per_week": 60},
    ]
    routes = [
        _route(rng, "hub_coastal", 1500, 1400 * rng.uniform(0.95, 1.05), 100 * rng.uniform(0.95, 1.05)),
        _route(rng, "hub_capital", 1500, 1400 * rng.uniform(0.95, 1.05), 200 * rng.uniform(0.95, 1.05)),
        _route(rng, "hub_island", 800, 600 * rng.uniform(0.95, 1.05), 190 * rng.uniform(0.95, 1.05)),
    ]
    routes[2]["fleet"] = "e190"
    return {
        "schema_version": "1",
        "weights": [0.5, 0.3, 0.2],
        "constraints": {"lower": [0.1, 0.1, 0.1], "upper": [0.6, 0.6, 0.6]},
        "anchors": _ANCHORS,
        "target_load_factor": 0.8,
        "fleets": fleets,
        "availability": {"a320": 2, "e190": 2},
        "routes": routes,
        "rm_legs": legs,
        "seed": seed,
    }


def _mix_doc(rng: random.Random, seed: int) -> dict:
    """Fleet-mix-shaped scenario: relabelled drivers, three fleets, a long-haul route."""
    fleets = [
        {"name": "turboprop", "seats": 72, "range_km": 1500, "utilization_block_hours_per_week": 55},
        {"name": "narrowbody", "seats": 186, "range_km": 5700, "utilization_block_hours_per_week": 78},
        {"name": "widebody", "seats": 300, "range_km": 11000, "utilization_block_hours_per_week": 90},
    ]
    routes = [
        _route(rng, "regional_fjord", 420, 900, 85 * rng.uniform(0.95, 1.05)),
        _route(rng, "trunk_metro", 2100, 2600, 140 * rng.uniform(0.95, 1.05)),
        _route(rng, "longhaul_ocean", 8800, 1500, 520 * rng.uniform(0.95, 1.05)),
        _route(rng, "thin_mountain", 980, 260, 110 * rng.uniform(0.95, 1.05)),
    ]
    routes[0]["fleet"] = "turboprop"
    return {
        "schema_version": "1",
        "hypotheses": [
            {"id": "cabin_experience", "label": "Cabin experience", "description": ""},
            {"id": "fleet_capital", "label": "Fleet capital", "description": ""},
            {"id": "unit_costs", "label": "Unit costs", "description": ""},
        ],
        "anchors": _ANCHORS,
        "target_load_factor": 0.75,
        "fleets": fleets,
        "availability": {"turboprop": 3, "narrowbody": 4, "widebody": 1},
        "routes": routes,
        "rm_legs": [rm_leg(rng, 0, 186)],
        "seed": seed,
    }


def generate(workload: str, seed: int, inputs: Path) -> list[tuple[str, Path]]:
    """Write the workload's inputs under ``inputs``; return one round of operations.

    An operation is ``(kind, path)`` with kind ``plan`` (evaluate, optimize,
    plan) or ``rm``. ``inputs/warmup.json`` is written too: a demo-sized
    scenario the workload process runs once, untimed, before its first
    operation.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    _write(inputs / "warmup.json", _small_doc(rng, seed, [rm_leg(rng, 0, 100)]))
    if workload == "cli_cold":
        demo = _write(inputs / "demo.json", _small_doc(rng, seed, [rm_leg(rng, 0, 180), rm_leg(rng, 1, 100)]))
        mix = _write(inputs / "fleet_mix.json", _mix_doc(rng, seed))
        return [("plan", demo), ("rm", demo), ("plan", mix), ("rm", mix)]
    if workload == "network_10k":
        return [("plan", _write(inputs / "network.json", network_doc(seed)))]
    if workload == "plan_exact":
        ops = []
        for i in range(PLAN_POOL):
            n_pos = PLAN_POSITIVE[i % len(PLAN_POSITIVE)]
            doc = plan_doc(rng, n_pos, 2 + (i // len(PLAN_POSITIVE)) % 2)
            ops.append(("plan", _write(inputs / f"plan{i:03d}.json", doc)))
        return ops
    if workload == "rm_legs":
        ops = []
        for i, capacity in enumerate(RM_CAPACITIES):
            doc = {"schema_version": "1", "rm_legs": [rm_leg(rng, i, capacity)], "seed": seed + i}
            ops.append(("rm", _write(inputs / f"leg{i:02d}.json", doc)))
        failing = {"schema_version": "1", "rm_legs": [FAILING_LEG], "seed": 1}
        ops.append(("rm", _write(inputs / "leg_over_protected.json", failing)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")
