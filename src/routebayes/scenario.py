"""Scenario documents: JSON schema, validation, defaults, canonical serialization.

A scenario is one self-contained JSON object with top-level keys
``schema_version``, ``hypotheses``, ``weights``, ``constraints``, ``anchors``,
``target_load_factor``, ``fleets``, ``availability``, ``routes``, ``rm_legs``
and ``seed``. Everything except ``schema_version`` is optional; defaults are
documented in the README. Loading validates every cross-reference and vector
and returns a fully resolved Scenario. The parsed source document is kept on
the Scenario so canonical re-serialization round-trips exactly for files
written with at most 12 significant digits.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .bayes import (
    DEFAULT_DRIVERS,
    Hypothesis,
    HypothesisSet,
    WeightVector,
    uniform_weights,
    validate_simplex,
)
from .economics import AnchorPair, FleetType, Route, ScoringAnchors, range_feasible
from .errors import (
    DanglingReference,
    IoError,
    NegativeEntry,
    ParseError,
    SchemaVersionUnsupported,
    SumOutOfTolerance,
    ValidationError,
)
from .optimizer import BoxConstraints
from .planner import FleetAvailability
from .rm import DemandModel, LegRMProblem

SCHEMA_VERSION = "1"

DEFAULT_TARGET_LOAD_FACTOR = 0.8

#: Placeholder anchor scales used when a scenario does not provide its own.
#: Real studies should always set anchors that match their currency scale.
DEFAULT_ANCHORS = ScoringAnchors(
    service=AnchorPair(0.0, 1.0),
    capital=AnchorPair(10_000_000.0, 0.0),
    cost=AnchorPair(-100_000.0, 100_000.0),
)

_TOP_KEYS = (
    "schema_version",
    "hypotheses",
    "weights",
    "constraints",
    "anchors",
    "target_load_factor",
    "fleets",
    "availability",
    "routes",
    "rm_legs",
    "seed",
)

_ROUTE_KEYS = (
    "id",
    "origin",
    "destination",
    "distance_km",
    "demand_pax_per_week",
    "average_fare",
    "block_hours_per_flight",
    "cost_per_block_hour",
    "fixed_cost_per_flight",
    "service_score",
    "tied_capital",
)


@dataclass(frozen=True)
class RMLeg:
    id: str
    problem: LegRMProblem


@dataclass(frozen=True)
class Scenario:
    """Fully resolved input document for one pipeline run."""

    schema_version: str
    hypotheses: HypothesisSet
    weights: WeightVector
    constraints: BoxConstraints | None
    anchors: ScoringAnchors
    target_load_factor: float
    fleets: tuple[FleetType, ...]
    availability: FleetAvailability
    routes: tuple[Route, ...]
    pinned_fleets: dict[str, str]
    rm_legs: tuple[RMLeg, ...]
    seed: int
    source: dict = field(repr=False)

    def fleet_by_name(self, name: str) -> FleetType:
        for fleet in self.fleets:
            if fleet.name == name:
                return fleet
        raise KeyError(name)


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(path, f"expected a list, got {type(value).__name__}")
    return value


def _expect_number(value, path: str) -> float:
    # the comparison is false for NaN and also rejects integers too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ValidationError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got {value!r}")
    return value


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(path, f"expected a nonempty string, got {value!r}")
    return value


def _reject_unknown(obj: dict, allowed, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{path}.{key}" if path else key, "unknown key")


def _parse_hypotheses(doc: dict) -> HypothesisSet:
    if "hypotheses" not in doc:
        return DEFAULT_DRIVERS
    entries = _expect_list(doc["hypotheses"], "hypotheses")
    if not entries:
        raise ValidationError("hypotheses", "must list at least one hypothesis")
    parsed = []
    for i, entry in enumerate(entries):
        path = f"hypotheses[{i}]"
        obj = _expect_object(entry, path)
        _reject_unknown(obj, ("id", "label", "description"), path)
        parsed.append(
            Hypothesis(
                _expect_str(obj.get("id"), f"{path}.id"),
                str(obj.get("label", "")),
                str(obj.get("description", "")),
            )
        )
    try:
        return HypothesisSet(tuple(parsed))
    except ValueError as exc:
        raise ValidationError("hypotheses", str(exc)) from exc


def _parse_weights(doc: dict, n: int) -> WeightVector:
    if "weights" not in doc:
        return uniform_weights(n)
    values = _expect_list(doc["weights"], "weights")
    numbers = [_expect_number(v, f"weights[{i}]") for i, v in enumerate(values)]
    if len(numbers) != n:
        raise ValidationError("weights", f"expected {n} entries, got {len(numbers)}")
    try:
        return validate_simplex(numbers)
    except SumOutOfTolerance as exc:
        raise ValidationError("weights", f"sum {exc.total!r} outside 1 +/- {exc.tolerance!r}") from exc
    except NegativeEntry as exc:
        raise ValidationError(f"weights[{exc.index}]", "must be >= 0") from exc


def _parse_constraints(doc: dict, n: int) -> BoxConstraints | None:
    if "constraints" not in doc:
        return None
    obj = _expect_object(doc["constraints"], "constraints")
    _reject_unknown(obj, ("lower", "upper"), "constraints")
    lower = [_expect_number(v, f"constraints.lower[{i}]")
             for i, v in enumerate(_expect_list(obj.get("lower"), "constraints.lower"))]
    upper = [_expect_number(v, f"constraints.upper[{i}]")
             for i, v in enumerate(_expect_list(obj.get("upper"), "constraints.upper"))]
    if len(lower) != n or len(upper) != n:
        raise ValidationError(
            "constraints", f"expected {n} lower and upper bounds, got {len(lower)}/{len(upper)}"
        )
    # InfeasibleConstraints propagates unwrapped: the CLI maps it to its own exit code.
    return BoxConstraints(tuple(lower), tuple(upper))


def _parse_anchor_pair(obj, path: str, default: AnchorPair) -> AnchorPair:
    if obj is None:
        return default
    pair = _expect_object(obj, path)
    _reject_unknown(pair, ("worst", "best"), path)
    worst = _expect_number(pair.get("worst"), f"{path}.worst")
    best = _expect_number(pair.get("best"), f"{path}.best")
    if worst == best:
        raise ValidationError(path, "worst and best anchors must differ")
    return AnchorPair(worst, best)


def _parse_anchors(doc: dict) -> ScoringAnchors:
    if "anchors" not in doc:
        return DEFAULT_ANCHORS
    obj = _expect_object(doc["anchors"], "anchors")
    _reject_unknown(obj, ("service", "capital", "cost", "epsilon"), "anchors")
    epsilon = DEFAULT_ANCHORS.epsilon
    if "epsilon" in obj:
        epsilon = _expect_number(obj["epsilon"], "anchors.epsilon")
        if not (0.0 < epsilon < 0.5):
            raise ValidationError("anchors.epsilon", f"must be in (0, 0.5), got {epsilon!r}")
    return ScoringAnchors(
        service=_parse_anchor_pair(obj.get("service"), "anchors.service", DEFAULT_ANCHORS.service),
        capital=_parse_anchor_pair(obj.get("capital"), "anchors.capital", DEFAULT_ANCHORS.capital),
        cost=_parse_anchor_pair(obj.get("cost"), "anchors.cost", DEFAULT_ANCHORS.cost),
        epsilon=epsilon,
    )


def _parse_fleets(doc: dict) -> tuple[FleetType, ...]:
    entries = _expect_list(doc.get("fleets", []), "fleets")
    fleets = []
    names = set()
    for i, entry in enumerate(entries):
        path = f"fleets[{i}]"
        obj = _expect_object(entry, path)
        _reject_unknown(obj, ("name", "seats", "range_km", "utilization_block_hours_per_week"), path)
        name = _expect_str(obj.get("name"), f"{path}.name")
        if name in names:
            raise ValidationError(f"{path}.name", f"duplicate fleet name {name!r}")
        names.add(name)
        try:
            fleets.append(
                FleetType(
                    name=name,
                    seats=_expect_int(obj.get("seats"), f"{path}.seats"),
                    range_km=_expect_number(obj.get("range_km"), f"{path}.range_km"),
                    utilization_block_hours_per_week=_expect_number(
                        obj.get("utilization_block_hours_per_week"),
                        f"{path}.utilization_block_hours_per_week",
                    ),
                )
            )
        except ValueError as exc:
            raise ValidationError(path, str(exc)) from exc
    return tuple(fleets)


def _parse_availability(doc: dict, fleets: tuple[FleetType, ...]) -> FleetAvailability:
    declared = {f.name for f in fleets}
    counts = {f.name: 0 for f in fleets}
    if "availability" in doc:
        obj = _expect_object(doc["availability"], "availability")
        for name, value in obj.items():
            if name not in declared:
                raise DanglingReference(f"availability.{name}", "unknown fleet")
            count = _expect_int(value, f"availability.{name}")
            if count < 0:
                raise ValidationError(f"availability.{name}", "must be >= 0")
            counts[name] = count
    return FleetAvailability(counts)


def _parse_routes(doc: dict, fleets: tuple[FleetType, ...]):
    entries = _expect_list(doc.get("routes", []), "routes")
    routes = []
    pinned: dict[str, str] = {}
    ids = set()
    by_name = {f.name: f for f in fleets}
    for i, entry in enumerate(entries):
        path = f"routes[{i}]"
        obj = _expect_object(entry, path)
        _reject_unknown(obj, _ROUTE_KEYS + ("fleet",), path)
        rid = _expect_str(obj.get("id"), f"{path}.id")
        if rid in ids:
            raise ValidationError(f"{path}.id", f"duplicate route id {rid!r}")
        ids.add(rid)
        kwargs = {
            "id": rid,
            "origin": _expect_str(obj.get("origin"), f"{path}.origin"),
            "destination": _expect_str(obj.get("destination"), f"{path}.destination"),
        }
        for key in _ROUTE_KEYS[3:]:
            kwargs[key] = _expect_number(obj.get(key), f"{path}.{key}")
        try:
            route = Route(**kwargs)
        except ValueError as exc:
            raise ValidationError(path, str(exc)) from exc
        if "fleet" in obj:
            fleet_name = _expect_str(obj["fleet"], f"{path}.fleet")
            if fleet_name not in by_name:
                raise DanglingReference(f"{path}.fleet", f"unknown fleet {fleet_name!r}")
            if not range_feasible(route, by_name[fleet_name]):
                raise ValidationError(
                    f"{path}.fleet",
                    f"fleet {fleet_name!r} ranges {by_name[fleet_name].range_km!r} km, "
                    f"route is {route.distance_km!r} km",
                )
            pinned[rid] = fleet_name
        else:
            if not any(range_feasible(route, f) for f in fleets):
                raise ValidationError(path, "no fleet with sufficient range for this route")
        routes.append(route)
    return tuple(routes), pinned


def _parse_demand(obj, path: str) -> DemandModel:
    model = _expect_object(obj, path)
    kind = _expect_str(model.get("kind"), f"{path}.kind")
    if kind == "poisson":
        _reject_unknown(model, ("kind", "mean"), path)
        mean = _expect_number(model.get("mean"), f"{path}.mean")
        try:
            return DemandModel.poisson(mean)
        except ValueError as exc:
            raise ValidationError(path, str(exc)) from exc
    if kind == "discrete":
        _reject_unknown(model, ("kind", "pmf"), path)
        pmf = [_expect_number(v, f"{path}.pmf[{i}]")
               for i, v in enumerate(_expect_list(model.get("pmf"), f"{path}.pmf"))]
        try:
            return DemandModel.discrete(pmf)
        except ValueError as exc:
            raise ValidationError(f"{path}.pmf", str(exc)) from exc
    raise ValidationError(f"{path}.kind", f"must be 'poisson' or 'discrete', got {kind!r}")


def _parse_rm_legs(doc: dict) -> tuple[RMLeg, ...]:
    entries = _expect_list(doc.get("rm_legs", []), "rm_legs")
    legs = []
    ids = set()
    keys = ("id", "capacity", "fare_high", "fare_low", "demand_high", "demand_low",
            "show_up_prob", "denied_cost")
    for i, entry in enumerate(entries):
        path = f"rm_legs[{i}]"
        obj = _expect_object(entry, path)
        _reject_unknown(obj, keys, path)
        lid = _expect_str(obj.get("id"), f"{path}.id")
        if lid in ids:
            raise ValidationError(f"{path}.id", f"duplicate leg id {lid!r}")
        ids.add(lid)
        try:
            problem = LegRMProblem(
                capacity=_expect_int(obj.get("capacity"), f"{path}.capacity"),
                fare_high=_expect_number(obj.get("fare_high"), f"{path}.fare_high"),
                fare_low=_expect_number(obj.get("fare_low"), f"{path}.fare_low"),
                demand_high=_parse_demand(obj.get("demand_high"), f"{path}.demand_high"),
                demand_low=_parse_demand(obj.get("demand_low"), f"{path}.demand_low"),
                show_up_prob=_expect_number(obj.get("show_up_prob", 1.0), f"{path}.show_up_prob"),
                denied_cost=_expect_number(obj.get("denied_cost", 0.0), f"{path}.denied_cost"),
            )
        except ValueError as exc:
            raise ValidationError(path, str(exc)) from exc
        legs.append(RMLeg(lid, problem))
    return tuple(legs)


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a parsed scenario document and resolve defaults."""
    if not isinstance(doc, dict):
        raise ValidationError("$", "scenario must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionUnsupported(
            f"schema_version must be {SCHEMA_VERSION!r}, got {version!r}"
        )
    _reject_unknown(doc, _TOP_KEYS, "")
    hypotheses = _parse_hypotheses(doc)
    weights = _parse_weights(doc, len(hypotheses))
    constraints = _parse_constraints(doc, len(hypotheses))
    anchors = _parse_anchors(doc)
    target_lf = DEFAULT_TARGET_LOAD_FACTOR
    if "target_load_factor" in doc:
        target_lf = _expect_number(doc["target_load_factor"], "target_load_factor")
        if not (0.0 < target_lf <= 1.0):
            raise ValidationError("target_load_factor", f"must be in (0, 1], got {target_lf!r}")
    fleets = _parse_fleets(doc)
    availability = _parse_availability(doc, fleets)
    routes, pinned = _parse_routes(doc, fleets)
    if routes and len(hypotheses) != 3:
        raise ValidationError(
            "hypotheses",
            "route scoring maps KPIs onto exactly 3 drivers (service, capital, cost); "
            f"got {len(hypotheses)}",
        )
    rm_legs = _parse_rm_legs(doc)
    seed = 0
    if "seed" in doc:
        seed = _expect_int(doc["seed"], "seed")
    return Scenario(
        schema_version=version,
        hypotheses=hypotheses,
        weights=weights,
        constraints=constraints,
        anchors=anchors,
        target_load_factor=target_lf,
        fleets=fleets,
        availability=availability,
        routes=routes,
        pinned_fleets=pinned,
        rm_legs=rm_legs,
        seed=seed,
        source={k: doc[k] for k in _TOP_KEYS if k in doc},
    )


def load_scenario(path) -> Scenario:
    """Read, parse, and validate a scenario JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc.reason} at byte {exc.start}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, or nesting too deep
        raise ParseError(str(exc)) from exc
    return scenario_from_dict(doc)


def round12(value: float) -> float:
    """Canonical numeric precision for serialized output: 12 significant digits."""
    return float(f"{value:.12g}")


def round_tree(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return round12(value)
    if isinstance(value, list):
        return [round_tree(v) for v in value]
    if isinstance(value, dict):
        return {k: round_tree(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dump_scenario(scenario: Scenario) -> dict:
    """Canonical dict form of the scenario (stable key order, 12-digit floats)."""
    return round_tree(dict(scenario.source))


def scenario_to_json(scenario: Scenario) -> str:
    return json.dumps(dump_scenario(scenario), indent=2) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=f".{target.name}.")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_scenario(scenario: Scenario, path) -> None:
    atomic_write_text(path, scenario_to_json(scenario))
