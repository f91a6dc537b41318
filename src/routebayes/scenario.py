"""Scenario documents: JSON schema, validation, defaults, canonical serialization.

A scenario is one self-contained JSON object with top-level keys
``schema_version``, ``hypotheses``, ``weights``, ``constraints``, ``anchors``,
``target_load_factor``, ``fleets``, ``availability``, ``routes``, ``rm_legs``
and ``seed``. Everything except ``schema_version`` is optional; defaults are
documented in the README. The parsed source document is kept on the Scenario
so canonical re-serialization round-trips exactly for files written with at
most 12 significant digits.

Validation has two layers. This module checks what no single value can know:
JSON shape and types, unknown keys, duplicate ids, references between
records, fleet range coverage, the 3-driver rule for routes, the load factor
and the seed. Each record is read by one field table (key -> reader) and
handed to its domain constructor (``Route``, ``FleetType``, ``AnchorPair``,
``ScoringAnchors``, ``FleetAvailability``, ``HypothesisSet``,
``validate_simplex``, ``BoxConstraints``, ``DemandModel``, ``LegRMProblem``),
which owns every value range and every default; an optional key that is
absent is not passed. ``_build`` turns a constructor's error into a
ValidationError at the record's path, except InfeasibleConstraints, which
keeps its own exit code.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .bayes import DEFAULT_DRIVERS, Hypothesis, HypothesisSet, WeightVector, uniform_weights, validate_simplex
from .economics import AnchorPair, FleetType, Route, ScoringAnchors, range_feasible
from .errors import (
    DanglingReference,
    InfeasibleConstraints,
    IoError,
    ParseError,
    RouteBayesError,
    SchemaVersionUnsupported,
    ValidationError,
)
from .optimizer import BoxConstraints
from .planner import FleetAvailability
from .rm import DemandModel, LegRMProblem

SCHEMA_VERSION = "1"

DEFAULT_TARGET_LOAD_FACTOR = 0.8

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


def _expect_numbers(value, path: str) -> list[float]:
    return [_expect_number(v, f"{path}[{i}]") for i, v in enumerate(_expect_list(value, path))]


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got {value!r}")
    return value


def _expect_text(value, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(path, f"expected a string, got {value!r}")
    return value


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(path, f"expected a nonempty string, got {value!r}")
    return value


def _reject_unknown(obj: dict, allowed, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{path}.{key}" if path else key, "unknown key")


#: Record keys that may be absent. Every other key in a field table is required.
_OPTIONAL = frozenset(
    ("label", "description", "service", "capital", "cost", "epsilon", "fleet", "show_up_prob", "denied_cost")
)


def _read(value, path: str, fields: dict) -> dict:
    """Read one record by its field table (key -> reader); absent optional keys are left out."""
    obj = _expect_object(value, path)
    if not obj.keys() <= fields.keys():
        _reject_unknown(obj, fields, path)
    return {key: read(obj.get(key), f"{path}.{key}")
            for key, read in fields.items() if key in obj or key not in _OPTIONAL}


def _read_list(doc: dict, section: str, fields: dict) -> list[tuple[str, dict]]:
    """(path, fields) for each record of an optional top-level list."""
    entries = _expect_list(doc.get(section, []), section)
    return [(f"{section}[{i}]", _read(entry, f"{section}[{i}]", fields)) for i, entry in enumerate(entries)]


def _build(path: str, make, *args, **kwargs):
    """Call a domain constructor; the value error it raises becomes a ValidationError at ``path``."""
    try:
        return make(*args, **kwargs)
    except InfeasibleConstraints:
        raise  # the CLI maps it to its own exit code
    except (ValueError, RouteBayesError) as exc:
        raise ValidationError(path, str(exc)) from exc


def _reject_duplicates(records: list[tuple[str, dict]], key: str, noun: str) -> None:
    seen = set()
    for path, fields in records:
        if fields[key] in seen:
            raise ValidationError(f"{path}.{key}", f"duplicate {noun} {fields[key]!r}")
        seen.add(fields[key])


def _anchor_pair(value, path: str) -> AnchorPair:
    return _build(path, AnchorPair, **_read(value, path, _ANCHOR_PAIR))


def _parse_demand(value, path: str) -> DemandModel:
    kind = _expect_str(_expect_object(value, path).get("kind"), f"{path}.kind")
    if kind == "poisson":
        return _build(path, DemandModel.poisson, _read(value, path, _POISSON)["mean"])
    if kind == "discrete":
        return _build(f"{path}.pmf", DemandModel.discrete, _read(value, path, _DISCRETE)["pmf"])
    raise ValidationError(f"{path}.kind", f"must be 'poisson' or 'discrete', got {kind!r}")


_HYPOTHESIS = {"id": _expect_str, "label": _expect_text, "description": _expect_text}
_CONSTRAINTS = {"lower": _expect_numbers, "upper": _expect_numbers}
_ANCHOR_PAIR = {"worst": _expect_number, "best": _expect_number}
_ANCHORS = {"service": _anchor_pair, "capital": _anchor_pair, "cost": _anchor_pair, "epsilon": _expect_number}
_FLEET = {
    "name": _expect_str,
    "seats": _expect_int,
    "range_km": _expect_number,
    "utilization_block_hours_per_week": _expect_number,
}
_ROUTE = {
    "id": _expect_str,
    "origin": _expect_str,
    "destination": _expect_str,
    **dict.fromkeys(
        ("distance_km", "demand_pax_per_week", "average_fare", "block_hours_per_flight",
         "cost_per_block_hour", "fixed_cost_per_flight", "service_score", "tied_capital"),
        _expect_number,
    ),
    "fleet": _expect_str,
}
_POISSON = {"kind": _expect_str, "mean": _expect_number}
_DISCRETE = {"kind": _expect_str, "pmf": _expect_numbers}
_LEG = {
    "id": _expect_str,
    "capacity": _expect_int,
    "fare_high": _expect_number,
    "fare_low": _expect_number,
    "demand_high": _parse_demand,
    "demand_low": _parse_demand,
    "show_up_prob": _expect_number,
    "denied_cost": _expect_number,
}


def _parse_hypotheses(doc: dict) -> HypothesisSet:
    if "hypotheses" not in doc:
        return DEFAULT_DRIVERS
    entries = _expect_list(doc["hypotheses"], "hypotheses")
    return _build("hypotheses", HypothesisSet, tuple(
        Hypothesis(**_read(entry, f"hypotheses[{i}]", _HYPOTHESIS)) for i, entry in enumerate(entries)
    ))


def _parse_weights(doc: dict, n: int) -> WeightVector:
    if "weights" not in doc:
        return uniform_weights(n)
    numbers = _expect_numbers(doc["weights"], "weights")
    if len(numbers) != n:
        raise ValidationError("weights", f"expected {n} entries, got {len(numbers)}")
    return _build("weights", validate_simplex, numbers)


def _parse_constraints(doc: dict, n: int) -> BoxConstraints | None:
    if "constraints" not in doc:
        return None
    bounds = _read(doc["constraints"], "constraints", _CONSTRAINTS)
    if len(bounds["lower"]) != n or len(bounds["upper"]) != n:
        raise ValidationError(
            "constraints", f"expected {n} lower and upper bounds, got {len(bounds['lower'])}/{len(bounds['upper'])}"
        )
    return _build("constraints", BoxConstraints, **bounds)


def _parse_fleets(doc: dict) -> tuple[FleetType, ...]:
    records = _read_list(doc, "fleets", _FLEET)
    _reject_duplicates(records, "name", "fleet name")
    return tuple(_build(path, FleetType, **fields) for path, fields in records)


def _parse_availability(doc: dict, fleets: tuple[FleetType, ...]) -> FleetAvailability:
    counts = {f.name: 0 for f in fleets}
    for name, value in _expect_object(doc.get("availability", {}), "availability").items():
        if name not in counts:
            raise DanglingReference(f"availability.{name}", "unknown fleet")
        counts[name] = _expect_int(value, f"availability.{name}")
    return _build("availability", FleetAvailability, counts)


def _parse_routes(doc: dict, fleets: tuple[FleetType, ...]):
    records = _read_list(doc, "routes", _ROUTE)
    _reject_duplicates(records, "id", "route id")
    routes = []
    pinned: dict[str, str] = {}
    by_name = {f.name: f for f in fleets}
    for path, fields in records:
        fleet_name = fields.pop("fleet", None)
        route = _build(path, Route, **fields)
        if fleet_name is None:
            if not any(range_feasible(route, f) for f in fleets):
                raise ValidationError(path, "no fleet with sufficient range for this route")
        elif fleet_name not in by_name:
            raise DanglingReference(f"{path}.fleet", f"unknown fleet {fleet_name!r}")
        elif not range_feasible(route, by_name[fleet_name]):
            raise ValidationError(
                f"{path}.fleet",
                f"fleet {fleet_name!r} ranges {by_name[fleet_name].range_km!r} km, "
                f"route is {route.distance_km!r} km",
            )
        else:
            pinned[route.id] = fleet_name
        routes.append(route)
    return tuple(routes), pinned


def _parse_rm_legs(doc: dict) -> tuple[RMLeg, ...]:
    records = _read_list(doc, "rm_legs", _LEG)
    _reject_duplicates(records, "id", "leg id")
    legs = []
    for path, fields in records:
        leg_id = fields.pop("id")
        legs.append(RMLeg(leg_id, _build(path, LegRMProblem, **fields)))
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
    anchors = _build("anchors", ScoringAnchors, **_read(doc.get("anchors", {}), "anchors", _ANCHORS))
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
    seed = _expect_int(doc.get("seed", 0), "seed")
    if seed < 0:
        raise ValidationError("seed", f"must be >= 0, got {seed!r}")
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
    except ValueError as exc:  # json.loads refuses integer literals past Python's digit limit
        raise ParseError(f"number literal longer than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
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
