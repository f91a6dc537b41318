"""Scenario documents: JSON schema, validation, defaults, canonical serialization.

A scenario is one self-contained JSON object whose top-level keys are the fields of ``Scenario`` other than
``source``, in that order. Everything except ``schema_version`` is optional; defaults are documented in the README.
The parsed source document is kept on the Scenario so canonical re-serialization round-trips exactly for files
written with at most 12 significant digits.

Validation has two layers. This module checks what no single value can know: JSON shape and types, unknown keys,
duplicate ids, references between records, the 3-driver rule for routes, the load factor and the seed. Each record
is read by one field table (key -> reader) and handed to its domain constructor (``Route``, ``FleetType``,
``AnchorPair``, ``ScoringAnchors``, ``FleetAvailability``, ``HypothesisSet``, ``validate_simplex``,
``BoxConstraints``, ``DemandModel``, ``LegRMProblem``), which owns every value range and every default. The field
tables are derived from the constructors' dataclass fields: a field's annotation picks its reader, and a field with
a default is a key that may be absent, which is then not passed. ``errors.at`` turns a constructor's ValueError into
a ValidationError at the record's path; InfeasibleConstraints passes through with its own exit code.

Routes are read a column at a time: the checks above, ``economics.ROUTE_RULES`` (which ``Route`` applies) and the
route-fleet rule (``economics.fleet_candidates``) run over whole columns, and each Route is then built unchecked.
Only when a check fails are the routes read record by record, which raises the first error in file order.

``json_text`` is the package's one JSON writer, for scenarios and reports alike.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np

from .bayes import DEFAULT_DRIVERS, Hypothesis, HypothesisSet, WeightVector, uniform_weights, validate_simplex
from .economics import ROUTE_NUMBERS, ROUTE_RULES, AnchorPair, FleetType, Route, ScoringAnchors, check_route_fleet
from .economics import fleet_candidates
from .errors import DanglingReference, IoError, ParseError, SchemaVersionUnsupported, ValidationError, at
from .optimizer import BoxConstraints
from .planner import FleetAvailability
from .rm import DemandModel, LegRMProblem

SCHEMA_VERSION = "1"

DEFAULT_TARGET_LOAD_FACTOR = 0.8
_MAX = sys.float_info.max

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
    rm_legs: tuple[RMLeg, ...]
    seed: int
    source: dict = field(repr=False)


#: The top-level keys of a scenario document, in canonical order.
_TOP_KEYS = tuple(f.name for f in fields(Scenario) if f.name != "source")


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
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _MAX:
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


def _read(value, path: str, table: dict) -> dict:
    """Read one record by its field table (key -> reader); absent optional keys are left out."""
    obj = _expect_object(value, path)
    if not obj.keys() <= table.keys():
        _reject_unknown(obj, table, path)
    return {key: read(obj.get(key), f"{path}.{key}")
            for key, read in table.items() if key in obj or key not in _OPTIONAL}


def _read_list(doc: dict, section: str, table: dict, key: str, noun: str) -> list[tuple[str, dict]]:
    """(path, record) for each record of an optional top-level list, whose ``key`` values must differ."""
    entries = _expect_list(doc.get(section, []), section)
    records = [(f"{section}[{i}]", _read(entry, f"{section}[{i}]", table)) for i, entry in enumerate(entries)]
    seen = set()
    for path, record in records:
        if record[key] in seen:
            raise ValidationError(f"{path}.{key}", f"duplicate {noun} {record[key]!r}")
        seen.add(record[key])
    return records


def _anchor_pair(value, path: str) -> AnchorPair:
    return at(path, AnchorPair, **_read(value, path, _ANCHOR_PAIR))


def _parse_demand(value, path: str) -> DemandModel:
    kind = _expect_str(_expect_object(value, path).get("kind"), f"{path}.kind")
    if kind == "poisson":
        return at(path, DemandModel.poisson, _read(value, path, _POISSON)["mean"])
    if kind == "discrete":
        return at(f"{path}.pmf", DemandModel.discrete, _read(value, path, _DISCRETE)["pmf"])
    raise ValidationError(f"{path}.kind", f"must be 'poisson' or 'discrete', got {kind!r}")


#: The reader of a record field, by the field's annotation text.
_READERS = {"str": _expect_str, "str | None": _expect_str, "int": _expect_int, "float": _expect_number,
            "tuple[float, ...]": _expect_numbers, "AnchorPair": _anchor_pair, "DemandModel": _parse_demand}


def _fields(cls, **readers) -> dict:
    """The field table of ``cls``: each field, in order, read by ``readers[name]`` or else by its annotation."""
    return {f.name: readers.get(f.name) or _READERS[f.type] for f in fields(cls)}


_RECORDS = (Hypothesis, BoxConstraints, AnchorPair, ScoringAnchors, FleetType, Route, LegRMProblem)
_HYPOTHESIS = _fields(Hypothesis, label=_expect_text, description=_expect_text)
_CONSTRAINTS = _fields(BoxConstraints)
_ANCHOR_PAIR = _fields(AnchorPair)
_ANCHORS = _fields(ScoringAnchors)
_FLEET = _fields(FleetType)
_ROUTE = _fields(Route)
_POISSON = {"kind": _expect_str, "mean": _expect_number}
_DISCRETE = {"kind": _expect_str, "pmf": _expect_numbers}
_LEG = {"id": _expect_str, **_fields(LegRMProblem)}
#: Record keys that may be absent: the fields with a default. Every other key in a field table is required.
_OPTIONAL = frozenset(f.name for cls in _RECORDS for f in fields(cls) if f.default is not MISSING)


def _parse_hypotheses(doc: dict) -> HypothesisSet:
    if "hypotheses" not in doc:
        return DEFAULT_DRIVERS
    entries = _expect_list(doc["hypotheses"], "hypotheses")
    return at("hypotheses", HypothesisSet,
              tuple(Hypothesis(**_read(entry, f"hypotheses[{i}]", _HYPOTHESIS)) for i, entry in enumerate(entries)))


def _parse_weights(doc: dict, n: int) -> WeightVector:
    if "weights" not in doc:
        return uniform_weights(n)
    numbers = _expect_numbers(doc["weights"], "weights")
    if len(numbers) != n:
        raise ValidationError("weights", f"expected {n} entries, got {len(numbers)}")
    return at("weights", validate_simplex, numbers)


def _parse_constraints(doc: dict, n: int) -> BoxConstraints | None:
    if "constraints" not in doc:
        return None
    bounds = _read(doc["constraints"], "constraints", _CONSTRAINTS)
    if len(bounds["lower"]) != n or len(bounds["upper"]) != n:
        raise ValidationError("constraints",
                              f"expected {n} lower and upper bounds, got {len(bounds['lower'])}/{len(bounds['upper'])}")
    return at("constraints", BoxConstraints, **bounds)


def _parse_fleets(doc: dict) -> tuple[FleetType, ...]:
    return tuple(at(path, FleetType, **record)
                 for path, record in _read_list(doc, "fleets", _FLEET, "name", "fleet name"))


def _parse_availability(doc: dict, fleets: tuple[FleetType, ...]) -> FleetAvailability:
    counts = {f.name: 0 for f in fleets}
    for name, value in _expect_object(doc.get("availability", {}), "availability").items():
        if name not in counts:
            raise DanglingReference(f"availability.{name}", "unknown fleet")
        counts[name] = _expect_int(value, f"availability.{name}")
    return at("availability", FleetAvailability, counts)


_ROUTE_REQUIRED = _ROUTE.keys() - _OPTIONAL
_route_text = itemgetter(*(key for key in _ROUTE if _ROUTE[key] is _expect_str and key in _ROUTE_REQUIRED))
_route_numbers = itemgetter(*ROUTE_NUMBERS)


def _routes_by_column(entries, fleets: tuple[FleetType, ...]) -> tuple[Route, ...] | None:
    """The routes, read a column at a time, if every check of the record-by-record path passes, else None: key sets,
    number types, ranges and finiteness, strings, distinct ids, ``ROUTE_RULES`` and the route-fleet rule."""
    if not entries or type(entries) is not list or set(map(type, entries)) - {dict}:
        return None
    keys = list(map(dict.keys, entries))
    if keys.count(_ROUTE.keys()) + keys.count(_ROUTE_REQUIRED) != len(keys):
        return None
    text, numbers = list(map(_route_text, entries)), list(map(_route_numbers, entries))
    strings = [*chain.from_iterable(text), *(e["fleet"] for e in entries if "fleet" in e)]
    flat = list(chain.from_iterable(numbers))
    kinds = set(map(type, flat))
    if (set(map(type, strings)) - {str} or not all(strings) or len({t[0] for t in text}) != len(text)
            or not kinds <= {int, float}  # an int is compared exactly: one just past the float range rounds into it
            or int in kinds and not max(abs(v) for v in flat if type(v) is int) <= _MAX):
        return None
    table, pins = np.array(numbers, float), [e.get("fleet") for e in entries]  # every int is in the float range
    least, most = (dict(zip(ROUTE_NUMBERS, ends.tolist())) for ends in (table.min(0), table.max(0)))
    if not (np.isfinite(table).all()  # each rule tests for an interval, which a column meets when its two ends do
            and all(holds(least[name]) and holds(most[name]) for name, _, holds in ROUTE_RULES)
            and fleet_candidates(table[:, ROUTE_NUMBERS.index("distance_km")], pins, fleets).any(0).all()):
        return None
    routes = []
    for labels, figures, pin in zip(text, table.tolist(), pins):  # in field order, and not checked again
        routes.append(route := object.__new__(Route))
        vars(route).update(zip(_ROUTE, (*labels, *figures, pin)))
    return tuple(routes)


def _parse_routes(doc: dict, fleets: tuple[FleetType, ...]) -> tuple[Route, ...]:
    """Read by column; where a check fails, record by record, which raises the first error in file order."""
    if (routes := _routes_by_column(doc.get("routes"), fleets)) is not None:
        return routes
    by_name = {f.name: f for f in fleets}
    return tuple(check_route_fleet(at(path, Route, **record), by_name, path)
                 for path, record in _read_list(doc, "routes", _ROUTE, "id", "route id"))


def _parse_rm_legs(doc: dict) -> tuple[RMLeg, ...]:
    return tuple(RMLeg(record.pop("id"), at(path, LegRMProblem, **record))
                 for path, record in _read_list(doc, "rm_legs", _LEG, "id", "leg id"))


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a parsed scenario document and resolve defaults."""
    if not isinstance(doc, dict):
        raise ValidationError("$", "scenario must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionUnsupported(f"schema_version must be {SCHEMA_VERSION!r}, got {version!r}")
    _reject_unknown(doc, _TOP_KEYS, "")
    hypotheses = _parse_hypotheses(doc)
    weights = _parse_weights(doc, len(hypotheses))
    constraints = _parse_constraints(doc, len(hypotheses))
    anchors = at("anchors", ScoringAnchors, **_read(doc.get("anchors", {}), "anchors", _ANCHORS))
    target_lf = DEFAULT_TARGET_LOAD_FACTOR
    if "target_load_factor" in doc:
        target_lf = _expect_number(doc["target_load_factor"], "target_load_factor")
        if not (0.0 < target_lf <= 1.0):
            raise ValidationError("target_load_factor", f"must be in (0, 1], got {target_lf!r}")
    fleets = _parse_fleets(doc)
    availability = _parse_availability(doc, fleets)
    routes = _parse_routes(doc, fleets)
    if routes and len(hypotheses) != 3:
        raise ValidationError("hypotheses", "route scoring maps KPIs onto exactly 3 drivers (service, capital, cost); "
                                             f"got {len(hypotheses)}")
    rm_legs = _parse_rm_legs(doc)
    seed = _expect_int(doc.get("seed", 0), "seed")
    if seed < 0:
        raise ValidationError("seed", f"must be >= 0, got {seed!r}")
    return Scenario(schema_version=version, hypotheses=hypotheses, weights=weights, constraints=constraints,
                    anchors=anchors, target_load_factor=target_lf, fleets=fleets, availability=availability,
                    routes=routes, rm_legs=rm_legs, seed=seed, source={k: doc[k] for k in _TOP_KEYS if k in doc})


def load_scenario(path) -> Scenario:
    """Read, parse, and validate a scenario JSON file."""
    try:
        with open(os.fspath(path), encoding="utf-8") as handle:
            text = handle.read()
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


#: ``_POW10[k]`` is 10**abs(k) for k in -22..23, a negative k counting from the end; exact but for 10**23.
_POW10 = np.array([float(10**k) for k in (*range(24), *range(22, 0, -1))])


def round12_columns(values) -> np.ndarray:
    """``round12`` of every entry of a float array, bit for bit, in one numpy pass. An entry of magnitude in [1e-11,
    1e33) is scaled by the exact power of ten that gives it 12 digits before the point, rounded to an integer n and
    scaled back: both are exact, so the last step rounds as parsing the digits does. Scaling errs by under 1.2e-4, so
    entries within 1e-3 of a tie or whose n has not 12 digits go to ``round12``, and so do zeros and all the rest."""
    x = np.asarray(values, float)
    size = np.abs(x)
    direct = (size >= 1e-11) & (size < 1e33)
    with np.errstate(all="ignore"):
        safe = np.where(direct, size, 1.0)
        shift = (11 - np.floor(np.log10(safe))).astype(np.intp)
        up, power = shift >= 0, _POW10[shift]
        scaled = np.where(up, safe * power, safe / power)
        n = np.rint(scaled)
        direct &= (np.abs(scaled - n) < 0.499) & (n >= 1e11) & (n < 1e12)
        out = np.copysign(np.where(up, n / power, n * power), x)
    out[~direct] = [round12(v) for v in x[~direct].tolist()]
    return out


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


_CELLS = {str: "%s", int: "%r", float: "%r"}  # each as json_text writes it, a str once escaped


def _rows_json(rows: list, pad: str) -> str | None:
    """``json_text(rows, pad)``, for rows whose first is a dict, by a % template made from that record, or None where
    a record differs from it in keys or value types or holds other than a str, int, finite float or nonempty list of
    those."""
    keys = tuple(rows[0])
    if not keys or any(type(row) is not dict or tuple(row) != keys for row in rows):
        return None
    item, inner, leaf = pad + "  ", pad + "    ", pad + "      "
    parts, columns = [], []
    for key, cells in zip(keys, zip(*map(dict.values, rows))):  # the records' values line up: their keys do
        nested, formats = type(cells[0]) is list, []
        if nested and not (cells[0] and all(type(cell) is list and len(cell) == len(cells[0]) for cell in cells)):
            return None
        for column in (zip(*cells) if nested else [cells]):
            kind = type(column[0])
            if kind not in _CELLS or set(map(type, column)) != {kind} or (
                    kind is float and not all(map(_MAX.__ge__, map(abs, column)))):  # false for NaN too
                return None
            formats.append(_CELLS[kind])
            columns.append(list(map(encode_basestring_ascii, column)) if kind is str else column)
        value = "[" + leaf + ("," + leaf).join(formats) + inner + "]" if nested else formats[0]
        parts.append(encode_basestring_ascii(key).replace("%", "%%") + ": " + value)
    template = "{" + inner + ("," + inner).join(parts) + item + "}"
    return "[" + item + ("," + item).join(map(template.__mod__, zip(*columns))) + pad + "]"


def json_text(value, pad: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2, allow_nan=False)`` for trees of dict, list, str, int, float, bool
    and None in one pass (``json.dumps`` runs a generator per container), a list of like records by one template."""
    if isinstance(value, float):
        if not abs(value) <= _MAX:  # false for NaN too
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, list):
        if value and type(value[0]) is dict and (text := _rows_json(value, pad)) is not None:
            return text
        items = [json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if isinstance(value, dict):
        items = [encode_basestring_ascii(k) + ": " + json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def scenario_to_json(scenario: Scenario) -> str:
    return json_text(dump_scenario(scenario)) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place; mode 0o666 less the umask, as open()."""
    head, name = os.path.split(target := os.fspath(path))
    if name in ("", "."):  # a trailing separator or dot: read as pathlib reads it, which names the last real part
        head, name = (target := Path(path)).parent, target.name
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
