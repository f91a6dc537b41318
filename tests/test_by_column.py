"""The column paths against the record-by-record ones they stand in for.

* ``round12_columns`` against ``round12`` on every finite double, in value and in the sign of zero.
* The route loader, which reads the route records a column at a time, against the record-by-record reading it
  falls back to: the same routes, field types included, or the same error type, path and text.
* ``json_text``, which writes a list of like records with one % template, against the standard library's
  ``json.dumps(indent=2)``: golden reports, scenario files and records nested at any depth.
"""

import json
import math
import sys
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from routebayes import scenario
from routebayes.economics import ROUTE_NUMBERS
from routebayes.errors import RouteBayesError
from routebayes.report import Report, report_to_json
from routebayes.scenario import _rows_json, dump_scenario, json_text, load_scenario, round12, round12_columns
from routebayes.scenario import scenario_from_dict, scenario_to_json
from test_route_columns import documents

MAX = sys.float_info.max
DATA = Path(__file__).parent / "data"
SETTINGS = settings(max_examples=300, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


# ------------------------------------------------------------------ rounding

# twelve digits and a half, scaled by a power of ten: a tie, or the double next to one
TIES = st.builds(lambda n, k: (n + 0.5) / 10**k, st.integers(10**11, 10**12 - 1), st.integers(-21, 22))


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), TIES), min_size=1, max_size=40))
@example([0.0])
@example([-0.0])
@example([5e-324])
@example([2.2250738585072014e-308])
@example([9.99999999999e-12])
@example([1e-11])
@example([1e22])
@example([1e23])
@example([1e33])
@example([100000000000.5])
@example([999999999999.5])
@example([0.9999999999995])
@example([1 / 3])
@example([-0.9999999999995, -999999999999.5, MAX, -MAX, 9.999999999999999e32, 1e-11 * (1 - 2**-52)])
@example([0.6129150331745, -510.0186154475, 1484055299.585])  # the scaling rounds them across the tie
def test_column_rounding_is_round12(values):
    want = [round12(v) for v in values]
    got = round12_columns(values).tolist()
    assert list(map(repr, got)) == list(map(repr, want))  # repr tells the value and the sign of a zero


def test_column_rounding_keeps_the_shape():
    values = [[1 / 3, -2 / 3, 0.0], [1e300, -5e-324, 123456789.987654321]]
    assert round12_columns(values).tolist() == [[round12(v) for v in row] for row in values]


# --------------------------------------------------------------- route loader

TEXT_FIELDS = ("id", "origin", "destination")
WRONG_TYPES = ("7", [1.0], {"a": 1}, None, True, False)


@st.composite
def mutated_documents(draw):
    """A document of ``test_route_columns.documents`` with one field of one route changed, or none."""
    doc = draw(documents())
    routes = doc["routes"]
    i = draw(st.integers(0, len(routes) - 1))
    route = routes[i]
    field = draw(st.sampled_from(ROUTE_NUMBERS))
    kind = draw(st.sampled_from([
        "none", "wrong type", "true", "huge", "negative", "not finite", "null fleet", "unknown pin",
        "pin out of range", "missing key", "extra key", "duplicate id", "int", "big int", "text", "not an object",
        "not a list"]))
    if kind == "wrong type":
        route[draw(st.sampled_from((*ROUTE_NUMBERS, *TEXT_FIELDS, "fleet")))] = draw(st.sampled_from(WRONG_TYPES))
    elif kind == "true":
        route[field] = True
    elif kind == "huge":
        route[field] = draw(st.sampled_from([10**400, int(MAX) + 1, -(int(MAX) + 1), 2**1024 - 2**970 - 1]))
    elif kind == "negative":
        route[field] = draw(st.sampled_from([-0.0, -5e-324, -1, -MAX])) if draw(st.booleans()) else -abs(
            draw(st.floats(5e-324, 1e9)))
    elif kind == "not finite":
        route[field] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "null fleet":
        route["fleet"] = None
    elif kind == "unknown pin":
        route["fleet"] = "ghost"
    elif kind == "pin out of range":
        fleet = draw(st.sampled_from(doc["fleets"]))
        route["fleet"] = fleet["name"]
        if fleet["range_km"] < MAX:
            route["distance_km"] = fleet["range_km"] * draw(st.sampled_from([1.0, 1.5]))
    elif kind == "missing key":
        del route[draw(st.sampled_from(sorted(route)))]
    elif kind == "extra key":
        route[draw(st.sampled_from(["extra", "Fleet", "id "]))] = 1
    elif kind == "duplicate id":
        route["id"] = routes[draw(st.integers(0, len(routes) - 1))]["id"]
    elif kind == "int":
        route[field] = draw(st.integers(-3, 10**6))
    elif kind == "big int":
        route[field] = draw(st.integers(2**53, int(MAX)))
    elif kind == "text":
        route[draw(st.sampled_from(TEXT_FIELDS))] = draw(st.sampled_from(["", "é", "a\"b"]))
    elif kind == "not an object":
        routes[i] = draw(st.sampled_from([[1.0], "r", None]))
    elif kind == "not a list":
        doc["routes"] = {"r0": route}
    return doc


def loaded(doc):
    """The routes and each field's type, or the error's type, path and text."""
    try:
        routes = scenario_from_dict(doc).routes
    except RouteBayesError as exc:
        return type(exc).__name__, getattr(exc, "path", None), str(exc)
    return routes, [[type(value) for value in vars(route).values()] for route in routes]


def loaded_record_by_record(doc):
    with mock.patch.object(scenario, "_routes_by_column", lambda entries, fleets: None):
        return loaded(doc)


def one_route(**change):
    route = {"id": "r", "origin": "A", "destination": "B", "distance_km": 800.0, "demand_pax_per_week": 900.0,
             "average_fare": 150.0, "block_hours_per_flight": 2.0, "cost_per_block_hour": 3000.0,
             "fixed_cost_per_flight": 500.0, "service_score": 0.5, "tied_capital": 1e5}
    return {"schema_version": "1", "routes": [{**route, **change}],
            "fleets": [{"name": "jet", "seats": 150, "range_km": 5000.0, "utilization_block_hours_per_week": 60.0}]}


@SETTINGS
@given(mutated_documents())
@example(one_route())
@example(one_route(demand_pax_per_week=math.inf))
@example(one_route(distance_km=math.nan))
@example(one_route(average_fare=-0.0, tied_capital=0))
@example(one_route(cost_per_block_hour=2**1024 - 2**970 - 1))
@example(one_route(fixed_cost_per_flight=int(MAX)))
@example(one_route(fleet=None))
@example(one_route(fleet="jet", distance_km=5000.5))
def test_route_columns_load_as_the_records_do(doc):
    want = loaded_record_by_record(doc)
    assert loaded(doc) == want
    if isinstance(want[0], tuple) and want[0]:  # loaded: the column reading took it
        fleets = scenario_from_dict(doc).fleets
        assert scenario._routes_by_column(doc["routes"], fleets) == want[0]


# ------------------------------------------------------------------ JSON text

GOLDEN = sorted([*(DATA / "golden").glob("*.json"), *(DATA / "size_limit").glob("*.json")])
SCENARIOS = sorted([*(DATA / "corpus").glob("*.json"), *(DATA.parent.parent / "scenarios").glob("*.json"),
                    *(DATA / "golden" / "inputs").glob("*.json")])


def dumps(value):
    """The standard library's text, which ``json_text`` stands in for."""
    return json.dumps(value, indent=2, allow_nan=False)


def test_golden_reports_are_written_as_json_text_writes_them():
    templated = 0
    for path in GOLDEN:
        text = path.read_text(encoding="utf-8")
        report = Report.from_dict(json.loads(text))
        assert report_to_json(report) == dumps(report.to_dict()) + "\n" == text, path.name
        if report.evaluation and report.evaluation["routes"]:
            assert _rows_json(report.evaluation["routes"], "\n    ") is not None, path.name
            templated += 1
    assert templated >= 5


def test_scenario_files_are_written_as_json_dumps_writes_them():
    templated = 0
    for path in SCENARIOS:
        loaded_scenario = load_scenario(path)
        doc = dump_scenario(loaded_scenario)
        assert scenario_to_json(loaded_scenario) == dumps(doc) + "\n", path.name
        templated += "routes" in doc and _rows_json(doc["routes"], "\n  ") is not None
    assert templated >= 1


def written(write, value):
    try:
        return write(value)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__


FIGURES = st.floats(-1e12, 1e12)
IDS = st.text(st.sampled_from(["a", "Z", "0", "_", "\"", "\\", "%", "é", "☃", "\U0001f600", "\n"]), max_size=6)


@st.composite
def reports(draw):
    """An evaluation section whose route rows may differ from the first row's keys or value types."""
    drivers = draw(st.sampled_from([1, 3, 4]))
    hypotheses = [f"h{k}" for k in range(drivers)]
    rows = [
        {"route_id": draw(IDS), "fleet": draw(IDS), "flights_per_week": draw(st.integers(0, 10**20)),
         "aircraft": draw(st.integers(0, 99)), "achieved_load_factor": draw(FIGURES), "profit": draw(FIGURES),
         "likelihoods": draw(st.lists(FIGURES, min_size=drivers, max_size=drivers)),
         "total_probability": draw(FIGURES), "posterior": draw(st.lists(FIGURES, min_size=drivers, max_size=drivers)),
         "top_driver": draw(st.sampled_from(hypotheses)), "score": draw(FIGURES)}
        for _ in range(draw(st.integers(0, 4)))
    ]
    change = draw(st.sampled_from(["none", "int for float", "float for int", "missing key", "extra key",
                                   "key order", "keys swapped", "list length", "not finite", "null", "bool",
                                   "empty list"]))
    if rows and change != "none":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        key = draw(st.sampled_from(sorted(row)))
        if change == "int for float":
            row["profit"] = draw(st.integers(-10, 10))
        elif change == "float for int":
            row["aircraft"] = float(row["aircraft"])
        elif change == "missing key":
            del row[key]
        elif change == "extra key":
            row[draw(IDS)] = 1.5
        elif change == "key order":
            row[key] = row.pop(key)
        elif change == "keys swapped":  # two keys of floats trade places: the types still line up
            rows[rows.index(row)] = {k: row[k] for k in ("route_id", "fleet", "flights_per_week", "aircraft",
                                                          "profit", "achieved_load_factor", *list(row)[6:])}
        elif change == "list length":
            row["posterior"] = row["posterior"] + [0.5]
        elif change == "not finite":
            row["likelihoods"][0] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        elif change in ("null", "bool"):
            row[key] = None if change == "null" else True
        elif change == "empty list":
            row["likelihoods"] = []
    evaluation = {"hypotheses": hypotheses, "weights": [1 / drivers] * drivers, "target_load_factor": 0.8,
                  "routes": rows}
    return Report(meta={"schema_version": "1", "stages": ["evaluate"]}, evaluation=evaluation), change


@SETTINGS
@given(reports())
def test_route_rows_are_written_as_json_text_writes_them(drawn):
    report, change = drawn
    want = written(lambda r: dumps(r.to_dict()) + "\n", report)
    assert written(report_to_json, report) == want
    if change == "none" and report.evaluation["routes"]:
        assert _rows_json(report.evaluation["routes"], "\n    ") is not None


# A cell that breaks a record's likeness, half the time one that the template cannot write at all.
CELLS = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan, None, True, [], {}, {"a": 1}, [[1]], [1, 1.5],
                                   [1.0, math.inf]]),
                  st.one_of(IDS, st.integers(-10**20, 10**20), FIGURES, st.lists(FIGURES, min_size=1, max_size=3)))


@st.composite
def nested_records(draw):
    """A list of records with one key set, most alike in value types, at some depth of dicts and lists."""
    keys = draw(st.lists(IDS, unique=True, max_size=4))
    kinds = [draw(st.sampled_from([IDS, st.integers(0, 99), FIGURES, st.lists(FIGURES, min_size=2, max_size=2)]))
             for _ in keys]
    records = [dict(zip(keys, (draw(kind) for kind in kinds))) for _ in range(draw(st.integers(1, 4)))]
    alike = not draw(st.integers(0, 3))  # else one cell is drawn from anything
    if keys and not alike:
        draw(st.sampled_from(records))[draw(st.sampled_from(keys))] = draw(CELLS)
    tree, depth = records, 0
    for wrap in draw(st.lists(st.sampled_from(["dict", "list"]), max_size=4)):
        tree, depth = ({"next": 1.5, draw(IDS): tree} if wrap == "dict" else [tree, "next"]), depth + 1
    return tree, records, depth, bool(keys) and alike


@SETTINGS
@given(nested_records())
def test_records_at_any_depth_are_written_as_json_dumps_writes_them(drawn):
    tree, records, depth, alike = drawn
    assert written(json_text, tree) == written(dumps, tree)
    if alike:
        assert _rows_json(records, "\n" + "  " * depth) is not None
