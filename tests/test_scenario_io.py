import copy
import json
import re
from pathlib import Path

import pytest

from routebayes.errors import (
    DanglingReference,
    InfeasibleConstraints,
    IoError,
    ParseError,
    RouteBayesError,
    SchemaVersionUnsupported,
    ValidationError,
)
from routebayes.scenario import (
    _ANCHOR_PAIR,
    _ANCHORS,
    _CONSTRAINTS,
    _DISCRETE,
    _FLEET,
    _HYPOTHESIS,
    _LEG,
    _OPTIONAL,
    _POISSON,
    _ROUTE,
    _TOP_KEYS,
    DEFAULT_TARGET_LOAD_FACTOR,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_json,
)

CORPUS = sorted((Path(__file__).parent / "data" / "corpus").glob("*.json"))
SHIPPED = [
    Path(__file__).parents[1] / "scenarios" / "demo.json",
    Path(__file__).parents[1] / "scenarios" / "fleet_mix.json",
]


def minimal_doc(**overrides):
    doc = {
        "schema_version": "1",
        "fleets": [
            {"name": "jet", "seats": 150, "range_km": 4000,
             "utilization_block_hours_per_week": 65}
        ],
        "routes": [
            {
                "id": "solo", "origin": "AAA", "destination": "BBB",
                "distance_km": 900, "demand_pax_per_week": 800, "average_fare": 120,
                "block_hours_per_flight": 2.5, "cost_per_block_hour": 3500,
                "fixed_cost_per_flight": 1500, "service_score": 0.6,
                "tied_capital": 750000,
            }
        ],
    }
    doc.update(overrides)
    return doc


class TestDefaults:
    def test_minimal_scenario_gets_default_hypotheses(self):
        scenario = scenario_from_dict(minimal_doc())
        assert scenario.hypotheses.ids == ("customer_service", "unavailable_capital", "costs")
        assert len(scenario.weights) == 3

    def test_omitted_weights_default_to_uniform(self):
        scenario = scenario_from_dict(minimal_doc())
        for w in scenario.weights:
            assert w == pytest.approx(1 / 3, abs=1e-12)

    def test_omitted_seed_and_load_factor(self):
        scenario = scenario_from_dict(minimal_doc())
        assert scenario.seed == 0
        assert scenario.target_load_factor == DEFAULT_TARGET_LOAD_FACTOR

    def test_omitted_availability_is_zero(self):
        scenario = scenario_from_dict(minimal_doc())
        assert scenario.availability.counts == {"jet": 0}


class TestValidation:
    def test_bad_weight_sum_names_field(self):
        with pytest.raises(ValidationError) as info:
            scenario_from_dict(minimal_doc(weights=[0.5, 0.5, 0.1]))
        assert info.value.path == "weights"
        assert "1.1" in str(info.value)

    def test_weights_length_mismatch(self):
        with pytest.raises(ValidationError) as info:
            scenario_from_dict(minimal_doc(weights=[0.5, 0.5]))
        assert info.value.path == "weights"

    def test_schema_version_required(self):
        doc = minimal_doc()
        del doc["schema_version"]
        with pytest.raises(SchemaVersionUnsupported):
            scenario_from_dict(doc)
        with pytest.raises(SchemaVersionUnsupported):
            scenario_from_dict(minimal_doc(schema_version="99"))

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError) as info:
            scenario_from_dict(minimal_doc(surprise=1))
        assert info.value.path == "surprise"

    def test_dangling_availability_reference(self):
        with pytest.raises(DanglingReference) as info:
            scenario_from_dict(minimal_doc(availability={"ghost": 1}))
        assert info.value.path == "availability.ghost"

    def test_dangling_pinned_fleet(self):
        doc = minimal_doc()
        doc["routes"][0]["fleet"] = "ghost"
        with pytest.raises(DanglingReference) as info:
            scenario_from_dict(doc)
        assert info.value.path == "routes[0].fleet"

    def test_pinned_fleet_out_of_range(self):
        doc = minimal_doc()
        doc["routes"][0]["distance_km"] = 4500
        doc["routes"][0]["fleet"] = "jet"
        with pytest.raises(ValidationError) as info:
            scenario_from_dict(doc)
        assert info.value.path == "routes[0].fleet"

    def test_pinned_fleet_is_read_into_the_route(self):
        doc = minimal_doc()
        doc["routes"].append(dict(doc["routes"][0], id="pinned", fleet="jet"))
        assert [route.fleet for route in scenario_from_dict(doc).routes] == [None, "jet"]

    def test_top_level_keys_are_the_scenario_fields(self):
        # a new Scenario field becomes a schema key only by changing this list
        assert _TOP_KEYS == ("schema_version", "hypotheses", "weights", "constraints", "anchors",
                             "target_load_factor", "fleets", "availability", "routes", "rm_legs", "seed")

    def test_route_without_capable_fleet(self):
        doc = minimal_doc()
        doc["routes"][0]["distance_km"] = 4500
        with pytest.raises(ValidationError) as info:
            scenario_from_dict(doc)
        assert info.value.path == "routes[0]"

    def test_route_field_error_names_path(self):
        doc = minimal_doc()
        doc["routes"][0]["distance_km"] = -5
        with pytest.raises(ValidationError) as info:
            scenario_from_dict(doc)
        assert "routes[0]" in info.value.path

    def test_nondefault_hypothesis_count_needs_no_routes(self):
        doc = minimal_doc(
            hypotheses=[{"id": f"h{i}"} for i in range(5)],
            weights=[0.2, 0.2, 0.2, 0.2, 0.2],
        )
        with pytest.raises(ValidationError) as info:
            scenario_from_dict(doc)
        assert info.value.path == "hypotheses"

    def test_infeasible_constraints_not_wrapped(self):
        doc = minimal_doc(constraints={"lower": [0.5, 0.5, 0.5], "upper": [1, 1, 1]})
        with pytest.raises(InfeasibleConstraints):
            scenario_from_dict(doc)

    def test_duplicate_route_ids(self):
        doc = minimal_doc()
        doc["routes"].append(dict(doc["routes"][0]))
        with pytest.raises(ValidationError) as info:
            scenario_from_dict(doc)
        assert info.value.path == "routes[1].id"

    def test_bool_is_not_a_number(self):
        doc = minimal_doc(seed=True)
        with pytest.raises(ValidationError):
            scenario_from_dict(doc)

    def test_bad_demand_kind(self):
        doc = minimal_doc(rm_legs=[{
            "id": "x", "capacity": 5, "fare_high": 100, "fare_low": 50,
            "demand_high": {"kind": "weibull", "mean": 2},
            "demand_low": {"kind": "poisson", "mean": 2},
        }])
        with pytest.raises(ValidationError) as info:
            scenario_from_dict(doc)
        assert info.value.path == "rm_legs[0].demand_high.kind"


LEG = {
    "id": "leg", "capacity": 100, "fare_high": 300, "fare_low": 100,
    "demand_high": {"kind": "poisson", "mean": 30},
    "demand_low": {"kind": "discrete", "pmf": [0.25, 0.25, 0.5]},
}


def _set(path, value):
    """A mutation that sets ``value`` at ``path`` (keys and list indexes) of the document."""
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


def _leg(**changes):
    return _set(("rm_legs",), [dict(LEG, **changes)])


def _route(**changes):
    def mutate(doc):
        doc["routes"][0].update(changes)
    return mutate


def _twice(section):
    def mutate(doc):
        doc[section].append(dict(doc[section][0]))
    return mutate


# One case per rejection rule: (case id, mutation of minimal_doc(), error type, error path).
REJECTIONS = [
    ("record-type", _set(("routes", 0), 5), ValidationError, "routes[0]"),
    ("section-type", _set(("routes",), {}), ValidationError, "routes"),
    ("unknown-top-key", _set(("surprise",), 1), ValidationError, "surprise"),
    ("weights-sum", _set(("weights",), [0.5, 0.5, 0.1]), ValidationError, "weights"),
    ("weights-negative", _set(("weights",), [0.6, -0.1, 0.5]), ValidationError, "weights"),
    ("weights-length", _set(("weights",), [0.5, 0.5]), ValidationError, "weights"),
    ("weights-type", _set(("weights",), ["a", 0.5, 0.5]), ValidationError, "weights[0]"),
    ("hypotheses-empty", _set(("hypotheses",), []), ValidationError, "hypotheses"),
    ("hypotheses-duplicate", _set(("hypotheses",), [{"id": "a"}, {"id": "a"}, {"id": "b"}]),
     ValidationError, "hypotheses"),
    ("hypothesis-id", _set(("hypotheses",), [{"label": "a"}]), ValidationError, "hypotheses[0].id"),
    ("hypothesis-key", _set(("hypotheses",), [{"id": "a", "color": "red"}]),
     ValidationError, "hypotheses[0].color"),
    ("hypothesis-label", _set(("hypotheses",), [{"id": "a", "label": 5}, {"id": "b"}, {"id": "c"}]),
     ValidationError, "hypotheses[0].label"),
    ("three-drivers", _set(("hypotheses",), [{"id": "a"}, {"id": "b"}]), ValidationError, "hypotheses"),
    ("anchors-degenerate", _set(("anchors",), {"service": {"worst": 1, "best": 1}}),
     ValidationError, "anchors.service"),
    ("anchors-epsilon", _set(("anchors",), {"epsilon": 0.5}), ValidationError, "anchors"),
    ("anchors-key", _set(("anchors",), {"scale": 1}), ValidationError, "anchors.scale"),
    ("anchor-missing", _set(("anchors",), {"cost": {"worst": 1}}), ValidationError, "anchors.cost.best"),
    ("availability-negative", _set(("availability",), {"jet": -1}), ValidationError, "availability"),
    ("availability-type", _set(("availability",), {"jet": 1.5}), ValidationError, "availability.jet"),
    ("availability-dangling", _set(("availability",), {"ghost": 1}), DanglingReference, "availability.ghost"),
    ("fleet-seats", _set(("fleets", 0, "seats"), 0), ValidationError, "fleets[0]"),
    ("fleet-seats-type", _set(("fleets", 0, "seats"), 150.5), ValidationError, "fleets[0].seats"),
    ("fleet-range", _set(("fleets", 0, "range_km"), -1), ValidationError, "fleets[0]"),
    ("fleet-utilization", _set(("fleets", 0, "utilization_block_hours_per_week"), 0), ValidationError, "fleets[0]"),
    ("fleet-duplicate", _twice("fleets"), ValidationError, "fleets[1].name"),
    ("route-distance", _route(distance_km=-5), ValidationError, "routes[0]"),
    ("route-service", _route(service_score=1.5), ValidationError, "routes[0]"),
    ("route-block-hours", _route(block_hours_per_flight=0), ValidationError, "routes[0]"),
    ("route-demand", _route(demand_pax_per_week=-1), ValidationError, "routes[0]"),
    ("route-fare", _route(average_fare=-1), ValidationError, "routes[0]"),
    ("route-cost", _route(cost_per_block_hour=-1), ValidationError, "routes[0]"),
    ("route-fixed-cost", _route(fixed_cost_per_flight=-1), ValidationError, "routes[0]"),
    ("route-capital", _route(tied_capital=-1), ValidationError, "routes[0]"),
    ("route-missing", lambda doc: doc["routes"][0].pop("average_fare"), ValidationError,
     "routes[0].average_fare"),
    ("route-origin", _route(origin=""), ValidationError, "routes[0].origin"),
    ("route-nan", _route(demand_pax_per_week=float("nan")), ValidationError,
     "routes[0].demand_pax_per_week"),
    ("route-duplicate", _twice("routes"), ValidationError, "routes[1].id"),
    ("route-out-of-range", _route(distance_km=4500), ValidationError, "routes[0]"),
    ("route-pinned-range", _route(distance_km=4500, fleet="jet"), ValidationError, "routes[0].fleet"),
    ("route-pinned-dangling", _route(fleet="ghost"), DanglingReference, "routes[0].fleet"),
    ("leg-capacity", _leg(capacity=0), ValidationError, "rm_legs[0]"),
    ("leg-capacity-type", _leg(capacity=10.5), ValidationError, "rm_legs[0].capacity"),
    ("leg-fares", _leg(fare_low=400), ValidationError, "rm_legs[0]"),
    ("leg-show-up", _leg(show_up_prob=0), ValidationError, "rm_legs[0]"),
    ("leg-denied-cost", _leg(denied_cost=-1), ValidationError, "rm_legs[0]"),
    ("leg-key", _leg(cabin="y"), ValidationError, "rm_legs[0].cabin"),
    ("leg-duplicate", _set(("rm_legs",), [LEG, LEG]), ValidationError, "rm_legs[1].id"),
    ("demand-mean", _leg(demand_high={"kind": "poisson", "mean": -1}), ValidationError,
     "rm_legs[0].demand_high"),
    ("demand-pmf", _leg(demand_low={"kind": "discrete", "pmf": [0.5, 0.6]}), ValidationError,
     "rm_legs[0].demand_low.pmf"),
    ("demand-pmf-empty", _leg(demand_low={"kind": "discrete", "pmf": []}), ValidationError,
     "rm_legs[0].demand_low.pmf"),
    ("demand-kind", _leg(demand_high={"kind": "weibull", "mean": 2}), ValidationError,
     "rm_legs[0].demand_high.kind"),
    ("demand-key", _leg(demand_high={"kind": "poisson", "pmf": [1.0]}), ValidationError,
     "rm_legs[0].demand_high.pmf"),
    ("constraints-length", _set(("constraints",), {"lower": [0, 0], "upper": [1, 1]}),
     ValidationError, "constraints"),
    ("constraints-type", _set(("constraints",), {"lower": [0, 0, None], "upper": [1, 1, 1]}),
     ValidationError, "constraints.lower[2]"),
    ("constraints-infeasible", _set(("constraints",), {"lower": [0.5, 0.5, 0.5], "upper": [1, 1, 1]}),
     InfeasibleConstraints, None),
    ("seed-type", _set(("seed",), True), ValidationError, "seed"),
    ("seed-negative", _set(("seed",), -1), ValidationError, "seed"),
    ("load-factor-zero", _set(("target_load_factor",), 0), ValidationError, "target_load_factor"),
    ("load-factor-high", _set(("target_load_factor",), 1.5), ValidationError, "target_load_factor"),
]


@pytest.mark.parametrize("mutate,error,path", [case[1:] for case in REJECTIONS],
                         ids=[case[0] for case in REJECTIONS])
def test_rejection_table(mutate, error, path):
    doc = copy.deepcopy(minimal_doc())
    mutate(doc)
    with pytest.raises(RouteBayesError) as info:
        scenario_from_dict(doc)
    assert type(info.value) is error
    assert getattr(info.value, "path", None) == path


def test_document_must_be_an_object():
    with pytest.raises(ValidationError) as info:
        scenario_from_dict(["schema_version", "1"])
    assert info.value.path == "$"


def test_first_bad_field_in_field_order_is_reported():
    doc = minimal_doc()
    doc["routes"][0].update(distance_km="far", tied_capital="all")
    doc["routes"][0] = dict(reversed(doc["routes"][0].items()))  # the document order is not the field order
    with pytest.raises(ValidationError) as info:
        scenario_from_dict(doc)
    assert info.value.path == "routes[0].distance_km"


def test_earlier_route_fault_is_reported_first():
    doc = minimal_doc()
    doc["routes"].append(dict(doc["routes"][0], id="second", demand_pax_per_week=-1))
    doc["routes"][0]["distance_km"] = 4500
    with pytest.raises(ValidationError) as info:
        scenario_from_dict(doc)
    assert info.value.path == "routes[0]"
    assert "no fleet with sufficient range" in str(info.value)


#: Each record's field table, by the record's name in the README's table of record keys.
FIELD_TABLES = {
    "hypothesis": _HYPOTHESIS,
    "constraints": _CONSTRAINTS,
    "anchors": _ANCHORS,
    "anchor pair": _ANCHOR_PAIR,
    "fleet": _FLEET,
    "route": _ROUTE,
    "RM leg": _LEG,
    "Poisson demand": _POISSON,
    "discrete demand": _DISCRETE,
}


def test_field_tables_are_pinned():
    # a dataclass edit changes what a scenario may contain only by changing this table
    pinned = {name: [f"{key}{'?' * (key in _OPTIONAL)} {read.__name__}" for key, read in table.items()]
              for name, table in FIELD_TABLES.items()}
    assert pinned == {
        "hypothesis": ["id _expect_str", "label? _expect_text", "description? _expect_text"],
        "constraints": ["lower _expect_numbers", "upper _expect_numbers"],
        "anchors": ["service? _anchor_pair", "capital? _anchor_pair", "cost? _anchor_pair",
                    "epsilon? _expect_number"],
        "anchor pair": ["worst _expect_number", "best _expect_number"],
        "fleet": ["name _expect_str", "seats _expect_int", "range_km _expect_number",
                  "utilization_block_hours_per_week _expect_number"],
        "route": ["id _expect_str", "origin _expect_str", "destination _expect_str", "distance_km _expect_number",
                  "demand_pax_per_week _expect_number", "average_fare _expect_number",
                  "block_hours_per_flight _expect_number", "cost_per_block_hour _expect_number",
                  "fixed_cost_per_flight _expect_number", "service_score _expect_number",
                  "tied_capital _expect_number", "fleet? _expect_str"],
        "RM leg": ["id _expect_str", "capacity _expect_int", "fare_high _expect_number", "fare_low _expect_number",
                   "demand_high _parse_demand", "demand_low _parse_demand", "show_up_prob? _expect_number",
                   "denied_cost? _expect_number"],
        "Poisson demand": ["kind _expect_str", "mean _expect_number"],
        "discrete demand": ["kind _expect_str", "pmf _expect_numbers"],
    }
    assert _OPTIONAL == {"label", "description", "service", "capital", "cost", "epsilon", "fleet", "show_up_prob",
                         "denied_cost"}


def test_readme_lists_every_record_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| ([A-Za-z ]+) \| `[\w.]+` \| (`.+) \|$", readme, re.M)
    listed = {name: re.findall(r"`(\w+)`(\??)", keys) for name, keys in rows}
    assert listed == {name: [(key, "?" if key in _OPTIONAL else "") for key in table]
                      for name, table in FIELD_TABLES.items()}


class TestFileHandling:
    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            load_scenario(tmp_path / "nope.json")

    def test_parse_error_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": "1",}')
        with pytest.raises(ParseError) as info:
            load_scenario(bad)
        assert info.value.line == 1


@pytest.mark.parametrize("path", CORPUS + SHIPPED, ids=lambda p: p.name)
class TestCorpus:
    def test_roundtrip_value_identical(self, path):
        scenario = load_scenario(path)
        again = scenario_from_dict(json.loads(scenario_to_json(scenario)))
        assert again == scenario

    def test_dump_idempotent(self, path):
        scenario = load_scenario(path)
        first = dump_scenario(scenario)
        second = dump_scenario(scenario_from_dict(first))
        assert first == second
