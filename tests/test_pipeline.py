import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from _oracles import enumerate_best_plan_per_fleet
from routebayes import rm
from routebayes.cli import main
from routebayes.economics import range_feasible
from routebayes.errors import RouteBayesError, ValidationError
from routebayes.pipeline import STAGES, evaluate_routes, mean_likelihoods, run_pipeline
from routebayes.planner import plan_routes
from routebayes.report import Report, report_to_json
from routebayes.scenario import load_scenario, round12, scenario_from_dict

DEMO = Path(__file__).parents[1] / "scenarios" / "demo.json"


@pytest.fixture(scope="module")
def demo():
    return load_scenario(DEMO)


def stripped(report):
    doc = report.to_dict()
    doc["meta"] = {k: v for k, v in doc["meta"].items() if k != "timestamp"}
    return doc


class TestStages:
    def test_evaluate_only_shows_worked_example(self, demo):
        report = run_pipeline(demo, ["evaluate"])
        assert set(report.to_dict()) == {"meta", "evaluation"}
        row = report.evaluation["routes"][0]
        assert row["route_id"] == "hub_coastal"
        assert row["total_probability"] == pytest.approx(0.54, abs=1e-9)
        assert row["top_driver"] == "customer_service"
        assert row["posterior"][0] == pytest.approx(0.7407407407, abs=1e-9)
        assert row["flights_per_week"] == 10
        assert row["aircraft"] == 1
        assert row["profit"] == pytest.approx(-80000.0)

    def test_empty_stages_metadata_only(self, demo):
        report = run_pipeline(demo, [])
        assert set(report.to_dict()) == {"meta"}

    def test_unknown_stage_rejected(self, demo):
        with pytest.raises(ValueError):
            run_pipeline(demo, ["evaluate", "simulate"])

    def test_plan_without_optimize_uses_prior_weights(self, demo):
        report = run_pipeline(demo, ["plan"])
        assert set(report.to_dict()) == {"meta", "plan"}
        assert report.plan["weights_used"] == "prior"
        assert report.plan["per_route_scores"]["hub_capital"] == pytest.approx(0.79 * 60000)

    def test_optimized_weights_feed_plan_scores(self, demo):
        report = run_pipeline(demo, ["evaluate", "optimize", "plan"])
        assert report.plan["weights_used"] == "optimized"
        assert report.optimization["weights"] == pytest.approx([0.6, 0.3, 0.1], abs=1e-9)
        assert report.optimization["objective"] == pytest.approx(0.7063333333, abs=1e-9)
        # hub_capital probability under optimized weights: 0.6*0.9 + 0.3*0.6 + 0.1*0.8
        assert report.plan["per_route_scores"]["hub_capital"] == pytest.approx(0.8 * 60000)
        assert report.plan["selected"] == ["hub_capital"]

    def test_route_less_scenario_optimizes_and_plans_nothing(self):
        # no route: every driver's mean likelihood is 0, one per declared hypothesis, and the
        # tie rule fills the weights in hypothesis order
        scenario = scenario_from_dict({
            "schema_version": "1",
            "hypotheses": [{"id": f"h{i}", "label": f"H{i}"} for i in range(5)],
            "weights": [0.2] * 5,
            "constraints": {"lower": [0.1] * 5, "upper": [0.5] * 5},
        })
        report = run_pipeline(scenario, ["optimize", "plan"])
        assert report.optimization == {
            "hypotheses": ["h0", "h1", "h2", "h3", "h4"],
            "weights": [0.5, 0.2, 0.1, 0.1, 0.1],
            "objective": 0.0,
            "active_bounds": ["at_upper", "interior", "at_lower", "at_lower", "at_lower"],
            "sensitivity": [0.0] * 5,
        }
        assert report.plan == {
            "weights_used": "optimized", "selected": [], "used": {}, "availability": {},
            "total_score": 0.0, "per_route_scores": {}, "heuristic": False,
        }

    def test_zero_demand_leg_has_undefined_uplift(self):
        scenario = scenario_from_dict({
            "schema_version": "1",
            "rm_legs": [{
                "id": "empty", "capacity": 4, "fare_high": 100, "fare_low": 50,
                "demand_high": {"kind": "discrete", "pmf": [1.0]},
                "demand_low": {"kind": "discrete", "pmf": [1.0]},
            }],
        })
        report = run_pipeline(scenario, ["rm"], trials=50)
        leg_row = report.rm["legs"][0]
        assert leg_row["expected_revenue"] == 0.0
        assert leg_row["fcfs_revenue"] == 0.0
        assert leg_row["uplift_pct"] is None

    def test_rm_stage(self, demo):
        report = run_pipeline(demo, ["rm"], trials=300)
        legs = report.rm["legs"]
        assert [leg["leg_id"] for leg in legs] == ["hub_capital_leg", "hub_island_leg"]
        for leg_row in legs:
            assert leg_row["booking_limit"] >= 0
            assert leg_row["expected_revenue"] >= leg_row["fcfs_revenue"]

    def test_stage_isolation_rm_does_not_change_plan(self, demo):
        with_rm = run_pipeline(demo, ["evaluate", "optimize", "plan", "rm"], trials=200)
        without = run_pipeline(demo, ["evaluate", "optimize", "plan"])
        a = stripped(with_rm)
        b = stripped(without)
        a.pop("rm")
        a["meta"]["stages"] = b["meta"]["stages"]
        assert a == b

    def test_sensitivity_and_top_driver_on_a_tie(self):
        # capital scores (1e6 - 5e5) / 1e6 and cost (0 + 1e5) / 2e5: both exactly 0.5 under
        # uniform weights, so the posterior ties between the second and third drivers
        scenario = scenario_from_dict({
            "schema_version": "1",
            "fleets": [{"name": "jet", "seats": 100, "range_km": 5000,
                        "utilization_block_hours_per_week": 60}],
            "anchors": {"capital": {"worst": 1e6, "best": 0}},
            "routes": [{
                "id": "tie", "origin": "A", "destination": "B", "distance_km": 800,
                "demand_pax_per_week": 0, "average_fare": 100, "block_hours_per_flight": 2,
                "cost_per_block_hour": 1000, "fixed_cost_per_flight": 0,
                "service_score": 0.2, "tied_capital": 5e5,
            }],
        })
        report = run_pipeline(scenario, ["evaluate", "optimize"])
        (row,) = report.evaluation["routes"]
        assert row["posterior"][1] == row["posterior"][2] > row["posterior"][0]
        assert row["top_driver"] == "unavailable_capital"
        means = mean_likelihoods(evaluate_routes(scenario))
        assert report.optimization["sensitivity"] == [round12(v) for v in means.values]
        assert report.optimization["sensitivity"] == [0.2, 0.5, 0.5]

    def test_rm_sweeps_show_ups_once_per_leg(self, monkeypatch):
        calls = []
        sweep = rm._show_up_sweep
        monkeypatch.setattr(rm, "_show_up_sweep", lambda *args: calls.append(args) or sweep(*args))
        scenario = load_scenario(DEMO)
        run_pipeline(scenario, ["rm"], trials=200)
        assert [args[0] for args in calls] == [leg.problem.capacity for leg in scenario.rm_legs]

    def test_rm_sweeps_demo_legs_only_to_their_overbooking_limit(self):
        scenario = load_scenario(DEMO)
        report = run_pipeline(scenario, ["rm"], trials=200)
        for leg, row in zip(scenario.rm_legs, report.rm["legs"], strict=True):
            full, over = leg.problem._show_ups
            assert full.size == over.size == row["booking_limit"] + 1
            assert row["booking_limit"] < rm.OVERBOOKING_SEARCH_FACTOR * leg.problem.capacity
            assert vars(leg.problem).keys() - {f.name for f in fields(leg.problem)} == {"_show_ups"}

    @pytest.mark.parametrize("names, reason", [
        (("a_small", "b_big"), "entry at index 2 is not finite: nan"),
        (("b_big", "a_small"), "profit is not finite: inf"),
    ])
    def test_fleet_order_decides_which_overflow_is_reported(self, names, reason):
        # a_small's profit is inf - inf = nan and b_big's is inf; min(key=(-profit, name))
        # keeps whichever fleet it meets first, because nan compares false both ways
        seats = {"a_small": 1, "b_big": 1000}
        scenario = scenario_from_dict({
            "schema_version": "1",
            "fleets": [{"name": name, "seats": seats[name], "range_km": 5000,
                        "utilization_block_hours_per_week": 60} for name in names],
            "routes": [{
                "id": "r", "origin": "A", "destination": "B", "distance_km": 800,
                "demand_pax_per_week": 1e300, "average_fare": 1e10, "block_hours_per_flight": 2,
                "cost_per_block_hour": 1e10, "fixed_cost_per_flight": 0,
                "service_score": 0.5, "tied_capital": 0,
            }],
        })
        with pytest.raises(RouteBayesError) as info:
            run_pipeline(scenario, ["evaluate"])
        assert str(info.value) == f"stage evaluate: routes[r]: {reason}"


class TestDeterminism:
    def test_repeat_runs_identical_modulo_timestamp(self, demo):
        one = run_pipeline(demo, ["evaluate", "optimize", "plan", "rm"], trials=500)
        two = run_pipeline(demo, ["evaluate", "optimize", "plan", "rm"], trials=500)
        assert stripped(one) == stripped(two)

    def test_seed_override_changes_rm_only(self, demo):
        base = run_pipeline(demo, ["evaluate", "rm"], trials=300)
        other = run_pipeline(demo, ["evaluate", "rm"], trials=300, seed=4)
        assert base.evaluation == other.evaluation
        assert base.rm != other.rm

    def test_json_numbers_re_parse_identically(self, demo):
        report = run_pipeline(demo, ["evaluate", "optimize", "plan", "rm"], trials=300)
        text = json.dumps(report.to_dict())
        again = Report.from_dict(json.loads(text))
        assert stripped(again) == stripped(report)


# A modest number, or any nonnegative finite one, so that overflow is reachable.
AMOUNT = st.one_of(st.floats(0, 1e4), st.floats(0, sys.float_info.max))
POSITIVE = st.one_of(st.floats(0.1, 10), st.floats(0, sys.float_info.max, exclude_min=True))
FLEETS = ("jet", "prop")


def _route(i):
    return st.fixed_dictionaries(
        {"id": st.just(f"r{i}"), "origin": st.just("A"), "destination": st.just("B"),
         "distance_km": st.floats(1, 6000), "demand_pax_per_week": AMOUNT, "average_fare": AMOUNT,
         "block_hours_per_flight": POSITIVE, "cost_per_block_hour": AMOUNT,
         "fixed_cost_per_flight": AMOUNT, "service_score": st.floats(0, 1), "tied_capital": AMOUNT},
        optional={"fleet": st.sampled_from(FLEETS)},
    )


# RM sizes stay small only to keep the test quick; the size limit has its own tests.
# Means from the whole finite range mostly fail that limit at load.
DEMAND = st.one_of(
    st.fixed_dictionaries({"kind": st.just("poisson"), "mean": st.floats(0, 300)}),
    st.fixed_dictionaries({"kind": st.just("poisson"), "mean": st.floats(0, sys.float_info.max)}),
    st.fixed_dictionaries({"kind": st.just("discrete"), "pmf": st.sampled_from([[1.0], [0.25, 0.75], [0.0, 0.5, 0.5]])}),
)
LEG = st.tuples(POSITIVE, POSITIVE).map(sorted).flatmap(lambda fares: st.fixed_dictionaries(
    {"id": st.just("leg"), "capacity": st.integers(1, 300), "fare_high": st.just(fares[1]),
     "fare_low": st.just(fares[0]), "demand_high": DEMAND, "demand_low": DEMAND},
    optional={"show_up_prob": st.floats(0, 1, exclude_min=True), "denied_cost": AMOUNT},
))
DOCUMENT = st.fixed_dictionaries(
    {"schema_version": st.just("1"),
     "fleets": st.just([{"name": name, "seats": 150, "range_km": 5000,
                         "utilization_block_hours_per_week": 60} for name in FLEETS]),
     "routes": st.integers(0, 3).flatmap(lambda n: st.tuples(*(_route(i) for i in range(n))).map(list))},
    optional={
        "target_load_factor": st.floats(0, 1, exclude_min=True),
        "availability": st.fixed_dictionaries({name: st.integers(0, 10**12) for name in FLEETS}),
        "anchors": st.fixed_dictionaries({}, optional={
            "cost": st.fixed_dictionaries({"worst": st.floats(-1e6, 0), "best": AMOUNT}),
            "epsilon": st.floats(0, 0.5, exclude_min=True, exclude_max=True)}),
        "rm_legs": st.lists(LEG, max_size=1),
        "seed": st.one_of(st.integers(-3, 3), st.integers(0, 2**64)),
    },
)


# Routes of modest figures, so that many plans select some of them and leave others out; at 100 passengers a week
# or more, the simplest route makes a profit. A route may copy an earlier one's figures, which ties their scores,
# and each fleet of DOCUMENT ties with the other on every route.
FIGURES = st.fixed_dictionaries(
    {"origin": st.just("A"), "destination": st.just("B"), "distance_km": st.floats(1, 5000),
     "demand_pax_per_week": st.floats(100, 2000), "average_fare": st.floats(50, 500),
     "block_hours_per_flight": st.floats(0.5, 12), "cost_per_block_hour": st.floats(0, 3000),
     "fixed_cost_per_flight": st.floats(0, 3000), "service_score": st.floats(0, 1), "tied_capital": st.floats(0, 1e7)},
    optional={"fleet": st.sampled_from(FLEETS)})


@st.composite
def plannable(draw):
    """A DOCUMENT with one to twelve aircraft of each fleet and, three times in four (the simplest draw among them),
    modest routes in place of its own. The legs and the seed, which no plan reads, are left out."""
    doc = {key: value for key, value in draw(DOCUMENT).items() if key not in ("rm_legs", "seed")}
    doc["availability"] = draw(st.fixed_dictionaries({name: st.integers(1, 12) for name in FLEETS}))
    if draw(st.integers(0, 3)) < 3:
        routes = []
        for i in range(draw(st.integers(1, 6))):
            routes.append(dict(draw(st.sampled_from(routes)) if routes and draw(st.booleans()) else draw(FIGURES),
                               id=f"r{i}"))
        doc["routes"] = routes
    return doc


def _reject_constant(name):
    raise AssertionError(f"report carries {name}, which is not JSON")


def _runs_every_stage(doc):
    """A document either fails to load with a typed error or runs every stage to a typed end.

    Warnings are errors (pyproject.toml), so a numpy overflow that would only warn fails
    the test, and every report that runs must be valid JSON.
    """
    try:
        scenario = scenario_from_dict(doc)
    except RouteBayesError:
        return
    for stages in (STAGES[:3], STAGES[3:]):  # apart, so a failing route still lets the legs run
        try:
            report = run_pipeline(scenario, stages, trials=20)
        except RouteBayesError:
            continue
        json.loads(report_to_json(report), parse_constant=_reject_constant)


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(DOCUMENT)
def test_every_loaded_scenario_runs(doc):
    _runs_every_stage(doc)


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(plannable())
def test_every_plannable_scenario_runs(doc):
    _runs_every_stage(doc)


def planned_columns(doc):
    """The plan section of the plan command's report and the candidate columns its plan stage planned over, or
    None where the document fails to load or to run."""
    columns = []

    def recorded(*args):
        columns.append(args)
        return plan_routes(*args)

    try:
        with mock.patch("routebayes.pipeline.plan_routes", recorded):
            plan = run_pipeline(scenario_from_dict(doc), STAGES[:3]).plan
    except RouteBayesError:
        return None
    return plan, columns[0]


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(plannable())
def test_plan_command_selects_the_exhaustive_best_plan(doc):
    """The selection and total of every plannable document that plans are those of the per-fleet enumeration over
    the columns that the plan stage was handed."""
    if (found := planned_columns(doc)) is None:
        return
    plan, (ids, fleets, profits, probabilities, aircraft, availability) = found
    counts = availability.counts
    scores = [probability * profit for probability, profit in zip(probabilities, profits)]
    total, selected = enumerate_best_plan_per_fleet(ids, scores, fleets, aircraft, counts)
    assert plan["selected"] == list(selected)
    assert plan["total_score"] == round12(total)


def test_plannable_documents_mostly_select_a_route():
    """A plan property checked over plannable() does real work: a quarter of 40 derandomized documents select."""
    docs = []

    @settings(max_examples=40, derandomize=True, database=None, phases=[Phase.generate], deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plannable())
    def draw(doc):
        docs.append(doc)

    draw()
    plans = [found[0] for found in map(planned_columns, docs) if found is not None]
    assert len(docs) == 40
    assert sum(bool(plan["selected"]) for plan in plans) >= len(docs) / 4


DEMO_SCENARIO = load_scenario(DEMO)
INF, NAN = math.inf, math.nan
# In range of some fleet, past every range (a320 reaches 5,000 km), NaN and inf.
DISTANCE = st.one_of(st.floats(1, 5000), st.floats(5000, 1e300, exclude_min=True), st.sampled_from([NAN, INF]))
ROUTE_CHANGE = st.fixed_dictionaries({}, optional={
    "fleet": st.sampled_from([*(fleet.name for fleet in DEMO_SCENARIO.fleets), "ghost", None]),
    "distance_km": DISTANCE,
    "block_hours_per_flight": st.one_of(st.floats(0.1, 20), st.just(INF)),
    "demand_pax_per_week": st.one_of(st.just(0.0), st.floats(0, 1e4)),
})


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(range(len(DEMO_SCENARIO.routes))), ROUTE_CHANGE), max_size=3))
@example([(0, {"fleet": "ghost"})])
@example([(0, {"fleet": "e190", "distance_km": 4000.0})])
@example([(0, {"distance_km": 9000.0})])
@example([(0, {"distance_km": NAN})])
@example([(0, {"block_hours_per_flight": INF, "demand_pax_per_week": 0.0})])
def test_scenario_built_in_python_runs_only_on_fleets_it_can_fly(changes):
    """A scenario changed with ``dataclasses.replace`` past the loader is refused with a typed error,
    or runs with every route on a fleet in range that its pin allows, and with finite figures."""
    routes = list(DEMO_SCENARIO.routes)
    try:
        for i, change in changes:
            routes[i] = replace(routes[i], **change)
    except ValueError:  # the record's own rules refuse it
        return
    scenario = replace(DEMO_SCENARIO, routes=tuple(routes))
    try:
        report = run_pipeline(scenario, ["evaluate", "optimize", "plan"])
    except RouteBayesError:
        return
    fleets = {fleet.name: fleet for fleet in scenario.fleets}
    for route, row in zip(scenario.routes, report.evaluation["routes"], strict=True):
        assert route.fleet in (None, row["fleet"])
        assert range_feasible(route, fleets[row["fleet"]])
    json.loads(report_to_json(report), parse_constant=_reject_constant)


def test_scenario_built_in_python_without_fleets_names_its_first_route():
    """No route has a fleet to be evaluated on, so the first route fails by the route-fleet rule."""
    scenario = replace(load_scenario(DEMO), fleets=())
    with pytest.raises(ValidationError, match=r"^stage evaluate: routes\[hub_coastal\]: "
                                              "no fleet with sufficient range for this route$") as caught:
        run_pipeline(scenario, ["evaluate"])
    assert caught.value.path == "routes[hub_coastal]"


def test_scenario_built_in_python_with_a_zero_load_factor_names_the_load_factor_rule():
    """A positive demand at load factor 0 needs infinitely many flights; the route names the rule it breaks."""
    (route, *_) = DEMO_SCENARIO.routes
    scenario = replace(DEMO_SCENARIO, routes=(route,), target_load_factor=0.0)
    assert route.demand_pax_per_week > 0
    with pytest.raises(ValidationError, match=r"^routes\[hub_coastal\]: "
                                              r"target load factor must be in \(0, 1\], got 0\.0$") as caught:
        evaluate_routes(scenario)
    assert caught.value.path == "routes[hub_coastal]"


# Weights that sum to one up to rounding and likelihoods clamped to 1.0 give a total probability of 1 + 2**-52.
ROUNDED_PAST_ONE = {
    "schema_version": "1", "weights": [0.726633331009591, 0.12995972833530273, 0.1434069406551063],
    "anchors": {"service": {"worst": 0, "best": 0.5}, "capital": {"worst": 1e7, "best": 1e6},
                "cost": {"worst": -1e5, "best": 1.0}, "epsilon": 5e-324},
    "fleets": [{"name": "jet", "seats": 150, "range_km": 5000, "utilization_block_hours_per_week": 60}],
    "routes": [{"id": "r", "origin": "A", "destination": "B", "distance_km": 800, "demand_pax_per_week": 900,
                "average_fare": 1500, "block_hours_per_flight": 2, "cost_per_block_hour": 3000,
                "fixed_cost_per_flight": 500, "service_score": 0.9, "tied_capital": 1e5}],
}
# The same route under a box whose optimized weights sum to 1 + 2**-52 as well.
ROUNDED_BOX = {"lower": [0.074259188099, 0.039903377154, 0.174777117342],
               "upper": [0.250894058242, 0.814487478387, 0.866707011884]}


def test_total_probability_rounded_past_one_still_plans():
    report = run_pipeline(scenario_from_dict(ROUNDED_PAST_ONE), ["plan"])
    assert report.plan["per_route_scores"]["r"] > 0
    assert report.plan["selected"] == []  # the scenario lists no aircraft


def test_optimized_total_rounded_past_one_plans_at_the_command_line(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(ROUNDED_PAST_ONE | {"constraints": ROUNDED_BOX}))
    assert main(["validate", "--scenario", str(path)]) == 0
    capsys.readouterr()
    assert main(["plan", "--scenario", str(path), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["plan"]["per_route_scores"]["r"] > 0


SHARE = st.floats(0.01, 1.0)
# Lower bounds below a third and upper bounds above it, so that the box meets the simplex.
BOXES = st.fixed_dictionaries({"lower": st.lists(st.floats(0.0, 0.33), min_size=3, max_size=3),
                               "upper": st.lists(st.floats(0.34, 1.0), min_size=3, max_size=3)})


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.tuples(SHARE, SHARE, SHARE), BOXES, st.floats(0.01, 0.9), st.floats(1e5, 9e6), st.floats(-9e4, 1.2e6))
@example(ROUNDED_PAST_ONE["weights"], ROUNDED_BOX, 0.5, 1e6, 1.0)
def test_no_plan_is_refused_for_rounding(shares, box, service, capital, cost):
    """Likelihoods clamped to 1.0 by an epsilon of 5e-324 (the route's service score 0.9, tied capital 1e5 and
    profit 1,298,000 lie at or past every best anchor) under weights that sum to 1 only up to rounding."""
    doc = ROUNDED_PAST_ONE | {"weights": [v / math.fsum(shares) for v in shares], "constraints": box,
                              "availability": {"jet": 10},
                              "anchors": {"service": {"worst": 0, "best": service},
                                          "capital": {"worst": 1e7, "best": capital},
                                          "cost": {"worst": -1e5, "best": cost}, "epsilon": 5e-324}}
    scenario = scenario_from_dict(doc)
    for stages in (["evaluate", "plan"], ["evaluate", "optimize", "plan"]):
        report = run_pipeline(scenario, stages)
        assert report.evaluation["routes"][0]["likelihoods"] == [1.0, 1.0, 1.0]
        assert report.plan["selected"] == ["r"]


def rm_leg(**change):
    return {"schema_version": "1", "rm_legs": [
        {"id": "L", "capacity": 100, "fare_high": 1e3, "fare_low": 100.0, "show_up_prob": 0.9,
         "demand_high": {"kind": "poisson", "mean": 30}, "demand_low": {"kind": "poisson", "mean": 90}, **change}]}


def test_rm_mean_and_se_are_taken_past_an_overflowing_square():
    """At fare_high 1e200 every figure is in range, but the standard deviation squares deviations near 1e201. The
    mean and SE are those of the same leg with both fares scaled down by 2**600, scaled back. The command line runs
    this leg in ``test_cli``."""
    problem = scenario_from_dict(rm_leg(fare_high=1e200)).rm_legs[0].problem
    scaled = replace(problem, fare_high=math.ldexp(problem.fare_high, -600),
                     fare_low=math.ldexp(problem.fare_low, -600))
    policy = rm.RMPolicy(rm.littlewood_protection(problem), rm.overbooking_limit(problem))
    with np.errstate(over="raise", invalid="raise"):  # as in the rm stage
        big, small = (rm.simulate_leg(leg, policy, 20, 5) for leg in (problem, scaled))
    assert big.mean_revenue_se == math.ldexp(small.mean_revenue_se, 600) > 0
    assert big.mean_revenue == math.ldexp(small.mean_revenue, 600)


@pytest.mark.parametrize("change", [
    {"fare_high": 1e308},  # numpy overflows in multiply
    # each revenue term is finite, about half the float range, and math.fsum overflows summing them
    {"fare_high": 1.7976931347e308, "fare_low": 1.0, "show_up_prob": 1.0,
     "demand_low": {"kind": "discrete", "pmf": [0.5, 0.5000000009]},
     "demand_high": {"kind": "discrete", "pmf": [0.0, 1.0]}},
], ids=["1e+308", "fsum"])
def test_rm_overflow_names_the_fares_and_denied_cost(change):
    doc = rm_leg(**change)
    leg = doc["rm_legs"][0]
    with pytest.raises(ValidationError) as caught:
        run_pipeline(scenario_from_dict(doc), ["rm"], trials=20)
    assert str(caught.value) == (f"stage rm: rm_legs[L]: a revenue figure at fare_high {leg['fare_high']!r}, "
                                 f"fare_low {leg['fare_low']!r} and denied_cost 0.0 passes the float range")


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(DOCUMENT)
def test_no_rm_refusal_carries_numpy_text(doc):
    try:
        scenario = scenario_from_dict(doc)
        run_pipeline(scenario, ["rm"], trials=20)
    except RouteBayesError as exc:
        assert "encountered in" not in str(exc)
