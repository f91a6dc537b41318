import json
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from routebayes import rm
from routebayes.errors import RouteBayesError
from routebayes.pipeline import STAGES, evaluate_routes, mean_likelihoods, run_pipeline
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

    def test_optimize_requires_routes(self):
        scenario = scenario_from_dict({"schema_version": "1"})
        with pytest.raises(Exception) as info:
            run_pipeline(scenario, ["optimize"])
        assert str(info.value).startswith("stage optimize:")

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


def _reject_constant(name):
    raise AssertionError(f"report carries {name}, which is not JSON")


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(DOCUMENT)
def test_every_loaded_scenario_runs(doc):
    """A document either fails to load with a typed error or runs every stage to a typed end.

    Warnings are errors (pyproject.toml), so a numpy overflow that would only warn fails
    the test, and every report that runs must be valid JSON.
    """
    try:
        scenario = scenario_from_dict(doc)
    except RouteBayesError:
        return
    for stages in (STAGES[:3], STAGES[3:]):  # optimize fails on a scenario without routes
        try:
            report = run_pipeline(scenario, stages, trials=20)
        except RouteBayesError:
            continue
        json.loads(report_to_json(report), parse_constant=_reject_constant)
