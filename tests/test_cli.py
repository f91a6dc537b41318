import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from routebayes.cli import _STAGES_FOR, main

DEMO = str(Path(__file__).parents[1] / "scenarios" / "demo.json")
DATA = Path(__file__).parent / "data"
REGRESS = DATA / "regress"
OVER_PROTECTED = str(REGRESS / "over_protected_leg.json")
ROUTE_LESS = [p for p in sorted(DATA.glob("corpus/*.json")) + sorted(DATA.glob("golden/inputs/*.json"))
              if not json.loads(p.read_text()).get("routes")]


def write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestExitCodes:
    def test_validate_ok(self, capsys):
        assert main(["validate", "--scenario", DEMO]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validation_error_is_one(self, tmp_path, capsys):
        path = write(tmp_path, {"schema_version": "1", "weights": [0.5, 0.5, 0.1]})
        assert main(["validate", "--scenario", path]) == 1
        assert "weights" in capsys.readouterr().err

    def test_parse_error_is_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--scenario", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_infeasible_constraints_is_two(self, tmp_path, capsys):
        doc = {
            "schema_version": "1",
            "constraints": {"lower": [0.5, 0.5, 0.5], "upper": [1, 1, 1]},
        }
        assert main(["validate", "--scenario", write(tmp_path, doc)]) == 2
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["rm", "--scenario", DEMO, "--trials", "abc"], []])
    def test_usage_error_is_two(self, argv):
        # argparse exits 2 on a bad command line, the code infeasible constraints also use
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        result = subprocess.run([sys.executable, "-m", "routebayes.cli", *argv],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: routebayes ")
        assert "Traceback" not in result.stderr

    def test_missing_file_is_three(self, tmp_path, capsys):
        assert main(["validate", "--scenario", str(tmp_path / "missing.json")]) == 3
        capsys.readouterr()

    def test_csv_to_missing_directory_is_three(self, tmp_path, capsys):
        out = str(tmp_path / "missing") + "/"
        assert main(["plan", "--scenario", DEMO, "--format", "csv", "--out", out]) == 3
        assert out in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["validate", "evaluate"])
    @pytest.mark.parametrize("section,field,value", [
        ("routes", "demand_pax_per_week", float("nan")),
        ("rm_legs", "fare_high", float("inf")),
        ("rm_legs", "denied_cost", 10**400),
    ])
    def test_non_finite_number_is_one(self, tmp_path, capsys, command, section, field, value):
        doc = json.loads(Path(DEMO).read_text())
        doc[section][0][field] = value
        path = write(tmp_path, doc)
        assert json.dumps(value) in Path(path).read_text()
        assert main([command, "--scenario", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}[0].{field}: expected a finite number")
        assert "Traceback" not in err

    def test_over_long_integer_is_one(self, tmp_path, capsys):
        # json.loads refuses integer literals over 4300 digits with a plain ValueError
        seed = '"seed": ' + "9" * 5000 + ", "
        path = tmp_path / "long.json"
        path.write_text(Path(DEMO).read_text().replace("{", "{" + seed, 1))
        assert main(["validate", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: number literal longer than 4300 digits")
        assert "Traceback" not in err

    def test_invalid_utf8_is_one(self, tmp_path, capsys):
        path = tmp_path / "latin.json"
        path.write_bytes(Path(DEMO).read_bytes().replace(b'"HUB"', b'"\xff\xfeHUB"', 1))
        assert main(["validate", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: not valid UTF-8")
        assert "Traceback" not in err

    def test_deep_nesting_is_one(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["validate", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: maximum recursion depth")
        assert "Traceback" not in err

    def test_oversized_plan_is_one(self, tmp_path, capsys):
        doc = json.loads(Path(DEMO).read_text())
        wide = next(r for r in doc["routes"] if r["id"] == "hub_capital")
        doc["routes"] = [dict(wide, id=f"wide_{k}", demand_pax_per_week=demand)
                         for k, demand in enumerate((7e14, 8e14, 9e14))]
        doc["availability"]["a320"] = 10**12
        path = write(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == 0
        assert main(["plan", "--scenario", path, "--format", "json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage plan: fleet 'a320'")
        assert "Traceback" not in err

    def test_negative_scenario_seed_is_one(self, tmp_path, capsys):
        doc = json.loads(Path(DEMO).read_text())
        doc["seed"] = -1
        assert main(["validate", "--scenario", write(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed: must be >= 0")
        assert "Traceback" not in err

    @pytest.mark.parametrize("option,value,field", [("--seed", "-5", "seed"), ("--trials", "0", "trials")])
    def test_bad_rm_option_is_one(self, capsys, option, value, field):
        assert main(["rm", "--scenario", DEMO, option, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: must be >= ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name,reason", [
        ("overflow_frequency.json", "a week of 5.0 block hours at 70.0 block hours per aircraft need more aircraft"),
        ("overflow_aircraft.json", "100000000000.0 block hours at 70.0 block hours per aircraft need more aircraft"),
        ("overflow_flights.json", "needs more flights of 180 seats a week than the float range holds"),
        ("overflow_profit.json", "not finite: nan"),
        ("overflow_route_revenue.json", "profit is not finite: inf"),
    ])
    def test_overflowing_route_is_one(self, capsys, name, reason):
        path = str(REGRESS / name)
        assert main(["validate", "--scenario", path]) == 0
        assert main(["plan", "--scenario", path, "--format", "json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage evaluate: routes[hub_coastal]: ")
        assert reason in err
        assert "Traceback" not in err

    def test_underflowing_aircraft_count_plans(self, tmp_path, capsys):
        # flights x block hours / utilization underflows to 0, but a flown route needs an aircraft
        doc = json.loads(Path(DEMO).read_text())
        doc["routes"][0]["block_hours_per_flight"] = 5e-324
        path = write(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == 0
        capsys.readouterr()
        assert main(["plan", "--scenario", path, "--format", "json"]) == 0
        routes = json.loads(capsys.readouterr().out)["evaluation"]["routes"]
        (row,) = [r for r in routes if r["route_id"] == "hub_coastal"]
        assert row["flights_per_week"] > 0 and row["aircraft"] == 1

    def test_underflowing_flight_count_plans(self, tmp_path, capsys):
        # demand / (seats x load factor) underflows to 0, but a positive demand needs a flight
        doc = json.loads(Path(DEMO).read_text())
        doc["routes"][0]["demand_pax_per_week"] = 5e-324
        path = write(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == 0
        capsys.readouterr()
        assert main(["plan", "--scenario", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        (row,) = [r for r in report["evaluation"]["routes"] if r["route_id"] == "hub_coastal"]
        assert row["flights_per_week"] == 1 and row["aircraft"] == 1 and row["profit"] < 0
        assert "hub_coastal" not in report["plan"]["selected"]

    def test_seats_past_the_float_range_is_one(self, tmp_path, capsys):
        doc = json.loads(Path(DEMO).read_text())
        doc["target_load_factor"] = 0.001
        doc["fleets"][0]["seats"] = 1000
        doc["routes"][0].update(fleet=doc["fleets"][0]["name"], demand_pax_per_week=1e308, block_hours_per_flight=1)
        path = write(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == 0
        capsys.readouterr()
        assert main(["plan", "--scenario", path, "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: stage evaluate: routes[hub_coastal]: demand 1e+308 needs 1e+308 flights of 1000 "
                       "seats a week, more seats than the float range holds\n")

    def test_overflowing_rm_leg_is_one(self, capsys):
        path = str(REGRESS / "overflow_rm_fares.json")
        assert main(["validate", "--scenario", path]) == 0
        capsys.readouterr()
        assert main(["rm", "--scenario", path, "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: stage rm: rm_legs[hub_capital_leg]: a revenue figure at fare_high 1e+308, "
                       "fare_low 1e+307 and denied_cost 450.0 passes the float range\n")
        assert "Traceback" not in err

    def test_rm_leg_whose_squared_deviations_pass_the_float_range_runs(self, tmp_path, capsys):
        """At fare_high 1e200 every figure is in range; only the simulated revenue's squared deviations are not."""
        path = write(tmp_path, {"schema_version": "1", "rm_legs": [
            {"id": "L", "capacity": 100, "fare_high": 1e200, "fare_low": 100.0, "show_up_prob": 0.9,
             "demand_high": {"kind": "poisson", "mean": 30}, "demand_low": {"kind": "poisson", "mean": 90}}]})
        assert main(["rm", "--scenario", path, "--format", "json"]) == 0
        (leg,) = json.loads(capsys.readouterr().out)["rm"]["legs"]
        figures = [leg["expected_revenue"], leg["fcfs_revenue"], leg["uplift_pct"], *leg["simulation"].values()]
        assert all(map(math.isfinite, figures))

    def test_rm_terms_summing_past_the_float_range_is_one(self, tmp_path, capsys):
        doc = json.loads(Path(DEMO).read_text())
        # each revenue term is finite, about half the float range, and the two sum past it in any order
        doc["rm_legs"][0].update(fare_low=1.0, fare_high=1.7976931347e308, show_up_prob=1.0, denied_cost=0,
                                 demand_low={"kind": "discrete", "pmf": [0.5, 0.5000000009]},
                                 demand_high={"kind": "discrete", "pmf": [0.0, 1.0]})
        path = write(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == 0
        capsys.readouterr()
        assert main(["rm", "--scenario", path, "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: stage rm: rm_legs[hub_capital_leg]: intermediate overflow in fsum\n"

    def test_plan_scores_past_the_float_range_is_one(self, tmp_path, capsys):
        doc = json.loads(Path(DEMO).read_text())
        for route in doc["routes"]:
            route["average_fare"] = 1e305  # each profit is finite, their sum is not
        assert main(["plan", "--scenario", write(tmp_path, doc), "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: stage plan: routes: the positive scores sum to inf")
        assert "Traceback" not in err

    def test_trials_over_the_bound_is_one(self, capsys):
        assert main(["rm", "--scenario", DEMO, "--trials", "1000000000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trials: must be >= 1 and <= 1000000, got 1000000000")
        assert "Traceback" not in err

    @pytest.mark.parametrize("changes,path", [
        ({"capacity": 10**9}, "rm_legs[0]"),
        ({"capacity": 1000, "demand_high": {"kind": "poisson", "mean": 2e5},
          "demand_low": {"kind": "poisson", "mean": 2e5}}, "rm_legs[0]"),
        ({"demand_high": {"kind": "poisson", "mean": 1e8}}, "rm_legs[0].demand_high"),
    ])
    def test_oversized_leg_is_one(self, tmp_path, capsys, changes, path):
        doc = json.loads(Path(DEMO).read_text())
        doc["rm_legs"][0].update(changes)
        assert main(["rm", "--scenario", write(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "over the limit" in err
        assert "Traceback" not in err


class TestSubcommands:
    def test_each_command_runs_its_stage_set(self):
        assert _STAGES_FOR == {"evaluate": ("evaluate",), "optimize": ("evaluate", "optimize"),
                               "plan": ("evaluate", "optimize", "plan"), "rm": ("rm",)}

    def test_evaluate_json_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["evaluate", "--scenario", DEMO, "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"meta", "evaluation"}
        assert doc["evaluation"]["routes"][0]["total_probability"] == pytest.approx(0.54)

    def test_optimize_adds_section(self, tmp_path):
        out = tmp_path / "report.json"
        main(["optimize", "--scenario", DEMO, "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert set(doc) == {"meta", "evaluation", "optimization"}
        assert doc["optimization"]["sensitivity"]

    def test_plan_runs_full_pipeline(self, tmp_path):
        out = tmp_path / "report.json"
        main(["plan", "--scenario", DEMO, "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert set(doc) == {"meta", "evaluation", "optimization", "plan"}
        assert doc["plan"]["selected"] == ["hub_capital"]

    @pytest.mark.parametrize("command", ["optimize", "plan"])
    @pytest.mark.parametrize("path", ROUTE_LESS, ids=lambda p: p.name)
    def test_route_less_scenario_optimizes_and_plans(self, tmp_path, command, path):
        out = tmp_path / "report.json"
        assert main([command, "--scenario", str(path), "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["optimization"]["objective"] == 0.0
        if command == "plan":
            assert doc["plan"]["selected"] == []

    def test_rm_with_trials_and_seed(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        args = ["rm", "--scenario", DEMO, "--format", "json", "--trials", "400", "--seed", "9"]
        main(args + ["--out", str(out_a)])
        main(args + ["--out", str(out_b)])
        doc_a = json.loads(out_a.read_text())
        doc_b = json.loads(out_b.read_text())
        doc_a["meta"].pop("timestamp")
        doc_b["meta"].pop("timestamp")
        assert doc_a == doc_b
        assert doc_a["rm"]["trials"] == 400
        assert doc_a["rm"]["seed"] == 9

    def test_rm_clamps_protection_to_capacity(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["rm", "--scenario", OVER_PROTECTED, "--format", "json",
                     "--out", str(out)]) == 0
        (leg,) = json.loads(out.read_text())["rm"]["legs"]
        assert leg["protection_level"] == 50

    def test_table_to_stdout(self, capsys):
        assert main(["plan", "--scenario", DEMO]) == 0
        out = capsys.readouterr().out
        assert "== plan ==" in out

    def test_csv_out(self, tmp_path):
        stem = tmp_path / "demo"
        assert main(["evaluate", "--scenario", DEMO, "--format", "csv",
                     "--out", str(stem)]) == 0
        assert (tmp_path / "demo.routes.csv").exists()
