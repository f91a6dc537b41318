import json
from pathlib import Path

import pytest

from routebayes.cli import main

DEMO = str(Path(__file__).parents[1] / "scenarios" / "demo.json")
REGRESS = Path(__file__).parent / "data" / "regress"
OVER_PROTECTED = str(REGRESS / "over_protected_leg.json")


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

    def test_missing_file_is_three(self, tmp_path, capsys):
        assert main(["validate", "--scenario", str(tmp_path / "missing.json")]) == 3
        capsys.readouterr()

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
        ("overflow_frequency.json", "cannot convert float infinity to integer"),
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

    def test_overflowing_rm_leg_is_one(self, capsys):
        path = str(REGRESS / "overflow_rm_fares.json")
        assert main(["validate", "--scenario", path]) == 0
        capsys.readouterr()
        assert main(["rm", "--scenario", path, "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: stage rm: rm_legs[hub_capital_leg]: overflow encountered")
        assert "Traceback" not in err

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
