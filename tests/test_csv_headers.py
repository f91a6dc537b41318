"""CSV headers: distinct posterior column names, and the README's list of headers."""

import csv
import json
import re
from pathlib import Path

from routebayes.pipeline import run_pipeline
from routebayes.report import emit_report
from routebayes.scenario import load_scenario, scenario_from_dict

ROOT = Path(__file__).parents[1]
DEMO = ROOT / "scenarios" / "demo.json"


def test_posterior_columns_stay_distinct_when_id_tails_collide(tmp_path):
    doc = json.loads(DEMO.read_text())
    doc["hypotheses"] = [{"id": hid, "label": hid} for hid in ("fare_costs", "capital", "fuel_costs")]
    report = run_pipeline(scenario_from_dict(doc), ["evaluate"])
    emit_report(report, format="csv", destination=tmp_path / "out")
    with open(tmp_path / "out.routes.csv", newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    posterior = reader.fieldnames[6:9]
    assert posterior == ["post_fare_costs", "post_capital", "post_fuel_costs"]
    assert [[float(row[name]) for name in posterior] for row in rows] == [
        route["posterior"] for route in report.evaluation["routes"]
    ]


def test_readme_lists_every_header(tmp_path):
    listed = dict(re.findall(r"^\| `(\w+)` \| `([^`]+)` \|$", (ROOT / "README.md").read_text(), re.M))
    report = run_pipeline(load_scenario(DEMO), ["evaluate", "optimize", "plan", "rm"], trials=300)
    emit_report(report, format="csv", destination=tmp_path)
    written = {p.stem: p.read_text().splitlines()[0] for p in tmp_path.glob("*.csv")}
    assert listed == written
