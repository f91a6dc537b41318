"""The printed CSV and table reports against the hand-picked emitters in ``_oracles``.

The golden CSV and table files cover each golden scenario through every stage
it supports. This module also runs each one under every stage set the CLI
runs, and adds a leg with no demand, so that ``uplift_pct`` is null.
"""

import functools
import json

import pytest

from _oracles import report_csv_sections, report_table_text
from routebayes.cli import _STAGES_FOR
from routebayes.pipeline import run_pipeline
from routebayes.report import Report
from routebayes.scenario import load_scenario, scenario_from_dict
from test_golden import ROOT, SCENARIOS, printed

#: A leg with no demand in either class: FCFS revenue is 0, so uplift_pct is
#: null, which the table prints as n/a and the CSV as an empty cell.
QUIET_LEG = {
    "id": "quiet", "capacity": 5, "fare_high": 200, "fare_low": 80,
    "demand_high": {"kind": "poisson", "mean": 0}, "demand_low": {"kind": "poisson", "mean": 0},
    "show_up_prob": 0.9, "denied_cost": 100,
}


def _scenario(name: str):
    if name != "demo_quiet_leg":
        return load_scenario(next(p for p in SCENARIOS if p.stem == name))
    doc = json.loads((ROOT / "scenarios" / "demo.json").read_text(encoding="utf-8"))
    doc["rm_legs"].append(QUIET_LEG)
    return scenario_from_dict(doc)


@functools.cache
def staged(name: str, command: str) -> Report:
    """The report the CLI's ``command`` builds for scenario ``name``."""
    return run_pipeline(_scenario(name), _STAGES_FOR[command])


def oracle_printed(report: Report, format: str) -> str:
    if format == "table":
        return report_table_text(report)
    return "\n".join(f"# section: {name}\n{body}" for name, body in report_csv_sections(report).items())


# Route-less scenarios run every stage set too: they optimize to zero likelihoods and plan nothing.
CASES = [(name, command) for name in [p.stem for p in SCENARIOS] + ["demo_quiet_leg"] for command in _STAGES_FOR]


@pytest.mark.parametrize("format", ["csv", "table"])
@pytest.mark.parametrize("name, command", CASES)
def test_printed_report_matches_hand_picked_emitters(name, command, format):
    report = staged(name, command)
    assert printed(report, format) == oracle_printed(report, format)


def test_quiet_leg_prints_no_uplift():
    report = staged("demo_quiet_leg", "rm")
    assert report.rm["legs"][-1]["uplift_pct"] is None
    assert printed(report, "table").splitlines()[-2].split()[:6] == ["quiet", "0", "6", "0", "0", "n/a"]
    assert printed(report, "csv").splitlines()[-1].startswith("quiet,0,6,0,0,,")
