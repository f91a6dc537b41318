"""Golden reports for the one-leg ``routebayes rm`` runs at the RM size limits.

Each input under ``tests/data/size_limit/inputs/`` is the demo with its first
leg alone, changed in one place: a high-fare Poisson mean of 960,000 (and none
on the low fare), the reverse, or a capacity of 333,333. These are the runs
the README times. They reach what no other golden does: a Poisson support near
10^6 points, a low-fare tail of about 965,000 points past the booking cap, and
a show-up sweep that starts at p**333,332. A rerun at the default trials must
reproduce each report byte for byte, apart from ``meta.timestamp``.
"""

import json
from pathlib import Path

import pytest

from routebayes.pipeline import run_pipeline
from routebayes.report import report_to_json
from routebayes.scenario import load_scenario

ROOT = Path(__file__).parents[1]
SIZE_LIMIT = Path(__file__).parent / "data" / "size_limit"
CHANGES = {
    "high_mean_960k": {"demand_high": {"kind": "poisson", "mean": 960000},
                       "demand_low": {"kind": "poisson", "mean": 0}},
    "low_mean_960k": {"demand_high": {"kind": "poisson", "mean": 0},
                      "demand_low": {"kind": "poisson", "mean": 960000}},
    "capacity_333k": {"capacity": 333333},
}


@pytest.mark.parametrize("name", CHANGES)
def test_input_is_the_demo_with_one_leg_changed(name):
    demo = json.loads((ROOT / "scenarios" / "demo.json").read_text(encoding="utf-8"))
    want = dict(demo, rm_legs=[dict(demo["rm_legs"][0], **CHANGES[name])])
    assert json.loads((SIZE_LIMIT / "inputs" / f"{name}.json").read_text(encoding="utf-8")) == want


@pytest.mark.parametrize("name", CHANGES)
def test_rm_report_matches_golden(name):
    report = run_pipeline(load_scenario(SIZE_LIMIT / "inputs" / f"{name}.json"), ["rm"])
    report.meta["timestamp"] = ""
    assert report_to_json(report) == (SIZE_LIMIT / f"{name}.json").read_text(encoding="utf-8")
