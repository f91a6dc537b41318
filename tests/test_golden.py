"""Golden reports: every shipped and corpus scenario, plus three RM-heavy ones.

The files under ``tests/data/golden/`` were written by the code before the RM
kernels dropped scipy. A rerun must reproduce each one byte for byte, apart
from ``meta.timestamp``. A mismatch is a behaviour change to explain, not a
file to rewrite. ``golden/csv/`` and ``golden/table/`` hold the same reports
as the CSV and table emitters print them to standard output, timestamp blanked.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from routebayes.pipeline import run_pipeline
from routebayes.report import Report, emit_report, report_to_json
from routebayes.scenario import load_scenario, round_tree

ROOT = Path(__file__).parents[1]
GOLDEN = Path(__file__).parent / "data" / "golden"
SCENARIOS = (
    sorted((Path(__file__).parent / "data" / "corpus").glob("*.json"))
    + sorted((ROOT / "scenarios").glob("*.json"))
    + sorted((GOLDEN / "inputs").glob("*.json"))
)


def build(path: Path) -> Report:
    """The report of every stage the scenario supports, timestamp blanked."""
    scenario = load_scenario(path)
    stages = ["evaluate", "optimize", "plan", "rm"] if scenario.routes else ["evaluate", "rm"]
    report = run_pipeline(scenario, stages)
    report.meta["timestamp"] = ""
    return report


def printed(report: Report, format: str) -> str:
    """What ``emit_report`` writes to standard output in ``format``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit_report(report, format=format)
    return out.getvalue()


def test_every_scenario_has_a_golden_report():
    assert len(SCENARIOS) == 13
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(p.name for p in SCENARIOS)
    for format, suffix in (("csv", ".csv"), ("table", ".txt")):
        assert sorted(p.name for p in (GOLDEN / format).iterdir()) == sorted(p.stem + suffix for p in SCENARIOS)


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_report_matches_golden(path):
    want = (GOLDEN / path.name).read_text(encoding="utf-8")
    got = report_to_json(build(path))
    assert json.loads(got)["meta"]["timestamp"] == ""
    assert got == want


@pytest.mark.parametrize("format, suffix", [("csv", ".csv"), ("table", ".txt")])
@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_printed_report_matches_golden(path, format, suffix):
    want = (GOLDEN / format / (path.stem + suffix)).read_text(encoding="utf-8")
    assert printed(build(path), format) == want


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_every_float_is_rounded_where_its_section_is_built(path):
    doc = build(path).to_dict()
    assert round_tree(doc) == doc


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_golden_report_survives_dict_round_trip(path):
    doc = json.loads((GOLDEN / path.name).read_text(encoding="utf-8"))
    report = Report.from_dict(doc)
    assert Report.from_dict(report.to_dict()) == report
    assert json.dumps(report.to_dict()) == json.dumps(doc)
