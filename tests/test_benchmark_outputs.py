"""The benchmark's output checks on its seed-1 inputs.

``perfbench/gen.py`` writes each workload's inputs, and ``perfbench/checks.py``
checks a report against the README's formulas without calling routebayes. The
benchmark applies these checks to every report it times, so a wrong report
fails here before it fails a benchmark run. ``perfbench/worker.py``'s traced
operation reads names of routebayes beyond the public pipeline, so it runs
here too. These modules are only imported; the inputs go to a temporary
directory.
"""

import json
import sys
from pathlib import Path

import pytest

from routebayes.pipeline import run_pipeline
from routebayes.report import report_to_json
from routebayes.scenario import load_scenario

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
import checks  # noqa: E402
import gen  # noqa: E402
from run import TRIALS  # noqa: E402
from worker import STAGES, Tracer, traced_op  # noqa: E402


@pytest.mark.parametrize("workload", ["cli_cold", "plan_exact", "rm_legs"])
def test_reports_pass_the_benchmark_checks(workload, tmp_path):
    problems = []
    for kind, path in gen.generate(workload, 1, tmp_path):
        report = json.loads(report_to_json(run_pipeline(load_scenario(path), STAGES[kind])))
        doc = json.loads(path.read_text())
        problems += [f"{path.name}: {problem}"
                     for problem in checks.check_report(doc, report, kind, TRIALS, exact=workload == "plan_exact")]
    assert problems == []


@pytest.mark.parametrize("workload", ["cli_cold", "plan_exact", "rm_legs"])
def test_traced_operation_runs(workload, tmp_path):
    ops = gen.generate(workload, 1, tmp_path / "inputs")
    first = {kind: path for kind, path in reversed(ops)}  # the first operation of each kind
    for kind, path in first.items():
        assert traced_op(Tracer(), kind, path, tmp_path / f"{kind}.json")
