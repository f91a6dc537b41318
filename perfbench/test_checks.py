"""The output checks accept the program's reports and reject deliberately wrong ones.

Run from the checkout root: ``python3 perfbench/test_checks.py`` (or
``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import copy
import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
from routebayes.pipeline import DEFAULT_TRIALS, run_pipeline  # noqa: E402
from routebayes.scenario import scenario_from_dict  # noqa: E402

STAGES = ("evaluate", "optimize", "plan")


def report_of(doc: dict, stages) -> dict:
    """The program's report for ``doc``, as its JSON text parses back."""
    report = run_pipeline(scenario_from_dict(json.loads(json.dumps(doc))), stages)
    return json.loads(json.dumps(report.to_dict()))


def set_selection(report: dict, selected: list[str]) -> None:
    """Replace the plan's selection, keeping usage and total consistent with it."""
    plan = report["plan"]
    rows = {r["route_id"]: r for r in report["evaluation"]["routes"]}
    plan["selected"] = sorted(selected)
    plan["used"] = {name: 0 for name in plan["used"]}
    for rid in plan["selected"]:
        plan["used"][rows[rid]["fleet"]] += rows[rid]["aircraft"]
    total = 0.0
    for rid in plan["selected"]:
        total += plan["per_route_scores"][rid]
    plan["total_score"] = total


class PlanChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.doc = gen.plan_doc(random.Random(3), 20, 2)
        cls.good = report_of(cls.doc, STAGES)

    def problems(self, report: dict) -> list[str]:
        return checks.check_report(self.doc, report, "plan", DEFAULT_TRIALS, exact=True)

    def mutated(self, edit) -> list[str]:
        report = copy.deepcopy(self.good)
        edit(report)
        return self.problems(report)

    def test_program_report_passes(self):
        self.assertFalse(self.good["plan"]["heuristic"])
        self.assertEqual(self.problems(self.good), [])

    def test_posterior_off_by_1e_6(self):
        def edit(r):
            r["evaluation"]["routes"][0]["posterior"][0] += 1e-6
        self.assertIn("posterior", " ".join(self.mutated(edit)))

    def test_total_probability_off_by_1e_6(self):
        def edit(r):
            r["evaluation"]["routes"][1]["total_probability"] += 1e-6
        self.assertIn("total_probability", " ".join(self.mutated(edit)))

    def test_wrong_flights(self):
        def edit(r):
            r["evaluation"]["routes"][2]["flights_per_week"] += 1
        self.assertIn("flights_per_week", " ".join(self.mutated(edit)))

    def test_wrong_profit(self):
        def edit(r):
            r["evaluation"]["routes"][0]["profit"] *= 1.0001
        self.assertIn("profit", " ".join(self.mutated(edit)))

    def test_suboptimal_weights(self):
        def edit(r):
            r["optimization"]["weights"] = list(r["evaluation"]["weights"])
        self.assertIn("vertex enumeration", " ".join(self.mutated(edit)))

    def test_over_budget_plan(self):
        positive = [rid for rid, s in self.good["plan"]["per_route_scores"].items() if s > 0]
        self.assertIn("available", " ".join(self.mutated(lambda r: set_selection(r, positive))))

    def test_nonpositive_score_selected(self):
        negative = [rid for rid, s in self.good["plan"]["per_route_scores"].items() if s <= 0]
        selection = self.good["plan"]["selected"] + negative[:1]
        self.assertIn("nonpositive", " ".join(self.mutated(lambda r: set_selection(r, selection))))

    def test_feasible_but_not_optimal(self):
        selection = self.good["plan"]["selected"][1:]
        problems = self.mutated(lambda r: set_selection(r, selection))
        self.assertEqual(len(problems), 1)
        self.assertIn("per-fleet optimum", problems[0])

    def test_total_not_the_ordered_sum(self):
        def edit(r):
            r["plan"]["total_score"] *= 1.001
        self.assertIn("id-ordered sum", " ".join(self.mutated(edit)))


class NetworkChecks(unittest.TestCase):
    def test_greedy_plan_within_bound_and_inflated_total_rejected(self):
        doc = gen.network_doc(5, n_routes=300)
        report = report_of(doc, STAGES)
        self.assertTrue(report["plan"]["heuristic"])
        self.assertEqual(checks.check_report(doc, report, "plan", DEFAULT_TRIALS, exact=False), [])
        positive = [rid for rid, s in report["plan"]["per_route_scores"].items() if s > 0]
        set_selection(report, positive)
        for name in report["plan"]["used"]:
            doc["availability"][name] = report["plan"]["used"][name]
        problems = checks.check_report(doc, report, "plan", DEFAULT_TRIALS, exact=False)
        self.assertEqual(problems, [], "taking every positive route fits its own availability")
        report["plan"]["total_score"] *= 1.01
        problems = checks.check_plan(doc, report["evaluation"], report["optimization"],
                                     report["plan"], exact=False)
        self.assertIn("fractional bound", " ".join(problems))


class RMChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.doc = {"schema_version": "1", "rm_legs": [gen.rm_leg(random.Random(4), 0, 130)], "seed": 9}
        cls.good = report_of(cls.doc, ("rm",))

    def mutated(self, edit) -> str:
        report = copy.deepcopy(self.good)
        edit(report["rm"]["legs"][0])
        return " ".join(checks.check_report(self.doc, report, "rm", DEFAULT_TRIALS, exact=False))

    def test_program_report_passes(self):
        self.assertEqual(checks.check_report(self.doc, self.good, "rm", DEFAULT_TRIALS, exact=False), [])

    def test_shifted_protection(self):
        for shift in (-1, 1):
            def edit(leg, shift=shift):
                leg["protection_level"] += shift
            self.assertIn("Littlewood", self.mutated(edit))

    def test_shifted_booking_limit(self):
        for shift in (-1, 1):
            def edit(leg, shift=shift):
                leg["booking_limit"] += shift
            self.assertIn("marginal condition", self.mutated(edit))

    def test_expected_revenue_off(self):
        def edit(leg):
            leg["expected_revenue"] *= 1 + 1e-5
        self.assertIn("expected_revenue", self.mutated(edit))

    def test_fcfs_revenue_off(self):
        def edit(leg):
            leg["fcfs_revenue"] *= 1 - 1e-5
        self.assertIn("fcfs_revenue", self.mutated(edit))

    def test_simulation_far_from_expectation(self):
        def edit(leg):
            sim = leg["simulation"]
            sim["mean_revenue"] = leg["expected_revenue"] + 6 * sim["mean_revenue_se"]
        self.assertIn("standard errors", self.mutated(edit))

    def test_poisson_pmf_matches_closed_form(self):
        pmf = checks.poisson_pmf(37.5)
        self.assertAlmostEqual(pmf.sum(), 1.0, places=12)
        self.assertAlmostEqual(float(pmf[37]), 0.0652194243681493, places=13)


if __name__ == "__main__":
    unittest.main()
