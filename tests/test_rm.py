import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _oracles import binom_pmf, binom_tail_log, leg_revenue_bruteforce, poisson_tail
from routebayes.errors import InvalidPolicy
from routebayes.rm import (
    DemandModel,
    LegRMProblem,
    RMPolicy,
    expected_revenue,
    fcfs_baseline,
    littlewood_protection,
    _show_up_sweep,
    overbooking_limit,
    simulate_leg,
)

ROOT = Path(__file__).parents[1]


def leg(capacity=10, fare_high=200.0, fare_low=100.0, demand_high=None, demand_low=None,
        show_up_prob=1.0, denied_cost=0.0):
    return LegRMProblem(
        capacity=capacity,
        fare_high=fare_high,
        fare_low=fare_low,
        demand_high=demand_high or DemandModel.poisson(4),
        demand_low=demand_low or DemandModel.poisson(8),
        show_up_prob=show_up_prob,
        denied_cost=denied_cost,
    )


class TestDemandModel:
    def test_poisson_tail_below_threshold(self):
        model = DemandModel.poisson(25.0)
        assert 1.0 - math.fsum(model.pmf) < 1e-9
        assert model.survival(model.truncation) == 0.0

    def test_poisson_zero_mean(self):
        model = DemandModel.poisson(0.0)
        assert model.pmf == (1.0,)
        assert model.mean() == 0.0

    def test_poisson_mean_close(self):
        model = DemandModel.poisson(12.0)
        assert model.mean() == pytest.approx(12.0, abs=1e-6)

    @pytest.mark.parametrize("mean", [0.5, 1.0, 3.7, 12.0, 25.0, 80.0, 180.0, 640.0, 2000.0, 5000.0])
    def test_poisson_truncation_is_smallest_below_tail_mass(self, mean):
        t = DemandModel.poisson(mean).truncation
        assert poisson_tail(mean, t) < 1e-9
        assert poisson_tail(mean, t - 1) >= 1e-9

    def test_discrete_validation(self):
        with pytest.raises(ValueError):
            DemandModel.discrete([0.5, 0.6])
        with pytest.raises(ValueError):
            DemandModel.discrete([0.5, -0.1, 0.6])
        with pytest.raises(ValueError):
            DemandModel.discrete([])

    def test_discrete_survival(self):
        model = DemandModel.discrete([0.1] * 10)
        assert model.survival(4) == pytest.approx(0.5)
        assert model.survival(9) == 0.0


class TestLittlewood:
    def test_equal_fares_no_protection(self):
        assert littlewood_protection(leg(fare_high=150.0, fare_low=150.0)) == 0

    def test_uniform_demand_half_ratio(self):
        problem = leg(fare_high=200.0, fare_low=100.0,
                      demand_high=DemandModel.discrete([0.1] * 10))
        assert littlewood_protection(problem) == 4

    def test_degenerate_demand(self):
        problem = leg(fare_high=100.0, fare_low=30.0,
                      demand_high=DemandModel.deterministic(7))
        assert littlewood_protection(problem) == 7

    def test_clamped_to_capacity(self):
        problem = leg(capacity=5, fare_high=320.0, fare_low=110.0,
                      demand_high=DemandModel.poisson(40))
        assert littlewood_protection(problem) == 5

    def test_matches_survival_scan(self):
        for mean in (0.5, 6.0, 80.0, 300.0):
            demand = DemandModel.poisson(mean)
            for low in (20.0, 90.0, 170.0):
                problem = leg(capacity=1000, fare_high=200.0, fare_low=low, demand_high=demand)
                scan = next(y for y in range(demand.truncation + 1)
                            if demand.survival(y) <= low / 200.0)
                assert littlewood_protection(problem) == scan

    def test_monotone_in_fare_ratio(self):
        demand = DemandModel.poisson(6)
        protections = [
            littlewood_protection(leg(fare_high=200.0, fare_low=low, demand_high=demand))
            for low in (20.0, 60.0, 120.0, 180.0, 200.0)
        ]
        assert protections == sorted(protections, reverse=True)


class TestExpectedRevenue:
    def test_zero_demand(self):
        problem = leg(demand_high=DemandModel.deterministic(0),
                      demand_low=DemandModel.deterministic(0))
        assert expected_revenue(problem, RMPolicy(0, 10)) == 0.0

    def test_fill_plane_with_low_fare(self):
        problem = leg(capacity=5, demand_high=DemandModel.deterministic(0),
                      demand_low=DemandModel.deterministic(5))
        assert expected_revenue(problem, RMPolicy(0, 5)) == 5 * 100.0

    def test_matches_bruteforce_p1(self):
        problem = leg(capacity=5,
                      demand_high=DemandModel.discrete([1 / 7] * 7),
                      demand_low=DemandModel.discrete([1 / 7] * 7))
        for protection in range(6):
            policy = RMPolicy(protection, 5)
            assert expected_revenue(problem, policy) == pytest.approx(
                leg_revenue_bruteforce(problem, policy), abs=1e-9
            )

    def test_matches_bruteforce_with_noshows_and_overbooking(self):
        problem = leg(capacity=5, show_up_prob=0.85, denied_cost=320.0,
                      demand_high=DemandModel.discrete([0.2, 0.2, 0.2, 0.2, 0.2]),
                      demand_low=DemandModel.discrete([0.1, 0.1, 0.2, 0.2, 0.2, 0.1, 0.1]))
        for policy in (RMPolicy(0, 5), RMPolicy(2, 7), RMPolicy(4, 8)):
            assert expected_revenue(problem, policy) == pytest.approx(
                leg_revenue_bruteforce(problem, policy), abs=1e-9
            )

    def test_invalid_policy(self):
        with pytest.raises(InvalidPolicy):
            expected_revenue(leg(capacity=10), RMPolicy(11, 12))
        with pytest.raises(InvalidPolicy):
            expected_revenue(leg(capacity=10), RMPolicy(0, 9))

    def test_protection_optimality_small_scan(self):
        rng = np.random.default_rng(505)
        for _ in range(25):
            capacity = int(rng.integers(2, 9))
            fare_high = float(rng.uniform(120, 400))
            fare_low = float(rng.uniform(40, fare_high))
            problem = leg(
                capacity=capacity, fare_high=fare_high, fare_low=fare_low,
                demand_high=DemandModel.poisson(float(rng.uniform(0.5, capacity))),
                demand_low=DemandModel.poisson(float(rng.uniform(0.5, 1.5 * capacity))),
            )
            star = littlewood_protection(problem)
            best = expected_revenue(problem, RMPolicy(min(star, capacity), capacity))
            for y in range(capacity + 1):
                assert best >= expected_revenue(problem, RMPolicy(y, capacity)) - 1e-9


class TestShowUpSweep:
    @pytest.mark.parametrize("p", [0.33, 0.85, 0.97, 1.0])
    @pytest.mark.parametrize("capacity", [1, 7, 30])
    def test_matches_comb_sums(self, capacity, p):
        full, over = _show_up_sweep(capacity, p, 60)
        for m in range(61):
            masses = [binom_pmf(k, m, p) for k in range(m + 1)]
            assert full[m] == pytest.approx(math.fsum(masses[capacity:]), rel=1e-12, abs=1e-300)
            assert over[m] == pytest.approx(
                math.fsum((k - capacity) * w for k, w in enumerate(masses) if k > capacity),
                rel=1e-12, abs=1e-300,
            )


class TestOverbooking:
    def test_all_show_costly_denials(self):
        problem = leg(show_up_prob=1.0, denied_cost=150.0,
                      demand_low=DemandModel.deterministic(30))
        assert overbooking_limit(problem) == 10

    def test_free_denials_hit_search_bound(self):
        problem = leg(show_up_prob=0.9, denied_cost=0.0)
        assert overbooking_limit(problem) == 30

    def test_matches_expected_revenue_argmax(self):
        problem = leg(
            capacity=10, fare_high=300.0, fare_low=100.0, show_up_prob=0.9,
            denied_cost=400.0,
            demand_high=DemandModel.deterministic(0),
            demand_low=DemandModel.deterministic(30),
        )
        limit = overbooking_limit(problem)
        scan = {b: expected_revenue(problem, RMPolicy(0, b)) for b in range(10, 31)}
        assert limit == max(scan, key=scan.get)

    def test_large_capacity_low_show_up_does_not_underflow(self):
        # p**(capacity - 1) is about 1e-1444 here, far below the double range
        problem = leg(capacity=3000, show_up_prob=0.33, fare_low=100.0, denied_cost=10_000.0)
        limit = overbooking_limit(problem)
        assert limit < 3 * 3000
        assert 100.0 - 10_000.0 * binom_tail_log(limit - 1, 0.33, 3000) > 0.0
        assert 100.0 - 10_000.0 * binom_tail_log(limit, 0.33, 3000) <= 0.0

    def test_monotone_in_denied_cost(self):
        limits = [
            overbooking_limit(leg(show_up_prob=0.88, denied_cost=dc,
                                  demand_low=DemandModel.deterministic(30)))
            for dc in (0.0, 120.0, 250.0, 600.0, 2000.0)
        ]
        assert limits == sorted(limits, reverse=True)


class TestFcfsBaseline:
    def test_zero_demand(self):
        problem = leg(demand_high=DemandModel.deterministic(0),
                      demand_low=DemandModel.deterministic(0))
        assert fcfs_baseline(problem) == 0.0

    def test_equals_unprotected_policy(self):
        problem = leg(capacity=7, show_up_prob=0.92, denied_cost=100.0)
        assert fcfs_baseline(problem) == expected_revenue(problem, RMPolicy(0, 7))

    def test_equal_fares_make_protection_worthless(self):
        problem = leg(capacity=6, fare_high=150.0, fare_low=150.0)
        star = littlewood_protection(problem)
        assert star == 0
        assert fcfs_baseline(problem) == expected_revenue(problem, RMPolicy(star, 6))


class TestSimulateLeg:
    def test_bit_identical_reruns(self):
        problem = leg(capacity=12, show_up_prob=0.9, denied_cost=250.0)
        policy = RMPolicy(3, 14)
        one = simulate_leg(problem, policy, 1, 77)
        two = simulate_leg(problem, policy, 1, 77)
        assert one == two
        many = simulate_leg(problem, policy, 5000, 77)
        again = simulate_leg(problem, policy, 5000, 77)
        assert many == again

    def test_deterministic_inputs_match_exact(self):
        problem = leg(capacity=5, show_up_prob=1.0,
                      demand_high=DemandModel.deterministic(2),
                      demand_low=DemandModel.deterministic(4))
        policy = RMPolicy(2, 5)
        summary = simulate_leg(problem, policy, 37, 1)
        assert summary.mean_revenue == expected_revenue(problem, policy)
        assert summary.mean_revenue_se == 0.0

    def test_mean_tracks_exact_expectation(self):
        problem = leg(capacity=20, fare_high=260.0, fare_low=110.0,
                      show_up_prob=0.9, denied_cost=420.0,
                      demand_high=DemandModel.poisson(7),
                      demand_low=DemandModel.poisson(22))
        policy = RMPolicy(littlewood_protection(problem), overbooking_limit(problem))
        exact = expected_revenue(problem, policy)
        summary = simulate_leg(problem, policy, 60_000, 2024)
        assert abs(summary.mean_revenue - exact) <= 3.0 * summary.mean_revenue_se + 1e-9

    def test_rates_within_bounds(self):
        problem = leg(capacity=4, show_up_prob=0.95, denied_cost=100.0,
                      demand_low=DemandModel.poisson(9))
        summary = simulate_leg(problem, RMPolicy(1, 6), 2000, 5)
        assert 0.0 <= summary.mean_load_factor <= 1.0
        assert 0.0 <= summary.denied_rate <= 1.0
        assert 0.0 <= summary.spill_rate <= 1.0

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            simulate_leg(leg(), RMPolicy(0, 10), 0, 1)


class TestUplift:
    def test_protection_never_loses_to_fcfs(self):
        rng = np.random.default_rng(31337)
        for _ in range(20):
            capacity = int(rng.integers(2, 9))
            fare_high = float(rng.uniform(150, 400))
            problem = leg(
                capacity=capacity, fare_high=fare_high,
                fare_low=float(rng.uniform(40, fare_high)),
                demand_high=DemandModel.poisson(float(rng.uniform(0.5, capacity))),
                demand_low=DemandModel.poisson(float(rng.uniform(0.5, 1.5 * capacity))),
            )
            star = min(littlewood_protection(problem), capacity)
            assert (
                expected_revenue(problem, RMPolicy(star, capacity))
                >= fcfs_baseline(problem) - 1e-9
            )


def test_rm_stage_never_imports_scipy():
    code = (
        "import sys\n"
        "from routebayes.pipeline import run_pipeline\n"
        "from routebayes.scenario import load_scenario\n"
        "report = run_pipeline(load_scenario(sys.argv[1]), ['rm'], trials=200)\n"
        "assert report.rm['legs'], 'no legs ran'\n"
        "print('scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "scenarios" / "demo.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
