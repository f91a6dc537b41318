import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    binom_pmf,
    binom_tail_log,
    grid_expected_revenue,
    leg_revenue_bruteforce,
    pmf_mean,
    pmf_survival,
    poisson_tail,
)
from routebayes.errors import InvalidPolicy
from routebayes.rm import (
    MAX_RM_CELLS,
    MAX_TRIALS,
    OVERBOOKING_SEARCH_FACTOR,
    DemandModel,
    LegRMProblem,
    RMPolicy,
    expected_revenue,
    fcfs_baseline,
    littlewood_protection,
    _show_up_sweep,
    _tails,
    overbooking_limit,
    simulate_leg,
)
from routebayes.scenario import load_scenario

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
        assert _tails(model.pmf)[model.truncation] == 0.0

    def test_poisson_zero_mean(self):
        model = DemandModel.poisson(0.0)
        assert model.pmf == (1.0,)
        assert pmf_mean(model.pmf) == 0.0

    def test_poisson_mean_close(self):
        model = DemandModel.poisson(12.0)
        assert pmf_mean(model.pmf) == pytest.approx(12.0, abs=1e-6)

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
        tails = _tails(DemandModel.discrete([0.1] * 10).pmf)
        assert tails[4] == pytest.approx(0.5)
        assert tails[9] == 0.0
        assert tails.tolist() == pytest.approx([pmf_survival([0.1] * 10, y) for y in range(10)], abs=1e-15)


class TestSizeLimit:
    """A leg's RM work is bounded by MAX_RM_CELLS before anything is allocated."""

    def test_trial_bound_covers_the_acceptance_suite(self):
        assert MAX_TRIALS >= 50_000

    def test_sweep_at_the_limit(self):
        assert leg(capacity=MAX_RM_CELLS // 3).capacity == MAX_RM_CELLS // 3
        with pytest.raises(ValueError, match="overbooking sweep"):
            leg(capacity=MAX_RM_CELLS // 3 + 1)

    def test_revenue_grid_at_the_limit(self):
        side = math.isqrt(MAX_RM_CELLS)
        assert side * side == MAX_RM_CELLS
        low = DemandModel.deterministic(side - 1)
        problem = leg(capacity=side, demand_high=DemandModel.deterministic(side - 1), demand_low=low)
        # all side - 1 low fares book, which leaves one seat for the high fare
        assert expected_revenue(problem, RMPolicy(0, side)) == (side - 1) * 100.0 + 200.0
        with pytest.raises(ValueError, match="denied-boarding sum takes"):
            leg(demand_high=DemandModel.deterministic(side), demand_low=low)

    def test_poisson_support_bound(self):
        DemandModel.poisson(MAX_RM_CELLS * 0.9)
        with pytest.raises(ValueError, match="support points"):
            DemandModel.poisson(float(MAX_RM_CELLS))


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
                            if pmf_survival(demand.pmf, y) <= low / 200.0)
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

    def test_booking_limit_bounded_at_search_bound(self):
        problem = leg(capacity=10)
        bound = OVERBOOKING_SEARCH_FACTOR * problem.capacity
        for kernel in (expected_revenue, lambda p, policy: simulate_leg(p, policy, 10, 0)):
            with pytest.raises(InvalidPolicy, match=r"<= 30$"):
                kernel(problem, RMPolicy(2, bound + 1))
            kernel(problem, RMPolicy(2, bound))
        with pytest.raises(InvalidPolicy):
            expected_revenue(problem, RMPolicy(0, 2_000_000))

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


def _discrete(weights):
    total = math.fsum(weights)
    return DemandModel.discrete([w / total for w in weights])


DEMAND = st.one_of(
    st.floats(0, 60).map(DemandModel.poisson),
    st.lists(st.floats(0, 1), min_size=1, max_size=40).filter(lambda w: sum(w) > 0.01).map(_discrete),
    st.integers(0, 90).map(DemandModel.deterministic),
)


@st.composite
def leg_and_policy(draw):
    capacity = draw(st.integers(1, 30))
    fare_high = draw(st.floats(1.0, 1000.0))
    problem = leg(
        capacity=capacity, fare_high=fare_high, fare_low=draw(st.floats(0.05, 1.0)) * fare_high,
        demand_high=draw(DEMAND), demand_low=draw(DEMAND),
        show_up_prob=draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0))),
        denied_cost=draw(st.one_of(st.just(0.0), st.floats(0.0, 3000.0))),
    )
    protection = draw(st.one_of(st.integers(0, capacity), st.just(capacity)))
    bound = OVERBOOKING_SEARCH_FACTOR * capacity
    return problem, RMPolicy(protection, draw(st.one_of(st.integers(capacity, bound), st.just(bound))))


def _case(capacity, protection, booking, low, high, show_up_prob=1.0, denied_cost=0.0):
    return leg(capacity=capacity, demand_low=low, demand_high=high, show_up_prob=show_up_prob,
               denied_cost=denied_cost), RMPolicy(protection, booking)


class TestExpectedRevenueMatchesGrid:
    """The one-dimensional sum equals the |D_low| x |D_high| grid within 1e-12 relative."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(leg_and_policy())
    # low-fare support shorter than B - P, Poisson on both sides, show-up 1, free denials
    @example(_case(20, 4, 60, DemandModel.poisson(3.0), DemandModel.poisson(9.0)))
    # low-fare support longer than B - P, overbooking at the 3x bound with no-shows
    @example(_case(12, 5, 36, DemandModel.poisson(60.0), DemandModel.poisson(7.0), 0.8, 300.0))
    # protection equal to capacity and to the booking limit: no low fare books
    @example(_case(15, 15, 15, DemandModel.poisson(30.0), DemandModel.poisson(20.0), 0.9, 500.0))
    # discrete legs with B - P inside and at the end of the low-fare support
    @example(_case(6, 2, 8, DemandModel.discrete([0.1, 0.2, 0.3, 0.4]), DemandModel.discrete([0.5, 0.5]), 0.7, 90.0))
    @example(_case(6, 0, 6, DemandModel.discrete([0.25] * 4), DemandModel.discrete([0.25] * 4), 0.7, 90.0))
    def test_matches_grid(self, case):
        problem, policy = case
        grid = grid_expected_revenue(problem, policy)
        assert abs(expected_revenue(problem, policy) - grid) <= 1e-12 * abs(grid)

    @pytest.mark.parametrize("name", ["rm_c100", "rm_c300", "rm_c800"])
    def test_golden_legs(self, name):
        for rm_leg in load_scenario(ROOT / "tests" / "data" / "golden" / "inputs" / f"{name}.json").rm_legs:
            problem = rm_leg.problem
            for policy in (RMPolicy(littlewood_protection(problem), overbooking_limit(problem)),
                           RMPolicy(0, problem.capacity)):
                grid = grid_expected_revenue(problem, policy)
                assert abs(expected_revenue(problem, policy) - grid) <= 1e-12 * abs(grid)


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
