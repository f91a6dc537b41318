import itertools
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
    expected_revenue_full_sweep,
    grid_expected_revenue,
    leg_revenue_bruteforce,
    overbooking_limit_search,
    pmf_mean,
    pmf_survival,
    poisson_pmf_direct,
    poisson_tail,
    sample_demand_binary_search,
    show_up_sweep_loop,
)
from routebayes import rm
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
    _binomial,
    _sample_demand,
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
        with pytest.raises(ValueError, match=r"^pmf\[1\] must be a finite nonnegative number, got -0\.1$"):
            DemandModel.discrete([0.5, -0.1, 0.6])
        with pytest.raises(ValueError, match=r"^pmf\[2\] must be a finite nonnegative number, got nan$"):
            DemandModel.discrete([0.5, 0.5, float("nan")])
        with pytest.raises(ValueError, match=r"^pmf\[0\] must be a finite nonnegative number, got inf$"):
            DemandModel.discrete([float("inf")])
        with pytest.raises(ValueError):
            DemandModel.discrete([])

    def test_nan_breaks_the_mean_and_denied_cost_rules(self):
        with pytest.raises(ValueError, match=r"^poisson mean must be >= 0, got nan$"):
            DemandModel.poisson(math.nan)
        with pytest.raises(ValueError, match=r"^denied_cost must be >= 0, got nan$"):
            leg(denied_cost=math.nan)

    def test_pmf_is_a_read_only_float64_array(self):
        source = np.array([0.25, 0.75])
        for model in (DemandModel.poisson(7.5), DemandModel.discrete(source), DemandModel.deterministic(3)):
            assert isinstance(model.pmf, np.ndarray) and model.pmf.dtype == np.float64
            assert not model.pmf.flags.writeable
            with pytest.raises(ValueError):
                model.pmf[0] = 0.5
        model = DemandModel.discrete(source)
        source[0] = 0.5  # the model holds a copy, not the caller's array
        assert model.pmf.tolist() == [0.25, 0.75]

    def test_poisson_pmf_owns_its_memory(self):
        # a view would keep the whole untruncated buffer alive
        model = DemandModel.poisson(960_000)
        assert model.pmf.base is None
        assert model.pmf.nbytes == 8 * (model.truncation + 1)

    def test_models_compare_by_value(self):
        assert DemandModel.discrete([0.25, 0.75]) == DemandModel.discrete(np.array([0.25, 0.75]))
        assert DemandModel.poisson(0) == DemandModel.deterministic(0)
        assert DemandModel.discrete([0.25, 0.75]) != DemandModel.discrete([0.75, 0.25])
        assert DemandModel.discrete([1.0]) != DemandModel.discrete([1.0, 0.0])
        assert DemandModel.poisson(3) != DemandModel.poisson(3.5)
        assert DemandModel.discrete([1.0]) != (1.0,)
        assert leg() == leg() and leg() != leg(demand_low=DemandModel.poisson(9))

    def test_poisson_matches_the_direct_pmf_in_any_build_order(self):
        for mean in (0.5, 3.7, 640.0, 2000.0, 80.0, 12.0, 0.9):  # small to large, then large to small
            assert np.array_equal(DemandModel.poisson(mean).pmf, poisson_pmf_direct(mean))

    def test_building_models_leaves_no_state_in_the_module(self):
        for mean in (0.5, 3.7, 640.0, 2000.0):
            DemandModel.poisson(mean)
        mutable = (np.ndarray, list, dict, set, bytearray)
        state = [name for name, value in vars(rm).items() if not name.startswith("__") and isinstance(value, mutable)]
        assert state == []

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

    def test_deterministic_support_bound(self):
        assert DemandModel.deterministic(MAX_RM_CELLS - 1).truncation == MAX_RM_CELLS - 1
        with pytest.raises(ValueError, match="support points"):
            DemandModel.deterministic(MAX_RM_CELLS)


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
        with pytest.raises(ValueError, match=r"need 0 <= protection \(11\) <= capacity"):
            expected_revenue(leg(capacity=10), RMPolicy(11, 12))
        with pytest.raises(ValueError, match=r"<= booking_limit \(9\)"):
            expected_revenue(leg(capacity=10), RMPolicy(0, 9))

    def test_booking_limit_bounded_at_search_bound(self):
        problem = leg(capacity=10)
        bound = OVERBOOKING_SEARCH_FACTOR * problem.capacity
        for kernel in (expected_revenue, lambda p, policy: simulate_leg(p, policy, 10, 0)):
            with pytest.raises(ValueError, match=r"<= 30$"):
                kernel(problem, RMPolicy(2, bound + 1))
            kernel(problem, RMPolicy(2, bound))
        with pytest.raises(ValueError, match=r"booking_limit \(2000000\) <= 30$"):
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
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 400), st.floats(0.01, 1.0))
    @example(1, 1.0)
    @example(250, 1.0)
    @example(3000, 0.33)  # the point mass underflows before the sweep reaches capacity
    @example(20_000, 0.92)
    @example(7482, 0.92)  # the start takes one chunk of 7481 factors; one more seat makes two
    @example(7483, 0.92)
    @example(MAX_RM_CELLS // 3, 0.92)  # the largest capacity a leg may have
    @example(MAX_RM_CELLS // 3, 1.0)
    @example(5000, math.nextafter(1.0, 0.0))  # one chunk: p**4999 is nowhere near 2**-900
    @example(2000, 2.0**-899)  # one factor per chunk: two would leave the normal range
    @example(40, 1e-300)
    @example(7, 5e-324)  # a subnormal show-up rate: the point mass is 0 from the first step
    def test_bit_identical_to_the_loop(self, capacity, p):
        got = _show_up_sweep(capacity, p, OVERBOOKING_SEARCH_FACTOR * capacity)
        want = show_up_sweep_loop(capacity, p, OVERBOOKING_SEARCH_FACTOR * capacity)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

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


@st.composite
def sweep_legs(draw):
    """Legs of 1-500 seats, show-up in (0, 1] with 1 and 0.33 exactly, denied cost from 0 to 20 x fare_low."""
    capacity = draw(st.integers(1, 500))
    fare_low = draw(st.floats(1.0, 500.0))
    return leg(
        capacity=capacity, fare_low=fare_low, fare_high=fare_low * draw(st.floats(1.0, 4.0)),
        demand_high=DemandModel.poisson(draw(st.floats(0.0, capacity / 2))),
        demand_low=DemandModel.poisson(draw(st.floats(0.0, capacity))),
        show_up_prob=draw(st.one_of(st.just(1.0), st.just(0.33), st.floats(0.0, 1.0, exclude_min=True))),
        denied_cost=fare_low * draw(st.one_of(st.just(0.0), st.just(20.0), st.floats(0.0, 20.0))),
    )


class TestShortSweep:
    """The leg's table stops at the overbooking limit and agrees bit for bit with the sweep to 3 x capacity."""

    @settings(max_examples=150, deadline=None)
    @given(sweep_legs())
    @example(leg(capacity=500, show_up_prob=0.33, fare_low=100.0, denied_cost=2000.0))
    @example(leg(capacity=1, show_up_prob=1.0, fare_low=100.0, denied_cost=100.0))
    @example(leg(capacity=3, show_up_prob=1.0, fare_low=100.0, denied_cost=99.0))
    # a leg shaped like the benchmark's largest: its 634 revenue terms span 4e-318 to 1.3e5
    @example(leg(capacity=800, fare_high=320.0, fare_low=110.0, demand_high=DemandModel.poisson(224.0),
                 demand_low=DemandModel.poisson(760.0), show_up_prob=0.92, denied_cost=450.0))
    # a low-fare mean near 2,000: at the 2,400 bound, 1,713 of 2,257 terms are nonzero, from 4e-319 to 2.2e3
    @example(leg(capacity=800, fare_high=260.0, fare_low=95.0, demand_high=DemandModel.poisson(140.0),
                 demand_low=DemandModel.poisson(1990.5), show_up_prob=0.9, denied_cost=400.0))
    def test_table_is_the_full_sweep_cut_at_the_limit(self, problem):
        capacity, bound = problem.capacity, OVERBOOKING_SEARCH_FACTOR * problem.capacity
        full, over = problem._show_ups
        limit = overbooking_limit(problem)
        assert limit == full.size - 1 == over.size - 1 == overbooking_limit_search(problem)
        want_full, want_over = show_up_sweep_loop(capacity, problem.show_up_prob, bound)
        assert np.array_equal(full, want_full[: limit + 1]) and np.array_equal(over, want_over[: limit + 1])
        protection = littlewood_protection(problem)
        for booking in sorted({capacity, max(capacity, limit - 1), limit, min(limit + 1, bound), bound}):
            policy = RMPolicy(protection, booking)
            assert expected_revenue(problem, policy) == expected_revenue_full_sweep(problem, policy)
        assert overbooking_limit(problem) == limit  # a longer booking limit leaves the leg's table as it was


@st.composite
def sum_terms(draw):
    """Floats up to 1e300 in magnitude with subnormals, signed zeros and pairs that cancel exactly, shuffled."""
    value = st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300),
                      st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-318, 1.6e5]))
    values = draw(st.lists(value, max_size=60))
    cancelled = draw(st.lists(st.sampled_from(values), max_size=20)) if values else []
    return draw(st.permutations(values + [-v for v in cancelled]))


class TestLargestFirstSum:
    """expected_revenue feeds its terms to fsum largest first; fsum rounds correctly in any order."""

    @settings(max_examples=300, deadline=None)
    @given(sum_terms())
    @example([1e300, 1.0, -1e300, 5e-324])
    @example([-0.0, -0.0])
    def test_equals_fsum_in_the_given_order(self, terms):
        got = rm._fsum_largest_first(terms)
        want = math.fsum(terms)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


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

    def test_trials_over_the_bound_rejected_before_sampling(self):
        with pytest.raises(ValueError, match=f"^trials must be >= 1 and <= {MAX_TRIALS}, got {MAX_TRIALS + 1}$"):
            simulate_leg(leg(), RMPolicy(0, 10), MAX_TRIALS + 1, 1)


def _scaled(weights, scale):
    """A discrete pmf from integer weights (zeros kept), its sum moved off 1 by ``scale``."""
    total = sum(weights)
    return DemandModel.discrete([w / total * scale for w in weights])


SAMPLED = st.one_of(
    st.floats(0.0, 5000.0).map(DemandModel.poisson),
    st.builds(_scaled, st.lists(st.integers(0, 4), min_size=1, max_size=60).filter(any), st.just(1.0)),
    st.integers(0, 300).map(DemandModel.deterministic),
    # cumsum ending just below 1 (a truncated tail) or just above it (rounding)
    st.builds(_scaled, st.lists(st.integers(0, 9), min_size=1, max_size=60).filter(any),
              st.floats(1.0 - 9e-10, 1.0 + 9e-10)),
)


def _edge_uniforms(model):
    """0, the largest double below 1, every j / 2**b for 2**b over 8x the support, and every CDF
    value with its two neighbouring doubles; those inside [0, 1), where uniforms live."""
    cum = np.cumsum(np.asarray(model.pmf))
    grid = 2 ** (8 * cum.size).bit_length()  # a multiple of every guide-table size the sampler picks
    pool = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], np.arange(grid) / grid,
                           cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf)])
    return pool[(pool >= 0.0) & (pool < 1.0)]


class TestSampleDemand:
    """The guide-table sampler returns exactly the binary-search index, array for array."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(SAMPLED, st.one_of(st.none(), st.lists(st.integers(0, 2**40), min_size=1, max_size=64)),
           st.integers(0, 2**32 - 1))
    @example(DemandModel.poisson(0.0), None, 0)
    @example(DemandModel.poisson(5000.0), None, 1)
    @example(DemandModel.deterministic(0), [0, 1, 2], 2)
    @example(DemandModel.discrete([0.25, 0.0, 0.25, 0.5, 0.0]), None, 3)  # CDF steps on bucket edges
    @example(DemandModel.discrete([0.5, 0.5 - 9e-10]), None, 4)
    @example(DemandModel.discrete([0.0, 0.5 + 9e-10, 0.5]), [5, 9], 5)
    def test_matches_binary_search(self, model, picks, seed):
        pool = np.concatenate([_edge_uniforms(model), np.random.default_rng(seed).random(1000)])
        # all of the pool, or a few of its values, so the table is also sized by a small trial count
        uniforms = pool if picks is None else pool[np.array(picks) % pool.size]
        got = _sample_demand(model, uniforms)
        want = sample_demand_binary_search(model, uniforms)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


def _generator_at(u):
    """A PCG64 generator whose next ``random()`` is u, a multiple of 2**-53 in [0, 1).

    PCG64 steps its 128-bit state (state * multiplier + inc) and outputs the XSL-RR of the new state: its two 64-bit
    halves XORed, rotated by its top six bits (zero here); ``random()`` keeps the output's top 53 bits.
    """
    multiplier, inc, high = (2549297995355413924 << 64) + 4865540595714422341, 2**64 + 1, 0x0123456789ABCDEF
    state = (high << 64) | (high ^ (int(u * 2**53) << 11))
    rng = np.random.default_rng(0)
    rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": (state - inc) * pow(multiplier, -1, 2**128) % 2**128, "inc": inc}}
    return rng


def _binv_sums(n, p):
    """The partial sums S_0..S_bound of numpy's binomial inversion for Bin(n, p), in Python floats."""
    r = min(p, 1.0 - p)
    q, px = 1.0 - r, math.exp(n * math.log(1.0 - r))
    sums = [px]
    for k in range(1, int(min(n, n * r + 10.0 * math.sqrt(n * r * q + 1.0))) + 1):
        px = (n - k + 1) * r * px / (k * q)
        sums.append(sums[-1] + px)
    return sums


SHOW_UP = st.one_of(st.sampled_from([1.0, 0.5, float(np.nextafter(0.5, 1.0)), 1e-300, 1.0 - 2.0**-53, 0.92, 0.08]),
                    st.floats(0.0, 1.0))


class TestBinomial:
    """``_binomial`` returns what ``rng.binomial`` returns, and leaves the generator where that call leaves it."""

    @staticmethod
    def _check(n, p, got, want):
        draws, expected = _binomial(got, n, p), want.binomial(n, p)
        assert draws.dtype == expected.dtype == np.int64
        assert np.array_equal(draws, expected)
        assert np.array_equal(got.random(3), want.random(3))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(0, 400), st.integers(0, 150), st.integers(1, 3000), st.booleans(), SHOW_UP,
           st.integers(0, 2**32 - 1))
    @example(0, 0, 100, False, 0.92, 1)  # all zeros
    @example(7, 0, 1, False, 0.5, 2)  # one trial
    @example(300, 0, 64, False, 0.9, 3)  # r n just under 30: numpy inverts
    @example(301, 0, 64, False, 0.9, 4)  # just over: numpy's BTPE
    @example(50, 30, 2**16 + 1, True, 0.92, 5)  # several blocks, with zeros
    def test_equals_numpy(self, low, span, size, zeros, p, seed):
        n = np.random.default_rng(seed).integers(low, low + span + 1, size)
        if zeros:
            n[::3] = 0
        self._check(n, p, np.random.default_rng(seed), np.random.default_rng(seed))

    @pytest.mark.parametrize("n, p", [(60, 0.92), (100, 0.3), (31, 0.92)])
    def test_uniforms_beside_a_partial_sum(self, n, p):
        """A U a few ulps from some S_k, where a count of the sums below U and numpy's running subtraction can
        disagree, and the largest U below 1, which lies past S_bound at n = 31 (numpy draws again there): numpy
        draws those blocks."""
        for s in _binv_sums(n, p) + [1.0]:
            for u in (math.floor(s * 2**53) / 2**53 + j * 2**-53 for j in range(-3, 4)):
                if 0.0 <= u < 1.0:
                    assert _generator_at(u).random() == u
                    self._check(np.full(32, n), p, _generator_at(u), _generator_at(u))

    def test_uniform_on_a_bucket_edge(self):
        """S_0 = exp(n log q) by np.exp (here) and by libm's exp (numpy) on either side of a bucket edge j/256, with
        U on that edge: no sum of this table lies in U's bucket, yet the two draws differ, so numpy draws the block.
        The cases are those where this host's np.exp and libm's exp differ."""
        for n, j, t in itertools.product(range(1, 5), range(1, 256), range(-4, 5)):
            q = (j / 256) ** (1 / n) + t * 2**-53
            first_sums = np.exp(np.array([n]) * math.log(q))[0], math.exp(n * math.log(q))
            if q >= 0.5 and min(first_sums) < j / 256 <= max(first_sums):
                self._check(np.full(32, n), 1.0 - q, _generator_at(j / 256), _generator_at(j / 256))

    def test_leg_sized_draws_are_certified(self, monkeypatch):
        inversion, results = rm._inversion, []
        monkeypatch.setattr(rm, "_inversion", lambda *args: results.append(inversion(*args)) or results[-1])
        n = np.minimum(np.random.default_rng(8).poisson(170.0, 10_000), 180)
        self._check(n, 0.92, np.random.default_rng(9), np.random.default_rng(9))
        n[::7] = 0
        self._check(n, 0.08, np.random.default_rng(10), np.random.default_rng(10))
        assert len(results) == 2 and all(x is not None for x in results)

    def test_failed_certificate_leaves_the_block_to_numpy(self, monkeypatch):
        inversion = rm._inversion
        monkeypatch.setattr(rm, "_inversion", lambda *args: [inversion(*args), None][1])
        n = np.random.default_rng(11).integers(40, 70, 2**15 + 3)
        self._check(n, 0.92, np.random.default_rng(12), np.random.default_rng(12))


RM_LEGS = [
    pytest.param(rm_leg, id=f"{path.parent.name}/{path.stem}/{rm_leg.id}")
    for folder in ("tests/data/corpus", "tests/data/regress", "tests/data/golden/inputs", "scenarios")
    for path in sorted((ROOT / folder).glob("*.json"))
    for rm_leg in load_scenario(path).rm_legs
]


def _simulations(problem, policy):
    """Summaries at 1, 37 and 10,000 trials and two seeds. The overflow_rm_fares leg's revenue
    overflows by design (the pipeline rejects it), so its NaN standard error is compared as text."""
    runs = [(trials, seed) for trials in (1, 37, 10_000) for seed in (0, 7)]
    with np.errstate(over="ignore", invalid="ignore"):
        summaries = [simulate_leg(problem, policy, trials, seed) for trials, seed in runs]
    return [repr(summary) if any(map(math.isnan, vars(summary).values())) else summary for summary in summaries]


@pytest.mark.parametrize("rm_leg", RM_LEGS)
def test_simulation_equals_binary_search_simulation(rm_leg, monkeypatch):
    problem = rm_leg.problem
    policy = RMPolicy(littlewood_protection(problem), overbooking_limit(problem))
    shipped = _simulations(problem, policy)
    monkeypatch.setattr("routebayes.rm._sample_demand", sample_demand_binary_search)
    assert _simulations(problem, policy) == shipped


@pytest.mark.parametrize("rm_leg", RM_LEGS)
def test_simulation_equals_numpy_binomial_simulation(rm_leg, monkeypatch):
    problem = rm_leg.problem
    policy = RMPolicy(littlewood_protection(problem), overbooking_limit(problem))
    shipped = _simulations(problem, policy)
    monkeypatch.setattr("routebayes.rm._binomial", lambda rng, n, p: rng.binomial(n, p))
    assert _simulations(problem, policy) == shipped


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


@pytest.mark.parametrize("command", ["validate", "evaluate", "plan"])
def test_route_commands_never_import_numpy_random(command):
    # numpy.random pulls in secrets and OpenSSL; only the Monte Carlo of the rm stage needs it
    code = (
        "import contextlib, io, sys\n"
        "from routebayes.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code, command, "--scenario", str(ROOT / "scenarios" / "demo.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


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
