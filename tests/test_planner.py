import math

import numpy as np
import pytest

from _oracles import enumerate_best_plan, enumerate_best_plan_per_fleet, rank_by_score
from routebayes.errors import PlanTooLarge
from routebayes.planner import (
    FleetAvailability,
    RouteCandidate,
    score_candidate,
    select_routes,
)


def cand(rid, fleet="f1", profit=1000.0, prob=1.0, need=1):
    return RouteCandidate(rid, fleet, profit, prob, need)


def random_instance(rng, n, n_fleets=2):
    fleets = [f"f{k}" for k in range(n_fleets)]
    candidates = [
        RouteCandidate(
            route_id=f"r{i:02d}",
            fleet_name=fleets[int(rng.integers(0, n_fleets))],
            profit_per_week=float(rng.uniform(-50_000, 80_000)),
            total_probability=float(rng.uniform(0.0, 1.0)),
            aircraft_needed=int(rng.integers(0, 4)),
        )
        for i in range(n)
    ]
    availability = {f: int(rng.integers(0, 6)) for f in fleets}
    return candidates, availability


def oracle(candidates, availability, enumerator=enumerate_best_plan):
    return enumerator(
        [c.route_id for c in candidates],
        [score_candidate(c) for c in candidates],
        [c.fleet_name for c in candidates],
        [c.aircraft_needed for c in candidates],
        availability,
    )


def per_fleet_instance(rng, integer_scores):
    """Up to 16 candidates in each of 3 fleets, ids interleaved across fleets.

    Integer-valued scores with needs 0-3 make many subsets tie exactly.
    """
    fleets = [name for name in ("f0", "f1", "f2") for _ in range(int(rng.integers(0, 17)))]
    rng.shuffle(fleets)
    candidates = []
    for i, fleet in enumerate(fleets):
        if integer_scores:
            profit, prob = float(rng.integers(-2, 6)), 1.0
        else:
            profit, prob = float(rng.uniform(-50_000, 80_000)), float(rng.uniform(0.0, 1.0))
        candidates.append(RouteCandidate(f"r{i:02d}", fleet, profit, prob, int(rng.integers(0, 4))))
    availability = {}
    for name in ("f0", "f1", "f2"):
        total_need = sum(c.aircraft_needed for c in candidates if c.fleet_name == name)
        availability[name] = int(rng.integers(0, total_need + 2))
    return candidates, availability


class TestScoreCandidate:
    def test_certainty_passes_profit_through(self):
        assert score_candidate(cand("a", profit=60000.0, prob=1.0)) == 60000.0

    def test_zero_probability(self):
        assert score_candidate(cand("a", profit=60000.0, prob=0.0)) == 0.0

    def test_worked_product(self):
        assert score_candidate(cand("a", profit=60000.0, prob=0.54)) == pytest.approx(32400.0)


class TestSelectRoutes:
    def test_ample_availability_selects_all_positive(self):
        candidates = [
            cand("a", profit=100.0),
            cand("b", profit=-5.0),
            cand("c", profit=40.0, need=2),
            cand("d", profit=0.0),
        ]
        plan = select_routes(candidates, {"f1": 100})
        assert plan.selected == ("a", "c")
        assert plan.total_score == pytest.approx(140.0)
        assert not plan.heuristic

    def test_zero_availability_empty_plan(self):
        candidates = [cand("a"), cand("b", need=2)]
        plan = select_routes(candidates, {"f1": 0})
        assert plan.selected == ()
        assert plan.total_score == 0.0
        assert plan.used == {"f1": 0}

    def test_unknown_fleet(self):
        with pytest.raises(ValueError, match="which availability does not list"):
            select_routes([cand("a", fleet="ghost")], {"f1": 3})

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            select_routes([cand("a"), cand("a")], {"f1": 3})

    def test_zero_need_candidates_always_fit(self):
        plan = select_routes([cand("a", need=0, profit=10.0)], {"f1": 0})
        assert plan.selected == ("a",)

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(4242)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            candidates, availability = random_instance(rng, n)
            plan = select_routes(candidates, availability)
            best_score, best_sel = oracle(candidates, availability)
            assert plan.total_score == best_score
            assert plan.selected == best_sel
            for fleet, used in plan.used.items():
                assert used <= availability[fleet]

    def test_lexicographic_tiebreak(self):
        # two equal-score, equal-need candidates; only one fits
        candidates = [cand("zeta", profit=100.0), cand("alpha", profit=100.0)]
        plan = select_routes(candidates, {"f1": 1})
        assert plan.selected == ("alpha",)

    def test_monotone_in_availability(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            candidates, availability = random_instance(rng, int(rng.integers(2, 9)))
            base = select_routes(candidates, availability).total_score
            grown = dict(availability)
            grown["f0"] += 1
            assert select_routes(candidates, grown).total_score >= base - 1e-12

    def test_determinism(self):
        rng = np.random.default_rng(8)
        candidates, availability = random_instance(rng, 9)
        first = select_routes(candidates, availability)
        second = select_routes(candidates, availability)
        assert first == second

    def test_negative_scores_never_selected(self):
        candidates = [cand("a", profit=-1.0), cand("b", profit=1.0, prob=0.0)]
        plan = select_routes(candidates, {"f1": 10})
        assert plan.selected == ()


class TestPerFleetOracle:
    @pytest.mark.parametrize("integer_scores", [False, True], ids=["random", "ties"])
    def test_matches_per_fleet_enumeration(self, integer_scores):
        rng = np.random.default_rng(314159 + integer_scores)
        sizes = []
        for _ in range(200):
            candidates, availability = per_fleet_instance(rng, integer_scores)
            plan = select_routes(candidates, availability)
            best_score, best_sel = oracle(candidates, availability, enumerate_best_plan_per_fleet)
            assert plan.selected == best_sel
            assert plan.total_score == best_score
            assert not plan.heuristic
            sizes.append(len(candidates))
        assert max(sizes) >= 40

    def test_per_fleet_oracle_agrees_with_whole_enumeration(self):
        rng = np.random.default_rng(2718)
        for _ in range(40):
            candidates, availability = random_instance(rng, int(rng.integers(1, 13)), n_fleets=3)
            assert (oracle(candidates, availability, enumerate_best_plan_per_fleet)
                    == oracle(candidates, availability))

    def test_oracle_takes_a_need_past_int64(self):
        # a need past 2**63 cannot fit, so the oracle drops it before counting needs in int64
        assert enumerate_best_plan_per_fleet(["a", "b"], [1.0, 2.0], ["f", "f"], [1, 2**70], {"f": 3}) == (1.0, ("a",))


class TestEdgeCases:
    def test_exact_ties_beyond_availability(self):
        # five candidates tie at 7.0 with one aircraft each; three fit
        candidates = [cand(rid, profit=7.0) for rid in ("e", "c", "a", "d", "b")]
        plan = select_routes(candidates, {"f1": 3})
        assert plan.selected == ("a", "b", "c")
        assert plan.total_score == 21.0

    def test_tie_between_one_large_and_two_small(self):
        # {a} and {b, c} both score 6 within 2 aircraft; ("a",) < ("b", "c")
        candidates = [cand("a", profit=6.0, need=2), cand("b", profit=3.0), cand("c", profit=3.0)]
        assert select_routes(candidates, {"f1": 2}).selected == ("a",)
        # {a, c} and {b, c} both score 5 within 3 aircraft
        candidates = [cand("a", profit=4.0, need=2), cand("b", profit=4.0, need=2), cand("c", profit=1.0)]
        assert select_routes(candidates, {"f1": 3}).selected == ("a", "c")

    def test_score_lost_to_rounding_is_still_taken(self):
        # 1e20 + 1.0 == 1e20, so ("a",) and ("a", "b") tie; b is taken, whether
        # the fleet is taken whole or, with c in the way, solved by the table
        for extra in ([], [cand("c", profit=1.0)]):
            candidates = [cand("a", profit=1e20), cand("b", profit=1.0, need=0)] + extra
            plan = select_routes(candidates, {"f1": 1})
            assert plan.selected == ("a", "b")
            assert plan.total_score == 1e20
            assert oracle(candidates, {"f1": 1}) == (1e20, ("a", "b"))
            assert oracle(candidates, {"f1": 1}, enumerate_best_plan_per_fleet) == (1e20, ("a", "b"))

    def test_zero_aircraft_candidates_with_zero_availability(self):
        candidates = [
            cand("a", need=0, profit=5.0),
            cand("b", need=1, profit=50.0),
            cand("c", need=0, profit=-5.0),
            cand("d", need=0, profit=2.0, fleet="f2"),
        ]
        plan = select_routes(candidates, {"f1": 0, "f2": 0})
        assert plan.selected == ("a", "d")
        assert plan.used == {"f1": 0, "f2": 0}
        assert plan.total_score == 7.0

    def test_huge_availability_small_needs(self):
        candidates = [cand(f"r{i:02d}", profit=1.0 + i, need=1 + i % 3) for i in range(40)]
        plan = select_routes(candidates, {"f1": 10**15})
        assert plan.selected == tuple(c.route_id for c in candidates)
        assert plan.used == {"f1": sum(1 + i % 3 for i in range(40))}

    def test_all_fit_huge_needs_select_everything(self):
        needs = (4 * 10**11, 5 * 10**11, 6 * 10**11)
        candidates = [cand(f"r{i}", need=need) for i, need in enumerate(needs)]
        plan = select_routes(candidates, {"f1": 2 * 10**12})
        assert plan.selected == ("r0", "r1", "r2")
        assert plan.used == {"f1": sum(needs)}

    def test_oversized_table_raises_plan_too_large(self):
        needs = (4 * 10**11, 5 * 10**11, 6 * 10**11)
        candidates = [cand(f"r{i}", fleet="wide", need=need) for i, need in enumerate(needs)]
        with pytest.raises(PlanTooLarge, match="'wide'"):
            select_routes(candidates, {"wide": 10**12})

    @pytest.mark.parametrize("extra,available", [
        ([cand("c", profit=1.0)], 2),  # solved by the table, whose sums would overflow
        ([], 5),  # taken whole, whose total would be inf
    ])
    def test_positive_scores_past_the_float_range_rejected(self, extra, available):
        candidates = [cand("a", profit=1.7e308), cand("b", profit=1.7e308)] + extra
        with pytest.raises(ValueError, match="^the positive scores sum to inf, past the float range$"):
            select_routes(candidates, {"f1": available})

    def test_negative_scores_do_not_count_toward_the_float_range(self):
        candidates = [cand("a", profit=1.7e308), cand("b", profit=-1.7e308), cand("c", profit=-1.7e308)]
        plan = select_routes(candidates, {"f1": 3})
        assert plan.selected == ("a",)
        assert plan.total_score == 1.7e308


class TestLargeInstances:
    def test_large_instance_exact(self):
        candidates = [cand(f"r{i:02d}", profit=10.0 + i) for i in range(30)]
        plan = select_routes(candidates, {"f1": 30})
        assert not plan.heuristic
        assert plan.selected == tuple(sorted(c.route_id for c in candidates))

    def test_tight_availability_exact(self):
        candidates = [cand(f"r{i:02d}", profit=100.0 - i, need=2) for i in range(26)]
        plan = select_routes(candidates, {"f1": 5})
        assert not plan.heuristic
        assert plan.selected == ("r00", "r01")
        assert plan.used == {"f1": 4}


class TestRankRoutes:
    """With room for k one-aircraft routes, the plan takes the k best by score, ties by id."""

    @staticmethod
    def top_k_plans(candidates):
        ranked = rank_by_score([c.route_id for c in candidates], [score_candidate(c) for c in candidates])
        for k in range(1, len(candidates) + 1):
            assert select_routes(candidates, {"f1": k}).selected == tuple(sorted(ranked[:k]))
        return ranked

    def test_sorted_by_score(self):
        candidates = [cand("a", profit=5.0), cand("b", profit=9.0), cand("c", profit=1.0)]
        assert self.top_k_plans(candidates) == ["b", "a", "c"]

    def test_ties_by_id(self):
        candidates = [cand("b", profit=5.0), cand("a", profit=5.0)]
        assert self.top_k_plans(candidates) == ["a", "b"]

    def test_single(self):
        assert self.top_k_plans([cand("solo")]) == ["solo"]


class TestFleetAvailability:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            FleetAvailability({"f1": -1})

    def test_total_score_is_ordered_sum(self):
        candidates = [
            cand("a", profit=0.1, prob=0.3),
            cand("b", profit=0.7, prob=0.9),
            cand("c", profit=0.2, prob=0.5),
        ]
        plan = select_routes(candidates, {"f1": 10})
        total = 0.0
        for rid in plan.selected:
            total += plan.per_route_scores[rid]
        assert plan.total_score == total
