import math

import numpy as np
import pytest

from _oracles import best_vertex_objective, simplex_vertices
from routebayes.bayes import LikelihoodVector, total_probability, validate_simplex
from routebayes.errors import InfeasibleConstraints
from routebayes.optimizer import (
    AT_LOWER,
    AT_UPPER,
    BoxConstraints,
    optimize_weights,
)


def random_feasible_box(rng, n):
    """Box constraints whose simplex slice is nonempty with margin."""
    if n == 1:
        return BoxConstraints((float(rng.uniform(0.0, 0.8)),), (1.0,))
    while True:
        lower = rng.uniform(0.0, 0.8 / n, size=n)
        upper = lower + rng.uniform(0.05, 1.0, size=n)
        upper = np.minimum(upper, 1.0)
        if lower.sum() <= 0.99 and upper.sum() >= 1.01:
            return BoxConstraints(tuple(lower), tuple(upper))


class TestExamples:
    def test_unconstrained_puts_mass_on_argmax(self):
        result = optimize_weights(LikelihoodVector((0.8, 0.4, 0.1)), BoxConstraints.full(3))
        assert result.weights.values == (1.0, 0.0, 0.0)
        assert result.objective == pytest.approx(0.8, abs=1e-12)

    def test_boxed_greedy_fill(self):
        result = optimize_weights(
            LikelihoodVector((0.8, 0.4, 0.1)),
            BoxConstraints((0.1, 0.1, 0.1), (0.6, 0.6, 0.6)),
        )
        assert result.weights[0] == pytest.approx(0.6, abs=1e-12)
        assert result.weights[1] == pytest.approx(0.3, abs=1e-12)
        assert result.weights[2] == pytest.approx(0.1, abs=1e-12)
        assert result.objective == pytest.approx(0.61, abs=1e-12)
        assert result.active_bounds == (AT_UPPER, "interior", AT_LOWER)

    def test_constant_likelihood_index_tiebreak(self):
        result = optimize_weights(
            LikelihoodVector((0.5, 0.5, 0.5)),
            BoxConstraints((0.1, 0.1, 0.1), (1.0, 1.0, 1.0)),
        )
        assert result.objective == pytest.approx(0.5, abs=1e-12)
        assert result.weights[0] == pytest.approx(0.8, abs=1e-12)
        assert result.weights[1] == pytest.approx(0.1, abs=1e-12)
        assert result.weights[2] == pytest.approx(0.1, abs=1e-12)


class TestErrors:
    def test_lower_bounds_exceed_one(self):
        with pytest.raises(InfeasibleConstraints):
            BoxConstraints((0.5, 0.6), (0.9, 0.9))

    def test_upper_bounds_below_one(self):
        with pytest.raises(InfeasibleConstraints):
            BoxConstraints((0.0, 0.0), (0.3, 0.3))

    def test_crossed_bounds(self):
        with pytest.raises(InfeasibleConstraints):
            BoxConstraints((0.5, 0.1), (0.4, 0.9))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="3 bounds vs 2 likelihoods"):
            optimize_weights(LikelihoodVector((0.5, 0.5)), BoxConstraints.full(3))

    def test_thirds_bounds_accepted(self):
        # fsum of three 1/3 floats is just below 1; the tolerance admits it
        third = 1 / 3
        box = BoxConstraints((third, third, third), (third, third, third))
        result = optimize_weights(LikelihoodVector((0.9, 0.1, 0.5)), box)
        assert math.fsum(result.weights.values) == pytest.approx(1.0, abs=1e-12)


class TestAgainstVertexOracle:
    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            box = random_feasible_box(rng, n)
            lk = LikelihoodVector(tuple(rng.uniform(0.0, 1.0, size=n)))
            result = optimize_weights(lk, box)
            oracle = best_vertex_objective(box.lower, box.upper, lk.values)
            assert result.objective == pytest.approx(oracle, abs=1e-12)

    def test_dominates_random_feasible_points(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            box = random_feasible_box(rng, n)
            lk = LikelihoodVector(tuple(rng.uniform(0.0, 1.0, size=n)))
            result = optimize_weights(lk, box)
            vertices = np.array(simplex_vertices(box.lower, box.upper))
            mix = rng.dirichlet(np.ones(len(vertices)), size=200)
            points = mix @ vertices
            objectives = points @ np.array(lk.values)
            assert objectives.max() <= result.objective + 1e-12


class TestProperties:
    def test_feasibility_and_normalization(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            box = random_feasible_box(rng, n)
            lk = LikelihoodVector(tuple(rng.uniform(0.0, 1.0, size=n)))
            result = optimize_weights(lk, box)
            assert abs(math.fsum(result.weights.values) - 1.0) <= 1e-12
            for w, lo, hi in zip(result.weights, box.lower, box.upper):
                assert lo - 1e-9 <= w <= hi + 1e-9

    def test_determinism(self):
        box = BoxConstraints((0.05, 0.05, 0.05, 0.05), (0.9, 0.9, 0.9, 0.9))
        lk = LikelihoodVector((0.3, 0.3, 0.7, 0.7))
        first = optimize_weights(lk, box)
        second = optimize_weights(lk, box)
        assert first == second

    def test_argmax_scale_invariance(self):
        # powers of two keep the scaled likelihoods exactly ordered
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            box = random_feasible_box(rng, n)
            lk = rng.uniform(0.01, 0.5, size=n)
            base = optimize_weights(LikelihoodVector(tuple(lk)), box)
            for c in (0.5, 2.0):
                scaled = optimize_weights(LikelihoodVector(tuple(c * lk)), box)
                assert scaled.weights == base.weights


class TestSensitivity:
    def test_finite_difference_check(self):
        # moving mass eps from driver j to i changes the total probability by eps * (L[i] - L[j])
        w = validate_simplex([0.5, 0.3, 0.2])
        lk = LikelihoodVector((0.8, 0.4, 0.1))
        eps = 1e-6
        shifted = validate_simplex([0.5 + eps, 0.3, 0.2 - eps])
        fd = (total_probability(shifted, lk) - total_probability(w, lk)) / eps
        assert fd == pytest.approx(lk[0] - lk[2], abs=1e-9)
        assert fd == pytest.approx(0.7, abs=1e-9)
