import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routebayes.bayes import (
    DEFAULT_DRIVERS,
    Hypothesis,
    HypothesisSet,
    LikelihoodVector,
    WeightVector,
    posterior,
    total_probability,
    uniform_weights,
    validate_simplex,
)


def weight_strategy(n):
    return st.lists(
        st.floats(min_value=0.001, max_value=1.0, allow_nan=False), min_size=n, max_size=n
    ).map(lambda raw: validate_simplex([v / math.fsum(raw) for v in raw]))


def likelihood_strategy(n, min_value=0.0):
    return st.lists(
        st.floats(min_value=min_value, max_value=1.0, allow_nan=False),
        min_size=n,
        max_size=n,
    ).map(lambda vals: LikelihoodVector(tuple(vals)))


class TestValidateSimplex:
    def test_already_normalized(self):
        assert validate_simplex([0.5, 0.3, 0.2]).values == (0.5, 0.3, 0.2)

    def test_singleton(self):
        assert validate_simplex([1.0]).values == (1.0,)

    def test_sum_out_of_tolerance(self):
        with pytest.raises(ValueError, match=r"sum to 1\.1, outside 1 \+/- 1e-09"):
            validate_simplex([0.5, 0.5, 0.1])

    def test_negative_entry_reports_index(self):
        with pytest.raises(ValueError, match=r"-0\.2 at index 1 is negative"):
            validate_simplex([0.7, -0.2, 0.5])

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one entry"):
            validate_simplex([])

    def test_renormalizes_within_tolerance(self):
        w = validate_simplex([1 / 3, 1 / 3, 1 / 3])
        assert math.fsum(w.values) == pytest.approx(1.0, abs=1e-15)

    def test_order_preserved(self):
        w = validate_simplex([0.1, 0.6, 0.3])
        assert w.values[1] == max(w.values)


class TestTotalProbability:
    def test_constant_likelihood(self):
        w = validate_simplex([1 / 3, 1 / 3, 1 / 3])
        assert total_probability(w, LikelihoodVector((0.6, 0.6, 0.6))) == pytest.approx(0.6)

    def test_degenerate_prior(self):
        w = WeightVector((1.0, 0.0, 0.0))
        assert total_probability(w, LikelihoodVector((0.8, 0.4, 0.1))) == 0.8

    def test_worked_example(self):
        w = validate_simplex([0.5, 0.3, 0.2])
        total = total_probability(w, LikelihoodVector((0.8, 0.4, 0.1)))
        assert total == pytest.approx(0.54, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="1 weights vs 2 likelihoods"):
            total_probability(WeightVector((1.0,)), LikelihoodVector((0.5, 0.5)))


class TestPosterior:
    def test_uniform_in_uniform_out(self):
        w = validate_simplex([1 / 3, 1 / 3, 1 / 3])
        ev = posterior(w, LikelihoodVector((0.4, 0.4, 0.4)))
        for share in ev.posterior:
            assert share == pytest.approx(1 / 3, abs=1e-12)

    def test_worked_example(self):
        w = validate_simplex([0.5, 0.3, 0.2])
        ev = posterior(w, LikelihoodVector((0.8, 0.4, 0.1)))
        assert ev.total_probability == pytest.approx(0.54, abs=1e-12)
        assert ev.posterior[0] == pytest.approx(20 / 27, abs=1e-12)
        assert ev.posterior[1] == pytest.approx(6 / 27, abs=1e-12)
        assert ev.posterior[2] == pytest.approx(1 / 27, abs=1e-12)

    def test_zero_evidence(self):
        with pytest.raises(ValueError, match="total probability is zero"):
            posterior(WeightVector((0.5, 0.5)), LikelihoodVector((0.0, 0.0)))

    def test_total_is_ordered_sum_of_contributions(self):
        w = validate_simplex([0.23, 0.31, 0.29, 0.17])
        ev = posterior(w, LikelihoodVector((0.9, 0.2, 0.7, 0.05)))
        total = 0.0
        for c in ev.contributions:
            total += c
        assert ev.total_probability == total


class TestEvaluate:
    """Partitions other than the default three drivers."""

    def test_five_hypothesis_uniform(self):
        ev = posterior(uniform_weights(5), LikelihoodVector((0.1, 0.2, 0.3, 0.4, 0.5)))
        assert ev.total_probability == pytest.approx(0.3, abs=1e-12)
        assert ev.posterior[4] == pytest.approx(1 / 3, abs=1e-12)

    def test_singleton_partition(self):
        ev = posterior(WeightVector((1.0,)), LikelihoodVector((0.7,)))
        assert ev.total_probability == 0.7
        assert ev.posterior.values == (1.0,)


class TestHypothesisSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            HypothesisSet((Hypothesis("a"), Hypothesis("a")))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="needs at least one hypothesis"):
            HypothesisSet(())

    def test_default_scheme(self):
        assert DEFAULT_DRIVERS.ids == ("customer_service", "unavailable_capital", "costs")


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(weight_strategy(n), likelihood_strategy(n))))
def test_bounds_property(pair):
    w, lk = pair
    total = total_probability(w, lk)
    assert min(lk.values) - 1e-12 <= total <= max(lk.values) + 1e-12


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(weight_strategy(n), likelihood_strategy(n, min_value=0.01))
    )
)
def test_normalization_property(pair):
    w, lk = pair
    ev = posterior(w, lk)
    assert abs(math.fsum(ev.posterior.values) - 1.0) <= 1e-12


@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(weight_strategy(n), likelihood_strategy(n, min_value=0.01))
    ),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_scale_invariance_property(pair, c):
    w, lk = pair
    base = posterior(w, lk)
    scaled = posterior(w, LikelihoodVector(tuple(c * v for v in lk.values)))
    assert scaled.total_probability == pytest.approx(c * base.total_probability, rel=1e-12)
    for a, b in zip(base.posterior, scaled.posterior):
        assert a == pytest.approx(b, abs=1e-12)


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(weight_strategy(n), likelihood_strategy(n, min_value=0.01))
    ),
    st.data(),
)
def test_zero_likelihood_absorption(pair, data):
    w, lk = pair
    i = data.draw(st.integers(0, len(lk) - 1))
    values = list(lk.values)
    values[i] = 0.0
    if math.fsum(x * y for x, y in zip(w.values, values)) == 0.0:
        return
    ev = posterior(w, LikelihoodVector(tuple(values)))
    assert ev.posterior[i] == 0.0


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(weight_strategy(n), likelihood_strategy(n))
    ),
    st.data(),
)
def test_monotonicity_property(pair, data):
    w, lk = pair
    i = data.draw(st.integers(0, len(lk) - 1))
    bump = data.draw(st.floats(min_value=0.01, max_value=1.0))
    values = list(lk.values)
    values[i] = min(1.0, values[i] + bump)
    before = total_probability(w, lk)
    after = total_probability(w, LikelihoodVector(tuple(values)))
    assert after >= before - 1e-15
    if w[i] > 0 and values[i] > lk[i]:
        assert after > before - 1e-15


@settings(max_examples=200)
@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(weight_strategy(n), likelihood_strategy(n, min_value=0.01))
    )
)
def test_proportionality_oracle(pair):
    w, lk = pair
    ev = posterior(w, lk)
    for i in range(len(w)):
        for j in range(len(w)):
            ci = w[i] * lk[i]
            cj = w[j] * lk[j]
            if ci > 0 and cj > 0:
                assert ev.posterior[i] / ev.posterior[j] == pytest.approx(ci / cj, rel=1e-9)
