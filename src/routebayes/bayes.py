"""Probability core: total probability over a driver partition, posterior attribution.

An outcome (a route turning a profit) is explained by a finite set of
profitability drivers, modeled as hypotheses that are pairwise disjoint and
jointly cover the sample space. Given prior weights on the drivers and the
conditional probability of the outcome under each driver, the total
probability of the outcome is the weighted sum over drivers, and each
driver's share of an observed outcome follows by Bayes' rule.

Disjointness and exhaustiveness are modeling assumptions; the only
machine-checkable part is id uniqueness. All reductions run left to right in
hypothesis order, so results are reproducible bit for bit across runs. Every
operation is a pure function over immutable values, safe to share between
concurrent tasks.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

#: Accepted drift of an input simplex away from sum 1 (serialization round-off).
SIMPLEX_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Hypothesis:
    """One profitability driver in the partition."""

    id: str
    label: str = ""
    description: str = ""

    def __post_init__(self):
        if not self.id:
            raise ValueError("hypothesis id must be nonempty")


@dataclass(frozen=True)
class HypothesisSet:
    """Ordered partition of drivers; ids must be unique, n >= 1."""

    hypotheses: tuple[Hypothesis, ...]

    def __post_init__(self):
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        if not self.hypotheses:
            raise ValueError("a hypothesis set needs at least one hypothesis")
        ids = [h.id for h in self.hypotheses]
        if len(set(ids)) != len(ids):
            raise ValueError(f"hypothesis ids must be unique, got {ids}")

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(h.id for h in self.hypotheses)

    def __len__(self) -> int:
        return len(self.hypotheses)

    def __iter__(self):
        return iter(self.hypotheses)


#: Canonical three-driver scheme for airline profitability.
DEFAULT_DRIVERS = HypothesisSet(
    (
        Hypothesis(
            "customer_service",
            "Customer service",
            "Quality of the passenger experience offered on the route.",
        ),
        Hypothesis(
            "unavailable_capital",
            "Unavailable capital",
            "Capital tied up in operating the route.",
        ),
        Hypothesis(
            "costs",
            "Costs",
            "Operating cost position of the route.",
        ),
    )
)


def _check_entries(values: tuple[float, ...]) -> None:
    if not values:
        raise ValueError("vector must have at least one entry")
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise ValueError(f"entry at index {i} is not finite: {v!r}")
        if v < 0:
            raise ValueError(f"entry {v!r} at index {i} is negative")


def _checked_sum(values: tuple[float, ...]) -> float:
    total = math.fsum(values)
    if abs(total - 1.0) > SIMPLEX_TOLERANCE:
        raise ValueError(f"entries sum to {total!r}, outside 1 +/- {SIMPLEX_TOLERANCE!r}")
    return total


@dataclass(frozen=True)
class _UnitVector:
    """Finite entries in [0, 1], at least one; ``noun`` names an entry in errors."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _check_entries(self.values)
        for i, v in enumerate(self.values):
            if v > 1:
                raise ValueError(f"{self.noun} {v!r} at index {i} exceeds 1")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


@dataclass(frozen=True)
class WeightVector(_UnitVector):
    """Prior driver weights: entries in [0, 1], summing to 1 within tolerance.

    Build via :func:`validate_simplex` to get exact renormalization of inputs
    that carry serialization round-off.
    """

    noun = "weight"

    def __post_init__(self):
        super().__post_init__()
        _checked_sum(self.values)


@dataclass(frozen=True)
class LikelihoodVector(_UnitVector):
    """Conditional outcome probabilities per driver; no sum constraint."""

    noun = "likelihood"


@dataclass(frozen=True)
class Evaluation:
    """Result of one total-probability evaluation.

    ``total_probability`` is the left-to-right sum of ``contributions``
    (weight times likelihood, per driver), and ``posterior`` holds each
    driver's attributed share of the outcome.
    """

    total_probability: float
    contributions: tuple[float, ...]
    posterior: WeightVector


def validate_simplex(raw: Sequence[float]) -> WeightVector:
    """Check a nonnegative vector sums to 1 within SIMPLEX_TOLERANCE and renormalize.

    Renormalization divides by the actual sum, so the accepted vector sums to
    one exactly up to float rounding and drift does not accumulate across
    load/store cycles. Order is preserved.

    Raises ValueError naming the rule broken: an empty vector, a non-finite
    or negative entry (with its index), or the offending sum.
    """
    values = tuple(float(v) for v in raw)
    _check_entries(values)
    total = _checked_sum(values)
    return WeightVector(tuple(v / total for v in values))


def uniform_weights(n: int) -> WeightVector:
    """Uniform prior over ``n`` drivers."""
    if n < 1:
        raise ValueError("need at least one hypothesis")
    return validate_simplex([1.0 / n] * n)


def _check_lengths(weights: WeightVector, likelihoods: LikelihoodVector) -> None:
    if len(weights) != len(likelihoods):
        raise ValueError(f"{len(weights)} weights vs {len(likelihoods)} likelihoods")


def weighted(weights, likelihoods) -> list:
    """The contributions ``weights[i] * likelihoods[i]``; entries may be floats or numpy arrays."""
    return [w * lk for w, lk in zip(weights, likelihoods)]


def left_sum(values):
    """``((0.0 + values[0]) + values[1]) + ...``, the one order every total is summed in."""
    total = 0.0
    for v in values:
        total = total + v
    return total


def total_probability(weights: WeightVector, likelihoods: LikelihoodVector) -> float:
    """Total probability of the outcome: sum of weight * likelihood per driver.

    Summed left to right in hypothesis order; the result always lies between
    the smallest and largest likelihood.
    """
    _check_lengths(weights, likelihoods)
    return left_sum(weighted(weights.values, likelihoods.values))


def posterior(weights: WeightVector, likelihoods: LikelihoodVector) -> Evaluation:
    """Attribute the outcome to each driver by Bayes' rule.

    contributions[i] = weights[i] * likelihoods[i]; the posterior divides each
    contribution by their sum. A zero total is an error (the attribution is
    undefined there), never a silent uniform fallback.
    """
    _check_lengths(weights, likelihoods)
    contributions = tuple(weighted(weights.values, likelihoods.values))
    total = left_sum(contributions)
    if total == 0.0:
        raise ValueError("total probability is zero; posterior is undefined")
    post = WeightVector(tuple(c / total for c in contributions))
    return Evaluation(total, contributions, post)
