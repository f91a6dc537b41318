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

from .errors import (
    EmptyVector,
    LengthMismatch,
    NegativeEntry,
    SumOutOfTolerance,
    ZeroEvidence,
)

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
            raise EmptyVector("a hypothesis set needs at least one hypothesis")
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
        raise EmptyVector("vector must have at least one entry")
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise ValueError(f"entry at index {i} is not finite: {v!r}")
        if v < 0:
            raise NegativeEntry(i, v)


@dataclass(frozen=True)
class WeightVector:
    """Prior driver weights: entries in [0, 1], summing to 1 within tolerance.

    Build via :func:`validate_simplex` to get exact renormalization of inputs
    that carry serialization round-off.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _check_entries(self.values)
        for i, v in enumerate(self.values):
            if v > 1:
                raise ValueError(f"weight {v!r} at index {i} exceeds 1")
        total = math.fsum(self.values)
        if abs(total - 1.0) > SIMPLEX_TOLERANCE:
            raise SumOutOfTolerance(total, SIMPLEX_TOLERANCE)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


@dataclass(frozen=True)
class LikelihoodVector:
    """Conditional outcome probabilities per driver; no sum constraint."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _check_entries(self.values)
        for i, v in enumerate(self.values):
            if v > 1:
                raise ValueError(f"likelihood {v!r} at index {i} exceeds 1")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


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


def validate_simplex(raw: Sequence[float], tolerance: float = SIMPLEX_TOLERANCE) -> WeightVector:
    """Check a nonnegative vector sums to 1 within ``tolerance`` and renormalize.

    Renormalization divides by the actual sum, so the accepted vector sums to
    one exactly up to float rounding and drift does not accumulate across
    load/store cycles. Order is preserved.

    Raises EmptyVector, NegativeEntry (with index), or SumOutOfTolerance
    (reporting the offending sum).
    """
    values = tuple(float(v) for v in raw)
    _check_entries(values)
    total = math.fsum(values)
    if abs(total - 1.0) > tolerance:
        raise SumOutOfTolerance(total, tolerance)
    return WeightVector(tuple(v / total for v in values))


def uniform_weights(n: int) -> WeightVector:
    """Uniform prior over ``n`` drivers."""
    if n < 1:
        raise EmptyVector("need at least one hypothesis")
    return validate_simplex([1.0 / n] * n)


def _check_lengths(weights: WeightVector, likelihoods: LikelihoodVector) -> None:
    if len(weights) != len(likelihoods):
        raise LengthMismatch(
            f"{len(weights)} weights vs {len(likelihoods)} likelihoods"
        )


def total_probability(weights: WeightVector, likelihoods: LikelihoodVector) -> float:
    """Total probability of the outcome: sum of weight * likelihood per driver.

    Summed left to right in hypothesis order; the result always lies between
    the smallest and largest likelihood.
    """
    _check_lengths(weights, likelihoods)
    total = 0.0
    for w, lk in zip(weights.values, likelihoods.values):
        total += w * lk
    return total


def posterior(weights: WeightVector, likelihoods: LikelihoodVector) -> Evaluation:
    """Attribute the outcome to each driver by Bayes' rule.

    contributions[i] = weights[i] * likelihoods[i]; the posterior divides each
    contribution by their sum. A zero total is an error (the attribution is
    undefined there), never a silent uniform fallback.
    """
    _check_lengths(weights, likelihoods)
    contributions = tuple(w * lk for w, lk in zip(weights.values, likelihoods.values))
    total = 0.0
    for c in contributions:
        total += c
    if total == 0.0:
        raise ZeroEvidence("total probability is zero; posterior is undefined")
    post = WeightVector(tuple(c / total for c in contributions))
    return Evaluation(total, contributions, post)
