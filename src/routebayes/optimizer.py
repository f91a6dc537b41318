"""Maximize total probability over box-constrained driver weights.

The objective sum_i w_i * L_i is linear in the weights, so the maximum over
the feasible region (per-driver box bounds intersected with the probability
simplex) is attained at a vertex. The solver is a direct greedy fill: start
every weight at its lower bound, then pour the remaining mass into drivers in
descending likelihood order, filling each to its upper bound. Ties in
likelihood resolve toward the lower hypothesis index, which makes the result
deterministic and the optimality argument auditable without an LP solver.
Pure functions throughout; no shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bayes import SIMPLEX_TOLERANCE, LikelihoodVector, WeightVector, total_probability, validate_simplex
from .errors import EmptyVector, InfeasibleConstraints, LengthMismatch

AT_LOWER = "at_lower"
AT_UPPER = "at_upper"
INTERIOR = "interior"

#: Slack accepted on the feasibility sums so that e.g. thirds-based bounds
#: written with 16-digit floats still count as covering the simplex.
FEASIBILITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class BoxConstraints:
    """Per-driver bounds 0 <= lower <= upper <= 1 with a nonempty simplex slice."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        if len(self.lower) != len(self.upper):
            raise LengthMismatch(
                f"{len(self.lower)} lower bounds vs {len(self.upper)} upper bounds"
            )
        if not self.lower:
            raise EmptyVector("constraints need at least one hypothesis")
        for i, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if not (0.0 <= lo <= hi <= 1.0):
                raise InfeasibleConstraints(
                    f"bounds at index {i} must satisfy 0 <= {lo!r} <= {hi!r} <= 1"
                )
        if math.fsum(self.lower) > 1.0 + FEASIBILITY_TOLERANCE:
            raise InfeasibleConstraints(
                f"lower bounds sum to {math.fsum(self.lower)!r} > 1"
            )
        if math.fsum(self.upper) < 1.0 - FEASIBILITY_TOLERANCE:
            raise InfeasibleConstraints(
                f"upper bounds sum to {math.fsum(self.upper)!r} < 1"
            )

    @classmethod
    def full(cls, n: int) -> "BoxConstraints":
        """The unconstrained box [0, 1] per driver."""
        return cls((0.0,) * n, (1.0,) * n)

    def __len__(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class OptimizationResult:
    weights: WeightVector
    objective: float
    active_bounds: tuple[str, ...]


def optimize_weights(
    likelihoods: LikelihoodVector, constraints: BoxConstraints
) -> OptimizationResult:
    """Return feasible weights maximizing the total probability.

    Greedy fill in descending likelihood order (ties broken by ascending
    hypothesis index) lands on an optimal vertex of the constrained simplex;
    the objective is recomputed through :func:`total_probability` so it is
    exactly consistent with the evaluation path.
    """
    n = len(likelihoods)
    if len(constraints) != n:
        raise LengthMismatch(f"{len(constraints)} bounds vs {n} likelihoods")
    w = list(constraints.lower)
    remaining = 1.0 - math.fsum(w)
    order = sorted(range(n), key=lambda i: (-likelihoods[i], i))
    if remaining > 0.0:
        for i in order:
            room = constraints.upper[i] - w[i]
            if room <= 0.0:
                continue
            take = remaining if remaining < room else room
            w[i] += take
            remaining -= take
            if remaining <= 0.0:
                break
    if remaining > FEASIBILITY_TOLERANCE:
        raise InfeasibleConstraints(
            f"upper bounds absorb only {1.0 - remaining!r} of the unit mass"
        )
    weights = validate_simplex(w, SIMPLEX_TOLERANCE)
    objective = total_probability(weights, likelihoods)
    flags = []
    for wi, lo, hi in zip(weights.values, constraints.lower, constraints.upper):
        if abs(wi - lo) <= FEASIBILITY_TOLERANCE:
            flags.append(AT_LOWER)
        elif abs(wi - hi) <= FEASIBILITY_TOLERANCE:
            flags.append(AT_UPPER)
        else:
            flags.append(INTERIOR)
    return OptimizationResult(weights, objective, tuple(flags))

