"""Single-leg revenue management: two fare classes, protection, overbooking.

Booking protocol: low-fare requests arrive first and are accepted up to the
booking limit minus the protection level; high-fare requests then fill the
rest of the booking limit. Accepted passengers show up independently with
``show_up_prob``; fares are collected from the passengers who show, and every
survivor beyond physical capacity costs a flat denied-boarding amount.

Expectations are exact sums over the truncated demand distributions. A
Poisson pmf is built from ``exp(k log(mean) - mean - lgamma(k + 1))`` and cut
at the smallest support whose tail mass is below 1e-9. The binomial show-up
tails for the overbooking limit and the expected denied boardings come from
one forward sweep over the number of bookings, with the point mass kept as
mantissa and binary exponent so it cannot underflow. The Monte Carlo path
uses numpy's PCG64 generator seeded explicitly; draw order per trial is low
demand, high demand, low show-ups, high show-ups, so identical inputs and
seed reproduce summaries bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPolicy

logger = logging.getLogger(__name__)

TAIL_MASS = 1e-9
OVERBOOKING_SEARCH_FACTOR = 3


def _tails(pmf) -> np.ndarray:
    """P(D > y) for y = 0..len(pmf) - 1, summed from the top of the support."""
    return np.append(np.cumsum(pmf[:0:-1])[::-1], 0.0)


@dataclass(frozen=True)
class DemandModel:
    """Truncated demand distribution on {0, 1, ..., truncation}."""

    kind: str
    pmf: tuple[float, ...]
    mean_param: float | None = None

    @classmethod
    def poisson(cls, mean: float) -> "DemandModel":
        """Poisson demand truncated where the tail mass drops below 1e-9."""
        if mean < 0:
            raise ValueError(f"poisson mean must be >= 0, got {mean!r}")
        if mean == 0:
            return cls("poisson", (1.0,), 0.0)
        # the mass beyond 40 standard deviations is far below double precision
        k = np.arange(int(mean + 40 * math.sqrt(mean)) + 61)
        pmf = np.exp(k * math.log(mean) - np.fromiter(map(math.lgamma, k + 1.0), float) - mean)
        t = int(np.argmax(_tails(pmf) < TAIL_MASS))
        return cls("poisson", tuple(pmf[: t + 1].tolist()), float(mean))

    @classmethod
    def discrete(cls, pmf: list[float]) -> "DemandModel":
        """Explicit pmf over {0..len-1}; must sum to 1 within 1e-9."""
        values = tuple(float(p) for p in pmf)
        if not values:
            raise ValueError("pmf must be nonempty")
        for i, p in enumerate(values):
            if not math.isfinite(p) or p < 0:
                raise ValueError(f"pmf[{i}] must be a finite nonnegative number, got {p!r}")
        total = math.fsum(values)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"pmf sums to {total!r}, outside 1 +/- 1e-9")
        return cls("discrete", values)

    @classmethod
    def deterministic(cls, value: int) -> "DemandModel":
        """Point mass at ``value``."""
        if value < 0:
            raise ValueError(f"demand must be >= 0, got {value!r}")
        return cls.discrete([0.0] * value + [1.0])

    @property
    def truncation(self) -> int:
        return len(self.pmf) - 1

    def survival(self, y: int) -> float:
        """P(D > y) on the truncated support."""
        if y >= self.truncation:
            return 0.0
        return math.fsum(self.pmf[max(y, -1) + 1 :])

    def mean(self) -> float:
        return math.fsum(k * p for k, p in enumerate(self.pmf))


@dataclass(frozen=True)
class LegRMProblem:
    """One flight leg with two fare classes and no-show behavior."""

    capacity: int
    fare_high: float
    fare_low: float
    demand_high: DemandModel
    demand_low: DemandModel
    show_up_prob: float = 1.0
    denied_cost: float = 0.0

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity!r}")
        if not (0.0 < self.fare_low <= self.fare_high):
            raise ValueError(
                f"fares must satisfy 0 < fare_low <= fare_high, got "
                f"low={self.fare_low!r} high={self.fare_high!r}"
            )
        if not (0.0 < self.show_up_prob <= 1.0):
            raise ValueError(f"show_up_prob must be in (0, 1], got {self.show_up_prob!r}")
        if self.denied_cost < 0:
            raise ValueError(f"denied_cost must be >= 0, got {self.denied_cost!r}")


@dataclass(frozen=True)
class RMPolicy:
    """Seats protected for the high fare plus the total booking authorization."""

    protection_level: int
    booking_limit: int

    def __post_init__(self):
        if self.protection_level < 0:
            raise InvalidPolicy(f"protection_level must be >= 0, got {self.protection_level!r}")
        if self.booking_limit < 0:
            raise InvalidPolicy(f"booking_limit must be >= 0, got {self.booking_limit!r}")


def _check_policy(problem: LegRMProblem, policy: RMPolicy) -> None:
    if not (0 <= policy.protection_level <= problem.capacity <= policy.booking_limit):
        raise InvalidPolicy(
            f"need 0 <= protection ({policy.protection_level}) <= capacity "
            f"({problem.capacity}) <= booking_limit ({policy.booking_limit})"
        )


def littlewood_protection(problem: LegRMProblem) -> int:
    """Smallest protection level y with P(high demand > y) <= fare_low / fare_high.

    Evaluated on the truncated high-fare demand, so a level always exists. A
    level above capacity is clamped to it: no policy protects more seats than
    the cabin has.
    """
    tails = _tails(problem.demand_high.pmf)
    return min(int(np.argmax(tails <= problem.fare_low / problem.fare_high)), problem.capacity)


def _show_up_sweep(capacity: int, p: float, max_booked: int) -> tuple[np.ndarray, np.ndarray]:
    """P(S_m >= capacity) and E[max(0, S_m - capacity)] for S_m ~ Bin(m, p), m <= max_booked.

    A booking adds a survivor with probability p, so full[m+1] = full[m] +
    p * P(S_m = capacity - 1) and over[m+1] = over[m] + p * full[m]. The point
    mass is carried as a mantissa and a binary exponent because its start,
    p**(capacity - 1), underflows at large capacities and low show-up rates.
    """
    full = np.zeros(max_booked + 1)
    mantissa, exponent = 1.0, 0
    for _ in range(capacity - 1):
        mantissa, shift = math.frexp(mantissa * p)
        exponent += shift
    for m in range(capacity - 1, max_booked):
        full[m + 1] = full[m] + p * math.ldexp(mantissa, exponent)
        mantissa, shift = math.frexp(mantissa * (m + 1) / (m + 2 - capacity) * (1.0 - p))
        exponent += shift
    return full, np.append(0.0, np.cumsum(p * full[:-1]))


def expected_revenue(problem: LegRMProblem, policy: RMPolicy) -> float:
    """Exact expected revenue of the policy under the booking protocol."""
    _check_policy(problem, policy)
    _, over = _show_up_sweep(problem.capacity, problem.show_up_prob, policy.booking_limit)
    w_low = np.asarray(problem.demand_low.pmf)[:, None]
    w_high = np.asarray(problem.demand_high.pmf)[None, :]
    acc_low = np.minimum(np.arange(w_low.size), policy.booking_limit - policy.protection_level)[:, None]
    acc_high = np.minimum(np.arange(w_high.size)[None, :], policy.booking_limit - acc_low)
    fares = problem.show_up_prob * (acc_low * problem.fare_low + acc_high * problem.fare_high)
    penalty = problem.denied_cost * over[acc_low + acc_high]
    return math.fsum((w_low * w_high * (fares - penalty)).ravel().tolist())


def overbooking_limit(problem: LegRMProblem) -> int:
    """Largest booking limit whose marginal booking still pays.

    The marginal condition is fare_low - denied_cost * P(survivors of the
    previous bookings >= capacity) > 0, with survivors binomial in the
    show-up probability. The search stops at 3x capacity; hitting that cap is
    logged since it means overbooking incentives never turned negative.
    """
    bound = OVERBOOKING_SEARCH_FACTOR * problem.capacity
    full, _ = _show_up_sweep(problem.capacity, problem.show_up_prob, bound - 1)
    limit = problem.capacity
    while limit < bound and problem.fare_low - problem.denied_cost * full[limit] > 0.0:
        limit += 1
    if limit == bound:
        logger.info("overbooking search hit the %dx capacity bound", OVERBOOKING_SEARCH_FACTOR)
    return limit


def fcfs_baseline(problem: LegRMProblem) -> float:
    """Expected revenue with no protection and no overbooking."""
    return expected_revenue(problem, RMPolicy(0, problem.capacity))


@dataclass(frozen=True)
class LegSimulationSummary:
    trials: int
    mean_revenue: float
    mean_load_factor: float
    denied_rate: float
    spill_rate: float
    mean_revenue_se: float


def _sample_demand(model: DemandModel, uniforms: np.ndarray) -> np.ndarray:
    cum = np.cumsum(np.asarray(model.pmf))
    draws = np.searchsorted(cum, uniforms, side="right")
    return np.minimum(draws, model.truncation).astype(np.int64)


def simulate_leg(
    problem: LegRMProblem, policy: RMPolicy, trials: int, seed: int
) -> LegSimulationSummary:
    """Seeded Monte Carlo of the booking protocol.

    Uses numpy's PCG64 stream (``numpy.random.default_rng(seed)``); per trial
    the draws are low demand, high demand, then binomial show-ups per class.
    denied_rate is denied passengers over all survivors, spill_rate is
    rejected requests over all requests (0 when the denominator is 0).
    """
    _check_policy(problem, policy)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    d_low = _sample_demand(problem.demand_low, rng.random(trials))
    d_high = _sample_demand(problem.demand_high, rng.random(trials))
    acc_low = np.minimum(d_low, policy.booking_limit - policy.protection_level)
    acc_high = np.minimum(d_high, policy.booking_limit - acc_low)
    if problem.show_up_prob == 1.0:
        show_low, show_high = acc_low, acc_high
    else:
        show_low = rng.binomial(acc_low, problem.show_up_prob)
        show_high = rng.binomial(acc_high, problem.show_up_prob)
    survivors = show_low + show_high
    boarded = np.minimum(survivors, problem.capacity)
    denied = survivors - boarded
    revenue = (
        problem.fare_low * show_low
        + problem.fare_high * show_high
        - problem.denied_cost * denied
    )
    spill = (d_low - acc_low) + (d_high - acc_high)
    requests = d_low + d_high
    total_survivors = int(survivors.sum())
    total_requests = int(requests.sum())
    if trials > 1:
        se = float(revenue.std(ddof=1)) / math.sqrt(trials)
    else:
        se = 0.0
    return LegSimulationSummary(
        trials=trials,
        mean_revenue=float(revenue.mean()),
        mean_load_factor=float((boarded / problem.capacity).mean()),
        denied_rate=float(denied.sum()) / total_survivors if total_survivors else 0.0,
        spill_rate=float(spill.sum()) / total_requests if total_requests else 0.0,
        mean_revenue_se=se,
    )
