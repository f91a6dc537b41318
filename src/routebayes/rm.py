"""Single-leg revenue management: two fare classes, protection, overbooking.

Booking protocol: low-fare requests arrive first and are accepted up to the
booking limit minus the protection level; high-fare requests then fill the
rest of the booking limit. Accepted passengers show up independently with
``show_up_prob``; fares are collected from the passengers who show, and every
survivor beyond physical capacity costs a flat denied-boarding amount.

Expectations are exact sums over the truncated demand distributions. A
Poisson pmf is built from ``exp(k log(mean) - mean - lgamma(k + 1))`` and cut
at the smallest support whose tail mass is below 1e-9. Each leg sweeps its
binomial show-up tails once, forward to 3 x capacity bookings (the bound on
any booking limit), keeping the point mass as mantissa and binary exponent so
it cannot underflow; the overbooking limit and the denied boardings read that
one table. Expected revenue is one ``fsum`` over a = min(D_low, B - P), the
accepted low fares under booking limit B and protection P. The Monte Carlo
path uses numpy's PCG64 generator seeded explicitly; draw order per trial is
low demand, high demand, low show-ups, high show-ups, so identical inputs and
seed reproduce summaries bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidPolicy

TAIL_MASS = 1e-9
OVERBOOKING_SEARCH_FACTOR = 3
#: Largest work a leg may ask for: the Poisson support built before truncation,
#: the one show-up sweep over 3 x capacity bookings (the bound on any booking
#: limit), and |D_low| x |D_high|, which bounds the multiply-adds of
#: expected_revenue's denied-boarding correlation, each stay within this many cells.
MAX_RM_CELLS = 10**6
#: Most Monte Carlo trials per leg: simulate_leg holds about 13 arrays of 8
#: bytes per trial at once, about 105 MB at this bound.
MAX_TRIALS = 10**6


def _tails(pmf) -> np.ndarray:
    """P(D > y) for y = 0..len(pmf) - 1, summed from the top of the support."""
    return np.append(np.cumsum(pmf[:0:-1])[::-1], 0.0)


@dataclass(frozen=True)
class DemandModel:
    """Truncated demand distribution on {0, 1, ..., truncation}."""

    pmf: tuple[float, ...]

    @classmethod
    def poisson(cls, mean: float) -> "DemandModel":
        """Poisson demand truncated where the tail mass drops below 1e-9."""
        if mean < 0:
            raise ValueError(f"poisson mean must be >= 0, got {mean!r}")
        if mean == 0:
            return cls((1.0,))
        # the mass beyond 40 standard deviations is far below double precision
        size = int(mean + 40 * math.sqrt(mean)) + 61
        if size > MAX_RM_CELLS:
            raise ValueError(f"poisson mean {mean!r} needs {size} support points, over the limit of {MAX_RM_CELLS}")
        k = np.arange(size)
        pmf = np.exp(k * math.log(mean) - np.fromiter(map(math.lgamma, k + 1.0), float) - mean)
        t = int(np.argmax(_tails(pmf) < TAIL_MASS))
        return cls(tuple(pmf[: t + 1].tolist()))

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
        return cls(values)

    @classmethod
    def deterministic(cls, value: int) -> "DemandModel":
        """Point mass at ``value``."""
        if value < 0:
            raise ValueError(f"demand must be >= 0, got {value!r}")
        return cls.discrete([0.0] * value + [1.0])

    @property
    def truncation(self) -> int:
        return len(self.pmf) - 1


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
        if OVERBOOKING_SEARCH_FACTOR * self.capacity > MAX_RM_CELLS:
            raise ValueError(
                f"capacity {self.capacity} needs an overbooking sweep of "
                f"{OVERBOOKING_SEARCH_FACTOR * self.capacity} bookings, over the limit of {MAX_RM_CELLS}"
            )
        cells = len(self.demand_low.pmf) * len(self.demand_high.pmf)
        if cells > MAX_RM_CELLS:
            raise ValueError(f"the denied-boarding sum takes {cells} products, over the limit of {MAX_RM_CELLS}")

    @cached_property
    def _show_ups(self) -> tuple[np.ndarray, np.ndarray]:
        """The leg's one show-up sweep, out to the 3 x capacity booking bound."""
        return _show_up_sweep(self.capacity, self.show_up_prob, OVERBOOKING_SEARCH_FACTOR * self.capacity)


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
    bound = OVERBOOKING_SEARCH_FACTOR * problem.capacity
    if not (0 <= policy.protection_level <= problem.capacity <= policy.booking_limit <= bound):
        raise InvalidPolicy(
            f"need 0 <= protection ({policy.protection_level}) <= capacity "
            f"({problem.capacity}) <= booking_limit ({policy.booking_limit}) <= {bound}"
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
    """Exact expected revenue of the policy, one term per accepted low-fare count a.

    With r = B - a seats left, the high fare books E[min(D_high, r)], a prefix
    sum of its tails; denied boardings are sum_k p_high(k) over[a + min(k, r)],
    a correlation over a + k < B plus over[B] P(D_high >= r). Low fares weigh
    on the truncated high-fare mass, as on the full demand grid.
    """
    _check_policy(problem, policy)
    booking, low_cap = policy.booking_limit, policy.booking_limit - policy.protection_level
    _, over = problem._show_ups
    low, high = np.asarray(problem.demand_low.pmf), np.asarray(problem.demand_high.pmf)
    # P(a): the pmf below B - P, and the whole low-fare tail at a = B - P
    weight = np.append(low[:low_cap], math.fsum(low[low_cap:].tolist()))[: low.size]
    accepted = np.arange(weight.size)
    rest = np.minimum(booking - accepted, high.size)
    tails = _tails(high)
    at_least = np.append(tails[0] + high[0], tails)
    band = np.zeros(weight.size + high.size - 1)
    band[: min(booking, band.size)] = over[: min(booking, band.size)]
    denied = np.correlate(band, high, "valid") + over[booking] * at_least[rest]
    shows_high = np.append(0.0, np.cumsum(tails))[rest]
    fares = problem.show_up_prob * (accepted * problem.fare_low * at_least[0] + shows_high * problem.fare_high)
    return math.fsum((weight * (fares - problem.denied_cost * denied)).tolist())


def overbooking_limit(problem: LegRMProblem) -> int:
    """Largest booking limit whose marginal booking still pays.

    The marginal condition is fare_low - denied_cost * P(survivors of the
    previous bookings >= capacity) > 0, with survivors binomial in the
    show-up probability. The limit is the first booking count from capacity
    on whose next booking fails it, or 3x capacity if none does.
    """
    full, _ = problem._show_ups
    pays = problem.fare_low - problem.denied_cost * full[problem.capacity : -1] > 0.0
    return problem.capacity + int(np.argmin(np.append(pays, False)))


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
    show_low = rng.binomial(acc_low, problem.show_up_prob)
    show_high = rng.binomial(acc_high, problem.show_up_prob)
    survivors = show_low + show_high
    boarded = np.minimum(survivors, problem.capacity)
    denied = survivors - boarded
    revenue = problem.fare_low * show_low + problem.fare_high * show_high - problem.denied_cost * denied
    spill = (d_low - acc_low) + (d_high - acc_high)
    requests = d_low + d_high
    total_survivors = int(survivors.sum())
    total_requests = int(requests.sum())
    se = float(revenue.std(ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
    return LegSimulationSummary(
        trials=trials,
        mean_revenue=float(revenue.mean()),
        mean_load_factor=float((boarded / problem.capacity).mean()),
        denied_rate=float(denied.sum()) / total_survivors if total_survivors else 0.0,
        spill_rate=float(spill.sum()) / total_requests if total_requests else 0.0,
        mean_revenue_se=se,
    )
