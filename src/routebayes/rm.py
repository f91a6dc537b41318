"""Single-leg revenue management: two fare classes, protection, overbooking.

Booking protocol: low-fare requests arrive first and are accepted up to the booking limit minus the protection
level; high-fare requests then fill the rest of the booking limit. Accepted passengers show up independently with
``show_up_prob``; fares are collected from the passengers who show, and every survivor beyond physical capacity
costs a flat denied-boarding amount.

Expectations are exact sums over the truncated demand distributions. A Poisson pmf is ``exp(k log(mean) - mean -
lgamma(k + 1))``, with lgamma taken for that model alone and nothing kept between models, cut at the smallest
support whose tail mass is below 1e-9. Each leg keeps one sweep of its binomial show-up tails, to the first booking
that no longer pays (the overbooking limit, at most 3 x capacity; a call past it sweeps to 3 x capacity alone), with
the point mass as mantissa and binary exponent so it cannot underflow. Expected revenue is one ``fsum``, largest
term first, over a = min(D_low, B - P), the accepted low fares under booking limit B and protection P. The Monte
Carlo path uses numpy's PCG64 generator seeded explicitly. A demand draw is the inverse CDF, found by an indexed
(guide-table) search that returns exactly the binary-search index. The show-up draws are numpy's own binomial
inversion, evaluated a block of trials at a time by a guide table and certified, with ``rng.binomial`` drawing any
block that fails. Draw order per trial is low demand, high demand, low show-ups, high show-ups, so identical inputs
and seed reproduce summaries bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat

import numpy as np

TAIL_MASS = 1e-9
OVERBOOKING_SEARCH_FACTOR = 3
#: Largest work a leg may ask for: the Poisson support built before truncation
#: (and so its lgamma values), the show-up sweep's 3 x capacity bound on
#: any booking limit, and |D_low| x |D_high|, which bounds the multiply-adds of
#: expected_revenue's denied-boarding correlation, each stay within this many cells.
MAX_RM_CELLS = 10**6
#: Most Monte Carlo trials per leg: simulate_leg peaks at about 6 arrays of 8 bytes per trial, 46 MiB here.
MAX_TRIALS = 10**6
#: Trials per block of _binomial's show-up draws (each of a block's arrays 128 KiB), and its certificate's margin.
_BLOCK, _MARGIN = 1 << 14, 2.0**-40


def _tails(pmf) -> np.ndarray:
    """P(D > y) for y = 0..len(pmf) - 1, summed from the top of the support."""
    return np.append(np.cumsum(pmf[:0:-1])[::-1], 0.0)


@dataclass(frozen=True, eq=False)
class DemandModel:
    """Truncated demand on {0, 1, ..., truncation}: its own read-only float64 pmf, compared by value, unhashable."""

    pmf: np.ndarray

    def __post_init__(self):
        pmf = np.array(self.pmf, float)  # a copy, never a caller's view
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)

    def __eq__(self, other):
        return np.array_equal(self.pmf, other.pmf) if isinstance(other, DemandModel) else NotImplemented

    @classmethod
    def poisson(cls, mean: float) -> "DemandModel":
        """Poisson demand truncated where the tail mass drops below 1e-9."""
        if not mean >= 0:
            raise ValueError(f"poisson mean must be >= 0, got {mean!r}")
        if mean == 0:
            return cls([1.0])
        # the mass beyond 40 standard deviations is far below double precision
        size = int(mean + 40 * math.sqrt(mean)) + 61
        if size > MAX_RM_CELLS:
            raise ValueError(f"poisson mean {mean!r} needs {size} support points, over the limit of {MAX_RM_CELLS}")
        log_factorials = map(math.lgamma, count(1.0))  # lgamma(k + 1), an array only inside the sum
        pmf = np.exp(np.arange(size) * math.log(mean) - np.fromiter(log_factorials, float, size) - mean)
        return cls(pmf[: int(np.argmax(_tails(pmf) < TAIL_MASS)) + 1])

    @classmethod
    def discrete(cls, pmf: list[float]) -> "DemandModel":
        """Explicit pmf over {0..len-1}; must sum to 1 within 1e-9."""
        model = cls(pmf)
        if bad := np.flatnonzero(~(np.isfinite(model.pmf) & (model.pmf >= 0))).tolist():
            raise ValueError(f"pmf[{bad[0]}] must be a finite nonnegative number, got {model.pmf[bad[0]].item()!r}")
        total = math.fsum(model.pmf)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"pmf sums to {total!r}, outside 1 +/- 1e-9")
        return model

    @classmethod
    def deterministic(cls, value: int) -> "DemandModel":
        """Point mass at ``value``."""
        if value < 0:
            raise ValueError(f"demand must be >= 0, got {value!r}")
        if value + 1 > MAX_RM_CELLS:
            raise ValueError(f"demand {value!r} needs {value + 1} support points, over the limit of {MAX_RM_CELLS}")
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
        if not self.denied_cost >= 0:
            raise ValueError(f"denied_cost must be >= 0, got {self.denied_cost!r}")
        if OVERBOOKING_SEARCH_FACTOR * self.capacity > MAX_RM_CELLS:
            raise ValueError(
                f"capacity {self.capacity} needs an overbooking sweep of "
                f"{OVERBOOKING_SEARCH_FACTOR * self.capacity} bookings, over the limit of {MAX_RM_CELLS}"
            )
        cells = self.demand_low.pmf.size * self.demand_high.pmf.size
        if cells > MAX_RM_CELLS:
            raise ValueError(f"the denied-boarding sum takes {cells} products, over the limit of {MAX_RM_CELLS}")

    @cached_property
    def _show_ups(self) -> tuple[np.ndarray, np.ndarray]:
        """The leg's one show-up sweep, out to the first booking that no longer pays: the overbooking limit."""
        bound = OVERBOOKING_SEARCH_FACTOR * self.capacity
        return _show_up_sweep(self.capacity, self.show_up_prob, bound, self.fare_low, self.denied_cost)


@dataclass(frozen=True)
class RMPolicy:
    """Seats protected for the high fare plus the total booking authorization."""

    protection_level: int
    booking_limit: int

    def __post_init__(self):
        if self.protection_level < 0:
            raise ValueError(f"protection_level must be >= 0, got {self.protection_level!r}")
        if self.booking_limit < 0:
            raise ValueError(f"booking_limit must be >= 0, got {self.booking_limit!r}")


def _check_policy(problem: LegRMProblem, policy: RMPolicy) -> None:
    bound = OVERBOOKING_SEARCH_FACTOR * problem.capacity
    if not (0 <= policy.protection_level <= problem.capacity <= policy.booking_limit <= bound):
        raise ValueError(
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


def _show_up_sweep(capacity: int, p: float, max_booked: int,
                   fare_low: float = 1.0, denied_cost: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """P(S_m >= capacity) and E[max(0, S_m - capacity)] for S_m ~ Bin(m, p), m <= M.

    A booking adds a survivor with probability p, so full[m+1] = full[m] +
    p * P(S_m = capacity - 1) and over[m+1] = over[m] + p * full[m]. The point
    mass is carried as a mantissa and a binary exponent because its start,
    p**(capacity - 1), underflows at large capacities and low show-up rates. M is
    the first m >= capacity failing fare_low - denied_cost * full[m] > 0, else max_booked.
    The start multiplies p in chunks short enough that every running product stays normal (p**chunk >=
    2**-900), where it rounds as the step-by-step product, a power of two away, does: the same bits.
    """
    frexp, ldexp, q = math.frexp, math.ldexp, 1.0 - p
    full = [0.0] * capacity
    mantissa, exponent = 1.0, 0
    chunk = capacity if p == 1.0 else max(1, int(900 / -math.log2(p)))
    for done in range(0, capacity - 1, chunk):
        mantissa, shift = frexp(math.prod(repeat(p, min(chunk, capacity - 1 - done)), start=mantissa))
        exponent += shift
    for m in range(capacity - 1, max_booked):
        full.append(full[-1] + p * ldexp(mantissa, exponent))
        if not fare_low - denied_cost * full[-1] > 0.0:  # the next booking would not pay
            break
        mantissa, shift = frexp(mantissa * (m + 1) / (m + 2 - capacity) * q)
        exponent += shift
    full = np.array(full)
    return full, np.append(0.0, np.cumsum(p * full[:-1]))


def _fsum_largest_first(values: list[float]) -> float:
    """math.fsum(values), fed largest magnitude first: fsum rounds correctly whatever the order, and this
    order keeps its partials few. Only an intermediate overflow can tell the orders apart."""
    return math.fsum(sorted(values, key=abs, reverse=True))


def expected_revenue(problem: LegRMProblem, policy: RMPolicy) -> float:
    """Exact expected revenue of the policy, one term per accepted low-fare count a.

    With r = B - a seats left, the high fare books E[min(D_high, r)], a prefix
    sum of its tails; denied boardings are sum_k p_high(k) over[a + min(k, r)],
    a correlation over a + k < B plus over[B] P(D_high >= r). Low fares weigh
    on the truncated high-fare mass, as on the full demand grid.
    """
    _check_policy(problem, policy)
    booking, low_cap = policy.booking_limit, policy.booking_limit - policy.protection_level
    over = problem._show_ups[1]
    if booking >= over.size:  # past the overbooking limit: this call sweeps to the 3 x capacity bound
        over = _show_up_sweep(problem.capacity, problem.show_up_prob, OVERBOOKING_SEARCH_FACTOR * problem.capacity)[1]
    low, high = problem.demand_low.pmf, problem.demand_high.pmf
    # P(a): the pmf below B - P, and the whole low-fare tail at a = B - P, whose zeros fsum can skip
    tail = low[low_cap:]
    weight = np.append(low[:low_cap], math.fsum(tail[tail > 0].tolist()))[: low.size]
    accepted = np.arange(weight.size)
    rest = np.minimum(booking - accepted, high.size)
    tails = _tails(high)
    at_least = np.append(tails[0] + high[0], tails)
    band = np.zeros(weight.size + high.size - 1)
    band[: min(booking, band.size)] = over[: min(booking, band.size)]
    denied = np.correlate(band, high, "valid") + over[booking] * at_least[rest]
    shows_high = np.append(0.0, np.cumsum(tails))[rest]
    fares = problem.show_up_prob * (accepted * problem.fare_low * at_least[0] + shows_high * problem.fare_high)
    return _fsum_largest_first((weight * (fares - problem.denied_cost * denied)).tolist())


def overbooking_limit(problem: LegRMProblem) -> int:
    """Largest booking limit whose marginal booking still pays.

    The marginal condition is fare_low - denied_cost * P(survivors of the
    previous bookings >= capacity) > 0, with survivors binomial in the
    show-up probability. The limit is the first booking count from capacity
    on whose next booking fails it, or 3x capacity if none does: the table's end.
    """
    return problem._show_ups[0].size - 1


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
    """The index searchsorted(cum, u, "right") of each uniform u in [0, 1), found through a guide table.

    Bucket floor(u * K) holds u exactly, as K is a power of two; guide[j] = searchsorted(cum, j / K)
    answers every bucket that holds no CDF step, and only the others take the binary search.
    """
    cum = np.cumsum(model.pmf)
    size = 1 << min(4 * cum.size, uniforms.size).bit_length()  # K: 4-8x the support, at most 2x the trials
    guide = np.searchsorted(cum, np.arange(size + 1) / size, side="right")
    bucket = (uniforms * size).astype(np.int64)
    split = np.flatnonzero((np.diff(guide) > 0)[bucket])
    draws = np.take(guide, bucket, out=bucket)  # in place, so sampling adds no array to the peak
    draws[split] = np.searchsorted(cum, uniforms[split], side="right")
    return np.minimum(draws, model.truncation, out=draws)


def _binomial(rng: np.random.Generator, n: np.ndarray, p: float) -> np.ndarray:
    """``rng.binomial(n, p)`` for a 1-d int64 array n: the same draws, and the generator left in the same state.

    For r = min(p, 1 - p), q = 1 - r and r n <= 30, numpy inverts (BINV; Kachitvichyanukul and Schmeiser, CACM 31(2),
    1988): X is the first k with U <= S_k, for one uniform U per trial with n > 0 and the partial sums S_k of px_0 =
    exp(n log q), px_k = px_(k-1) (n - k + 1) r / (k q); past floor(min(n, nr + 10 sqrt(nrq + 1))) it draws again; it
    returns n - X if p > 0.5. Here S_k is tabled per n with a guide table of 256 buckets, and a block of trials draws
    its U by ``rng.random``. The block is certified if every X is within its bound and every U lies more than 2**-40 =
    8192u (u = 2**-53) from S_(X-1) and S_X; these sums and numpy's differ by under 900u (px_k: four roundings a factor
    in both, 8Wu for W <= 87 terms; exp: an ulp or two; this cumsum and numpy's ``U -= px``: Wu each). numpy draws any
    other block, from its first state, and all of n in its BTPE range (r max(n) > 30) or at under 32 trials per row.
    """
    r = p if p <= 0.5 else 1.0 - p
    lo, hi = (int(n.min()), int(n.max())) if n.size else (0, 0)
    if not (0.0 < p <= 1.0 and 0 <= lo and 0 < hi and r * hi <= 30.0 and hi - lo < min(n.size, _BLOCK) >> 5):
        return rng.binomial(n, p)
    q, sizes = 1.0 - r, np.arange(lo, hi + 1)
    bound = np.minimum(sizes, sizes * r + 10.0 * np.sqrt(sizes * r * q + 1.0) - 1e-9).astype(np.int64)  # <= numpy's
    k = np.arange(1, bound.max() + 4)[:, None]  # 3 rows to spare past the bound, for the window below
    sums = np.vstack([np.exp(sizes * math.log(q)), (sizes - k + 1) * r / (k * q)])  # S_k for n = lo + j at [k, j]
    sums = np.cumsum(np.cumprod(sums, axis=0, out=sums), axis=0, out=sums)
    top = sums[bound, np.arange(sizes.size)].min()  # every U below it has X <= bound
    slot = np.minimum(sums * 256, 256).astype(np.int64) + np.arange(0, sizes.size * 257, 257)  # S_k's bucket
    spread = np.bincount(slot.ravel(), minlength=sizes.size * 257)  # the sums in each bucket, and below it:
    guide, draws = spread.reshape(-1, 257).cumsum(axis=1).ravel() - spread, np.empty(n.shape, np.int64)
    for start in range(0, n.size, _BLOCK):
        block, state = n[start:start + _BLOCK], rng.bit_generator.state
        u = np.full(block.size, 2.0**-9)  # n = 0 draws nothing; U = 1/512, mid-bucket below S_0 = 1, gives it X = 0
        u[block > 0] = rng.random(np.count_nonzero(block))
        x = _inversion(u, block, lo, p > 0.5, guide, spread, sums) if u.max() < top else None
        if x is None:  # numpy draws the block from where it began
            rng.bit_generator.state = state
        draws[start:start + _BLOCK] = rng.binomial(block, p) if x is None else x
    return draws


def _inversion(u, n, lo, flip, guide, spread, sums) -> np.ndarray | None:
    """X (n - X if ``flip``) for each U and n from ``_binomial``'s tables; None if a U is near a sum."""
    at = (u * 256).astype(np.int64)
    if not np.abs(u * 256 - at - 0.5).max() < 0.5 - 256 * _MARGIN:  # every U more than the margin inside its bucket
        return None
    at += (n - lo) * 257
    x, split, flat, width = guide[at], np.flatnonzero(spread[at]), sums.ravel(), sums.shape[1]
    near, far = split[spread[at[split]] <= 4], split[spread[at[split]] > 4]  # count the bucket's sums below U
    x[near] += (flat[(x[near] * width + n[near] - lo)[:, None] + np.arange(0, 4 * width, width)] < u[near, None]).sum(1)
    x[far] = (sums[:, n[far] - lo] < u[far]).sum(axis=0)
    at = x[split] * width + n[split] - lo  # S_X; one row back from X = 0 is the last row, above every U
    gaps = np.minimum(flat[at] - u[split], np.abs(u[split] - flat[at - width]))
    return None if gaps.min(initial=1.0) <= _MARGIN else np.subtract(n, x, out=x) if flip else x


def simulate_leg(problem: LegRMProblem, policy: RMPolicy, trials: int, seed: int) -> LegSimulationSummary:
    """Seeded Monte Carlo of the booking protocol.

    Uses numpy's PCG64 stream (``numpy.random.default_rng(seed)``); per trial the draws are low demand, high demand,
    then binomial show-ups per class. A demand draw is the inverse CDF by an indexed search, which returns exactly the
    binary-search index; the show-ups are ``rng.binomial``'s own, by ``_binomial``. denied_rate is denied passengers
    over all survivors, spill_rate is rejected requests over all requests (0 when the denominator is 0).
    """
    _check_policy(problem, policy)
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be >= 1 and <= {MAX_TRIALS}, got {trials!r}")
    rng = np.random.default_rng(seed)
    # each array is overwritten in place once its total is taken, in the operations and order of a fresh array
    acc_low = _sample_demand(problem.demand_low, rng.random(trials))
    acc_high = _sample_demand(problem.demand_high, rng.random(trials))
    total_requests = int(acc_low.sum()) + int(acc_high.sum())
    np.minimum(acc_low, policy.booking_limit - policy.protection_level, out=acc_low)
    np.minimum(acc_high, policy.booking_limit - acc_low, out=acc_high)
    spilled = total_requests - int(acc_low.sum()) - int(acc_high.sum())
    show_low, show_high = _binomial(rng, acc_low, problem.show_up_prob), _binomial(rng, acc_high, problem.show_up_prob)
    revenue = problem.fare_low * show_low
    revenue += problem.fare_high * show_high
    survivors = np.add(show_low, show_high, out=acc_low)
    total_survivors = int(survivors.sum())
    boarded = np.minimum(survivors, problem.capacity, out=acc_high)
    denied = np.subtract(survivors, boarded, out=survivors)
    revenue -= problem.denied_cost * denied
    with np.errstate(over="ignore", invalid="ignore"):  # a moment past the float range is taken again, scaled
        moments = [revenue.mean(), revenue.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0]
    if not np.isfinite(moments).all():  # on revenue / 2**e, exact, with e the binary exponent of max|revenue|
        scaled = np.ldexp(revenue, -(e := int(np.frexp(np.abs(revenue).max())[1])))
        moments = np.ldexp([scaled.mean(), scaled.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0], e)
    mean, se = map(float, moments)
    return LegSimulationSummary(
        trials=trials, mean_revenue=mean, mean_load_factor=float((boarded / problem.capacity).mean()),
        denied_rate=float(denied.sum()) / total_survivors if total_survivors else 0.0,
        spill_rate=float(spilled) / total_requests if total_requests else 0.0, mean_revenue_se=se)
