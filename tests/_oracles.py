"""Independent reference computations used to cross-check the library.

These deliberately avoid the code paths they verify: vertex enumeration for
the weight optimizer, exhaustive subset enumeration (whole or per fleet) for
the network planner, and comb-based joint enumeration for leg revenue.
"""

import math
from itertools import product

import numpy as np
from routebayes.rm import _check_policy, _show_up_sweep


def simplex_vertices(lower, upper, tol=1e-12):
    """All vertices of {w : lower <= w <= upper, sum(w) = 1}.

    A vertex fixes every coordinate but at most one at a bound; the free
    coordinate absorbs the remaining mass. Returns a list of tuples.
    """
    n = len(lower)
    points = []
    # one free coordinate
    for free in range(n):
        bound_indices = [i for i in range(n) if i != free]
        for pattern in product((0, 1), repeat=n - 1):
            w = [0.0] * n
            for i, side in zip(bound_indices, pattern):
                w[i] = upper[i] if side else lower[i]
            rest = 1.0 - math.fsum(w[i] for i in bound_indices)
            if lower[free] - tol <= rest <= upper[free] + tol:
                w[free] = min(max(rest, lower[free]), upper[free])
                points.append(tuple(w))
    # all coordinates at bounds
    for pattern in product((0, 1), repeat=n):
        w = tuple(upper[i] if side else lower[i] for i, side in enumerate(pattern))
        if abs(math.fsum(w) - 1.0) <= tol:
            points.append(w)
    return points


def best_vertex_objective(lower, upper, likelihoods):
    best = None
    for w in simplex_vertices(lower, upper):
        obj = 0.0
        for wi, li in zip(w, likelihoods):
            obj += wi * li
        if best is None or obj > best:
            best = obj
    return best


def enumerate_best_plan(ids, scores, fleet_names, needs, availability):
    """Exhaustive max-score plan over positive-score candidates.

    Candidates are filtered to score > 0, sorted by id, and every subset is
    scored with a left-to-right sum in id order. Of two tied subsets, the one
    holding the smallest id on which they differ wins, so a route whose score
    is lost to rounding is still taken. Fast path: numpy subset matrices.
    """
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    keep = [i for i in order if scores[i] > 0.0]
    n = len(keep)
    if n == 0:
        return 0.0, ()
    score_vec = np.array([scores[i] for i in keep])
    fleets = sorted(set(fleet_names))
    need_mat = np.array(
        [[needs[i] if fleet_names[i] == f else 0 for f in fleets] for i in keep],
        dtype=np.int64,
    )
    avail_vec = np.array([availability[f] for f in fleets], dtype=np.int64)
    masks = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(np.int64)
    usage = masks @ need_mat
    feasible = np.all(usage <= avail_vec, axis=1)
    totals = masks @ score_vec
    totals[~feasible] = -np.inf
    top = float(totals.max())
    # refine near-optimal subsets with exact ordered sums
    close = np.nonzero(totals >= top - 1e-6)[0]
    # (total, inclusion flags in id order): on equal totals, the larger flags win
    best, best_sel = (-math.inf, ()), None
    for idx in close:
        chosen = [keep[j] for j in range(n) if masks[idx, j]]
        exact = 0.0
        for i in chosen:
            exact += scores[i]
        key = (exact, tuple(masks[idx]))
        if key > best:
            best, best_sel = key, tuple(ids[i] for i in chosen)
    if best[0] < 0.0:
        return 0.0, ()
    return best[0], best_sel


def enumerate_best_plan_per_fleet(ids, scores, fleet_names, needs, availability):
    """Exhaustive plan as the union of per-fleet optima, for larger instances.

    A candidate uses aircraft of its own fleet only and scores add, so each
    fleet is enumerated on its own with ``enumerate_best_plan``. The union is
    sorted by id and re-summed left to right in that order.
    """
    chosen = []
    for fleet in sorted(set(fleet_names)):
        members = [i for i in range(len(ids)) if fleet_names[i] == fleet]
        _, sel = enumerate_best_plan(
            [ids[i] for i in members],
            [scores[i] for i in members],
            [fleet] * len(members),
            [needs[i] for i in members],
            {fleet: availability[fleet]},
        )
        chosen.extend(sel)
    chosen.sort()
    by_id = dict(zip(ids, scores))
    total = 0.0
    for rid in chosen:
        total += by_id[rid]
    return total, tuple(chosen)


def rank_by_score(ids, scores):
    """Ids by score descending, ties by id ascending."""
    return [rid for _, rid in sorted(zip((-s for s in scores), ids))]


def pmf_survival(pmf, y):
    """P(D > y), summed upward over the pmf entries above y."""
    return math.fsum(pmf[y + 1 :])


def pmf_mean(pmf):
    return math.fsum(k * p for k, p in enumerate(pmf))


def binom_pmf(k, n, p):
    return math.comb(n, k) * (p**k) * ((1.0 - p) ** (n - k))


def leg_revenue_bruteforce(problem, policy):
    """Expected revenue by enumerating demand and per-class show-up outcomes."""
    fl, fh = problem.fare_low, problem.fare_high
    cap, dc, p = problem.capacity, problem.denied_cost, problem.show_up_prob
    low_cap = policy.booking_limit - policy.protection_level
    terms = []
    for d_low, w_low in enumerate(problem.demand_low.pmf):
        acc_low = min(d_low, low_cap)
        for d_high, w_high in enumerate(problem.demand_high.pmf):
            acc_high = min(d_high, policy.booking_limit - acc_low)
            for s_low in range(acc_low + 1):
                pw_low = binom_pmf(s_low, acc_low, p)
                for s_high in range(acc_high + 1):
                    pw_high = binom_pmf(s_high, acc_high, p)
                    denied = max(0, s_low + s_high - cap)
                    revenue = fl * s_low + fh * s_high - dc * denied
                    terms.append(w_low * w_high * pw_low * pw_high * revenue)
    return math.fsum(terms)


def poisson_tail(mean, t):
    """P(D > t) for D ~ Poisson(mean), summed upward from t + 1.

    log((t + 1)!) is an exact sum of logs and later terms follow the ratio
    mean / k, so this shares no code path with the library's lgamma pmf.
    """
    log_term = (t + 1) * math.log(mean) - mean - math.fsum(math.log(j) for j in range(2, t + 2))
    terms = []
    k = t + 1
    while k <= mean or not terms or terms[-1] > 1e-30:
        terms.append(math.exp(log_term))
        k += 1
        log_term += math.log(mean / k)
    return math.fsum(terms)


def binom_tail_log(n, p, c):
    """P(Bin(n, p) >= c), each point mass taken from lgamma in log space."""
    log_p, log_q = math.log(p), math.log1p(-p)
    return math.fsum(
        math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                 + k * log_p + (n - k) * log_q)
        for k in range(c, n + 1)
    )


def grid_expected_revenue(problem, policy):
    """Exact expected revenue summed over the whole |D_low| x |D_high| demand grid."""
    _check_policy(problem, policy)
    _, over = _show_up_sweep(problem.capacity, problem.show_up_prob, policy.booking_limit)
    w_low = np.asarray(problem.demand_low.pmf)[:, None]
    w_high = np.asarray(problem.demand_high.pmf)[None, :]
    acc_low = np.minimum(np.arange(w_low.size), policy.booking_limit - policy.protection_level)[:, None]
    acc_high = np.minimum(np.arange(w_high.size)[None, :], policy.booking_limit - acc_low)
    fares = problem.show_up_prob * (acc_low * problem.fare_low + acc_high * problem.fare_high)
    penalty = problem.denied_cost * over[acc_low + acc_high]
    return math.fsum((w_low * w_high * (fares - penalty)).ravel().tolist())
