"""Independent reference computations used to cross-check the library.

These deliberately avoid the code paths they verify: vertex enumeration for
the weight optimizer, exhaustive subset enumeration (whole or per fleet) for
the network planner, comb-based joint enumeration for leg revenue, the
show-up sweep out to 3 x capacity with a first-failure search over it for the
overbooking limit, each Poisson pmf from its own lgamma values, one
binary search per uniform for demand draws, one route at a time in
Python floats and ints for the route evaluation, and the CSV and table
emitters as they were when each section's fields were picked by hand.
"""

import csv
import io
import math
from itertools import product
from typing import NamedTuple

import numpy as np
from routebayes.bayes import LikelihoodVector, WeightVector
from routebayes.errors import at
from routebayes.rm import OVERBOOKING_SEARCH_FACTOR, TAIL_MASS, _check_policy, _show_up_sweep, _tails


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


def show_up_sweep_loop(capacity, p, max_booked):
    """The show-up sweep writing each booking into the array in turn: full[m + 1] = full[m] + step."""
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


def overbooking_limit_search(problem):
    """The first booking count from capacity on whose next booking no longer pays, searched over the whole sweep."""
    capacity = problem.capacity
    full, _ = show_up_sweep_loop(capacity, problem.show_up_prob, OVERBOOKING_SEARCH_FACTOR * capacity)
    pays = problem.fare_low - problem.denied_cost * full[capacity:-1] > 0.0
    return capacity + int(np.argmin(np.append(pays, False)))


def expected_revenue_full_sweep(problem, policy):
    """The one-dimensional expected revenue on the show-up sweep out to 3 x capacity, whatever the booking limit."""
    _check_policy(problem, policy)
    booking, low_cap = policy.booking_limit, policy.booking_limit - policy.protection_level
    _, over = show_up_sweep_loop(problem.capacity, problem.show_up_prob, OVERBOOKING_SEARCH_FACTOR * problem.capacity)
    low, high = problem.demand_low.pmf, problem.demand_high.pmf
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


def poisson_pmf_direct(mean):
    """A positive-mean Poisson pmf with lgamma(k + 1) computed for this model alone, cut as DemandModel.poisson cuts."""
    k = np.arange(int(mean + 40 * math.sqrt(mean)) + 61)
    pmf = np.exp(k * math.log(mean) - np.fromiter(map(math.lgamma, k + 1.0), float) - mean)
    return pmf[: int(np.argmax(_tails(pmf) < TAIL_MASS)) + 1]


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


def sample_demand_binary_search(model, uniforms):
    """Inverse-CDF demand draws by one binary search per uniform, clamped to the truncation."""
    cum = np.cumsum(np.asarray(model.pmf))
    draws = np.searchsorted(cum, uniforms, side="right")
    return np.minimum(draws, model.truncation).astype(np.int64)


def evaluate_route_by_route(scenario):
    """Every route's evaluation figures, one route at a time in Python scalars.

    Each route takes its pinned fleet, else ``min(key=(-profit, name))`` over the
    fleets in range in scenario order. The first failing route raises a
    ValidationError at ``routes[<id>]``: flights, aircraft or weekly seats past
    the float range for one of its fleets in scenario order, a non-finite
    likelihood, a zero total probability, then a non-finite profit or score.
    """
    return [at(f"routes[{route.id}]", _route_figures, scenario, route) for route in scenario.routes]


class Sizing(NamedTuple):
    flights_per_week: int
    aircraft_count: int
    achieved_load_factor: float


def sized_route(route, fleet, target_load_factor):
    """``(Sizing, weekly profit)`` of flying ``route`` with ``fleet``."""
    demand = route.demand_pax_per_week
    flights = demand / (fleet.seats * target_load_factor)
    if math.isinf(flights):
        raise ValueError(f"demand {demand!r} at load factor {target_load_factor!r} needs more flights "
                         f"of {fleet.seats} seats a week than the float range holds")
    flights = 0 if demand == 0 else max(1, math.ceil(flights))
    if flights == 0:
        return Sizing(0, 0, 0.0), 0.0
    aircraft = flights * route.block_hours_per_flight / fleet.utilization_block_hours_per_week
    if math.isinf(aircraft):
        raise ValueError(f"{float(flights)!r} flights a week of {route.block_hours_per_flight!r} block hours at "
                         f"{fleet.utilization_block_hours_per_week!r} block hours per aircraft need more aircraft "
                         "than the float range holds")
    aircraft = max(1, math.ceil(aircraft))
    if math.isinf(flights * float(fleet.seats)):
        raise ValueError(f"demand {demand!r} needs {float(flights)!r} flights of {fleet.seats} "
                         "seats a week, more seats than the float range holds")
    requirement = Sizing(flights, aircraft, min(1.0, demand / (flights * fleet.seats)))
    carried = min(demand, flights * fleet.seats)
    cost = flights * (route.block_hours_per_flight * route.cost_per_block_hour + route.fixed_cost_per_flight)
    return requirement, carried * route.average_fare - cost


def route_likelihoods(route, profit, anchors):
    """The clamped min-max scores of (service, capital, cost)."""
    return LikelihoodVector(tuple(
        min(max((value - pair.worst) / (pair.best - pair.worst), anchors.epsilon), 1.0 - anchors.epsilon)
        for value, pair in ((route.service_score, anchors.service), (route.tied_capital, anchors.capital),
                            (profit, anchors.cost))
    ))


def _route_figures(scenario, route):
    pinned = route.fleet
    options = [
        (fleet, *sized_route(route, fleet, scenario.target_load_factor))
        for fleet in scenario.fleets
        if (fleet.name == pinned if pinned is not None else route.distance_km <= fleet.range_km)
    ]
    fleet, requirement, profit = min(options, key=lambda option: (-option[2], option[0].name))
    likelihoods = route_likelihoods(route, profit, scenario.anchors)
    contributions = tuple(w * lk for w, lk in zip(scenario.weights.values, likelihoods.values))
    total = 0.0
    for c in contributions:
        total += c
    if total == 0.0:
        raise ValueError("total probability is zero; posterior is undefined")
    posterior = WeightVector(tuple(c / total for c in contributions)).values
    score = total * profit
    for name, value in (("profit", profit), ("score", score)):
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value!r}")
    return {
        "route_id": route.id,
        "fleet": fleet.name,
        "flights_per_week": requirement.flights_per_week,
        "aircraft": requirement.aircraft_count,
        "achieved_load_factor": requirement.achieved_load_factor,
        "profit": profit,
        "likelihoods": list(likelihoods.values),
        "total_probability": total,
        "posterior": list(posterior),
        "top_driver": scenario.hypotheses.ids[posterior.index(max(posterior))],
        "score": score,
    }


# The report emitters before one column spec drove both formats, kept verbatim
# apart from the names and annotations of the two entry points.

#: Fixed columns of the routes CSV section; posterior columns follow the
#: drivers, named post_<last token of the hypothesis id>.
ROUTE_CSV_BASE = ("route_id", "fleet", "flights_per_week", "aircraft", "profit",
                  "total_probability")


def _posterior_columns(hypothesis_ids) -> list[str]:
    return ["post_" + hid.rsplit("_", 1)[-1] for hid in hypothesis_ids]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list):
        return " ".join(_fmt(v) for v in value)
    if value is None:
        return ""
    return str(value)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def report_csv_sections(report) -> dict[str, str]:
    sections: dict[str, str] = {}
    sections["meta"] = _csv_text(("key", "value"), report.meta.items())
    if report.evaluation is not None:
        ids = report.evaluation["hypotheses"]
        header = list(ROUTE_CSV_BASE) + _posterior_columns(ids) + ["score"]
        rows = []
        for row in report.evaluation["routes"]:
            rows.append(
                [row["route_id"], row["fleet"], row["flights_per_week"], row["aircraft"],
                 row["profit"], row["total_probability"], *row["posterior"], row["score"]]
            )
        sections["routes"] = _csv_text(header, rows)
    if report.optimization is not None:
        opt = report.optimization
        rows = [
            (hid, w, flag, s, opt["objective"])
            for hid, w, flag, s in zip(
                opt["hypotheses"], opt["weights"], opt["active_bounds"], opt["sensitivity"]
            )
        ]
        sections["optimization"] = _csv_text(
            ("hypothesis", "weight", "active_bound", "sensitivity", "objective"), rows
        )
    if report.plan is not None:
        plan = report.plan
        selected = set(plan["selected"])
        rows = [
            (rid, score, rid in selected)
            for rid, score in plan["per_route_scores"].items()
        ]
        sections["plan"] = _csv_text(("route_id", "score", "selected"), rows)
        usage_rows = [
            (name, plan["used"][name], plan["availability"][name]) for name in plan["used"]
        ]
        sections["fleet_usage"] = _csv_text(("fleet", "used", "available"), usage_rows)
    if report.rm is not None:
        rows = []
        for leg in report.rm["legs"]:
            sim = leg["simulation"]
            rows.append(
                (leg["leg_id"], leg["protection_level"], leg["booking_limit"],
                 leg["expected_revenue"], leg["fcfs_revenue"], leg["uplift_pct"],
                 sim["mean_revenue"], sim["mean_load_factor"], sim["denied_rate"],
                 sim["spill_rate"])
            )
        sections["rm_legs"] = _csv_text(
            ("leg_id", "protection_level", "booking_limit", "expected_revenue",
             "fcfs_revenue", "uplift_pct", "sim_mean_revenue", "sim_mean_load_factor",
             "sim_denied_rate", "sim_spill_rate"), rows
        )
    return sections


def _render_rows(headers, rows) -> list[str]:
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return lines


def report_table_text(report) -> str:
    lines: list[str] = []
    lines.append("== meta ==")
    for key, value in report.meta.items():
        lines.append(f"{key}: {_fmt(value)}")
    if report.evaluation is not None:
        lines.append("")
        lines.append("== evaluation ==")
        ids = report.evaluation["hypotheses"]
        lines.append("weights: " + ", ".join(
            f"{hid}={w:.6g}" for hid, w in zip(ids, report.evaluation["weights"])
        ))
        headers = ["route", "fleet", "flights", "aircraft", "load_factor", "profit",
                   "p_profitable", "top_driver", "score"]
        rows = []
        for row in report.evaluation["routes"]:
            rows.append([
                row["route_id"], row["fleet"], row["flights_per_week"], row["aircraft"],
                f"{row['achieved_load_factor']:.3f}", f"{row['profit']:.6g}",
                f"{row['total_probability']:.4f}", row["top_driver"], f"{row['score']:.6g}",
            ])
        lines.extend(_render_rows(headers, rows))
    if report.optimization is not None:
        lines.append("")
        lines.append("== optimization ==")
        opt = report.optimization
        rows = [
            (hid, f"{w:.6g}", flag, f"{s:.6g}")
            for hid, w, flag, s in zip(opt["hypotheses"], opt["weights"],
                                       opt["active_bounds"], opt["sensitivity"])
        ]
        lines.extend(_render_rows(["hypothesis", "weight", "bound", "sensitivity"], rows))
        lines.append(f"objective: {opt['objective']:.6g}")
    if report.plan is not None:
        lines.append("")
        lines.append("== plan ==")
        plan = report.plan
        if plan["selected"]:
            rows = [(rid, f"{plan['per_route_scores'][rid]:.6g}") for rid in plan["selected"]]
            lines.extend(_render_rows(["route", "score"], rows))
        else:
            lines.append("no routes selected")
        usage = ", ".join(
            f"{name}={plan['used'][name]}/{plan['availability'][name]}" for name in plan["used"]
        )
        if usage:
            lines.append(f"fleet usage: {usage}")
        lines.append(f"total score: {plan['total_score']:.6g}")
    if report.rm is not None:
        lines.append("")
        lines.append("== revenue management ==")
        headers = ["leg", "protect", "limit", "expected", "fcfs", "uplift_%", "sim_mean"]
        rows = []
        for leg in report.rm["legs"]:
            uplift = leg["uplift_pct"]
            rows.append([
                leg["leg_id"], leg["protection_level"], leg["booking_limit"],
                f"{leg['expected_revenue']:.6g}", f"{leg['fcfs_revenue']:.6g}",
                "n/a" if uplift is None else f"{uplift:.3f}",
                f"{leg['simulation']['mean_revenue']:.6g}",
            ])
        lines.extend(_render_rows(headers, rows))
        lines.append(f"trials: {report.rm['trials']}, seed: {report.rm['seed']}")
    return "\n".join(lines) + "\n"
