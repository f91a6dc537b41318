"""Independent checks of routebayes reports, using only the standard library and numpy.

Each ``check_*`` function recomputes a report section from the scenario
document by the formulas in the README, not by calling routebayes, and
returns a list of problems (empty when the section is right). Reports carry
12 significant digits, so comparisons allow for that rounding and no more.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: Relative slack for values the report rounds to 12 significant digits.
REL = 1e-9
#: Relative slack for RM expectations: the program truncates demand where the
#: tail mass drops below 1e-9; the checks sum far past that point.
RM_REL = 1e-7


def _close(a: float, b: float, rel: float = REL, abs_: float = 1e-9) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


# ---------------------------------------------------------------- evaluation

def _clamp_score(value: float, pair: dict, eps: float) -> float:
    raw = (value - pair["worst"]) / (pair["best"] - pair["worst"])
    return min(max(raw, eps), 1.0 - eps)


def _anchors(doc: dict) -> dict:
    default = {
        "service": {"worst": 0.0, "best": 1.0},
        "capital": {"worst": 10_000_000.0, "best": 0.0},
        "cost": {"worst": -100_000.0, "best": 100_000.0},
        "epsilon": 0.01,
    }
    return {**default, **doc.get("anchors", {})}


def _sizing(route: dict, fleet: dict, load_factor: float) -> tuple[int, int, float]:
    demand = route["demand_pax_per_week"]
    flights = math.ceil(demand / (fleet["seats"] * load_factor)) if demand > 0 else 0
    aircraft = (math.ceil(flights * route["block_hours_per_flight"]
                          / fleet["utilization_block_hours_per_week"]) if flights else 0)
    if flights == 0:
        return 0, 0, 0.0
    carried = min(demand, flights * fleet["seats"])
    cost = flights * (route["block_hours_per_flight"] * route["cost_per_block_hour"]
                      + route["fixed_cost_per_flight"])
    return flights, aircraft, carried * route["average_fare"] - cost


def expected_routes(doc: dict) -> list[dict]:
    """Fleet, flights, aircraft, profit and likelihoods per route, from the README rules."""
    fleets = {f["name"]: f for f in doc.get("fleets", [])}
    lf = doc.get("target_load_factor", 0.8)
    anchors = _anchors(doc)
    eps = anchors["epsilon"]
    rows = []
    for route in doc.get("routes", []):
        if "fleet" in route:
            name = route["fleet"]
        else:
            feasible = [f for f in fleets.values() if route["distance_km"] <= f["range_km"]]
            name = min(feasible, key=lambda f: (-_sizing(route, f, lf)[2], f["name"]))["name"]
        flights, aircraft, profit = _sizing(route, fleets[name], lf)
        likelihoods = [
            _clamp_score(route["service_score"], anchors["service"], eps),
            _clamp_score(route["tied_capital"], anchors["capital"], eps),
            _clamp_score(profit, anchors["cost"], eps),
        ]
        rows.append({"route_id": route["id"], "fleet": name, "flights_per_week": flights,
                     "aircraft": aircraft, "profit": profit, "likelihoods": likelihoods})
    return rows


def check_evaluation(doc: dict, section: dict) -> list[str]:
    problems = []
    n = len(section["hypotheses"])
    prior = doc.get("weights", [1.0 / n] * n)
    total = math.fsum(prior)
    if not all(_close(w, p / total) for w, p in zip(section["weights"], prior)):
        problems.append(f"evaluation weights {section['weights']} differ from the prior {prior}")
    expected = expected_routes(doc)
    if len(expected) != len(section["routes"]):
        return problems + [f"{len(section['routes'])} routes reported, {len(expected)} in the scenario"]
    weights = section["weights"]
    for want, got in zip(expected, section["routes"]):
        rid = want["route_id"]
        for key in ("route_id", "fleet", "flights_per_week", "aircraft"):
            if got[key] != want[key]:
                problems.append(f"route {rid}: {key} {got[key]!r}, expected {want[key]!r}")
        if not _close(got["profit"], want["profit"], abs_=1e-6):
            problems.append(f"route {rid}: profit {got['profit']!r}, expected {want['profit']!r}")
        if not all(_close(a, b) for a, b in zip(got["likelihoods"], want["likelihoods"])):
            problems.append(f"route {rid}: likelihoods {got['likelihoods']}, expected {want['likelihoods']}")
        contributions = [w * lk for w, lk in zip(weights, got["likelihoods"])]
        tp = math.fsum(contributions)
        if not _close(got["total_probability"], tp, abs_=1e-11):
            problems.append(f"route {rid}: total_probability {got['total_probability']!r}, expected {tp!r}")
        post = [c / tp for c in contributions]
        if not all(_close(a, b, abs_=1e-11) for a, b in zip(got["posterior"], post)):
            problems.append(f"route {rid}: posterior {got['posterior']}, expected {post}")
        if not _close(got["score"], tp * got["profit"], abs_=1e-6):
            problems.append(f"route {rid}: score {got['score']!r}, expected {tp * got['profit']!r}")
    return problems


# -------------------------------------------------------------- optimization

def _mean_likelihoods(section: dict) -> list[float]:
    rows = [r["likelihoods"] for r in section["routes"]]
    return [math.fsum(col) / len(rows) for col in zip(*rows)]


def box_vertices(lower: list[float], upper: list[float]) -> list[list[float]]:
    """Vertices of {lower <= w <= upper, sum(w) = 1}: all but one weight at a bound."""
    n = len(lower)
    vertices = []
    for free in range(n):
        others = [i for i in range(n) if i != free]
        for choice in itertools.product((0, 1), repeat=n - 1):
            w = [0.0] * n
            for i, c in zip(others, choice):
                w[i] = upper[i] if c else lower[i]
            w[free] = 1.0 - math.fsum(w)
            if lower[free] - 1e-12 <= w[free] <= upper[free] + 1e-12:
                vertices.append(w)
    return vertices


def check_optimization(doc: dict, evaluation: dict, section: dict) -> list[str]:
    problems = []
    n = len(evaluation["hypotheses"])
    box = doc.get("constraints", {"lower": [0.0] * n, "upper": [1.0] * n})
    lower, upper = box["lower"], box["upper"]
    means = _mean_likelihoods(evaluation)
    best = max(math.fsum(w * lk for w, lk in zip(v, means)) for v in box_vertices(lower, upper))
    weights = section["weights"]
    if not _close(math.fsum(weights), 1.0) or not all(
        lo - 1e-9 <= w <= hi + 1e-9 for w, lo, hi in zip(weights, lower, upper)
    ):
        problems.append(f"optimized weights {weights} leave the constraint box")
    achieved = math.fsum(w * lk for w, lk in zip(weights, means))
    if not _close(achieved, best, abs_=1e-10):
        problems.append(f"optimized weights reach {achieved!r}, vertex enumeration finds {best!r}")
    if not _close(section["objective"], best, abs_=1e-10):
        problems.append(f"objective {section['objective']!r}, vertex enumeration finds {best!r}")
    if not all(_close(a, b) for a, b in zip(section["sensitivity"], means)):
        problems.append(f"sensitivity {section['sensitivity']} differs from mean likelihoods {means}")
    return problems


# ---------------------------------------------------------------------- plan

def fractional_bound(items: list[tuple[float, int]], capacity: int) -> float:
    """LP-relaxation optimum of one fleet's knapsack over (score, aircraft) items."""
    free = math.fsum(s for s, a in items if a == 0)
    room = float(capacity)
    total = free
    for score, need in sorted(((s, a) for s, a in items if a > 0), key=lambda x: -x[0] / x[1]):
        take = min(1.0, room / need)
        total += take * score
        room -= take * need
        if room <= 0.0:
            break
    return total


def exhaustive_optimum(items: list[tuple[float, int]], capacity: int) -> float:
    """Best total score of one fleet's knapsack by enumerating every subset."""
    if not items:
        return 0.0
    scores = np.array([s for s, _ in items])
    needs = np.array([a for _, a in items])
    masks = np.arange(1 << len(items))
    member = (masks[:, None] >> np.arange(len(items))) & 1
    feasible = member @ needs <= capacity
    return float(max(0.0, (member @ scores)[feasible].max()))


def check_plan(doc: dict, evaluation: dict, optimization: dict | None, section: dict,
               exact: bool) -> list[str]:
    problems = []
    weights = optimization["weights"] if optimization else evaluation["weights"]
    rows = {r["route_id"]: r for r in evaluation["routes"]}
    scores = {rid: math.fsum(w * lk for w, lk in zip(weights, r["likelihoods"])) * r["profit"]
              for rid, r in rows.items()}
    reported = section["per_route_scores"]
    if set(reported) != set(scores):
        return problems + ["per_route_scores cover other routes than the evaluation"]
    for rid, score in scores.items():
        if not _close(reported[rid], score, abs_=1e-6):
            problems.append(f"route {rid}: plan score {reported[rid]!r}, expected {score!r}")
    selected = section["selected"]
    if list(selected) != sorted(set(selected)):
        problems.append(f"selected ids are not sorted and unique: {selected}")
    availability = doc.get("availability", {})
    used = {name: 0 for name in section["used"]}
    for rid in selected:
        if reported[rid] <= 0.0:
            problems.append(f"route {rid} selected with nonpositive score {reported[rid]!r}")
        used[rows[rid]["fleet"]] = used.get(rows[rid]["fleet"], 0) + rows[rid]["aircraft"]
    if used != section["used"]:
        problems.append(f"fleet usage {section['used']}, selected routes need {used}")
    for name, count in used.items():
        if count > availability.get(name, 0):
            problems.append(f"fleet {name}: {count} aircraft used, {availability.get(name, 0)} available")
    total = 0.0
    for rid in sorted(selected):
        total += reported[rid]
    if not _close(section["total_score"], total, abs_=1e-6):
        problems.append(f"total_score {section['total_score']!r}, id-ordered sum {total!r}")
    by_fleet: dict[str, list[tuple[float, int]]] = {name: [] for name in availability}
    for rid, r in rows.items():
        if reported[rid] > 0.0:
            by_fleet.setdefault(r["fleet"], []).append((reported[rid], r["aircraft"]))
    if exact:
        if section["heuristic"]:
            problems.append("plan flagged heuristic on an exact-size instance")
        optimum = math.fsum(exhaustive_optimum(items, availability.get(name, 0))
                            for name, items in by_fleet.items())
        if not _close(section["total_score"], optimum, abs_=1e-6):
            problems.append(f"total_score {section['total_score']!r}, per-fleet optimum {optimum!r}")
    else:
        bound = math.fsum(fractional_bound(items, availability.get(name, 0))
                          for name, items in by_fleet.items())
        if section["total_score"] > bound * (1 + REL) + 1e-6:
            problems.append(f"total_score {section['total_score']!r} exceeds the fractional bound {bound!r}")
    return problems


# ------------------------------------------------------------------------ rm

def poisson_pmf(mean: float) -> np.ndarray:
    """Poisson pmf on {0..K}, K far in the tail, by log-space recurrence from the mode."""
    if mean == 0:
        return np.array([1.0])
    top = int(mean + 40 * math.sqrt(mean) + 60)
    mode = int(mean)
    logp = np.empty(top + 1)
    logp[mode] = -mean + mode * math.log(mean) - math.lgamma(mode + 1)
    for k in range(mode, top):
        logp[k + 1] = logp[k] + math.log(mean) - math.log(k + 1)
    for k in range(mode, 0, -1):
        logp[k - 1] = logp[k] - math.log(mean) + math.log(k)
    return np.exp(logp)


def _demand_pmf(model: dict) -> np.ndarray:
    if model["kind"] == "poisson":
        return poisson_pmf(model["mean"])
    return np.asarray(model["pmf"], dtype=float)


def survival(pmf: np.ndarray) -> np.ndarray:
    """P(D > y) for y = 0..len-1, summed from the far tail inwards."""
    tail = np.cumsum(pmf[::-1])[::-1]
    return np.append(tail[1:], 0.0)


def littlewood(pmf: np.ndarray, ratio: float) -> int:
    """Smallest y with P(D > y) <= ratio."""
    return int(np.argmax(survival(pmf) <= ratio))


def _binom_pmf(n: int, p: float, k: np.ndarray) -> np.ndarray:
    """Bin(n, p) pmf at ``k`` from log-space terms (0 < p < 1)."""
    log_choose = math.lgamma(n + 1) - np.array([math.lgamma(i + 1) + math.lgamma(n - i + 1) for i in k])
    return np.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))


def binom_tail(n: int, p: float, c: int) -> float:
    """P(Bin(n, p) >= c)."""
    if c <= 0:
        return 1.0
    if c > n:
        return 0.0
    if p == 1.0:
        return 1.0
    return float(_binom_pmf(n, p, np.arange(c, n + 1)).sum())


def overage(max_booked: int, capacity: int, p: float) -> np.ndarray:
    """E[max(0, Bin(m, p) - capacity)] for m = 0..max_booked."""
    table = np.zeros(max_booked + 1)
    for m in range(capacity + 1, max_booked + 1):
        if p == 1.0:
            table[m] = m - capacity
        else:
            k = np.arange(capacity + 1, m + 1)
            table[m] = float((_binom_pmf(m, p, k) * (k - capacity)).sum())
    return table


def expected_revenue(leg: dict, protection: int, limit: int) -> float:
    """Expected revenue of the booking protocol, summed over the full demand grid."""
    pl, ph = _demand_pmf(leg["demand_low"]), _demand_pmf(leg["demand_high"])
    p = leg.get("show_up_prob", 1.0)
    acc_low = np.minimum(np.arange(len(pl)), limit - protection)
    acc_high = np.minimum(np.arange(len(ph))[None, :], limit - acc_low[:, None])
    over = overage(limit, leg["capacity"], p)
    value = (p * (acc_low[:, None] * leg["fare_low"] + acc_high * leg["fare_high"])
             - leg.get("denied_cost", 0.0) * over[acc_low[:, None] + acc_high])
    return float(pl @ value @ ph)


def check_rm_leg(leg: dict, got: dict) -> list[str]:
    problems = []
    lid, cap = leg["id"], leg["capacity"]
    if got["leg_id"] != lid:
        return [f"leg {lid}: reported as {got['leg_id']!r}"]
    ratio = leg["fare_low"] / leg["fare_high"]
    sf = survival(_demand_pmf(leg["demand_high"]))
    want = littlewood(_demand_pmf(leg["demand_high"]), ratio)
    y = got["protection_level"]
    if want > cap:
        # Littlewood's level exceeds the cabin: the only usable policy protects it all.
        ok = y == cap
    else:
        # Accept either side of a survival value within the truncation error of the ratio.
        ok = 0 <= y < len(sf) and sf[y] <= ratio + 1e-8 and (y == 0 or sf[y - 1] > ratio - 1e-8)
    if not ok:
        problems.append(f"leg {lid}: protection {y} breaks Littlewood's rule (expected {want})")
    p, dc, fl = leg.get("show_up_prob", 1.0), leg.get("denied_cost", 0.0), leg["fare_low"]
    limit = got["booking_limit"]

    def marginal(b: int) -> float:
        return fl - dc * binom_tail(b - 1, p, cap)

    slack = 1e-9 * fl
    if limit < cap or any(marginal(b) <= -slack for b in range(cap + 1, limit + 1)) or (
        limit < 3 * cap and marginal(limit + 1) > slack
    ):
        problems.append(f"leg {lid}: booking limit {limit} breaks the marginal condition")
        return problems
    want = expected_revenue(leg, y, limit)
    fcfs = expected_revenue(leg, 0, cap)
    if not _close(got["expected_revenue"], want, rel=RM_REL):
        problems.append(f"leg {lid}: expected_revenue {got['expected_revenue']!r}, expected {want!r}")
    if not _close(got["fcfs_revenue"], fcfs, rel=RM_REL):
        problems.append(f"leg {lid}: fcfs_revenue {got['fcfs_revenue']!r}, expected {fcfs!r}")
    sim = got["simulation"]
    se = sim["mean_revenue_se"]
    if not (se > 0 and abs(sim["mean_revenue"] - want) <= 5 * se):
        problems.append(f"leg {lid}: simulated mean {sim['mean_revenue']!r} is not within "
                        f"5 standard errors ({se!r}) of {want!r}")
    return problems


def check_rm(doc: dict, section: dict, trials: int) -> list[str]:
    problems = []
    if section["trials"] != trials or section["seed"] != doc.get("seed", 0):
        problems.append(f"rm ran {section['trials']} trials with seed {section['seed']}")
    legs = doc.get("rm_legs", [])
    if len(legs) != len(section["legs"]):
        return problems + [f"{len(section['legs'])} legs reported, {len(legs)} in the scenario"]
    for leg, got in zip(legs, section["legs"]):
        problems += check_rm_leg(leg, got)
    return problems


def check_report(doc: dict, report: dict, kind: str, trials: int, exact: bool) -> list[str]:
    """All checks for one operation's report; ``kind`` is ``plan`` or ``rm``."""
    if kind == "rm":
        if "rm" not in report:
            return ["report has no rm section"]
        return check_rm(doc, report["rm"], trials)
    missing = {"evaluation", "optimization", "plan"} - set(report)
    if missing:
        return [f"report lacks sections {sorted(missing)}"]
    return (check_evaluation(doc, report["evaluation"])
            + check_optimization(doc, report["evaluation"], report["optimization"])
            + check_plan(doc, report["evaluation"], report["optimization"], report["plan"], exact))
