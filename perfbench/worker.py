"""The workload process: set up, signal readiness, run whole rounds of operations.

Started by ``run.py`` from the checkout root with ``src`` on PYTHONPATH. It
prints ``ready`` once it can time its first operation, then one JSON line
with its results when it is done. Modes:

* ``setup``: set up and exit (``run.py`` repeats set-up to take a median);
* ``timed``: closed loop, one client, no tracing;
* ``trace``: the same operations split into the public calls they make, each
  wrapped in a span; spans stay in memory and go to ``trace.json`` at the end.

Set-up covers interpreter start, ``import routebayes`` (for ``cli_cold``,
inside the untimed warm-up CLI call) and one untimed warm-up operation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

STAGES = {"plan": ("evaluate", "optimize", "plan"), "rm": ("rm",)}


def out_path(out_dir: Path, index: int, rnd: int) -> Path:
    return out_dir / f"op{index:03d}.r{rnd:03d}.json"


class Tracer:
    """Spans (name, start, end, parent index, attributes), kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, "attrs": attrs}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


# ------------------------------------------------------------- one operation

def cli_op(kind: str, path: Path, out: Path, err: Path) -> tuple[bool, int]:
    """One CLI call in a fresh process; returns (succeeded, peak RSS in KiB)."""
    argv = [sys.executable, "-m", "routebayes.cli", kind, "--scenario", str(path),
            "--format", "json", "--out", str(out)]
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status) == 0, usage.ru_maxrss


def warm_op(kind: str, path: Path, out: Path) -> bool:
    """Load, run the stages, write the JSON report; False on a typed program error."""
    from routebayes.errors import RouteBayesError
    from routebayes.pipeline import run_pipeline
    from routebayes.report import emit_report
    from routebayes.scenario import load_scenario

    try:
        report = run_pipeline(load_scenario(path), STAGES[kind])
        emit_report(report, format="json", destination=out)
    except RouteBayesError:
        return False
    return True


def traced_op(tr: Tracer, kind: str, path: Path, out: Path) -> bool:
    """The operation as the public calls it makes, one span each, plus the CLI entry."""
    from routebayes import cli, optimizer, pipeline, planner, report, rm, scenario
    from routebayes.errors import RouteBayesError

    with tr.span("op", kind=kind, input=path.name) as op:
        try:
            with tr.span("cli.main"), contextlib.redirect_stderr(io.StringIO()):
                cli.main([kind, "--scenario", str(path), "--format", "json", "--out", str(out)])
            with tr.span("scenario.load_scenario", bytes=path.stat().st_size):
                scn = scenario.load_scenario(path)
            if kind == "plan":
                with tr.span("pipeline.evaluate_routes", routes=len(scn.routes)):
                    rows = pipeline.evaluate_routes(scn)
                with tr.span("pipeline.mean_likelihoods"):
                    means = pipeline.mean_likelihoods(rows)
                box = scn.constraints or optimizer.BoxConstraints.full(len(scn.hypotheses))
                with tr.span("optimizer.optimize_weights"):
                    result = optimizer.optimize_weights(means, box)
                with tr.span("pipeline.build_candidates"):
                    candidates = pipeline.build_candidates(rows, result.weights)
                with tr.span("planner.select_routes") as attrs:
                    plan = planner.select_routes(candidates, scn.availability)
                attrs["positive"] = sum(1 for s in plan.per_route_scores.values() if s > 0.0)
                attrs["exact"] = not plan.heuristic
            else:
                for index, (leg, doc) in enumerate(zip(scn.rm_legs, scn.source["rm_legs"])):
                    _traced_leg(tr, rm, leg.problem, doc, index)
            with tr.span("pipeline.run_pipeline"):
                rep = pipeline.run_pipeline(scn, STAGES[kind])
            for fmt, dest in (("json", out.with_suffix(".traced.json")),
                              ("csv", out.with_suffix(".csv")),
                              ("table", out.with_suffix(".txt"))):
                with tr.span(f"report.emit_{fmt}"):
                    report.emit_report(rep, format=fmt, destination=dest)
                if fmt == "json":
                    op["bytes_out"] = dest.stat().st_size
        except RouteBayesError as exc:
            op["error"] = str(exc)
            return False
    return True


def _traced_leg(tr: Tracer, rm, problem, doc: dict, index: int) -> None:
    with tr.span("rm.DemandModel"):
        for key in ("demand_high", "demand_low"):
            model = doc[key]
            if model["kind"] == "poisson":
                rm.DemandModel.poisson(model["mean"])
            else:
                rm.DemandModel.discrete(model["pmf"])
    with tr.span("rm.littlewood_protection"):
        protection = rm.littlewood_protection(problem)
    with tr.span("rm.overbooking_limit", steps=0) as attrs:
        limit = rm.overbooking_limit(problem)
    attrs["steps"] = limit - problem.capacity
    policy = rm.RMPolicy(protection_level=protection, booking_limit=limit)
    cells = len(problem.demand_low.pmf) * len(problem.demand_high.pmf)
    with tr.span("rm.expected_revenue") as attrs:
        rm.expected_revenue(problem, policy)
    attrs["cells"] = cells
    with tr.span("rm.fcfs_baseline") as attrs:
        rm.fcfs_baseline(problem)
    attrs["cells"] = cells
    from routebayes.pipeline import DEFAULT_TRIALS
    with tr.span("rm.simulate_leg", trials=DEFAULT_TRIALS):
        rm.simulate_leg(problem, policy, DEFAULT_TRIALS, index)


# ---------------------------------------------------------------- the loops

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path, help="the run's work directory")
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "trace"))
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    ops = [(kind, Path(path)) for kind, path in json.loads((args.work / "ops.json").read_text())]
    out_dir = args.work / "out"
    err = args.work / "cli_stderr.txt"
    cold = args.workload == "cli_cold" and args.mode != "trace"
    warmup = args.work / "inputs" / "warmup.json"
    kind = ops[0][0]
    if cold:
        if not cli_op(kind, warmup, out_dir / "warmup.json", err)[0]:
            print(f"warm-up CLI call failed, see {err}", file=sys.stderr)
            return 1
    else:
        import routebayes  # noqa: F401  (import is part of set-up)
        if args.mode == "trace":
            traced_op(Tracer(), kind, warmup, out_dir / "warmup.json")
        else:
            warm_op(kind, warmup, out_dir / "warmup.json")
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = Tracer()
    times: list[float] = []
    failed: list[list[int]] = []
    child_rss: list[int] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        for index, (kind, path) in enumerate(ops):
            out = out_path(out_dir, index, rounds)
            t0 = time.perf_counter()
            if cold:
                ok, rss = cli_op(kind, path, out, err)
                child_rss.append(rss)
            elif args.mode == "trace":
                ok = traced_op(tracer, kind, path, out)
            else:
                ok = warm_op(kind, path, out)
            times.append(time.perf_counter() - t0)
            if not ok:
                failed.append([rounds, index])
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    loop_s = time.perf_counter() - start
    peak_kb = max(child_rss) if cold else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    from routebayes import cli
    invalid = []
    for path in sorted({p for _, p in ops} | {warmup}):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if cli.main(["validate", "--scenario", str(path)]) != 0:
                invalid.append(path.name)
    result = {"times": times, "failed": failed, "rounds": rounds, "loop_s": loop_s,
              "peak_rss_kb": peak_kb, "invalid": invalid}
    if args.mode == "trace":
        (args.work / "trace.json").write_text(json.dumps(tracer.spans))
        probe, n = Tracer(), 10_000
        t0 = time.perf_counter()
        for _ in range(n):
            with probe.span("empty"):
                pass
        result["span_cost_s"] = (time.perf_counter() - t0) / n
        result["spans_per_op"] = len(tracer.spans) / len(times)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
