"""routebayes benchmark: generate seeded inputs, run one workload, check every output.

Usage, from the root of a checkout (no install, no network):

    python3 perfbench/run.py --workload network_10k --seed 1 --seconds 26 --trace 0

``--workload all`` runs the four workloads one after another. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run. The exit code is 1 when any output check fails and 2
when a workload cannot run to its end: no routebayes sources in the checkout,
a workload process that fails, or more than 170 seconds spent on one
workload. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
from worker import out_path

WORKLOADS = ("cli_cold", "network_10k", "plan_exact", "rm_legs")
SETUPS = 3                 # set-up repeats per timed run; setup_s is their median
IMPORT_PROBES = 3          # fresh interpreters per import metric in a traced run
TRIALS = 10_000            # the rm stage's default trial count
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170          # a workload's run gives up after this long (limit: 180 s)
_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')

END_TO_END = {"op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "import.routebayes_s": "s", "import.rm_s": "s", "cli.main_s": "s",
    "scenario.load_s": "s", "scenario.bytes_in": "bytes",
    "pipeline.evaluate_routes_s": "s", "pipeline.evaluate_us_per_route": "us",
    "optimizer.optimize_weights_s": "s", "pipeline.run_s": "s", "pipeline.assembly_s": "s",
    "planner.select_routes_s": "s", "planner.positive_candidates": "count",
    "planner.exact_share": "ratio",
    "rm.demand_model_s": "s", "rm.littlewood_s": "s", "rm.overbooking_s": "s",
    "rm.expected_revenue_s": "s", "rm.fcfs_s": "s", "rm.revenue_cells": "count",
    "rm.booking_steps": "count", "rm.simulate_s": "s", "rm.sim_trials_per_s": "1/s",
    "report.emit_json_s": "s", "report.emit_csv_s": "s", "report.emit_table_s": "s",
    "report.bytes_out": "bytes",
}
#: Calls run_pipeline makes that the traced operation also makes on its own;
#: pipeline.assembly_s is run_pipeline's time minus theirs.
STAGE_CALLS = ("pipeline.evaluate_routes", "pipeline.mean_likelihoods", "optimizer.optimize_weights",
               "pipeline.build_candidates", "planner.select_routes", "rm.littlewood_protection",
               "rm.overbooking_limit", "rm.expected_revenue", "rm.fcfs_baseline", "rm.simulate_leg")


class BenchError(Exception):
    """The benchmark could not run to its end."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(workload: str, work: Path, mode: str, seconds: float, deadline: float) -> dict:
    """Run one workload process; return its result plus its set-up time.

    The worker leads its own process group, so a timeout also stops the CLI
    processes it started.
    """
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--work", str(work),
            "--mode", mode, "--seconds", str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} {mode} worker timed out")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker failed with exit code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else {}
    result["setup_s"] = setup_s
    return result


def import_probe(importtime: bool, deadline: float) -> float:
    """Seconds to import routebayes in a fresh interpreter, or routebayes.rm's
    cumulative import time under ``-X importtime``."""
    if importtime:
        argv = [sys.executable, "-X", "importtime", "-c", "import routebayes"]
    else:
        argv = [sys.executable, "-c", "import time; t = time.perf_counter(); import routebayes; "
                "print(time.perf_counter() - t)"]
    done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=True)
    if not importtime:
        return float(done.stdout)
    for line in done.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "routebayes.rm":
            return int(parts[1]) / 1e6
    raise BenchError("-X importtime did not list routebayes.rm")


# ------------------------------------------------------------------ checks

def check_outputs(workload: str, ops: list, result: dict, out_dir: Path) -> list[str]:
    """Check every operation's report against checks.py; reruns must match byte for byte."""
    problems = [f"{name} does not pass routebayes validate" for name in result["invalid"]]
    failing = {i for i, (_, path) in enumerate(ops) if path.name == "leg_over_protected.json"}
    failed = {tuple(f) for f in result["failed"]}
    expected_failed = {(r, i) for r in range(result["rounds"]) for i in failing}
    # Until rm clamps protection to capacity, every over-protected leg fails; after, none.
    if failed not in (set(), expected_failed):
        problems.append(f"failed operations {sorted(failed)} are not the over-protected legs "
                        f"{sorted(expected_failed)}")
    for index, (kind, path) in enumerate(ops):
        if failed and index in failing:
            continue
        first = None
        for rnd in range(result["rounds"]):
            out = out_path(out_dir, index, rnd)
            body = _TIMESTAMP.sub(b'"timestamp": ""', out.read_bytes())
            if first is None:
                first = body
                doc = json.loads(path.read_text())
                report = json.loads(body)
                problems += [f"{path.name}: {p}" for p in checks.check_report(
                    doc, report, kind, TRIALS, exact=workload == "plan_exact")]
            elif body != first:
                problems.append(f"{path.name}: round {rnd} report differs from round 0")
    return problems


# ----------------------------------------------------------------- metrics

def end_to_end(result: dict, setups: list[float]) -> dict:
    times = result["times"]
    return {
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / result["loop_s"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(setups),
    }


def _median(values) -> float:
    """Median, or 0 where the workload never ran the layer."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(spans: list[dict], n_ops_round: int, probes: dict) -> dict:
    """Per-layer figures from the spans: times are medians over operations of the
    time each operation spent in the layer; counts are totals over the first round."""
    ops = [i for i, s in enumerate(spans) if s["name"] == "op"]
    owner = {}
    for i, span in enumerate(spans):
        j = i
        while spans[j]["parent"] is not None:
            j = spans[j]["parent"]
        owner[i] = j
    per_op = {op: {} for op in ops}
    for i, span in enumerate(spans):
        if span["name"] != "op":
            table = per_op[owner[i]]
            table[span["name"]] = table.get(span["name"], 0.0) + span["end"] - span["start"]

    def layer_s(name: str) -> float:
        return _median(t[name] for t in per_op.values() if name in t)

    first_round = set(ops[:n_ops_round])
    first = [s for i, s in enumerate(spans) if owner[i] in first_round]

    def total(name: str, attr: str) -> float:
        return float(sum(s["attrs"].get(attr, 0) for s in first if s["name"] == name))

    assembly = [t["pipeline.run_pipeline"] - sum(t.get(n, 0.0) for n in STAGE_CALLS)
                for t in per_op.values() if "pipeline.run_pipeline" in t]
    us_per_route = [1e6 * (s["end"] - s["start"]) / s["attrs"]["routes"] for s in spans
                    if s["name"] == "pipeline.evaluate_routes" and s["attrs"]["routes"]]
    plans = [s for s in spans if s["name"] == "planner.select_routes" and "exact" in s["attrs"]]
    sims = [s for s in spans if s["name"] == "rm.simulate_leg"]
    values = {
        **probes,
        "cli.main_s": layer_s("cli.main"),
        "scenario.load_s": layer_s("scenario.load_scenario"),
        "scenario.bytes_in": total("scenario.load_scenario", "bytes"),
        "pipeline.evaluate_routes_s": layer_s("pipeline.evaluate_routes"),
        "pipeline.evaluate_us_per_route": _median(us_per_route),
        "optimizer.optimize_weights_s": layer_s("optimizer.optimize_weights"),
        "pipeline.run_s": layer_s("pipeline.run_pipeline"),
        "pipeline.assembly_s": _median(assembly),
        "planner.select_routes_s": layer_s("planner.select_routes"),
        "planner.positive_candidates": total("planner.select_routes", "positive"),
        "planner.exact_share": (sum(s["attrs"]["exact"] for s in plans) / len(plans)) if plans else 0.0,
        "rm.demand_model_s": layer_s("rm.DemandModel"),
        "rm.littlewood_s": layer_s("rm.littlewood_protection"),
        "rm.overbooking_s": layer_s("rm.overbooking_limit"),
        "rm.expected_revenue_s": layer_s("rm.expected_revenue"),
        "rm.fcfs_s": layer_s("rm.fcfs_baseline"),
        "rm.revenue_cells": total("rm.expected_revenue", "cells") + total("rm.fcfs_baseline", "cells"),
        "rm.booking_steps": total("rm.overbooking_limit", "steps"),
        "rm.simulate_s": layer_s("rm.simulate_leg"),
        "rm.sim_trials_per_s": _median(
            s["attrs"]["trials"] / (s["end"] - s["start"]) for s in sims),
        "report.emit_json_s": layer_s("report.emit_json"),
        "report.emit_csv_s": layer_s("report.emit_csv"),
        "report.emit_table_s": layer_s("report.emit_table"),
        "report.bytes_out": float(sum(spans[op]["attrs"].get("bytes_out", 0)
                                      for op in ops[:n_ops_round])),
    }
    return values


# ------------------------------------------------------------ entry point

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Generate, run, check; return (summary, metrics)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = HERE / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    ops = gen.generate(workload, seed, work / "inputs")
    (work / "ops.json").write_text(json.dumps([[kind, str(path)] for kind, path in ops]))
    if trace:
        result = start_worker(workload, work, "trace", seconds, deadline)
        probes = {
            "import.routebayes_s": statistics.median(
                import_probe(False, deadline) for _ in range(IMPORT_PROBES)),
            "import.rm_s": statistics.median(import_probe(True, deadline) for _ in range(IMPORT_PROBES)),
        }
        spans = json.loads((work / "trace.json").read_text())
        metrics = per_layer(spans, len(ops), probes)
        units = PER_LAYER
    else:
        setups = [start_worker(workload, work, "setup", seconds, deadline)["setup_s"]
                  for _ in range(SETUPS - 1)]
        result = start_worker(workload, work, "timed", seconds, deadline)
        metrics = end_to_end(result, setups + [result["setup_s"]])
        units = END_TO_END
    problems = check_outputs(workload, ops, result, work / "out")
    times = result["times"]
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace), "correct": not problems,
        "attempted": len(times), "failed": len(result["failed"]), "samples": len(times),
        "rounds": result["rounds"], "op_p50_s": statistics.median(times),
        # A 90th percentile needs ten samples beyond it to say anything about the tail.
        "op_p90_s": statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None,
    }
    if trace:
        summary["span_cost_s"] = result["span_cost_s"]
        summary["spans_per_op"] = result["spans_per_op"]
    for problem in problems[:20]:
        print(f"CHECK FAILED {workload}: {problem}", file=sys.stderr)
    return summary, {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "routebayes" / "__init__.py").is_file():
        print(f"error: no routebayes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, combined = True, 0, 0, {}
    for name in names:
        try:
            summary, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(summary))
        for metric, entry in metrics.items():
            print(f"  {name} {metric} = {entry['value']:.6g} {entry['unit']}")
        correct &= summary["correct"]
        attempted += summary["attempted"]
        failed += summary["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        combined.update({prefix + metric: entry for metric, entry in metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
