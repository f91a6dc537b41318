"""Report container and emitters (json, csv, table).

JSON is the canonical form: stable key order, floats at 12 significant
digits (the pipeline rounds each float as it builds a section, so emitting
and re-parsing is lossless), written by ``scenario.json_text`` with the
bytes of ``json.dumps(indent=2)``. CSV writes one file per section with
fixed, documented headers; the table format is for reading at a terminal.
File output is atomic (temp file plus rename).
"""

from __future__ import annotations

import csv
import io
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import IoError
from .scenario import atomic_write_text, json_text

FORMATS = ("json", "csv", "table")

#: Fixed columns of the routes CSV section; posterior columns follow the
#: drivers, named post_<last token of the hypothesis id>.
ROUTE_CSV_BASE = ("route_id", "fleet", "flights_per_week", "aircraft", "profit",
                  "total_probability")


@dataclass(frozen=True)
class Report:
    """Pipeline output; sections present only for the stages that ran."""

    meta: dict
    evaluation: dict | None = None
    optimization: dict | None = None
    plan: dict | None = None
    rm: dict | None = None

    def to_dict(self) -> dict:
        doc = {"meta": self.meta}
        for name in ("evaluation", "optimization", "plan", "rm"):
            section = getattr(self, name)
            if section is not None:
                doc[name] = section
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Report":
        return cls(
            meta=doc["meta"],
            evaluation=doc.get("evaluation"),
            optimization=doc.get("optimization"),
            plan=doc.get("plan"),
            rm=doc.get("rm"),
        )


def report_to_json(report: Report) -> str:
    return json_text(report.to_dict()) + "\n"


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


def _csv_sections(report: Report) -> dict[str, str]:
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


def _table_text(report: Report) -> str:
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


def _csv_destination_paths(destination, sections) -> dict[str, Path]:
    base = Path(destination)
    if base.is_dir():
        return {name: base / f"{name}.csv" for name in sections}
    stem = base
    if stem.suffix == ".csv":
        stem = stem.with_suffix("")
    return {name: stem.parent / f"{stem.name}.{name}.csv" for name in sections}


def emit_report(report: Report, format: str = "json", destination=None) -> None:
    """Write the report to ``destination`` (a path) or standard output.

    csv produces one file per section (``<stem>.<section>.csv``, or
    ``<dir>/<section>.csv`` when the destination is a directory); on stdout
    the sections are separated by ``# section: <name>`` lines. A destination
    ending in a path separator names a directory, which must exist.
    """
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    if isinstance(destination, str) and destination.endswith(("/", os.sep)) and not Path(destination).is_dir():
        raise IoError(f"cannot write {destination}: no such directory")
    if format == "json":
        text = report_to_json(report)
    elif format == "table":
        text = _table_text(report)
    else:
        sections = _csv_sections(report)
        if destination is None:
            sys.stdout.write("\n".join(f"# section: {name}\n{body}" for name, body in sections.items()))
            return
        for name, path in _csv_destination_paths(destination, sections).items():
            atomic_write_text(path, sections[name])
        return
    if destination is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(destination, text)
