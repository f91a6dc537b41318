"""Report container and emitters (json, csv, table).

JSON is the canonical form: stable key order, floats at 12 significant digits (the pipeline rounds each float as it
builds a section, so emitting and re-parsing is lossless), written by ``scenario.json_text``, the one JSON writer,
with the bytes of ``json.dumps(indent=2)``.
CSV writes one file per section with fixed, documented headers; the table format is for reading at a terminal. Both
are drawn from ``_SECTIONS``, which describes each printed section once. File output is atomic (temp file plus
rename).
"""

import csv
import io
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, fields
from itertools import repeat, starmap
from operator import itemgetter
from pathlib import Path

from .errors import IoError
from .scenario import atomic_write_text, json_text

FORMATS = ("json", "csv", "table")


@dataclass(frozen=True)
class Report:
    """Pipeline output; sections present only for the stages that ran."""

    meta: dict
    evaluation: dict | None = None
    optimization: dict | None = None
    plan: dict | None = None
    rm: dict | None = None

    def to_dict(self) -> dict:
        return {f.name: section for f in fields(self) if (section := getattr(self, f.name)) is not None}

    @classmethod
    def from_dict(cls, doc: dict) -> "Report":
        return cls(**{f.name: doc[f.name] for f in fields(cls) if f.name in doc})


def report_to_json(report: Report) -> str:
    return json_text(report.to_dict()) + "\n"


def _fmt(value) -> str:
    """A cell as the CSV writes it; also the table's default formatter."""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(map(_fmt, value))
    return "" if value is None else str(value)


_G6 = "{:.6g}".format

#: A column of a printed section: its CSV header and table header (None where that
#: format leaves the column out), the key that reads its cell from a row (see
#: ``_values``), and the table's formatter. The CSV formats every cell with ``_fmt``.
_Column = namedtuple("_Column", "csv table key fmt", defaults=(_fmt,))

#: A printed section: ``source``, the Report field it reads; its CSV name and table
#: title (None where that format leaves the section out); ``rows``, a function of the
#: section dict that gives its rows (iterable more than once); ``columns``, its
#: ``_Column`` tuples or a function of the section dict that gives them; ``before``
#: and ``after``, functions of the section dict that give the table's lines above and
#: below the rows; ``table_rows``, the table's rows where they differ from the CSV's;
#: and ``empty``, the line that stands in for a table with no rows.
_Section = namedtuple("_Section", "source csv table rows columns before after table_rows empty",
                      defaults=(lambda section: (), lambda section: (), None, None))


def _values(rows, key):
    """The cells at ``key`` in ``rows``; a pair ``(key, index)`` reads ``row[key][index]``."""
    if isinstance(key, tuple):
        outer, inner = key
        return (row[outer][inner] for row in rows)
    return map(itemgetter(key), rows)


def _route_columns(evaluation) -> tuple:
    """The routes section's columns. Each driver has a posterior column, named
    post_<last underscore token of its hypothesis id>, or post_<id> where two ids
    share that token."""
    ids = evaluation["hypotheses"]
    tails = [hid.rpartition("_")[2] for hid in ids]
    return (
        ("route_id", "route", "route_id"), ("fleet", "fleet", "fleet"),
        ("flights_per_week", "flights", "flights_per_week"), ("aircraft", "aircraft", "aircraft"),
        (None, "load_factor", "achieved_load_factor", "{:.3f}".format), ("profit", "profit", "profit", _G6),
        ("total_probability", "p_profitable", "total_probability", "{:.4f}".format),
        *(("post_" + (tail if tails.count(tail) == 1 else hid), None, ("posterior", i))
          for i, (hid, tail) in enumerate(zip(ids, tails))),
        (None, "top_driver", "top_driver"), ("score", "score", "score", _G6),
    )


def _plan_rows(plan) -> list[tuple]:
    """Every scored route in the plan's order, flagged by whether it was selected."""
    selected = set(plan["selected"])
    return [(rid, score, rid in selected) for rid, score in plan["per_route_scores"].items()]


def _plan_footer(plan) -> list[str]:
    usage = ", ".join(f"{name}={used}/{plan['availability'][name]}" for name, used in plan["used"].items())
    return [f"fleet usage: {usage}"] * bool(usage) + [f"total score: {plan['total_score']:.6g}"]


_SECTIONS = (
    _Section("meta", "meta", "meta", dict.items, (("key", None, 0), ("value", None, 1)),
             before=lambda meta: [f"{key}: {_fmt(value)}" for key, value in meta.items()]),
    _Section("evaluation", "routes", "evaluation", itemgetter("routes"), _route_columns, before=lambda ev: [
        "weights: " + ", ".join(f"{hid}={w:.6g}" for hid, w in zip(ev["hypotheses"], ev["weights"]))]),
    _Section("optimization", "optimization", "optimization",
             lambda opt: list(zip(opt["hypotheses"], opt["weights"], opt["active_bounds"], opt["sensitivity"],
                                  repeat(opt["objective"]))),
             (("hypothesis", "hypothesis", 0), ("weight", "weight", 1, _G6), ("active_bound", "bound", 2),
              ("sensitivity", "sensitivity", 3, _G6), ("objective", None, 4)),
             after=lambda opt: [f"objective: {opt['objective']:.6g}"]),
    _Section("plan", "plan", "plan", _plan_rows,
             (("route_id", "route", 0), ("score", "score", 1, _G6), ("selected", None, 2)),
             after=_plan_footer, empty="no routes selected",
             table_rows=lambda plan: [(rid, plan["per_route_scores"][rid]) for rid in plan["selected"]]),
    _Section("plan", "fleet_usage", None,
             lambda plan: [(name, used, plan["availability"][name]) for name, used in plan["used"].items()],
             (("fleet", None, 0), ("used", None, 1), ("available", None, 2))),
    _Section("rm", "rm_legs", "revenue management", itemgetter("legs"), (
        ("leg_id", "leg", "leg_id"), ("protection_level", "protect", "protection_level"),
        ("booking_limit", "limit", "booking_limit"), ("expected_revenue", "expected", "expected_revenue", _G6),
        ("fcfs_revenue", "fcfs", "fcfs_revenue", _G6),
        ("uplift_pct", "uplift_%", "uplift_pct", lambda v: "n/a" if v is None else f"{v:.3f}"),
        ("sim_mean_revenue", "sim_mean", ("simulation", "mean_revenue"), _G6),
        ("sim_mean_load_factor", None, ("simulation", "mean_load_factor")),
        ("sim_denied_rate", None, ("simulation", "denied_rate")),
        ("sim_spill_rate", None, ("simulation", "spill_rate")),
    ), after=lambda rm: [f"trials: {rm['trials']}, seed: {rm['seed']}"]),
)


def _present(report: Report, format: str):
    """Each section of the report that ``format`` prints: its spec, its dict and the
    columns that ``format`` prints."""
    for spec in _SECTIONS:
        section = getattr(report, spec.source)
        if section is not None and getattr(spec, format):
            columns = spec.columns(section) if callable(spec.columns) else spec.columns
            yield spec, section, [c for c in starmap(_Column, columns) if getattr(c, format)]


def _csv_sections(report: Report) -> dict[str, str]:
    sections = {}
    for spec, section, columns in _present(report, "csv"):
        rows = spec.rows(section)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            zip(*[[c.csv, *map(_fmt, _values(rows, c.key))] for c in columns]))
        sections[spec.csv] = buf.getvalue()
    return sections


def _table_text(report: Report) -> str:
    blocks = []
    for spec, section, columns in _present(report, "table"):
        lines = [f"== {spec.table} ==", *spec.before(section)]
        rows = (spec.table_rows or spec.rows)(section)
        if spec.empty and not rows:
            lines.append(spec.empty)
        elif columns:
            cells = [[c.table, *map(c.fmt, _values(rows, c.key))] for c in columns]
            widths = [max(map(len, column)) for column in cells]
            head, *body = zip(*cells)
            lines += ["  ".join(map(str.ljust, row, widths)).rstrip()
                      for row in (head, ["-" * w for w in widths], *body)]
        lines += spec.after(section)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _csv_destination_paths(destination, sections) -> dict[str, Path]:
    base = Path(destination)
    if base.is_dir():
        return {name: base / f"{name}.csv" for name in sections}
    if base.suffix == ".csv":
        base = base.with_suffix("")
    return {name: base.parent / f"{base.name}.{name}.csv" for name in sections}


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
    if format == "csv":
        sections = _csv_sections(report)
        if destination is not None:
            for name, path in _csv_destination_paths(destination, sections).items():
                atomic_write_text(path, sections[name])
            return
        text = "\n".join(f"# section: {name}\n{body}" for name, body in sections.items())
    else:
        text = report_to_json(report) if format == "json" else _table_text(report)
    if destination is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(destination, text)
