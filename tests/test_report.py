import json
import os
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routebayes.errors import IoError
from routebayes.pipeline import run_pipeline
from routebayes.report import Report, emit_report, report_to_json
from routebayes.scenario import json_text, load_scenario, round12

DEMO = Path(__file__).parents[1] / "scenarios" / "demo.json"


@pytest.fixture(scope="module")
def full_report():
    return run_pipeline(load_scenario(DEMO), ["evaluate", "optimize", "plan", "rm"], trials=300)


class TestJson:
    def test_roundtrip_value_identical(self, full_report, tmp_path):
        out = tmp_path / "report.json"
        emit_report(full_report, format="json", destination=out)
        parsed = Report.from_dict(json.loads(out.read_text()))
        assert parsed.to_dict() == full_report.to_dict()

    def test_stable_key_order(self, full_report):
        text = report_to_json(full_report)
        keys = list(json.loads(text))
        assert keys == ["meta", "evaluation", "optimization", "plan", "rm"]

    def test_stdout_emission(self, full_report, capsys):
        emit_report(full_report, format="json")
        out = capsys.readouterr().out
        assert json.loads(out)["meta"]["schema_version"] == "1"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_number_is_never_written(self, full_report, value):
        doc = full_report.to_dict()
        doc["rm"] = dict(doc["rm"], legs=[dict(doc["rm"]["legs"][0], uplift_pct=value)])
        with pytest.raises(ValueError, match="not JSON compliant"):
            report_to_json(Report.from_dict(doc))


KEYS = st.text() | st.sampled_from(["", "caf\u00e9", "\u2028", "\U0001f6eb", 'a"b\\c', "\n\t\x00"])
LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | KEYS
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e16, 1.0, 0.1, 1.7976931348623157e308])
)


def json_trees(depth: int):
    if depth == 0:
        return LEAVES
    inner = json_trees(depth - 1)
    return LEAVES | st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4)


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(json_trees(6))
    @example({})
    @example([])
    @example({"a": [], "b": {}, "c": [{}, [[]]]})
    @example({"\u00fc": [-0.0, 5e-324, 1e16, 10**30, True, None]})
    def test_matches_json_dumps_indent_2(self, tree):
        assert json_text(tree) == json.dumps(tree, indent=2, allow_nan=False)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_raises_the_json_dumps_error(self, value):
        tree = {"legs": [{"uplift_pct": value}]}
        with pytest.raises(ValueError) as want:
            json.dumps(tree, indent=2, allow_nan=False)
        with pytest.raises(ValueError) as got:
            json_text(tree)
        assert str(got.value) == str(want.value)
        assert "not JSON compliant" in str(got.value)

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", (1, 2), {1: "int key"}])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json_text({"value": value})


class TestRounding:
    def test_round12(self):
        assert round12(1 / 3) == 0.333333333333
        assert round12(0.54) == 0.54
        assert round12(123456789.123456789) == 123456789.123

    def test_report_floats_survive_reparse(self, full_report):
        text = report_to_json(full_report)
        assert Report.from_dict(json.loads(text)).to_dict() == full_report.to_dict()


class TestCsv:
    def test_route_section_headers_exact(self, full_report, tmp_path):
        emit_report(full_report, format="csv", destination=tmp_path / "out")
        header = (tmp_path / "out.routes.csv").read_text().splitlines()[0]
        assert header == (
            "route_id,fleet,flights_per_week,aircraft,profit,total_probability,"
            "post_service,post_capital,post_costs,score"
        )

    def test_posterior_columns_follow_custom_ids(self, tmp_path):
        scenario = load_scenario(Path(__file__).parents[1] / "scenarios" / "fleet_mix.json")
        report = run_pipeline(scenario, ["evaluate"])
        emit_report(report, format="csv", destination=tmp_path / "fm")
        header = (tmp_path / "fm.routes.csv").read_text().splitlines()[0]
        assert "post_experience,post_capital,post_costs" in header

    def test_one_file_per_section(self, full_report, tmp_path):
        emit_report(full_report, format="csv", destination=tmp_path / "out")
        names = sorted(p.name for p in tmp_path.glob("out.*.csv"))
        assert names == [
            "out.fleet_usage.csv", "out.meta.csv", "out.optimization.csv",
            "out.plan.csv", "out.rm_legs.csv", "out.routes.csv",
        ]

    def test_directory_destination(self, full_report, tmp_path):
        target = tmp_path / "sections"
        target.mkdir()
        emit_report(full_report, format="csv", destination=target)
        assert (target / "routes.csv").exists()

    def test_stdout_sections_marked(self, full_report, capsys):
        emit_report(full_report, format="csv")
        out = capsys.readouterr().out
        assert "# section: routes" in out
        assert "# section: rm_legs" in out

    def test_row_values_match_report(self, full_report, tmp_path):
        emit_report(full_report, format="csv", destination=tmp_path / "out")
        lines = (tmp_path / "out.routes.csv").read_text().splitlines()
        first = lines[1].split(",")
        row = full_report.evaluation["routes"][0]
        assert first[0] == row["route_id"]
        assert float(first[5]) == row["total_probability"]


class TestTable:
    def test_contains_sections(self, full_report, capsys):
        emit_report(full_report, format="table")
        out = capsys.readouterr().out
        for marker in ("== meta ==", "== evaluation ==", "== optimization ==",
                       "== plan ==", "== revenue management =="):
            assert marker in out

    def test_empty_plan_row(self, capsys):
        report = Report(
            meta={"schema_version": "1"},
            plan={"weights_used": "prior", "selected": [], "used": {}, "availability": {},
                  "total_score": 0.0, "per_route_scores": {}, "heuristic": False},
        )
        emit_report(report, format="table")
        assert "no routes selected" in capsys.readouterr().out


class TestErrors:
    def test_unknown_format(self, full_report):
        with pytest.raises(ValueError):
            emit_report(full_report, format="xml")

    @pytest.mark.parametrize("format", ["json", "csv", "table"])
    def test_missing_directory_is_an_io_error(self, full_report, tmp_path, format):
        with pytest.raises(IoError, match="missing"):
            emit_report(full_report, format=format, destination=str(tmp_path / "missing") + os.sep)
        assert list(tmp_path.iterdir()) == []


class TestFileMode:
    @pytest.mark.parametrize("format", ["json", "csv"])
    def test_written_files_follow_the_umask(self, full_report, tmp_path, format):
        old = os.umask(0o022)
        try:
            emit_report(full_report, format=format, destination=tmp_path / "out")
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
        assert modes and set(modes.values()) == {0o644}
