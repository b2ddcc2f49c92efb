"""CLI commands and export serialization."""

import csv
import json

import pytest

from repro.analysis import build_fig9, build_table1, build_table3, build_table4
from repro.analysis.export import (
    figure_to_dict,
    table_to_dicts,
    write_figure_csv,
    write_figure_json,
    write_table_json,
    write_timelines_csv,
)
from repro.cli import build_parser, main


class TestExports:
    def test_timelines_csv_roundtrip(self, campaign_result, tmp_path):
        path = write_timelines_csv(
            campaign_result.timelines, tmp_path / "timelines.csv"
        )
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(campaign_result.timelines)
        first = rows[0]
        assert {"url", "platform", "hosting", "vt_final", "gsb_min"} <= set(first)
        assert first["hosting"] in ("fwb", "self_hosted")

    def test_empty_timelines_csv(self, tmp_path):
        path = write_timelines_csv([], tmp_path / "empty.csv")
        assert path.read_text() == ""

    def test_table3_json(self, campaign_result, tmp_path):
        rows = build_table3(campaign_result.timelines)
        path = write_table_json(rows, tmp_path / "table3.json")
        data = json.loads(path.read_text())
        assert len(data) == 6
        assert set(data[0]) == {"entity", "fwb", "self_hosted"}
        assert 0 <= data[0]["fwb"]["coverage"] <= 1

    def test_table4_json(self, campaign_result, tmp_path):
        rows = build_table4(campaign_result.timelines)
        data = table_to_dicts(rows)
        assert all("entities" in row for row in data)

    def test_table1_json_via_dataclass_path(self, tmp_path):
        rows = build_table1(seed=3, sites_per_class=3, max_pairs=4,
                            services=("weebly",))
        data = table_to_dicts(rows)
        assert data[0]["fwb"] == "weebly"

    def test_unknown_row_type_rejected(self):
        with pytest.raises(TypeError):
            table_to_dicts([object()])

    def test_figure_json_and_csv(self, campaign_result, tmp_path):
        figure = build_fig9(campaign_result.timelines)
        json_path = write_figure_json(figure, tmp_path / "fig9.json")
        data = json.loads(json_path.read_text())
        assert data["x_values"] == list(figure.x_values)
        assert set(data["series"]) == set(figure.series)

        csv_path = write_figure_csv(figure, tmp_path / "fig9.csv")
        with csv_path.open() as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == len(figure.x_values) + 1
        assert rows[0][0] == figure.x_label

    def test_figure_to_dict_pure(self, campaign_result):
        figure = build_fig9(campaign_result.timelines)
        data = figure_to_dict(figure)
        assert data["title"].startswith("Fig.9")


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        for command in ("campaign", "historical", "characterize",
                        "table1", "table2", "demo"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_runs(self, capsys):
        assert main(["--seed", "3", "demo"]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out

    def test_characterize_runs(self, capsys):
        assert main(["characterize", "--sample", "200"]) == 0
        assert "kappa" in capsys.readouterr().out

    def test_table1_runs(self, capsys):
        assert main(["table1", "--sites", "3", "--pairs", "4"]) == 0
        assert "weebly" in capsys.readouterr().out

    def test_campaign_with_export(self, tmp_path, capsys):
        code = main([
            "campaign", "--days", "1", "--target", "40",
            "--train-samples", "40", "--export-dir", str(tmp_path / "out"),
        ])
        assert code == 0
        out_dir = tmp_path / "out"
        for filename in ("timelines.csv", "table3.json", "table4.json", "fig9.json"):
            assert (out_dir / filename).exists(), filename
        assert "FWB cov" in capsys.readouterr().out

    def test_historical_runs(self, capsys):
        assert main(["historical", "--scale", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "D1:" in out and "SLD filter" in out
