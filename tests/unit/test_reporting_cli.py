"""Tests for figure reporting and the CLI front-end."""

import json

import pytest

from repro.analysis.reporting import FigureResult, render_table, save_result
from repro.cli import main


class TestFigureResult:
    def test_add_row_validates_arity(self):
        result = FigureResult(figure="F", title="t", columns=["a", "b"])
        result.add_row(1, 2)
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_column_access(self):
        result = FigureResult(figure="F", title="t", columns=["a", "b"])
        result.add_row(1, "x")
        result.add_row(2, "y")
        assert result.column("a") == [1, 2]
        assert result.column("b") == ["x", "y"]


class TestRenderTable:
    def test_contains_header_and_rows(self):
        result = FigureResult(figure="Figure 9", title="demo", columns=["col"])
        result.add_row(0.12345)
        text = render_table(result)
        assert "Figure 9" in text
        assert "col" in text
        assert "0.1235" in text  # floats rendered to 4 decimal places

    def test_notes_rendered(self):
        result = FigureResult(figure="F", title="t", columns=["c"], notes=["hello"])
        assert "note: hello" in render_table(result)


class TestSaveResult:
    def test_writes_text_and_json(self, tmp_path):
        result = FigureResult(figure="Figure 5", title="t", columns=["x"])
        result.add_row(1)
        path = save_result(result, tmp_path)
        assert path.exists()
        assert "Figure 5" in path.read_text()
        payload = json.loads((tmp_path / "figure_5.json").read_text())
        assert payload["rows"] == [[1]]


class TestCLI:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_stats_fsl(self, capsys):
        assert main(["stats", "fsl"]) == 0
        out = capsys.readouterr().out
        assert "dedup ratio" in out
        assert "fsl" in out

    def test_stats_json_is_scriptable(self, capsys):
        assert main(["stats", "fsl", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dataset"] == "fsl"
        assert payload["backups"] == len(payload["labels"])
        assert payload["dedup_ratio"] > 1.0
        assert 0.0 <= payload["frac_below_100"] <= 1.0
        assert 0.0 <= payload["last_pair_overlap"] <= 1.0

    def test_stats_json_deterministic(self, capsys):
        assert main(["stats", "synthetic", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["stats", "synthetic", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_report_json(self, tmp_path, capsys):
        assert main(["figure", "1", "--save", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["report", "--results", str(tmp_path), "--json"]) == 0
        lines = json.loads(capsys.readouterr().out)
        assert lines and all(
            set(line) == {"figure", "metric", "paper", "measured"}
            for line in lines
        )

    def test_generate_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "out.trace"
        assert main(["generate", "synthetic", str(path)]) == 0
        assert path.exists()
        from repro.datasets.trace import load_series

        series = load_series(path)
        assert series.name == "synthetic"

    def test_attack_command(self, capsys):
        code = main(
            ["attack", "synthetic", "--attack", "basic", "--auxiliary", "-2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "basic" in out and "rate=" in out

    def test_attack_with_defense_scheme(self, capsys):
        code = main(
            [
                "attack",
                "synthetic",
                "--attack",
                "locality",
                "--scheme",
                "combined",
                "-v",
                "5",
            ]
        )
        assert code == 0
        assert "combined" in capsys.readouterr().out

    def test_figure_command(self, tmp_path, capsys):
        assert main(["figure", "1", "--save", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert (tmp_path / "figure_1.txt").exists()

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["stats", "nope"])

    def test_attack_seed_changes_leakage_sample(self, capsys):
        outputs = {}
        for seed in ("1", "2"):
            assert main(
                [
                    "attack",
                    "fsl",
                    "--attack",
                    "basic",
                    "--leakage-rate",
                    "0.01",
                    "--seed",
                    seed,
                ]
            ) == 0
            outputs[seed] = capsys.readouterr().out
        assert all("leak=1.00%" in out for out in outputs.values())
        # Seeds 1 and 2 are known to leak samples whose overlap with the
        # basic attack's own inferences differs (246 vs 245 correct pairs
        # on the canonical fsl workload) — if --seed stops being threaded
        # through to sample_leakage, both runs collapse to seed 0's output
        # and this assertion catches it.
        assert outputs["1"] != outputs["2"]

    def test_figure_jobs_flag_matches_serial(self, capsys):
        assert main(["figure", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["figure", "1", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_figure_cache_rerun_identical(self, tmp_path, capsys):
        cache = str(tmp_path / "cells")
        assert main(["figure", "1", "--cache", cache]) == 0
        first = capsys.readouterr().out
        assert main(["figure", "1", "--cache", cache]) == 0
        assert capsys.readouterr().out == first

    def test_sweep_command(self, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "--datasets",
                "fsl",
                "--attacks",
                "basic",
                "--pairs=-2:-1",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "inference_rate" in out
        payload = json.loads(json_path.read_text())
        assert payload["columns"][0] == "dataset"
        assert len(payload["rows"]) == 1
        assert payload["rows"][0][0] == "fsl"

    def test_sweep_rejects_malformed_pairs(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--datasets", "fsl", "--pairs", "nope"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--datasets", "nope"],
            ["sweep", "--datasets", "fsl", "--schemes", "rot13"],
            ["sweep", "--datasets", "fsl", "--attacks", "quantum"],
            ["sweep", "--datasets", "fsl", "--jobs", "0"],
            ["sweep", "--datasets", "fsl", "--pairs", "0:99"],
            ["sweep", "--datasets", "fsl", "--leakage-rates", "1.5"],
            ["figure", "1", "--jobs", "0"],
            ["attack", "fsl", "--backend", "sharded", "--shards", "0"],
        ],
    )
    def test_bad_axis_values_exit_cleanly(self, argv):
        with pytest.raises(SystemExit):
            main(argv)
