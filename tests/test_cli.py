"""Tests for the phocus command-line interface."""

from __future__ import annotations

import pytest

from repro.datasets.io import save_dataset
from repro.datasets.public import generate_public_dataset
from repro.system.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "--dataset", "P-1K"])
        assert args.algorithm == "phocus"
        assert args.tau == 0.0
        assert args.scale == 0.1

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--dataset", "P-1K", "--algorithm", "magic"])


class TestCommands:
    def test_datasets_lists_table2(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "P-100K" in out
        assert "EC-Fashion" in out

    def test_demo_prints_figure3_trace(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "pick p1" in out
        assert "7.830" in out
        assert "objective value" in out

    def test_solve_named_dataset(self, capsys):
        code = main(
            [
                "solve", "--dataset", "P-1K", "--scale", "0.05",
                "--budget-mb", "10", "--tau", "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm            : phocus" in out
        assert "sparsification" in out

    def test_solve_dataset_file(self, tmp_path, capsys):
        ds = generate_public_dataset(40, 8, seed=1)
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        code = main(
            ["solve", "--dataset-file", str(path), "--budget-fraction", "0.2",
             "--no-certificate"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "objective value" in out
        assert "certificate" not in out.split("least-covered")[0].split("solve time")[1]

    def test_solve_requires_exactly_one_source(self, capsys):
        assert main(["solve"]) == 2
        assert main(["solve", "--dataset", "P-1K", "--dataset-file", "x.json"]) == 2

    def test_solve_default_budget_note(self, capsys):
        code = main(["solve", "--dataset", "P-1K", "--scale", "0.05"])
        assert code == 0
        assert "defaulting to 10%" in capsys.readouterr().out

    def test_compare_prints_grid(self, capsys):
        code = main(
            ["compare", "--dataset", "P-1K", "--scale", "0.05",
             "--budget-fractions", "0.1,0.3",
             "--algorithms", "rand-a,phocus"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PHOcus" in out and "RAND" in out
        assert "maximum attainable score" in out

    def test_compare_rejects_unknown_algorithm(self, capsys):
        code = main(
            ["compare", "--dataset", "P-1K", "--scale", "0.05",
             "--algorithms", "rand-a,wizardry"]
        )
        assert code == 2
