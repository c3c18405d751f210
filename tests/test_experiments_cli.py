"""Tests for the `python -m repro.experiments` command-line interface."""

import csv
import inspect

import pytest

from repro.experiments import SMOKE, FigureResult
from repro.experiments.__main__ import main
from repro.experiments.configs import make_synthetic_iid_workload
from repro.experiments.registry import EXPERIMENTS, ExperimentEntry


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "table1" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "Available experiments" in capsys.readouterr().out

    def test_table1_smoke(self, capsys):
        assert main(["table1", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Table 1 (reproduced" in out
        assert "MNIST-like" in out

    def test_table1_csv_output(self, tmp_path, capsys):
        assert main(["table1", "--scale", "smoke", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table1.csv").exists()
        content = (tmp_path / "table1.csv").read_text()
        assert "MNIST-like" in content

    def test_figure5_smoke_with_csv(self, tmp_path, capsys):
        assert main(
            ["figure5", "--scale", "smoke", "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "figure5" in out
        assert (tmp_path / "figure5_summary.csv").exists()
        series = list((tmp_path / "figure5").glob("*.csv"))
        assert len(series) == 4  # one per straggler level

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["figure99"])

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--scale", "giant"])

    def test_seed_flag(self, capsys):
        assert main(["table1", "--scale", "smoke", "--seed", "3"]) == 0


class TestEngineFlag:
    @pytest.fixture
    def engines(self, monkeypatch):
        """Swap figure5's runner for a stub recording the engine it gets."""
        seen = []

        def runner(scale, seed, engine):
            seen.append(engine)
            return FigureResult(figure_id="figure5", description="stub")

        monkeypatch.setitem(
            EXPERIMENTS, "figure5", ExperimentEntry("figure5", "stub", runner)
        )
        return seen

    def test_default_is_auto(self, engines, capsys):
        assert main(["figure5"]) == 0
        assert engines == ["auto"]
        assert "== figure5: stub (scale=smoke, engine=auto) ==" in (
            capsys.readouterr().out
        )

    @pytest.mark.parametrize("engine", ["serial", "cohort", "parallel:2"])
    def test_explicit_spec_forwarded(self, engines, capsys, engine):
        assert main(["figure5", "--engine", engine]) == 0
        assert engines == [engine]
        assert f"engine={engine})" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "engine, message",
        [("warp", "unknown executor mode"), ("cohort:2", "takes no argument")],
    )
    def test_bad_spec_rejected_with_labelled_error(
        self, engines, capsys, engine, message
    ):
        with pytest.raises(SystemExit):
            main(["figure5", "--engine", engine])
        assert message in capsys.readouterr().err
        assert engines == []

    def test_every_training_runner_takes_engine(self):
        for experiment_id, entry in EXPERIMENTS.items():
            if experiment_id == "table1":  # generates datasets, trains nothing
                continue
            params = inspect.signature(entry.runner).parameters
            assert params["engine"].default == "auto", experiment_id

    def test_serial_and_auto_csvs_agree(self, tmp_path, capsys):
        for engine in ("serial", "auto"):
            out = tmp_path / engine
            assert main(["figure5", "--engine", engine, "--out", str(out)]) == 0
        n_test = int(make_synthetic_iid_workload(SMOKE).dataset.test_sizes.sum())
        serial_files = sorted((tmp_path / "serial" / "figure5").glob("*.csv"))
        assert len(serial_files) == 4
        for path in serial_files:
            with open(path) as f:
                serial = list(csv.DictReader(f))
            with open(tmp_path / "auto" / "figure5" / path.name) as f:
                auto = list(csv.DictReader(f))
            assert len(serial) == len(auto)
            for row_s, row_a in zip(serial, auto):
                for column, value in row_s.items():
                    if column.endswith(" loss"):
                        assert abs(float(value) - float(row_a[column])) <= 1e-9
                    elif column.endswith(" acc") and value:
                        diff = abs(float(value) - float(row_a[column]))
                        assert diff <= 1.0 / n_test + 1e-12
