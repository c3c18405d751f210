"""Tests for the generic comparison runner and result containers."""

import numpy as np
import pytest

from repro.core import TrainingHistory
from repro.core.feddane import FedDaneTrainer
from repro.core.sampling import WeightedSamplingSimpleAverage
from repro.datasets import make_shakespeare_like
from repro.experiments import (
    SMOKE,
    FigureResult,
    MethodSpec,
    PanelResult,
    build_trainer,
    figure1_methods,
    run_methods,
)
from repro.experiments.configs import (
    FIGURE1_BEST_MU,
    Workload,
    make_synthetic_workload,
)
from repro.faults import ChaosFaults, FaultPolicy
from repro.models import CharLSTM
from repro.runtime import (
    AsyncExecutor,
    CohortExecutor,
    ParallelExecutor,
    SerialExecutor,
)
from repro.systems.stragglers import NoHeterogeneity
from repro.telemetry import read_jsonl, replay_run


@pytest.fixture(scope="module")
def workload():
    return make_synthetic_workload(SMOKE, 1.0, 1.0, seed=0)


class TestMethodSpecs:
    def test_figure1_methods(self):
        methods = figure1_methods(0.01)
        assert [m.label for m in methods] == [
            "FedAvg",
            "FedProx (mu=0)",
            "FedProx (mu=0.01)",
        ]
        assert methods[0].drop_stragglers
        assert not methods[1].drop_stragglers
        assert methods[2].mu == 0.01


class TestBuildTrainer:
    def test_plain_trainer(self, workload):
        spec = MethodSpec(label="x", mu=0.5)
        trainer = build_trainer(spec, workload, SMOKE, NoHeterogeneity(), seed=0)
        assert trainer.mu == 0.5
        assert trainer.label == "x"
        assert trainer.epochs == SMOKE.epochs

    def test_feddane_trainer(self, workload):
        spec = MethodSpec(label="d", feddane=True, gradient_clients=6)
        trainer = build_trainer(spec, workload, SMOKE, NoHeterogeneity(), seed=0)
        assert isinstance(trainer, FedDaneTrainer)
        assert trainer.gradient_clients == 6

    def test_adaptive_mu_trainer(self, workload):
        spec = MethodSpec(label="a", adaptive_mu_from=1.0)
        trainer = build_trainer(spec, workload, SMOKE, NoHeterogeneity(), seed=0)
        assert trainer.mu_controller is not None
        assert trainer.mu == 1.0

    def test_sampling_factory_override(self, workload):
        spec = MethodSpec(label="x")
        trainer = build_trainer(
            spec, workload, SMOKE, NoHeterogeneity(), seed=0,
            sampling_factory=WeightedSamplingSimpleAverage,
        )
        assert isinstance(trainer.sampling, WeightedSamplingSimpleAverage)

    def test_epochs_override(self, workload):
        spec = MethodSpec(label="x")
        trainer = build_trainer(
            spec, workload, SMOKE, NoHeterogeneity(), seed=0, epochs=1.0
        )
        assert trainer.epochs == 1.0


class TestRunMethods:
    def test_returns_history_per_method(self, workload):
        methods = [MethodSpec(label="a", mu=0.0), MethodSpec(label="b", mu=1.0)]
        results = run_methods(workload, SMOKE, methods, rounds=3, seed=0)
        assert list(results) == ["a", "b"]
        assert all(isinstance(h, TrainingHistory) for h in results.values())
        assert all(len(h) == 3 for h in results.values())

    def test_straggler_fraction_produces_stragglers(self, workload):
        methods = [MethodSpec(label="a", mu=0.0)]
        results = run_methods(
            workload, SMOKE, methods, straggler_fraction=0.9, rounds=2, seed=0
        )
        assert any(r.stragglers for r in results["a"].records)

    def test_methods_share_environment(self, workload):
        methods = [MethodSpec(label="a", mu=0.0), MethodSpec(label="b", mu=1.0)]
        results = run_methods(
            workload, SMOKE, methods, straggler_fraction=0.5, rounds=3, seed=0
        )
        for ra, rb in zip(results["a"].records, results["b"].records):
            assert ra.selected == rb.selected
            assert ra.stragglers == rb.stragglers

    def test_track_dissimilarity(self, workload):
        results = run_methods(
            workload, SMOKE, [MethodSpec(label="a")], rounds=2, seed=0,
            track_dissimilarity=True,
        )
        assert results["a"].records[0].dissimilarity is not None


def _graph_lstm_workload():
    dataset = make_shakespeare_like(
        num_devices=6, seq_len=8, samples_per_device_mean=12, seed=0
    )
    return Workload(
        name="graph-lstm",
        dataset=dataset,
        model_factory=lambda: CharLSTM(
            vocab_size=80, embed_dim=4, hidden=8, num_layers=1, backend="graph"
        ),
        learning_rate=0.5,
        rounds=2,
        is_sequence=True,
    )


def _build(spec, workload, engine):
    return build_trainer(
        spec, workload, SMOKE, NoHeterogeneity(), seed=0, engine=engine
    )


class TestEngineResolution:
    """``engine="auto"`` picks cohort exactly when the stacked path exists."""

    def test_auto_is_the_default_and_picks_cohort(self, workload):
        with build_trainer(
            MethodSpec(label="x"), workload, SMOKE, NoHeterogeneity(), seed=0
        ) as trainer:
            assert isinstance(trainer.executor, CohortExecutor)
            assert trainer.engine_config.spec() == "cohort"

    def test_auto_falls_back_to_serial_without_stacked_kernel(self):
        lstm = _graph_lstm_workload()
        assert lstm.model_factory().stacked_local_solve_reason
        with _build(MethodSpec(label="x"), lstm, "auto") as trainer:
            assert isinstance(trainer.executor, SerialExecutor)
            assert trainer.engine_config.spec() == "serial"

    def test_feddane_follows_the_same_rule(self, workload):
        spec = MethodSpec(label="d", feddane=True)
        with _build(spec, workload, "auto") as trainer:
            assert isinstance(trainer, FedDaneTrainer)
            assert isinstance(trainer.executor, CohortExecutor)
        with _build(spec, _graph_lstm_workload(), "auto") as trainer:
            assert isinstance(trainer.executor, SerialExecutor)

    @pytest.mark.parametrize(
        "engine, executor_cls",
        [
            ("serial", SerialExecutor),
            ("cohort", CohortExecutor),
            ("parallel:1", ParallelExecutor),
            ("async:window=1", AsyncExecutor),
        ],
    )
    def test_explicit_specs_pass_through(self, workload, engine, executor_cls):
        with _build(MethodSpec(label="x"), workload, engine) as trainer:
            assert type(trainer.executor) is executor_cls
            assert trainer.engine_config.spec() == engine

    def test_explicit_cohort_is_not_downgraded(self):
        with pytest.raises(TypeError, match="backend='graph'"):
            _build(MethodSpec(label="x"), _graph_lstm_workload(), "cohort")

    def test_manifest_records_the_concrete_engine(self, workload, tmp_path):
        run_methods(
            workload, SMOKE, [MethodSpec(label="m")], rounds=1, seed=0,
            telemetry_dir=str(tmp_path),
        )
        path = str(tmp_path / "m.jsonl")
        manifest = read_jsonl(path)[0]
        assert manifest["type"] == "manifest"
        assert manifest["executor"] == "cohort"
        assert manifest["trainer_config"]["engine"]["mode"] == "cohort"
        assert replay_run(path).matches


class TestEngineParity:
    """``auto`` (cohort) reproduces the serial paper panel.

    Losses and dissimilarities agree to rounding.  Test accuracy is a count
    of correct test samples, so an ulp-level logit tie may flip a single
    prediction: it is compared to within one test sample.
    """

    TOL = 1e-9

    def _assert_parity(self, serial, auto, n_test):
        assert list(serial) == list(auto)
        for label in serial:
            for r1, r2 in zip(serial[label].records, auto[label].records):
                assert r1.selected == r2.selected
                assert abs(r1.train_loss - r2.train_loss) <= self.TOL, label
                if r1.dissimilarity is not None:
                    assert (
                        abs(r1.dissimilarity - r2.dissimilarity) <= self.TOL
                    ), label
                if r1.test_accuracy is not None:
                    assert (
                        abs(r1.test_accuracy - r2.test_accuracy)
                        <= 1.0 / n_test + 1e-12
                    ), label

    def _both(self, workload, methods, **kwargs):
        return [
            run_methods(
                workload, SMOKE, methods, straggler_fraction=0.9, seed=1,
                engine=engine, **kwargs,
            )
            for engine in ("serial", "auto")
        ]

    def test_figure1_panel_with_feddane_and_adaptive_mu(self, workload):
        methods = figure1_methods(FIGURE1_BEST_MU["Synthetic(1,1)"]) + [
            MethodSpec(label="FedDane", mu=1.0, feddane=True),
            MethodSpec(label="adaptive mu", adaptive_mu_from=0.0),
        ]
        serial, auto = self._both(workload, methods, track_dissimilarity=True)
        self._assert_parity(serial, auto, int(workload.dataset.test_sizes.sum()))

    def test_figure1_panel_under_faults(self, workload):
        methods = figure1_methods(1.0) + [
            MethodSpec(
                label="retry", mu=1.0,
                fault_policy=FaultPolicy(on_crash="retry", max_retries=1),
            )
        ]
        serial, auto = self._both(
            workload, methods, faults=ChaosFaults(rate=0.4, seed=5)
        )
        self._assert_parity(serial, auto, int(workload.dataset.test_sizes.sum()))


class TestResultContainers:
    def _figure(self, workload):
        histories = run_methods(
            workload, SMOKE, [MethodSpec(label="m1"), MethodSpec(label="m2", mu=1.0)],
            rounds=3, seed=0,
        )
        fig = FigureResult(figure_id="figX", description="test")
        fig.panels.append(
            PanelResult(dataset=workload.name, environment="0% stragglers", histories=histories)
        )
        return fig

    def test_panel_lookup(self, workload):
        fig = self._figure(workload)
        panel = fig.panel(workload.name)
        assert panel.environment == "0% stragglers"
        with pytest.raises(KeyError):
            fig.panel("nope")

    def test_series_accessors(self, workload):
        fig = self._figure(workload)
        panel = fig.panels[0]
        assert set(panel.loss_series()) == {"m1", "m2"}
        assert len(panel.loss_series()["m1"]) == 3
        assert len(panel.accuracy_series()["m2"]) == 3

    def test_render_contains_methods(self, workload):
        fig = self._figure(workload)
        text = fig.render(metric="loss", charts=False)
        assert "m1" in text and "m2" in text
        assert "figX" in text

    def test_render_accuracy_metric(self, workload):
        fig = self._figure(workload)
        assert "test accuracy" or "best" in fig.render(metric="accuracy")

    def test_render_rejects_unknown_metric(self, workload):
        fig = self._figure(workload)
        with pytest.raises(ValueError):
            fig.render(metric="wat")

    def test_summary_rows(self, workload):
        fig = self._figure(workload)
        rows = fig.summary_rows()
        assert len(rows) == 2
        assert {r["method"] for r in rows} == {"m1", "m2"}
        assert all(np.isfinite(r["final_loss"]) for r in rows)

    def test_write_series_csv(self, workload, tmp_path):
        fig = self._figure(workload)
        paths = fig.write_series_csv(tmp_path)
        assert len(paths) == 1
        content = paths[0].read_text()
        assert "m1 loss" in content
