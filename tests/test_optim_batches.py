"""BatchSchedule: the consolidated mini-batch schedule API.

These tests pin the public export and the schedule's edge cases
(fractional budgets, minimum work, validation).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.optim as optim
from repro.optim import (
    AdamSolver,
    BatchSchedule,
    GDSolver,
    MomentumSGDSolver,
    SGDSolver,
)


def _rng(seed=42):
    return np.random.default_rng(seed)


class TestExports:
    def test_schedule_api_is_public(self):
        assert "BatchSchedule" in optim.__all__
        assert hasattr(optim, "BatchSchedule")


class TestBatchScheduleProperties:
    @pytest.mark.parametrize(
        "n, bs, expected",
        [(10, 3, 4), (10, 5, 2), (10, 10, 1), (10, 20, 1), (1, 1, 1)],
    )
    def test_per_epoch(self, n, bs, expected):
        assert BatchSchedule(n, bs).per_epoch == expected

    @pytest.mark.parametrize(
        "epochs, expected",
        [(1.0, 4), (2.0, 8), (0.5, 2), (0.6, 2), (0.1, 1), (0.0, 1)],
    )
    def test_total_rounds_fractional_budgets(self, epochs, expected):
        # 10 samples, batch 3 -> 4 batches/epoch
        assert BatchSchedule(10, 3, epochs).total == expected

    def test_total_never_below_one(self):
        assert BatchSchedule(100, 10, 0.0).total == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 0, "batch_size": 1},
            {"n_samples": -3, "batch_size": 1},
            {"n_samples": 5, "batch_size": 0},
            {"n_samples": 5, "batch_size": 2, "epochs": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BatchSchedule(**kwargs)

    def test_one_epoch_covers_all_indices(self):
        batches = BatchSchedule(11, 4).one_epoch(_rng())
        assert [len(b) for b in batches] == [4, 4, 3]
        assert sorted(np.concatenate(batches)) == list(range(11))

    def test_batches_reshuffle_each_epoch(self):
        sched = BatchSchedule(8, 8, epochs=2.0)
        epochs = sched.materialize(_rng())
        assert len(epochs) == 2
        assert not np.array_equal(epochs[0], epochs[1])
        assert sorted(epochs[0]) == sorted(epochs[1]) == list(range(8))


class TestStackedPlansMatchScalarDraws:
    """stacked_plan consumes the rng exactly as the scalar solve does."""

    @pytest.mark.parametrize(
        "solver",
        [
            SGDSolver(0.1, batch_size=4),
            MomentumSGDSolver(0.1, batch_size=4),
            AdamSolver(0.01, batch_size=4),
        ],
        ids=["sgd", "momentum", "adam"],
    )
    def test_minibatch_solvers(self, solver):
        plan = solver.stacked_plan(10, 1.5, _rng())
        reference = BatchSchedule(10, 4, 1.5).materialize(_rng())
        assert len(plan) == len(reference) == BatchSchedule(10, 4, 1.5).total
        for a, b in zip(plan, reference):
            np.testing.assert_array_equal(a, b)

    def test_gd_plan_is_full_batches_without_rng_draws(self):
        solver = GDSolver(0.1)
        rng = _rng()
        state_before = rng.bit_generator.state
        plan = solver.stacked_plan(7, 3.0, rng)
        assert rng.bit_generator.state == state_before  # GD never shuffles
        assert len(plan) == 3
        for batch in plan:
            np.testing.assert_array_equal(batch, np.arange(7))

    def test_gd_negative_epochs_rejected(self):
        with pytest.raises(ValueError):
            GDSolver(0.1).stacked_plan(7, -1.0, _rng())
