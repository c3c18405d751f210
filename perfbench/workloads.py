"""The benchmark's workloads, driven through the public ``repro`` API.

Each workload is a closed loop: one process runs training *episodes* back
to back, each episode a fresh federation and trainer(s) running a fixed
number of rounds, each round after the previous finishes.  Episode ``i`` of
a run with seed ``s`` uses the seed :func:`episode_seed` ``(s, i)``, so a run
is reproducible from its seed and a traced run can replay exactly the
episodes of an untraced one.

Why each workload was chosen is recorded in ``BENCHMARK.json``; the layer
-> end-to-end prediction table is in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core import FederatedTrainer
from repro.core.config import EvalConfig
from repro.core.history import TrainingHistory
from repro.datasets import make_shakespeare_like, make_synthetic_ondemand
from repro.experiments import runner
from repro.experiments.configs import get_scale, make_synthetic_workload
from repro.models import CharLSTM, MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.systems.stragglers import FractionStragglers

Histories = Dict[str, TrainingHistory]


def episode_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th episode of a run seeded with ``seed``."""
    return seed * 1009 + index


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``prepare()`` builds what every episode shares (counted in set-up time);
    ``episode(shared, seed)`` trains and returns ``label -> history``.
    ``tracked`` names the run whose ``time_to_target_s`` is reported: the
    clock starts at its first round and stops at the end of the first round
    whose train loss is at or below ``target_loss`` or, for workloads whose
    loss curve has no usable target, at the end of round
    ``target_rounds - 1``.
    """

    name: str
    prepare: Callable[[], object]
    episode: Callable[[object, int], Histories]
    tracked: str
    target_loss: Optional[float] = None
    target_rounds: Optional[int] = None
    check: Optional[Callable[[Histories], List[str]]] = None


# --------------------------------------------------------------------------
# paper-synthetic: Figure 1, Synthetic(1,1), 90% stragglers.

#: The Figure-1 panel's federation is the experiment default (seed 0); the
#: run seed varies device selection, straggler draws and batch orders.  The
#: federation stays fixed because rounds-to-target differs by up to 2x
#: between Synthetic(1,1) draws, which would swamp any systems change.
PANEL_SEED = 0
PAPER_ROUNDS = 25
PAPER_MU = 1.0
PAPER_STRAGGLERS = 0.9
PAPER_TARGET_LOSS = 1.4
PAPER_TRACKED = f"FedProx (mu={PAPER_MU:g})"


def _paper_prepare():
    scale = get_scale("default")
    return scale, make_synthetic_workload(scale, 1.0, 1.0, seed=PANEL_SEED)


def _paper_episode(shared, seed: int) -> Histories:
    scale, workload = shared
    # Looked up on the module at call time, so a probe on run_methods sees
    # the call.
    return runner.run_methods(
        workload,
        scale,
        runner.figure1_methods(PAPER_MU),
        straggler_fraction=PAPER_STRAGGLERS,
        seed=seed,
        rounds=PAPER_ROUNDS,
    )


def _paper_check(histories: Histories) -> List[str]:
    fedavg = histories["FedAvg"].train_losses[-1]
    fedprox = histories[PAPER_TRACKED].train_losses[-1]
    if not fedprox < fedavg:
        return [
            f"ordering: {PAPER_TRACKED} final loss {fedprox:.4f} is not "
            f"below FedAvg's {fedavg:.4f}"
        ]
    return []


# --------------------------------------------------------------------------
# charlstm-async-qsgd: paper-size CharLSTM, async engine, qsgd8 + EF.

LSTM_ROUNDS = 20


def _lstm_episode(shared, seed: int) -> Histories:
    dataset = make_shakespeare_like(
        num_devices=12, vocab_size=80, seq_len=10,
        samples_per_device_mean=20.0, seed=seed,
    )
    model = CharLSTM(vocab_size=80, embed_dim=8, hidden=100, num_layers=2, seed=seed)
    trainer = FederatedTrainer(
        dataset, model, SGDSolver(0.8, batch_size=10),
        mu=0.001, clients_per_round=10, epochs=1, seed=seed,
        engine="async:window=2,arrivals=seeded,latency=1.2,jitter=0.6",
        comms="comms:codec=qsgd,bits=8,ef=true",
        evaluation=EvalConfig(every=2),
        label="charlstm",
    )
    with trainer:
        return {trainer.label: trainer.run(LSTM_ROUNDS)}


# --------------------------------------------------------------------------
# scale-ondemand: 10^5 on-demand devices, cohort engine, sampled eval.

SCALE_ROUNDS = 25


def _scale_episode(shared, seed: int) -> Histories:
    dataset = make_synthetic_ondemand(1.0, 1.0, num_devices=100_000, seed=seed)
    trainer = FederatedTrainer(
        dataset,
        MultinomialLogisticRegression(dim=60, num_classes=10),
        SGDSolver(0.01, batch_size=10),
        mu=1.0, clients_per_round=10, epochs=20, seed=seed,
        systems=FractionStragglers(0.5, seed=seed),
        engine="cohort",
        comms="comms:codec=qsgd,bits=8,ef=true",
        evaluation=EvalConfig(every=1, strategy="sampled", sample_size=100, strata=10),
        label="scale",
    )
    with trainer:
        return {trainer.label: trainer.run(SCALE_ROUNDS)}


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-synthetic",
            prepare=_paper_prepare,
            episode=_paper_episode,
            tracked=PAPER_TRACKED,
            target_loss=PAPER_TARGET_LOSS,
            check=_paper_check,
        ),
        Workload(
            name="charlstm-async-qsgd",
            prepare=lambda: None,
            episode=_lstm_episode,
            tracked="charlstm",
            target_rounds=LSTM_ROUNDS,
        ),
        Workload(
            name="scale-ondemand",
            prepare=lambda: None,
            episode=_scale_episode,
            tracked="scale",
            target_rounds=SCALE_ROUNDS,
        ),
    )
}


def finite_failures(histories: Histories) -> List[str]:
    """Every loss and accuracy a history recorded must be finite."""
    failures = []
    for label, history in histories.items():
        for record in history.records:
            for field in ("train_loss", "test_accuracy"):
                value = getattr(record, field)
                if value is not None and not math.isfinite(value):
                    failures.append(
                        f"{label} round {record.round_idx}: {field}={value}"
                    )
    return failures
