"""Ablation — the paper's mu tuning grid {0, 0.001, 0.01, 0.1, 1}.

Section 5.3.2 tunes mu from a small candidate set per dataset.  This
ablation sweeps the full grid on Synthetic(1,1) under 90% stragglers and
checks that some mu > 0 beats mu = 0 (the reason the grid exists).
"""

import numpy as np

from repro.core import MU_GRID, EvalConfig, make_fedprox
from repro.datasets import make_synthetic
from repro.models import MultinomialLogisticRegression
from repro.reporting import format_table
from repro.systems import FractionStragglers

ROUNDS = 40
SEED = 0


def _run_sweep():
    dataset = make_synthetic(1.0, 1.0, num_devices=20, seed=3, size_cap=300)
    results = {}
    for mu in (0.0,) + MU_GRID:
        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        trainer = make_fedprox(
            dataset, model, 0.01, mu=mu,
            systems=FractionStragglers(0.9, seed=SEED), seed=SEED,
            evaluation=EvalConfig(every=ROUNDS),
        )
        results[mu] = trainer.run(ROUNDS)
    return results


def test_mu_sweep(benchmark):
    results = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)

    rows = [
        {
            "mu": mu,
            "final_loss": h.final_train_loss(),
            "best_loss": min(h.train_losses),
            "unstable_rounds": int((np.diff(h.train_losses) > 0).sum()),
        }
        for mu, h in results.items()
    ]
    print()
    print(format_table(rows, title="mu sweep on Synthetic(1,1), 90% stragglers"))

    finals = {mu: h.final_train_loss() for mu, h in results.items()}
    best_positive = min(v for mu, v in finals.items() if mu > 0)
    assert best_positive <= finals[0.0] * 1.05
    assert all(np.isfinite(v) for v in finals.values())
