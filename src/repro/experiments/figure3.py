"""Figures 3 and 11 — adaptively setting µ.

The heuristic (Section 5.3.2): increase µ by 0.1 whenever the loss
increases, decrease it by 0.1 after 5 consecutive decreasing rounds.
Initial µ is chosen *adversarially*: 1 on Synthetic-IID (where a proximal
term can only slow things down) and 0 on the heterogeneous datasets (where
it is needed).  Figure 3 shows Synthetic-IID and Synthetic(1,1); Figure 11
shows all four synthetic datasets.

Expected shape: the adaptive run tracks the best fixed-µ run on each
dataset despite the adversarial start.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .configs import get_scale, synthetic_suite_workloads
from .results import FigureResult, PanelResult
from .runner import MethodSpec, run_methods

#: Adversarial initial µ per synthetic dataset (paper's choice).
ADVERSARIAL_MU0 = {
    "Synthetic-IID": 1.0,
    "Synthetic(0,0)": 0.0,
    "Synthetic(0.5,0.5)": 0.0,
    "Synthetic(1,1)": 0.0,
}

FIGURE3_DATASETS = ("Synthetic-IID", "Synthetic(1,1)")


def run_figure3(
    scale: str = "smoke",
    seed: int = 0,
    datasets: Sequence[str] = FIGURE3_DATASETS,
    fixed_mu: float = 1.0,
    engine: str = "auto",
) -> FigureResult:
    """Run the adaptive-µ comparison on the requested synthetic datasets."""
    s = get_scale(scale)
    workloads = synthetic_suite_workloads(s, seed=seed)
    workloads = {k: v for k, v in workloads.items() if k in set(datasets)}

    result = FigureResult(
        figure_id="figure3",
        description="Adaptive mu heuristic from adversarial initialization (Figs 3 & 11)",
    )
    for name, workload in workloads.items():
        methods = [
            MethodSpec(label="FedAvg (FedProx, mu=0)", mu=0.0),
            MethodSpec(
                label="FedProx, dynamic mu",
                adaptive_mu_from=ADVERSARIAL_MU0[name],
            ),
            MethodSpec(label=f"FedProx, mu={fixed_mu:g}", mu=fixed_mu),
        ]
        histories = run_methods(
            workload, s, methods, straggler_fraction=0.0, seed=seed,
            engine=engine,
        )
        result.panels.append(
            PanelResult(dataset=name, environment="", histories=histories)
        )
    return result


def run_figure11(
    scale: str = "smoke", seed: int = 0, engine: str = "auto"
) -> FigureResult:
    """Figure 11: the adaptive-µ comparison on all four synthetic datasets."""
    result = run_figure3(
        scale=scale,
        seed=seed,
        datasets=(
            "Synthetic-IID",
            "Synthetic(0,0)",
            "Synthetic(0.5,0.5)",
            "Synthetic(1,1)",
        ),
        engine=engine,
    )
    result.figure_id = "figure11"
    return result
