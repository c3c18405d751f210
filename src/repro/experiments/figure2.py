"""Figures 2, 6 and 8 — statistical heterogeneity and dissimilarity.

Figure 2 removes systems heterogeneity (all devices run the full E=20
epochs) and sweeps the four synthetic datasets from IID to highly
heterogeneous, comparing FedProx µ=0 (= FedAvg here) against FedProx µ>0.
The top row is training loss; the bottom row is the gradient-variance
dissimilarity of Section 5.3.3.  Figure 6 adds the test-accuracy view of
the same runs.  Figure 8 measures the same dissimilarity metric on the
five Figure 1 datasets (0% stragglers).

Expected shape: convergence degrades from left (IID) to right
(Synthetic(1,1)) for µ=0; µ>0 mitigates the degradation (while possibly
slowing IID convergence); the variance metric is smaller under µ>0 and
tracks training loss.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .configs import FIGURE1_BEST_MU, figure1_workloads, get_scale, synthetic_suite_workloads
from .results import FigureResult, PanelResult
from .runner import MethodSpec, run_methods

#: µ used for the "FedProx, µ>0" line on synthetic data (best value 1).
SYNTHETIC_MU = 1.0


def run_figure2(
    scale: str = "smoke",
    seed: int = 0,
    mu: float = SYNTHETIC_MU,
    datasets: Optional[Sequence[str]] = None,
    engine: str = "auto",
) -> FigureResult:
    """Run the Figure 2 / Figure 6 synthetic sweep with dissimilarity tracking."""
    s = get_scale(scale)
    workloads = synthetic_suite_workloads(s, seed=seed)
    if datasets is not None:
        workloads = {k: v for k, v in workloads.items() if k in set(datasets)}

    methods = [
        MethodSpec(label="FedAvg (FedProx, mu=0)", mu=0.0),
        MethodSpec(label=f"FedProx, mu={mu:g}", mu=mu),
    ]
    result = FigureResult(
        figure_id="figure2",
        description=(
            "Statistical heterogeneity sweep (loss, accuracy, gradient "
            "variance) on four synthetic datasets, no stragglers (Figs 2 & 6)"
        ),
    )
    for name, workload in workloads.items():
        histories = run_methods(
            workload,
            s,
            methods,
            straggler_fraction=0.0,
            seed=seed,
            track_dissimilarity=True,
            engine=engine,
        )
        result.panels.append(
            PanelResult(dataset=name, environment="", histories=histories)
        )
    return result


def run_figure8(
    scale: str = "smoke",
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    engine: str = "auto",
) -> FigureResult:
    """Figure 8: gradient-variance dissimilarity on the five real datasets.

    No systems heterogeneity ("only considering the case when no
    participating devices drop out"); FedAvg (µ=0) vs FedProx (best µ>0).
    """
    s = get_scale(scale)
    workloads = figure1_workloads(s, seed=seed)
    if datasets is not None:
        workloads = {k: v for k, v in workloads.items() if k in set(datasets)}

    result = FigureResult(
        figure_id="figure8",
        description="Dissimilarity metric on five federated datasets (no stragglers)",
    )
    for name, workload in workloads.items():
        best_mu = FIGURE1_BEST_MU[name]
        methods = [
            MethodSpec(label="FedAvg (FedProx, mu=0)", mu=0.0),
            MethodSpec(label=f"FedProx (mu={best_mu:g})", mu=best_mu),
        ]
        histories = run_methods(
            workload,
            s,
            methods,
            straggler_fraction=0.0,
            seed=seed,
            track_dissimilarity=True,
            engine=engine,
        )
        result.panels.append(
            PanelResult(dataset=name, environment="", histories=histories)
        )
    return result
