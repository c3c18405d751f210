"""Figure 4 — FedDane vs FedProx (Appendix B).

Top row: FedProx and FedDane at µ∈{0, 1}, E=20, K=10 selected devices, on
the four synthetic datasets.  Bottom row: FedDane with an increasing number
of devices ``c`` sampled for its gradient-correction estimate (10/20/30 in
the paper — i.e. up to *all* devices), against FedProx µ=0.

Expected shape: FedDane tracks FedProx on IID data but is unstable/divergent
on the non-IID datasets, and sampling more devices for the correction term
helps only marginally.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .configs import get_scale, synthetic_suite_workloads
from .results import FigureResult, PanelResult
from .runner import MethodSpec, run_methods


def run_figure4_top(
    scale: str = "smoke",
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    engine: str = "auto",
) -> FigureResult:
    """Top row: FedProx vs FedDane at µ∈{0, 1}."""
    s = get_scale(scale)
    workloads = synthetic_suite_workloads(s, seed=seed)
    if datasets is not None:
        workloads = {k: v for k, v in workloads.items() if k in set(datasets)}

    methods = [
        MethodSpec(label="mu=0, FedProx", mu=0.0),
        MethodSpec(label="mu=1, FedProx", mu=1.0),
        MethodSpec(label="mu=0, FedDane", mu=0.0, feddane=True),
        MethodSpec(label="mu=1, FedDane", mu=1.0, feddane=True),
    ]
    result = FigureResult(
        figure_id="figure4-top",
        description="FedProx vs FedDane (mu in {0,1}) on synthetic datasets",
    )
    for name, workload in workloads.items():
        histories = run_methods(
            workload, s, methods, straggler_fraction=0.0, seed=seed,
            engine=engine,
        )
        result.panels.append(
            PanelResult(dataset=name, environment="", histories=histories)
        )
    return result


def run_figure4_bottom(
    scale: str = "smoke",
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    gradient_client_counts: Optional[Sequence[int]] = None,
    engine: str = "auto",
) -> FigureResult:
    """Bottom row: FedDane with increasing gradient-estimate subsamples.

    ``gradient_client_counts`` defaults to {K, 2K, N} scaled to the
    federation size (the paper uses c = 10, 20, 30 with N = 30 devices).
    """
    s = get_scale(scale)
    workloads = synthetic_suite_workloads(s, seed=seed)
    if datasets is not None:
        workloads = {k: v for k, v in workloads.items() if k in set(datasets)}

    result = FigureResult(
        figure_id="figure4-bottom",
        description="FedDane with increasing gradient-estimate device counts",
    )
    for name, workload in workloads.items():
        n = workload.dataset.num_devices
        k = s.clients_per_round
        counts = gradient_client_counts or sorted(
            {min(k, n), min(2 * k, n), n}
        )
        methods = [MethodSpec(label="mu=0, FedProx", mu=0.0)] + [
            MethodSpec(
                label=f"mu=0, c={c}, FedDane",
                mu=0.0,
                feddane=True,
                gradient_clients=c,
            )
            for c in counts
        ]
        histories = run_methods(
            workload, s, methods, straggler_fraction=0.0, seed=seed,
            engine=engine,
        )
        result.panels.append(
            PanelResult(dataset=name, environment="", histories=histories)
        )
    return result
