"""Figure 12 — comparing the two device sampling schemes.

Uniform sampling + weighted (``n_k``-proportional) averaging — the scheme
used in the experiments — versus weighted (``p_k``) sampling + simple
averaging — the scheme of Algorithms 1/2 supported by the theory.  Both
are run at µ∈{0, 1} with E=20 and no systems heterogeneity on the four
synthetic datasets.

Expected shape: weighted-sampling + simple-averaging performs slightly
better / more stably, and µ=1 is more stable than µ=0 under either scheme.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.sampling import (
    UniformSamplingWeightedAverage,
    WeightedSamplingSimpleAverage,
)
from .configs import get_scale, synthetic_suite_workloads
from .results import FigureResult, PanelResult
from .runner import MethodSpec, run_methods

SCHEMES = {
    "uniform sampling+weighted average": UniformSamplingWeightedAverage,
    "weighted sampling+simple average": WeightedSamplingSimpleAverage,
}


def run_figure12(
    scale: str = "smoke",
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    engine: str = "auto",
) -> FigureResult:
    """Run both sampling schemes at µ∈{0, 1} over the synthetic suite."""
    s = get_scale(scale)
    workloads = synthetic_suite_workloads(s, seed=seed)
    if datasets is not None:
        workloads = {k: v for k, v in workloads.items() if k in set(datasets)}

    result = FigureResult(
        figure_id="figure12",
        description="Two device sampling schemes at mu in {0,1} (no stragglers)",
    )
    for name, workload in workloads.items():
        histories: Dict[str, object] = {}
        for scheme_name, scheme_cls in SCHEMES.items():
            for mu in (0.0, 1.0):
                label = f"mu={mu:g}, {scheme_name}"
                run = run_methods(
                    workload,
                    s,
                    [MethodSpec(label=label, mu=mu)],
                    straggler_fraction=0.0,
                    seed=seed,
                    sampling_factory=scheme_cls,
                    track_dissimilarity=True,
                    engine=engine,
                )
                histories[label] = run[label]
        result.panels.append(
            PanelResult(dataset=name, environment="", histories=histories)
        )
    return result
