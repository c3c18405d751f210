"""Figure 5 — FedAvg is robust to stragglers on IID data.

On Synthetic-IID, systems heterogeneity barely matters: every device's
local objective is (in expectation) the same, so dropping 0/10/50/90% of
devices changes little, and incorporating partial solutions (FedProx µ=0)
brings no major improvement.  This motivates studying statistical
heterogeneity explicitly.
"""

from __future__ import annotations

from typing import Sequence

from .configs import get_scale, make_synthetic_iid_workload
from .results import FigureResult, PanelResult
from .runner import MethodSpec, run_methods

STRAGGLER_LEVELS = (0.0, 0.1, 0.5, 0.9)


def run_figure5(
    scale: str = "smoke",
    seed: int = 0,
    straggler_levels: Sequence[float] = STRAGGLER_LEVELS,
    engine: str = "auto",
) -> FigureResult:
    """FedAvg vs FedProx(µ=0) on Synthetic-IID across straggler levels."""
    s = get_scale(scale)
    workload = make_synthetic_iid_workload(s, seed=seed)
    methods = [
        MethodSpec(label="FedAvg", mu=0.0, drop_stragglers=True),
        MethodSpec(label="FedProx (mu=0)", mu=0.0),
    ]
    result = FigureResult(
        figure_id="figure5",
        description="IID data is robust to device failure (loss & accuracy)",
    )
    for level in straggler_levels:
        histories = run_methods(
            workload, s, methods, straggler_fraction=level, seed=seed,
            engine=engine,
        )
        result.panels.append(
            PanelResult(
                dataset=workload.name,
                environment=f"{int(level * 100)}% stragglers",
                histories=histories,
            )
        )
    return result
