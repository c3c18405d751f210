"""Figures 1, 7, 9 and 10 — systems heterogeneity (allowing partial work).

Figure 1 (training loss) and Figure 7 (test accuracy) run five datasets at
three straggler levels {0%, 50%, 90%} with E=20, comparing FedAvg (drops
stragglers), FedProx µ=0 (keeps partial work) and FedProx with the best µ.
Figures 9/10 repeat the protocol with E=1.

Expected shape: systems heterogeneity hurts FedAvg increasingly with the
straggler level; FedProx µ=0 improves on it; FedProx µ>0 is the most
stable and accurate.  Figure 7's headline aggregate: at 90% stragglers
FedProx (best µ) improves absolute test accuracy by ~22% on average over
FedAvg (evaluated at each run's convergence/divergence point).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..metrics.convergence import accuracy_at_outcome
from .configs import FIGURE1_BEST_MU, figure1_workloads, get_scale
from .results import FigureResult, PanelResult
from .runner import figure1_methods, run_methods

STRAGGLER_LEVELS = (0.0, 0.5, 0.9)


def run_figure1(
    scale: str = "smoke",
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    straggler_levels: Sequence[float] = STRAGGLER_LEVELS,
    epochs: Optional[float] = None,
    engine: str = "auto",
) -> FigureResult:
    """Run the Figure 1 grid.

    Parameters
    ----------
    scale, seed:
        Harness scale preset and base seed.
    datasets:
        Subset of the five Figure 1 dataset names (all by default).
    straggler_levels:
        Straggler fractions to sweep.
    epochs:
        Override E (Figures 9/10 use ``epochs=1``).
    engine:
        Round execution engine, forwarded to
        :func:`~repro.experiments.runner.run_methods` (``"auto"`` picks the
        cohort fast path where the model supports it).

    Returns
    -------
    FigureResult
        One panel per (dataset, straggler level), three methods each.
    """
    s = get_scale(scale)
    workloads = figure1_workloads(s, seed=seed)
    if datasets is not None:
        workloads = {k: v for k, v in workloads.items() if k in set(datasets)}
        missing = set(datasets) - set(workloads)
        if missing:
            raise KeyError(f"unknown figure-1 datasets: {sorted(missing)}")

    figure_id = "figure1" if epochs is None else f"figure1(E={epochs:g})"
    result = FigureResult(
        figure_id=figure_id,
        description=(
            "FedAvg vs FedProx under 0/50/90% stragglers"
            + (f" with E={epochs:g}" if epochs is not None else " with E=20")
        ),
    )
    for name, workload in workloads.items():
        methods = figure1_methods(FIGURE1_BEST_MU[name])
        for level in straggler_levels:
            histories = run_methods(
                workload,
                s,
                methods,
                straggler_fraction=level,
                seed=seed,
                epochs=epochs,
                engine=engine,
            )
            result.panels.append(
                PanelResult(
                    dataset=name,
                    environment=f"{int(level * 100)}% stragglers",
                    histories=histories,
                )
            )
    return result


def run_figure9(
    scale: str = "smoke",
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    engine: str = "auto",
) -> FigureResult:
    """Figures 9/10: the Figure 1 protocol with E=1.

    With at most one local epoch, local models drift less, so statistical
    heterogeneity bites less — but tolerating partial work (FedProx µ=0)
    still beats dropping stragglers (FedAvg).
    """
    result = run_figure1(
        scale=scale, seed=seed, datasets=datasets, epochs=1.0, engine=engine
    )
    result.figure_id = "figure9"
    result.description = "FedAvg vs FedProx under stragglers with E=1 (Figs 9-10)"
    return result


def figure7_accuracy_rows(result: FigureResult) -> List[Dict[str, object]]:
    """Figure 7's per-panel accuracies at the convergence/divergence point.

    Applies the Appendix C.3.2 protocol to each run in a Figure 1 result.
    """
    rows: List[Dict[str, object]] = []
    for panel in result.panels:
        row: Dict[str, object] = {
            "dataset": panel.dataset,
            "environment": panel.environment,
        }
        for label, history in panel.histories.items():
            accuracies = [r.test_accuracy for r in history.records]
            row[label] = accuracy_at_outcome(history.train_losses, accuracies)
        rows.append(row)
    return rows


def figure7_improvement(result: FigureResult, level: str = "90% stragglers") -> float:
    """Mean absolute accuracy improvement of FedProx(best µ) over FedAvg.

    The paper reports +22% (0.22 absolute) averaged over the five datasets
    at 90% stragglers.
    """
    improvements: List[float] = []
    for row in figure7_accuracy_rows(result):
        if row["environment"] != level:
            continue
        fedavg_acc = row.get("FedAvg")
        best_label = next(
            (k for k in row if k.startswith("FedProx (mu=") and k != "FedProx (mu=0)"),
            None,
        )
        if fedavg_acc is None or best_label is None or row[best_label] is None:
            continue
        improvements.append(float(row[best_label]) - float(fedavg_acc))
    if not improvements:
        raise ValueError(f"no comparable runs at {level!r}")
    return sum(improvements) / len(improvements)
