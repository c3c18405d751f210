"""Command-line entry point: run any paper experiment by id.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments figure1 --scale default --out results/
    python -m repro.experiments table1 figure2 --scale smoke
    python -m repro.experiments all --scale default --out results/
    python -m repro.experiments figure1 --engine serial

Each figure experiment prints its loss summary (and accuracy /
dissimilarity where the paper's figure reports them) and, with ``--out``,
writes per-panel round-series CSVs plus a summary CSV.

``--engine`` picks the round execution engine.  The default ``auto`` runs
the stacked cohort fast path whenever the workload's model and solver
support it, and serial otherwise; any executor spec (``serial``,
``cohort``, ``parallel:N``, ``async:...``) forces that engine.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from ..reporting.tables import format_table, write_csv
from ..runtime import parse_executor_spec
from .figure1 import figure7_accuracy_rows, figure7_improvement
from .registry import EXPERIMENTS, get_experiment
from .results import FigureResult
from .table1 import render_table1


def _engine_arg(value: str) -> str:
    """argparse type for ``--engine``: ``auto`` or a valid executor spec."""
    if value != "auto":
        try:
            parse_executor_spec(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _run_one(
    experiment_id: str,
    scale: str,
    seed: int,
    out: Optional[Path],
    engine: str,
) -> None:
    entry = get_experiment(experiment_id)
    # Table 1 only generates datasets; every other experiment trains.
    trains = experiment_id != "table1"
    settings = f"scale={scale}, engine={engine}" if trains else f"scale={scale}"
    print(f"== {experiment_id}: {entry.description} ({settings}) ==")
    start = time.time()

    if not trains:
        print(render_table1(scale=scale, seed=seed))
        if out is not None:
            from .table1 import run_table1

            write_csv(out / "table1.csv", run_table1(scale=scale, seed=seed))
    else:
        result: FigureResult = entry.runner(scale=scale, seed=seed, engine=engine)
        print(result.render(metric="loss", charts=False))
        if experiment_id in ("figure2", "figure8"):
            print(result.render(metric="dissimilarity", charts=False))
        if experiment_id in ("figure2", "figure5", "figure9"):
            print(result.render(metric="accuracy", charts=False))
        if experiment_id == "figure1":
            rows = figure7_accuracy_rows(result)
            print(format_table(rows, title="Figure 7: accuracy at stopping point"))
            try:
                improvement = figure7_improvement(result)
                print(
                    f"\nFedProx(best mu) vs FedAvg at 90% stragglers: "
                    f"{improvement:+.3f} absolute accuracy (paper: +0.22)"
                )
            except ValueError:
                pass
        if out is not None:
            result.write_series_csv(out / experiment_id)
            write_csv(out / f"{experiment_id}_summary.csv", result.summary_rows())

    elapsed = time.time() - start
    print(f"-- {experiment_id} done in {elapsed:.2f}s --\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables/figures from the FedProx paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (see --list), or 'all'",
    )
    parser.add_argument(
        "--scale",
        default="smoke",
        choices=["smoke", "default", "paper"],
        help="size preset (default: smoke)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--engine",
        type=_engine_arg,
        default="auto",
        help=(
            "round execution engine: 'auto' (default; cohort when the model "
            "and solver support it, else serial) or an executor spec such as "
            "'serial', 'cohort', 'parallel:2'"
        ),
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="directory for CSV output"
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiment ids"
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        rows = [
            {"id": e.experiment_id, "description": e.description}
            for e in EXPERIMENTS.values()
        ]
        print(format_table(rows, title="Available experiments"))
        return 0

    ids = (
        list(EXPERIMENTS)
        if args.experiments == ["all"]
        else args.experiments
    )
    for experiment_id in ids:
        _run_one(experiment_id, args.scale, args.seed, args.out, args.engine)
    return 0


if __name__ == "__main__":
    sys.exit(main())
