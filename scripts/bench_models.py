#!/usr/bin/env python
"""Benchmark the model-level fast paths: fused LSTM kernels + stacked eval.

Companion to ``bench_runtime.py`` (which benchmarks the *round engine* on
the convex logistic workload): this script times the model zoo's hot paths
on the paper's non-convex workloads.

``charlstm`` / ``sentlstm``
    Whole training rounds (FedProx) with the LSTM models in three
    configurations: ``backend="graph"`` (per-timestep autograd, the seed
    behavior and gradcheck reference), ``backend="fused"`` (the
    hand-derived LSTM kernel of :mod:`repro.autograd.stacked_lstm`, called
    one client at a time through :func:`repro.autograd.fused_lstm`, serial
    executor), and ``fused-cohort`` (the same fused model solved through
    ``CohortExecutor``, which calls that kernel for K clients at once).  All run the identical federation
    at the identical seed; every variant's training history is asserted
    against the reference each run (``HISTORY_TOL``, relaxed to
    ``COHORT_HISTORY_TOL`` for the cohort path whose padded batch slots
    shift BLAS blocking by a few ulp) — the speedup must never buy a
    different trajectory.

``mlp``
    The same trainer with :class:`repro.models.MLPClassifier` under
    ``eval_mode="per_client"`` (legacy Python evaluation loop) vs the
    stacked evaluation fast path it now advertises, with the same
    history-parity assertion.

Writes ``BENCH_models.json`` with rounds/sec per configuration, each fast
path's speedup over its reference, the measured history deviation, and the
models' ``fast_path_capabilities()`` so perf changes can be correlated
with capability changes.

Usage::

    PYTHONPATH=src python scripts/bench_models.py            # full sweep
    PYTHONPATH=src python scripts/bench_models.py --quick    # CI-sized
    PYTHONPATH=src python scripts/bench_models.py --quick --smoke  # assert-only
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import EvalConfig, FederatedTrainer  # noqa: E402
from repro.datasets import (  # noqa: E402
    make_sent140_like,
    make_shakespeare_like,
    make_synthetic,
)
from repro.models import CharLSTM, MLPClassifier, SentimentLSTM  # noqa: E402
from repro.optim import SGDSolver  # noqa: E402

#: Training histories of a fast path and its reference must agree to this
#: tolerance (same acceptance bar as the executor determinism suite allows
#: for floating-point association differences).
HISTORY_TOL = 1e-10

#: ISSUE acceptance tolerance for the stacked cohort LSTM solve: padded
#: batch slots change BLAS k-blocking by a few ulp per step, so the cohort
#: path is ulp-close rather than bitwise against the serial reference.
COHORT_HISTORY_TOL = 1e-9

#: Acceptance floor for the fused char-LSTM kernels on the full benchmark
#: configuration (asserted outside --smoke; smoke shrinks the problem so
#: far that Python fixed costs dominate both backends).
CHARLSTM_MIN_SPEEDUP = 3.0


def _variant_tol(mode: str) -> float:
    return COHORT_HISTORY_TOL if mode.endswith("cohort") else HISTORY_TOL


def _charlstm_case(scale: str) -> dict:
    size = {
        "full": dict(devices=10, seq_len=32, samples=40, hidden=64, rounds=3),
        "quick": dict(devices=8, seq_len=12, samples=30, hidden=32, rounds=2),
        "smoke": dict(devices=4, seq_len=8, samples=15, hidden=16, rounds=1),
    }[scale]
    dataset = make_shakespeare_like(
        num_devices=size["devices"],
        vocab_size=40,
        seq_len=size["seq_len"],
        samples_per_device_mean=size["samples"],
        seed=0,
    )
    return {
        "model": "charlstm",
        "dataset": dataset,
        "rounds": size["rounds"],
        "variants": [
            ("graph", lambda: CharLSTM(
                vocab_size=40, embed_dim=8, hidden=size["hidden"],
                num_layers=2, seed=0, backend="graph",
            ), {}),
            ("fused", lambda: CharLSTM(
                vocab_size=40, embed_dim=8, hidden=size["hidden"],
                num_layers=2, seed=0, backend="fused",
            ), {}),
            ("fused-cohort", lambda: CharLSTM(
                vocab_size=40, embed_dim=8, hidden=size["hidden"],
                num_layers=2, seed=0, backend="fused",
            ), {"engine": "cohort"}),
        ],
    }


def _sentlstm_case(scale: str) -> dict:
    size = {
        "full": dict(devices=10, seq_len=25, samples=40, hidden=32, rounds=3),
        "quick": dict(devices=8, seq_len=12, samples=25, hidden=16, rounds=2),
        "smoke": dict(devices=4, seq_len=6, samples=15, hidden=8, rounds=1),
    }[scale]
    dataset = make_sent140_like(
        num_devices=size["devices"],
        vocab_size=200,
        seq_len=size["seq_len"],
        samples_per_device_mean=size["samples"],
        seed=0,
    )
    return {
        "model": "sentlstm",
        "dataset": dataset,
        "rounds": size["rounds"],
        "variants": [
            ("graph", lambda: SentimentLSTM(
                vocab_size=200, embed_dim=16, hidden=size["hidden"],
                num_layers=2, seed=0, backend="graph",
            ), {}),
            ("fused", lambda: SentimentLSTM(
                vocab_size=200, embed_dim=16, hidden=size["hidden"],
                num_layers=2, seed=0, backend="fused",
            ), {}),
            ("fused-cohort", lambda: SentimentLSTM(
                vocab_size=200, embed_dim=16, hidden=size["hidden"],
                num_layers=2, seed=0, backend="fused",
            ), {"engine": "cohort"}),
        ],
    }


def _mlp_case(scale: str) -> dict:
    size = {
        "full": dict(devices=100, rounds=3),
        "quick": dict(devices=50, rounds=2),
        "smoke": dict(devices=10, rounds=1),
    }[scale]
    dataset = make_synthetic(1.0, 1.0, num_devices=size["devices"], seed=0)
    make = lambda: MLPClassifier(dim=60, num_classes=10, hidden=32, seed=0)  # noqa: E731
    return {
        "model": "mlp",
        "dataset": dataset,
        "rounds": size["rounds"],
        "variants": [
            ("per_client-eval", make, {"evaluation": EvalConfig(mode="per_client")}),
            ("stacked-eval", make, {"evaluation": EvalConfig(mode="auto")}),
        ],
    }


def run_case(case: dict, epochs: float, repeats: int) -> List[dict]:
    """Time every variant of one model case; assert history parity.

    Each variant's timed segment (``rounds`` training rounds) is run
    ``repeats`` times, *interleaved across variants*, and the best repeat
    per variant is reported.  Min-of-N plus interleaving is the standard
    defense against scheduler noise on the shared 1-CPU containers this
    runs on: a sustained load spike lands on every variant's window
    instead of poisoning one side of the ratio.  Training continues across
    repeats, so all variants still execute the identical federation
    schedule and their full histories remain comparable.
    """
    trainers = {}
    models = {}
    best = {}
    for mode, make_model, trainer_kwargs in case["variants"]:
        models[mode] = make_model()
        trainers[mode] = FederatedTrainer(
            dataset=case["dataset"],
            model=models[mode],
            solver=SGDSolver(0.1, batch_size=10),
            mu=0.1,
            clients_per_round=min(5, case["dataset"].num_devices),
            epochs=epochs,
            seed=0,
            label=f"bench-{case['model']}-{mode}",
            **trainer_kwargs,
        )
        best[mode] = float("inf")

    histories = {}
    try:
        for trainer in trainers.values():
            trainer.run_round()  # warm caches (stacked arrays, fused tapes)
        for _ in range(repeats):
            for mode, trainer in trainers.items():
                start = time.perf_counter()
                histories[mode] = trainer.run(case["rounds"])
                best[mode] = min(best[mode], time.perf_counter() - start)
    finally:
        for trainer in trainers.values():
            trainer.close()

    rows = []
    for mode, _, _ in case["variants"]:
        elapsed = best[mode]
        rows.append(
            {
                "model": case["model"],
                "mode": mode,
                "rounds": case["rounds"],
                "repeats": repeats,
                "seconds": round(elapsed, 4),
                "rounds_per_sec": round(case["rounds"] / elapsed, 3),
                "capabilities": models[mode].fast_path_capabilities(),
            }
        )
        print(
            f"{case['model']:9s} {mode:15s} "
            f"{rows[-1]['rounds_per_sec']:8.2f} rounds/s  (best of "
            f"{repeats}: {elapsed:.3f}s)"
        )

    # Every fast path must retrace the reference trajectory: identical
    # selections and tolerance-identical losses/accuracies at the fixed
    # seed.  variants[0] is the reference; each later variant is checked
    # against it with its own tolerance (the cohort path is ulp-close
    # rather than bitwise — see COHORT_HISTORY_TOL).
    ref_mode = case["variants"][0][0]
    ref = histories[ref_mode]
    diffs = {ref_mode: 0.0}
    for fast_mode, _, _ in case["variants"][1:]:
        fast = histories[fast_mode]
        max_diff = 0.0
        for r_ref, r_fast in zip(ref.records, fast.records):
            assert r_ref.selected == r_fast.selected, (case["model"], fast_mode)
            max_diff = max(
                max_diff,
                abs(r_ref.train_loss - r_fast.train_loss),
                abs(r_ref.test_accuracy - r_fast.test_accuracy),
            )
        tol = _variant_tol(fast_mode)
        assert max_diff <= tol, (
            f"{case['model']}/{fast_mode}: fast path diverged from "
            f"{ref_mode} by {max_diff:.3e} (tolerance {tol:.0e})"
        )
        diffs[fast_mode] = max_diff
    for row in rows:
        row["speedup_vs_reference"] = round(
            row["rounds_per_sec"] / rows[0]["rounds_per_sec"], 3
        )
        row["history_max_diff"] = diffs[row["mode"]]
        if row["mode"] != ref_mode:
            print(
                f"{case['model']:9s} {row['mode']} is "
                f"{row['speedup_vs_reference']:.2f}x {ref_mode} "
                f"(history max diff {row['history_max_diff']:.2e})"
            )
    return rows


def run_benchmark(scale: str, epochs: float) -> dict:
    cases = [_charlstm_case(scale), _sentlstm_case(scale), _mlp_case(scale)]
    repeats = {"full": 3, "quick": 2, "smoke": 1}[scale]
    results = []
    for case in cases:
        results.extend(run_case(case, epochs, repeats))
    return {
        "benchmark": "model fast paths (fused LSTM kernels + stacked eval)",
        "scale": scale,
        "cpu_count": os.cpu_count(),
        "local_epochs": epochs,
        "history_tolerance": HISTORY_TOL,
        "cohort_history_tolerance": COHORT_HISTORY_TOL,
        "notes": {
            "charlstm": (
                "graph = per-timestep autograd unroll (gradcheck "
                "reference), fused = the hand-derived kernel of "
                "repro.autograd.stacked_lstm, one client per call "
                "(repro.autograd.fused_lstm); identical federation, seed, "
                "and (to 1e-10) training history."
            ),
            "fused-cohort": (
                "The fused LSTM model solved through CohortExecutor, which "
                "calls the same kernel (repro.autograd.stacked_lstm) for K "
                "clients at once "
                "— the capabilities column shows stacked_local_solve: true. "
                "History parity vs the graph reference is asserted to 1e-9 "
                "(padded batch slots shift BLAS blocking by a few ulp); its "
                "round rate must beat the serial fused row."
            ),
            "mlp": (
                "per_client-eval = legacy per-device Python evaluation "
                "loop, stacked-eval = blocked federation-wide forward "
                "passes newly unlocked by MLPClassifier.supports_stacked_eval."
            ),
        },
        "results": results,
    }


def check_smoke(payload: dict) -> None:
    """Assert-only validation of a smoke-sized payload (CI wiring)."""
    pairs = {(row["model"], row["mode"]) for row in payload["results"]}
    expected = {
        ("charlstm", "graph"), ("charlstm", "fused"),
        ("charlstm", "fused-cohort"),
        ("sentlstm", "graph"), ("sentlstm", "fused"),
        ("sentlstm", "fused-cohort"),
        ("mlp", "per_client-eval"), ("mlp", "stacked-eval"),
    }
    assert pairs == expected, f"missing rows: {expected - pairs}"
    for row in payload["results"]:
        assert row["rounds_per_sec"] > 0, row
        assert row["history_max_diff"] <= _variant_tol(row["mode"]), row
        assert "speedup_vs_reference" in row, row
        caps = row["capabilities"]
        assert caps["stacked_eval"] is True or row["mode"] == "per_client-eval", row
        if row["mode"] in ("fused", "fused-cohort"):
            # ISSUE acceptance: the LSTM rows advertise the stacked
            # multi-client solve (and say why not when they don't).
            assert caps["stacked_local_solve"] is True, row
            assert caps["stacked_local_solve_reason"] is None, row
        if row["mode"] == "graph":
            assert caps["stacked_local_solve"] is False, row
            assert "gradcheck oracle" in caps["stacked_local_solve_reason"], row
    fused = {
        row["model"]: row["speedup_vs_reference"]
        for row in payload["results"]
        if row["mode"] == "fused"
    }
    # Smoke sizes are dominated by fixed Python costs; the full-run floor
    # is CHARLSTM_MIN_SPEEDUP, here we only require a real improvement.
    assert fused["charlstm"] > 1.0, fused


def check_full(payload: dict) -> None:
    """Acceptance gates for a committed (non-smoke) payload.

    The hard speedup floor applies only at ``full`` scale — the scale the
    committed ``BENCH_models.json`` is generated at; ``--quick`` payloads
    (CI artifacts from whatever runner CI lands on) record speedups
    without gating on them.
    """
    if payload["scale"] != "full":
        return
    rate = {
        (row["model"], row["mode"]): row["rounds_per_sec"]
        for row in payload["results"]
    }
    for row in payload["results"]:
        if row["model"] == "charlstm" and row["mode"] == "fused":
            assert row["speedup_vs_reference"] >= CHARLSTM_MIN_SPEEDUP, (
                f"fused char-LSTM speedup {row['speedup_vs_reference']}x is "
                f"below the {CHARLSTM_MIN_SPEEDUP}x acceptance floor"
            )
    # ISSUE acceptance: the stacked cohort solve must beat the serial
    # fused path in round rate for both LSTM workloads at full scale.
    for model in ("charlstm", "sentlstm"):
        cohort = rate[(model, "fused-cohort")]
        serial = rate[(model, "fused")]
        assert cohort > serial, (
            f"{model}: cohort {cohort} rounds/s does not beat serial "
            f"fused {serial} rounds/s"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--epochs", type=float, default=2.0, help="local epochs E per round"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized problem instances"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="smoke test: shrink further, assert the payload, write no JSON",
    )
    parser.add_argument(
        "--output", default="BENCH_models.json", help="output JSON path"
    )
    args = parser.parse_args(argv)

    scale = "smoke" if args.smoke else ("quick" if args.quick else "full")
    payload = run_benchmark(scale, args.epochs)
    payload["generated_unix"] = int(time.time())

    if args.smoke:
        check_smoke(payload)
        print("smoke OK: all fast paths ran, histories match their references")
        return 0

    check_full(payload)
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
