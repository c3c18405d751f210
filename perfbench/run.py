"""FedProx reproduction benchmark: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload paper-synthetic --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced runs:
``setup_s`` is the median over several fresh interpreters, and one more
fresh interpreter runs the workload's training episodes back to back for
``--seconds``.  ``--trace 1`` runs half as long untraced, then replays the
same episodes with a probe on every layer's public entry point and reports
per-layer metrics, the tracing overhead, and whether both runs produced
identical histories.

End-to-end times are reported at a fixed machine speed: each measured
time is multiplied by ``REFERENCE_S`` over the median time a fixed
reference kernel (``probes.reference_seconds``, no repro code) took before
each round of the same episode (for ``time_to_target_s``: of the rounds it
spans; for ``setup_s``: right after set-up).  On
a machine whose speed drifts, this removes the drift and keeps a change in
the program's own speed.  The unscaled value and the scale factor are
printed next to each time.

Every metric is printed by name with its unit and sample count; the last
line of standard output is the JSON result.  The exit code is 0 when every
output check passed, 1 when one failed, and 2 (with no result line) when
nothing could be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The keys of workloads.WORKLOADS; this process never imports repro.
WORKLOADS = ("paper-synthetic", "charlstm-async-qsgd", "scale-ondemand")
SETUP_PROBES = 5
#: The reference kernel's median time on the machine that set the bounds
#: (2-core x86 VM, NumPy 2.4 with OpenBLAS 0.3.31), timed on its own.
REFERENCE_S = 0.0029
#: A seed that tuning never used: a claimed gain must also hold on it.
HELD_OUT_SEED = 104729
#: Probed layers; each reports ``calls``, ``busy_s`` and ``self_s``.
LAYER_TIMES = (
    "experiments.run_methods",
    "core.run_round",
    "core.select",
    "core.aggregate",
    "runtime.local_solve",
    "optim.solve",
    "runtime.cohort.solve",
    "runtime.eval_full",
    "runtime.eval_sampled",
    "datasets.store_get",
    "comms.encode",
    "comms.decode",
)
#: The other per-layer metrics, with their units: counts taken where the
#: work happens.
LAYER_EXTRAS = (
    ("runtime.local_solve.tasks", "count"),
    ("optim.solve.grad_evals_per_busy_s", "1/s"),
    ("runtime.cohort.solve.grad_evals_per_busy_s", "1/s"),
    ("runtime.cohort.pack_efficiency", "ratio"),
    ("datasets.store_get.hit_ratio", "ratio"),
    ("comms.wire_bytes_per_round", "B/round"),
    ("trainer.bytes_up_per_round", "B/round"),
    ("runtime.async.delivered_ratio", "ratio"),
    ("runtime.async.staleness_mean", "rounds"),
    ("trace.run_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class WorkerError(RuntimeError):
    """A measurement process failed; no result can be reported."""


def run_worker(workload: str, seed: int, mode: str, **options) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its JSON result."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    for key, value in options.items():
        command += [f"--{key}", str(value)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=160
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {completed.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise WorkerError(f"{mode} worker printed no result line") from None


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` with n=100)."""
    return statistics.quantiles(values, n=100)[q - 1]


#: name -> (value, unit, sample count, unscaled value or None)
Metrics = Dict[str, Tuple[float, str, int, Optional[float]]]


def scaled(seconds: float, reference_s: float) -> float:
    """``seconds`` at the machine speed where the reference takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference_s


def end_to_end(setups: List[dict], run: dict) -> Metrics:
    """End-to-end metrics as ``name -> (value, unit, samples, unscaled)``."""
    rounds, raw_rounds, to_target, raw_to_target = [], [], [], []
    run_s = 0.0
    for episode in run["episodes"]:
        reference = episode["reference_s"]
        raw_rounds += episode["round_s"]
        rounds += [scaled(t, reference) for t in episode["round_s"]]
        run_s += scaled(episode["wall_s"], reference)
        if episode["time_to_target_s"] is not None:
            raw_to_target.append(episode["time_to_target_s"])
            to_target.append(scaled(
                episode["time_to_target_s"], episode["time_to_target_reference_s"]
            ))
    # No episode reached the target (a failed check): the run time is a
    # lower bound on the time to target.
    samples = len(to_target)
    to_target = to_target or [run_s]
    raw_to_target = raw_to_target or [run["run_s"]]
    setup = [scaled(p["setup_s"], p["reference_s"]) for p in setups]
    grad_evals = sum(e["grad_evals"] for e in run["episodes"])
    return {
        "setup_s": (
            statistics.median(setup), "s", len(setup),
            statistics.median(p["setup_s"] for p in setups)),
        "round_s_p50": (
            statistics.median(rounds), "s", len(rounds), statistics.median(raw_rounds)),
        "round_s_p90": (
            quantile(rounds, 90), "s", len(rounds), quantile(raw_rounds, 90)),
        "grad_evals_per_s": (
            grad_evals / run_s, "1/s", run["updates"], grad_evals / run["run_s"]),
        # A mean, not a median: on paper-synthetic the episodes reach the
        # target in 13 or 14 rounds, and a median jumps between the two.
        "time_to_target_s": (
            statistics.fmean(to_target), "s", samples, statistics.fmean(raw_to_target)),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1, None),
    }


def per_layer(base: dict, traced: dict) -> Metrics:
    layers = traced["layers"]
    rounds = sum(len(e["round_s"]) for e in traced["episodes"])
    metrics: Metrics = {}
    for name in LAYER_TIMES:
        calls, busy, own = layers.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count", 1, None)
        metrics[f"{name}.busy_s"] = (busy, "s", calls, None)
        metrics[f"{name}.self_s"] = (own, "s", calls, None)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    kernel = "optim.solve" if layers["optim.solve"][0] else "runtime.cohort.solve"
    other = "runtime.cohort.solve" if kernel == "optim.solve" else "optim.solve"
    efficiencies = traced["pack_efficiencies"]
    lookups = traced["store_hits"] + traced["store_misses"]
    extras = {
        "runtime.local_solve.tasks": (traced["tasks"], traced["tasks"]),
        f"{kernel}.grad_evals_per_busy_s": (
            ratio(traced["grad_evals"], layers[kernel][1]), traced["updates"]),
        f"{other}.grad_evals_per_busy_s": (0.0, 0),
        "runtime.cohort.pack_efficiency": (
            ratio(sum(efficiencies), len(efficiencies)), len(efficiencies)),
        "datasets.store_get.hit_ratio": (ratio(traced["store_hits"], lookups), lookups),
        "comms.wire_bytes_per_round": (ratio(traced["wire_bytes"], rounds), rounds),
        "trainer.bytes_up_per_round": (ratio(traced["bytes_up"], rounds), rounds),
        "runtime.async.delivered_ratio": (
            ratio(traced["updates"], traced["tasks"]), traced["tasks"]),
        "runtime.async.staleness_mean": (
            ratio(traced["staleness_sum"], traced["updates"]), traced["updates"]),
        "trace.run_s": (traced_run_s(traced), 1),
        "trace.residual_s": (traced_run_s(traced) - traced["covered_s"], 1),
        # Both runs at the same machine speed: they ran at different times.
        "trace.overhead_ratio": (
            scaled(traced["run_s"], statistics.median(e["reference_s"] for e in traced["episodes"]))
            / scaled(base["run_s"], statistics.median(e["reference_s"] for e in base["episodes"]))
            - 1.0,
            1,
        ),
    }
    for name, unit in LAYER_EXTRAS:
        value, samples = extras[name]
        metrics[name] = (value, unit, samples, None)
    return metrics


def traced_run_s(traced: dict) -> float:
    """Episode wall time of a traced run, reference timings included."""
    return traced["run_s"] + traced["reference_wall_s"]


def tiling_failures(traced: dict) -> List[str]:
    """Self times plus the residual must add up to the traced run time."""
    run_s = traced_run_s(traced)
    total_self = sum(own for _, _, own in traced["layers"].values())
    residual = run_s - traced["covered_s"]
    gap = abs(total_self + residual - run_s)
    if gap > 1e-6 * run_s:
        return [f"trace: self times + residual miss run time by {gap:.3g} s"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            base = run_worker(args.workload, args.seed, "untraced", seconds=args.seconds / 2)
            traced = run_worker(
                args.workload, args.seed, "traced", episodes=len(base["episodes"])
            )
            runs = [base, traced]
            metrics = per_layer(base, traced)
            failures = tiling_failures(traced)
            if traced["digests"] != base["digests"]:
                failures.append("trace: traced and untraced histories differ")
            run_checks = ("tiling", "transparency")
        else:
            setups = [
                run_worker(args.workload, args.seed, "setup")
                for _ in range(SETUP_PROBES)
            ]
            run = run_worker(args.workload, args.seed, "untraced", seconds=args.seconds)
            runs = [run]
            metrics = end_to_end(setups, run)
            failures = []
            run_checks = ()
    except (WorkerError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    # Every episode is one attempt (its histories are checked); so is each
    # check that spans a whole run.
    attempted = sum(len(run["episodes"]) for run in runs) + len(run_checks)
    failed = sum(run["failed_episodes"] for run in runs) + len(failures)
    for run in runs:
        failures += run["failures"]
    environment = dict(
        runs[0]["environment"], git_sha=git_sha(), workload=args.workload,
        seed=args.seed, held_out_seed=HELD_OUT_SEED,
    )
    print("environment " + json.dumps(environment, sort_keys=True))
    for failure in failures:
        print(f"FAILED {failure}")
    for name, (value, unit, samples, unscaled) in metrics.items():
        line = f"{name:48s} {value:16.6f} {unit:8s} n={samples}"
        if unscaled is not None:
            line += f"  unscaled={unscaled:.6f} factor={value / unscaled:.4f}"
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _, _) in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
