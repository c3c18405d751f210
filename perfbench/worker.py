"""One measurement in a fresh interpreter; ``run.py`` starts it.

Modes:

* ``setup`` -- import, build the workload, and stop at the first round;
  reports ``setup_s`` and the machine's reference time right after it.
* ``untraced`` -- run episodes until ``--seconds`` of episode time have
  passed (or exactly ``--episodes`` of them), with only the round timer
  and the executor work counters installed.
* ``traced`` -- the same with every per-layer probe installed.

Each episode also reports the median of the reference timings taken
before its rounds (see :mod:`probes`), so ``run.py`` can express its times
at a fixed machine speed.  No reported time includes those timings.

Prints one JSON object as its last line of standard output.
"""

import time

T_START = time.perf_counter()  # before any heavy import: set-up includes them

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
from probes import Probes, SetupDone, reference_seconds  # noqa: E402
from repro.telemetry import HistoryDigest  # noqa: E402
from workloads import WORKLOADS, episode_seed, finite_failures  # noqa: E402


def openblas_info():
    """(version string, thread count) of NumPy's OpenBLAS, where readable."""
    import ctypes
    import glob
    import os

    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            try:
                get_config = getattr(lib, f"{prefix}get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return get_config().decode(), int(get_threads())
    return None, None


def environment() -> dict:
    import os
    import platform

    blas_config, blas_threads = openblas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas": blas_config,
        "openblas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--episodes", type=int, default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    probes = Probes()
    probes.install(traced=args.mode == "traced")
    probes.stop_at_first_round = args.mode == "setup"

    shared = workload.prepare()
    if args.mode == "setup":
        try:
            workload.episode(shared, episode_seed(args.seed, 0))
        except SetupDone:
            setup_s = probes.first_round_at - T_START
            reference = statistics.median(reference_seconds() for _ in range(30))
            print(json.dumps({"setup_s": setup_s, "reference_s": reference}))
            return 0
        raise RuntimeError(f"{args.workload} ran no round")

    result = {
        "episodes": [], "digests": [], "failures": [],
        "failed_episodes": 0, "bytes_up": 0.0, "store_hits": 0, "store_misses": 0,
    }
    elapsed = 0.0
    reference_wall_s = 0.0
    while True:
        index = len(result["episodes"])
        grad_evals = probes.grad_evals
        probes.reference_wall_s = 0.0
        start = time.perf_counter()
        histories = workload.episode(shared, episode_seed(args.seed, index))
        wall = time.perf_counter() - start - probes.reference_wall_s
        elapsed += wall
        reference_wall_s += probes.reference_wall_s
        failures = summarize_episode(workload, histories, probes, result)
        result["episodes"][-1].update(
            wall_s=wall, grad_evals=probes.grad_evals - grad_evals
        )
        # Trainers hold reference cycles; free this episode's before the
        # next starts, so peak memory is that of one training run.
        gc.collect()
        failures += finite_failures(histories)
        if workload.check is not None:
            failures += workload.check(histories)
        if failures:
            result["failed_episodes"] += 1
            result["failures"] += [f"episode {index}: {f}" for f in failures[:3]]
        if args.episodes:
            if index + 1 >= args.episodes:
                break
        elif elapsed >= args.seconds:
            break
    result.update(
        run_s=elapsed,
        reference_wall_s=reference_wall_s,
        covered_s=probes.covered_s,
        tasks=probes.tasks,
        updates=probes.updates,
        grad_evals=probes.grad_evals,
        staleness_sum=probes.staleness_sum,
        pack_efficiencies=probes.pack_efficiencies,
        wire_bytes=probes.wire_bytes,
        layers=probes.stats,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment(),
    )
    print(json.dumps(result))
    return 0


def summarize_episode(workload, histories, probes, result) -> list:
    """Append one episode's round times, time to target and digests to
    ``result``, and release the episode's trainers and stores.

    Returns the episode's failures (the target not reached).
    """
    rounds = probes.rounds
    references = probes.references  # one per round, in round order
    probes.rounds = []
    probes.references = []
    trainers = {id(trainer): trainer for trainer, *_ in rounds}
    result["bytes_up"] += sum(t.comms_stats["bytes_up"] for t in trainers.values())
    for store in probes.stores.values():
        result["store_hits"] += store.cache_info()["hits"]
        result["store_misses"] += store.cache_info()["misses"]
    probes.stores = {}

    # Time to target: the tracked run's round times summed up to the round
    # that reached it (the gaps between rounds hold only loop bookkeeping
    # and the reference timings), with the reference timings of those rounds.
    tracked = [
        (r, ref) for r, ref in zip(rounds, references) if r[1] == workload.tracked
    ]
    reached = None
    for position, ((_, _, _, _, record), _) in enumerate(tracked):
        if workload.target_loss is not None:
            hit = record.train_loss is not None and record.train_loss <= workload.target_loss
        else:
            hit = position + 1 >= workload.target_rounds
        if hit:
            reached = tracked[: position + 1]
            break
    result["episodes"].append({
        "round_s": [end - start for _, _, start, end, _ in rounds],
        "reference_s": statistics.median(references),
        "time_to_target_s": reached and sum(end - start for (_, _, start, end, _), _ in reached),
        "time_to_target_reference_s": reached and statistics.median(ref for _, ref in reached),
    })

    for label, history in histories.items():
        digest = HistoryDigest()
        for record in history.records:
            digest.update(record)
        result["digests"].append(f"{label}:{digest.hexdigest()}")
    return [] if reached is not None else [f"{workload.tracked}: target not reached"]


if __name__ == "__main__":
    sys.exit(main())
