"""Outside-in probes: timing wrappers around the public entry points of
each ``repro`` layer, installed from the benchmark's own files.

Nothing under ``src/`` knows about these probes.  :class:`Probes` patches
a class method or module function with a wrapper that times the call and
keeps a call stack, so every layer gets three numbers:

* ``calls`` -- how often the entry point ran;
* ``busy_s`` -- wall seconds inside it, nested probed calls included;
* ``self_s`` -- ``busy_s`` minus the time its nested probed calls took.

Self times of all probed calls tile the outermost probed calls exactly, so
``run time = sum(self_s) + residual``, where the residual is run time that
no probed layer covers.

An untraced run installs only the probes every end-to-end metric needs
(round timing with its reference timing, and the work counters on the
executor's returned updates); a traced run installs them all.

Before every round the round probe also times :func:`reference_seconds`,
outside the round's own timer, so each episode's times can be expressed at
a fixed machine speed.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

perf_counter = time.perf_counter

_REFERENCE_RNG = np.random.default_rng(0)
_REFERENCE_X = _REFERENCE_RNG.standard_normal((10, 60))
_REFERENCE_Y = _REFERENCE_RNG.integers(0, 10, 10)
_REFERENCE_H = _REFERENCE_RNG.standard_normal((10, 108))
_REFERENCE_U = _REFERENCE_RNG.standard_normal((108, 400))
_REFERENCE_V = _REFERENCE_RNG.standard_normal(132_720)


def reference_seconds() -> float:
    """Wall time of a fixed kernel that runs no repro code.

    40 steps, each a softmax-regression SGD step on fixed 10x60 data and an
    LSTM-sized 10x108 @ 108x400 product with a tanh, then one pass over a
    132,720-element vector: the mix of small NumPy calls, BLAS products,
    memory traffic and interpreter overhead that the workloads' rounds are
    made of, so it slows down when the machine does.  About 3 ms.
    """
    X, y, rows = _REFERENCE_X, _REFERENCE_Y, np.arange(10)
    W = np.zeros((60, 10))
    t0 = perf_counter()
    for _ in range(40):
        z = X @ W
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        W -= 0.01 * (X.T @ p)
        np.tanh(_REFERENCE_H @ _REFERENCE_U)
    np.rint(_REFERENCE_V * 127.0)
    return perf_counter() - t0


class Probes:
    """Installs timing wrappers and accumulates per-layer statistics."""

    def __init__(self) -> None:
        # name -> [calls, busy_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        # One entry per open probed call: seconds spent in nested probed
        # calls so far.  Entry 0 is a sentinel that collects top-level time.
        self._stack: List[List[float]] = [[0.0]]
        # Rounds as (trainer, label, start, end, record), in call order.
        self.rounds: List[tuple] = []
        self.tasks = 0
        self.updates = 0
        self.grad_evals = 0
        self.staleness_sum = 0.0
        self.pack_efficiencies: List[float] = []
        self.wire_bytes = 0
        self.stores: Dict[int, object] = {}
        self.first_round_at: Optional[float] = None
        self.stop_at_first_round = False
        # reference_seconds() before each round, and the wall time those
        # timings took (outside every round, inside the episode).
        self.references: List[float] = []
        self.reference_wall_s = 0.0

    @property
    def covered_s(self) -> float:
        """Wall seconds inside outermost probed calls."""
        return self._stack[0][0]

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a timing wrapper booked as ``name``.

        ``before(args)`` runs ahead of the timer; ``after(args, result, t0,
        t1)`` runs once the timer stopped, so neither is booked to
        ``name`` (their cost lands in the caller's self time).
        """
        original = getattr(owner, attr)
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def probe(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                elapsed = t1 - t0
                stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
            if after is not None:
                after(args, result, t0, t1)
            return result

        setattr(owner, attr, probe)

    # Hooks ------------------------------------------------------------- #
    def _before_round(self, args) -> None:
        if self.first_round_at is None:
            self.first_round_at = perf_counter()
            if self.stop_at_first_round:
                raise SetupDone()
        t0 = perf_counter()
        self.references.append(reference_seconds())
        self.reference_wall_s += perf_counter() - t0

    def _after_round(self, args, record, t0, t1) -> None:
        trainer = args[0]
        self.rounds.append((trainer, trainer.label, t0, t1, record))

    def _after_local_solves(self, args, updates, t0, t1) -> None:
        self.tasks += len(args[1])
        self.updates += len(updates)
        for update in updates:
            self.grad_evals += update.gradient_evaluations
            self.staleness_sum += update.staleness

    def _after_plan(self, args, plan, t0, t1) -> None:
        self.pack_efficiencies.append(plan.pack_efficiency)

    def _after_encode(self, args, payload, t0, t1) -> None:
        self.wire_bytes += payload.nbytes

    def _after_store_get(self, args, data, t0, t1) -> None:
        self.stores[id(args[0])] = args[0]

    # Installation ------------------------------------------------------ #
    def install(self, traced: bool) -> None:
        """Patch the entry points; ``traced`` adds every per-layer probe."""
        from repro.core.server import FederatedTrainer
        from repro.runtime import AsyncExecutor, CohortExecutor, SerialExecutor

        # A layer of its own, so self times still tile the run.
        self.wrap(sys.modules[__name__], "reference_seconds", "benchmark.reference")
        self.wrap(
            FederatedTrainer, "run_round", "core.run_round",
            before=self._before_round, after=self._after_round,
        )
        for executor in (SerialExecutor, CohortExecutor, AsyncExecutor):
            self.wrap(
                executor, "run_local_solves", "runtime.local_solve",
                after=self._after_local_solves,
            )
        if not traced:
            return

        from repro.comms.codecs import QSGDCodec
        from repro.core.sampling import UniformSamplingWeightedAverage
        from repro.datasets.store import OnDemandSyntheticStore
        from repro.experiments import runner
        from repro.optim.sgd import SGDSolver
        from repro.runtime import cohort
        from repro.runtime.evaluation import FederationEvaluator
        from repro.runtime.sampled import SampledEvaluator

        self.wrap(runner, "run_methods", "experiments.run_methods")
        self.wrap(UniformSamplingWeightedAverage, "select", "core.select")
        self.wrap(UniformSamplingWeightedAverage, "aggregate", "core.aggregate")
        self.wrap(SGDSolver, "solve", "optim.solve")
        self.wrap(cohort, "solve_cohort", "runtime.cohort.solve")
        self.wrap(
            cohort, "plan_cohort", "runtime.cohort.plan",
            after=self._after_plan,
        )
        for method in ("train_loss", "test_accuracy"):
            self.wrap(FederationEvaluator, method, "runtime.eval_full")
            self.wrap(SampledEvaluator, method, "runtime.eval_sampled")
        self.wrap(
            OnDemandSyntheticStore, "get", "datasets.store_get",
            after=self._after_store_get,
        )
        self.wrap(
            QSGDCodec, "encode_delta", "comms.encode", after=self._after_encode
        )
        self.wrap(QSGDCodec, "decode_delta", "comms.decode")


class SetupDone(Exception):
    """Raised at the first round of a set-up-only run."""

