"""Local solver interface and the mini-batch schedule API.

FedProx is explicitly *solver-agnostic*: any procedure that produces a
γ-inexact minimizer of the local subproblem is admissible (paper §3.2).
:class:`LocalSolver` captures that contract — a solver receives a
:class:`~repro.optim.proximal.LocalObjective`, a starting point, and a
work budget (epochs), and returns the approximate minimizer.

Mini-batch schedules
--------------------
All batching logic lives in :class:`BatchSchedule`, the single source of
truth for how a device's work budget turns into shuffled mini-batches.

Determinism: a schedule consumes the supplied ``rng`` exactly one
``permutation(n_samples)`` draw per *started* epoch, in order.  The cohort
fast path (:mod:`repro.runtime.cohort`) relies on this to replay the same
batch sequence the scalar solvers draw, making both paths bit-comparable.

Stacked (cohort) solve protocol
-------------------------------
Solvers that can run many clients' local solves simultaneously over a
``(K, n_params)`` weight matrix advertise ``supports_stacked_solve`` and
implement three hooks used by :class:`repro.runtime.cohort.CohortExecutor`:

``stacked_plan(n_samples, epochs, rng)``
    The per-client mini-batch index schedule (list of index arrays), drawn
    from ``rng`` exactly as the scalar ``solve`` would draw it.
``stacked_state(shape)``
    Preallocated workspace buffers for a cohort of ``shape = (L, d)``
    (one row per scheduler *lane*; see :mod:`repro.runtime.packing`).
``stacked_step(W, G, state, step)``
    Apply one update in place to the *active* rows ``W`` (a ``(A, d)``
    prefix view) given subproblem gradients ``G``.  ``step`` is either a
    plain ``int`` — every active row is at the same 1-based local step, the
    common case when each lane runs a single client chain — or an ``(A,)``
    ``int64`` array of per-row 1-based local steps, which the skew-aware
    packing planner passes when lanes at different chain offsets share a
    kernel segment.  Must perform the same floating-point operations, in
    the same order, as one scalar ``solve`` iteration so the two paths
    agree bitwise (step-dependent solvers like Adam must make the array
    branch numerically identical to the scalar exponentiation).
``stacked_reset(state, rows)``
    Re-zero any per-row solver state (momentum velocity, Adam moments)
    when a lane is recycled for a *new* client chain mid-solve.  ``rows``
    is an ``int`` row index or an index array.  Stateless solvers keep the
    default no-op.
"""

from __future__ import annotations

import abc
from typing import Iterator, List, Optional

import numpy as np

from .proximal import LocalObjective


class BatchSchedule:
    """Mini-batch schedule for ``epochs`` passes over ``n_samples`` points.

    Parameters
    ----------
    n_samples:
        Device sample count (must be positive).
    batch_size:
        Mini-batch size; when ``batch_size >= n_samples`` every "epoch" is
        a single full-data batch (still shuffled).
    epochs:
        Work budget in passes over the data; fractional budgets (straggler
        devices) round to the nearest batch count, with a minimum of one
        batch so every participating device does *some* work.
    """

    def __init__(
        self, n_samples: int, batch_size: int, epochs: float = 1.0
    ) -> None:
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        self.n_samples = int(n_samples)
        self.batch_size = int(batch_size)
        self.epochs = float(epochs)

    @property
    def per_epoch(self) -> int:
        """Mini-batches in one epoch (final partial batch included)."""
        if self.batch_size >= self.n_samples:
            return 1
        return -(-self.n_samples // self.batch_size)  # ceil division

    @property
    def total(self) -> int:
        """Mini-batches in the whole budget (``>= 1``)."""
        return max(1, int(round(self.epochs * self.per_epoch)))

    def one_epoch(self, rng: np.random.Generator) -> List[np.ndarray]:
        """One shuffled epoch's batches (one ``permutation`` draw).

        The final partial batch is kept, matching common SGD practice and
        the reference implementation's behaviour.
        """
        order = rng.permutation(self.n_samples)
        if self.batch_size >= self.n_samples:
            return [order]
        return [
            order[start : start + self.batch_size]
            for start in range(0, self.n_samples, self.batch_size)
        ]

    def batches(self, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """Yield :attr:`total` mini-batches, reshuffling at epoch starts."""
        done = 0
        total = self.total
        while done < total:
            for batch in self.one_epoch(rng):
                yield batch
                done += 1
                if done >= total:
                    return

    def materialize(self, rng: np.random.Generator) -> List[np.ndarray]:
        """The full batch sequence as a list (for the cohort planner)."""
        return list(self.batches(rng))


class LocalSolver(abc.ABC):
    """Produce an approximate minimizer of a local subproblem.

    Implementations must be deterministic given the supplied ``rng``; the
    federated server uses this to fix mini-batch orders across compared
    runs, as the paper's experimental protocol requires.
    """

    @abc.abstractmethod
    def solve(
        self,
        objective: LocalObjective,
        w_start: np.ndarray,
        epochs: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Run ``epochs`` of local work from ``w_start`` and return the result.

        Parameters
        ----------
        objective:
            The (possibly proximal) local objective ``h_k``.
        w_start:
            Starting parameter vector (the global model ``w_t``).
        epochs:
            Number of passes over the device's local data.
        rng:
            Source of mini-batch shuffling randomness.
        """

    def describe(self) -> str:
        """Short human-readable description, used in experiment logs."""
        return type(self).__name__

    def telemetry_tags(self) -> dict:
        """Flat description of this solver for telemetry run manifests.

        The default collects the common hyperparameter attributes when
        present; solvers with richer configuration can override to add
        their own fields (keep values JSON-scalar).
        """
        tags = {"solver": self.describe()}
        for attr in ("learning_rate", "batch_size", "momentum"):
            value = getattr(self, attr, None)
            if isinstance(value, (int, float)):
                tags[attr] = value
        return tags

    #: Attributes the default :meth:`spec` captures; every built-in solver
    #: stores its constructor args under these names, so the spec doubles
    #: as constructor kwargs for replay.
    _SPEC_ATTRS = (
        "learning_rate",
        "batch_size",
        "momentum",
        "beta1",
        "beta2",
        "eps",
    )

    def spec(self) -> dict:
        """Reconstruction descriptor for run-ledger manifests.

        ``type`` names the class; the remaining keys are constructor
        kwargs (the built-in solvers store each constructor argument under
        its own name, which this default harvests).  The replay layer
        rebuilds the solver as ``SolverClass(**spec_minus_type)``; solvers
        with constructor arguments outside :data:`_SPEC_ATTRS` must
        override.
        """
        spec: dict = {"type": type(self).__name__}
        for attr in self._SPEC_ATTRS:
            value = getattr(self, attr, None)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                spec[attr] = value
        return spec

    # Stacked (cohort) solve protocol ------------------------------------ #
    @property
    def supports_stacked_solve(self) -> bool:
        """Whether the solver implements the stacked cohort hooks below."""
        return False

    def stacked_plan(
        self, n_samples: int, epochs: float, rng: np.random.Generator
    ) -> List[np.ndarray]:
        """One client's mini-batch index schedule for a cohort solve.

        Must consume ``rng`` exactly as :meth:`solve` does, so the cohort
        path replays the scalar path's batch order.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support stacked cohort solves"
        )

    def stacked_state(self, shape: tuple) -> Optional[dict]:
        """Preallocated workspace for a cohort solve over ``shape=(L, d)``."""
        return None

    def stacked_step(
        self,
        W: np.ndarray,
        G: np.ndarray,
        state: Optional[dict],
        step,
    ) -> None:
        """Apply one in-place update to the active rows of the cohort.

        ``step`` is an ``int`` (uniform segment) or an ``(A,)`` int64 array
        of per-row 1-based local steps (mixed-offset segment).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support stacked cohort solves"
        )

    def stacked_reset(self, state: Optional[dict], rows) -> None:
        """Zero per-row solver state when a lane starts a new client chain.

        Called by the cohort scheduler each time a lane is (re)assigned to
        a client, so stateful solvers reproduce the scalar path's
        fresh-state-per-solve behaviour even when several clients share a
        lane back-to-back.  The default is a no-op, correct for stateless
        solvers whose workspace holds only scratch buffers.
        """
