"""Server-side comms orchestration: payload round-trips, error feedback,
and wire-byte accounting.

One :class:`CommsManager` lives on the trainer and is shared with its
round executor (:meth:`~repro.runtime.executor.RoundExecutor.configure_comms`).
Every executor funnels each batch of finished updates through
:meth:`CommsManager.finalize_round` *before* returning them from
``run_local_solves`` — so the fault manager's finiteness quarantine, the
aggregation step, and every downstream consumer only ever see decoded
updates, on every engine.

Two encode placements
---------------------
*Device-side* (``ef=false``): the codec travels on the
:class:`~repro.runtime.executor.LocalTask` and
:func:`~repro.runtime.executor.solve_with_timings` encodes where the
solve ran.  On :class:`~repro.runtime.parallel.ParallelExecutor` this is
the lean IPC fast path — the update crosses the process boundary as the
encoded payload's single contiguous ``bytes`` buffer instead of a dense
float64 array — and the server merely decodes.

*Server-side* (``ef=true``, and any executor whose updates come back
dense, e.g. the cohort kernels): finalize encodes and immediately
decodes.  Error feedback forces this placement: the residual is shared
mutable per-client state that cannot live in worker processes without
shipping it back and forth — which would cost more bytes than it saves.

Both placements produce identical decoded updates for the same tasks
(encoding is a pure function of ``(update, w_global, entropy)``), so
histories agree across all four engines for any codec.

Error-feedback semantics
------------------------
With ``ef=true`` the transmitted delta is ``delta + residual`` and the
new residual is what the codec dropped:
``residual' = (delta + residual) - decode(encode(delta + residual))``.
Residuals update at transmission time — a later policy drop or
quarantine does not roll them back (the device did transmit) — and a
non-finite residual (a corruption fault poisoning the delta) resets to
empty rather than poisoning every subsequent round of that client.
Storage is one float64 vector per client that has actually transmitted,
O(participating clients), not O(federation).

Byte-accounting model
---------------------
``bytes_up`` counts each delivered payload's exact wire size;
``bytes_down`` counts one dense model broadcast (``8 * n_params``) per
*dispatched* task — the downlink ships the uncompressed global model
regardless of codec.  ``comms.compression_ratio`` is the round's dense
uplink cost over its actual uplink bytes.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .codecs import DENSE_ITEMSIZE, Codec
from .config import CommsConfig

if TYPE_CHECKING:  # avoid circular imports with repro.core / repro.runtime
    from ..core.client import ClientUpdate
    from ..runtime.executor import LocalTask


def _no_clock() -> float:
    """Stand-in clock for untimed round-trips (telemetry off)."""
    return 0.0


class CommsManager:
    """Round-trips update payloads and accounts their wire bytes."""

    def __init__(self, config: CommsConfig) -> None:
        self.config = config
        self.codec: Optional[Codec] = config.build_codec()
        #: Error feedback is only meaningful for lossy codecs: a lossless
        #: round-trip leaves a zero residual, so identity runs keep the
        #: device-side fast path (and bit-exactness) even with ef=true.
        self.ef: bool = (
            bool(config.ef)
            and self.codec is not None
            and not self.codec.lossless
        )
        self._residuals: Dict[int, np.ndarray] = {}
        self.bytes_up_total = 0
        self.bytes_down_total = 0
        self.dense_up_total = 0

    # Placement ----------------------------------------------------------- #
    @property
    def enabled(self) -> bool:
        return self.codec is not None

    @property
    def device_side(self) -> bool:
        """Whether encoding runs where the solve runs (the IPC fast path)."""
        return self.enabled and not self.ef

    @property
    def task_codec(self) -> Optional[Codec]:
        """The codec to attach to dispatched tasks (``None`` ⇒ ship dense)."""
        return self.codec if self.device_side else None

    # Predicted sizes ------------------------------------------------------ #
    def upload_ratio(self, n_params: int) -> float:
        """Predicted uplink bytes over dense bytes (1.0 when disabled)."""
        if self.codec is None or n_params <= 0:
            return 1.0
        return self.codec.wire_nbytes(n_params) / (DENSE_ITEMSIZE * n_params)

    # Accounting ----------------------------------------------------------- #
    def record_dispatch(
        self,
        n_tasks: int,
        n_params: int,
        telemetry=None,
        round_idx: Optional[int] = None,
    ) -> None:
        """Account the downlink model broadcasts for dispatched tasks."""
        down = n_tasks * DENSE_ITEMSIZE * n_params
        self.bytes_down_total += down
        if down and telemetry is not None and getattr(telemetry, "enabled", False):
            telemetry.metric(
                "comms.bytes_down", down, round_idx=round_idx, kind="counter"
            )

    @property
    def residual_clients(self) -> int:
        """Clients currently holding an error-feedback residual."""
        return len(self._residuals)

    def residual(self, client_id: int) -> Optional[np.ndarray]:
        """The client's pending error-feedback residual, if any."""
        return self._residuals.get(client_id)

    def stats(self) -> Dict[str, float]:
        """Cumulative wire accounting for this run."""
        ratio = (
            self.dense_up_total / self.bytes_up_total
            if self.bytes_up_total
            else 1.0
        )
        return {
            "bytes_up": float(self.bytes_up_total),
            "bytes_down": float(self.bytes_down_total),
            "dense_bytes_up": float(self.dense_up_total),
            "compression_ratio": float(ratio),
            "residual_clients": float(len(self._residuals)),
        }

    # Round-trip ----------------------------------------------------------- #
    def _roundtrip_server_side(
        self,
        update: "ClientUpdate",
        task: "LocalTask",
        clock: Callable[[], float] = _no_clock,
    ) -> Tuple[int, float, float]:
        """Encode+decode a dense update in place.

        Returns ``(payload bytes, encode seconds, decode seconds)``, timed
        with ``clock`` (the default books zeros without reading a clock).
        Encode covers everything up to the payload; decode covers the rest
        — decoding, the error-feedback residual, and applying the delta.
        """
        codec = self.codec
        t0 = clock()
        if self.ef:
            delta = update.w - task.w_global
            residual = self._residuals.get(update.client_id)
            if residual is not None:
                delta = delta + residual
            payload = codec.encode_delta(delta, task.rng_entropy)
            t1 = clock()
            decoded = codec.decode_delta(payload, delta.shape[0])
            residual = delta - decoded
            if np.all(np.isfinite(residual)):
                self._residuals[update.client_id] = residual
            else:
                # A poisoned delta (corruption fault) must not leave a
                # permanently-NaN accumulator behind; the device resets
                # its memory and the quarantine guard handles the update.
                self._residuals.pop(update.client_id, None)
            update.w = task.w_global + decoded
        else:
            payload = codec.encode_update(
                update.w, task.w_global, task.rng_entropy
            )
            t1 = clock()
            update.w = codec.decode_update(payload, task.w_global)
        return payload.nbytes, t1 - t0, clock() - t1

    def finalize_round(
        self,
        updates: Sequence["ClientUpdate"],
        tasks: Sequence["LocalTask"],
        telemetry=None,
        count_dispatch: bool = True,
    ) -> None:
        """Decode every update in the batch and account its wire bytes.

        ``updates`` and ``tasks`` are aligned pairs (the async engine
        passes the delivered entries' own tasks, which may be a subset of
        what it admitted this round).  Device-side-encoded updates
        (``update.payload`` set) are decoded; dense updates are
        round-tripped server-side (applying error feedback when enabled).
        ``count_dispatch=False`` skips downlink accounting for engines
        that account it at admission instead.
        """
        if self.codec is None:
            return
        from ..runtime.executor import task_round

        emit = telemetry is not None and getattr(telemetry, "enabled", False)
        round_idx = task_round(tasks[0]) if tasks else None
        if count_dispatch and tasks:
            self.record_dispatch(
                len(tasks), tasks[0].w_global.shape[0],
                telemetry=telemetry, round_idx=round_idx,
            )
        if not updates:
            return
        n_params = tasks[0].w_global.shape[0]

        encode_seconds = 0.0
        decode_seconds = 0.0
        batch_up = 0
        for update, task in zip(updates, tasks):
            payload = getattr(update, "payload", None)
            if payload is not None:
                # Device-side encoded: the wire buffer is the update.
                t0 = time.perf_counter() if emit else 0.0
                update.w = self.codec.decode_update(payload, task.w_global)
                if emit:
                    decode_seconds += time.perf_counter() - t0
                update.payload = None
                nbytes = payload.nbytes
                if update.timings is not None:
                    encode_seconds += update.timings.get("comm_encode", 0.0)
            else:
                nbytes, enc_s, dec_s = self._roundtrip_server_side(
                    update, task, time.perf_counter if emit else _no_clock
                )
                encode_seconds += enc_s
                decode_seconds += dec_s
                if update.timings is not None:
                    update.timings["payload_bytes"] = float(nbytes)
            batch_up += nbytes
        dense_up = len(updates) * DENSE_ITEMSIZE * n_params
        self.bytes_up_total += batch_up
        self.dense_up_total += dense_up

        if emit:
            telemetry.record_span(
                "comm:encode", encode_seconds, round_idx=round_idx,
                clients=len(updates), bytes=batch_up, codec=self.codec.spec(),
            )
            telemetry.record_span(
                "comm:decode", decode_seconds, round_idx=round_idx,
                clients=len(updates),
            )
            telemetry.metric(
                "comms.bytes_up", batch_up, round_idx=round_idx,
                kind="counter",
            )
            if batch_up:
                telemetry.metric(
                    "comms.compression_ratio", dense_up / batch_up,
                    round_idx=round_idx, kind="gauge",
                )
