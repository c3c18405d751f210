"""The LSTM kernel: hand-derived multi-layer forward/backward over clients.

Every buffer carries a leading client axis ``K`` and each GEMM is batched
over it: ``(K, T*B, in) @ (K, in, 4H)`` for the input contribution of all
``T`` steps, ``(K, B, H) @ (K, H, 4H)`` per step for the recurrence.
:func:`~repro.autograd.functional.fused_lstm` (behind
:class:`repro.nn.FusedLSTM`) is the ``K = 1`` call; the cohort solver
(:mod:`repro.models._stacked_seq`) calls it with one parameter row per
client.  The graph-mode cell in :mod:`repro.nn.recurrent` is the
correctness oracle for both.

Row contract: slice ``k`` runs the same floating-point operations, in the
same order, whatever ``K`` is — batched ``matmul`` dispatches the identical
per-slice GEMM and every elementwise kernel is position-independent — so
row ``k`` is bitwise a ``fused_lstm`` call at that client's parameters.

Gate columns are permuted ``[i, f, g, o] -> [i, f, o, g]`` internally (an
exact relabeling; the swap is its own inverse) so the three sigmoid gates
form one contiguous block.  Buffers live in a :class:`StackedLSTMWorkspace`
(see DESIGN.md §12): forward tape on ``acquire``, backward scratch on the
first backward, layer inputs read as ``reshape`` views of the tape.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def _sigmoid_inplace(a: np.ndarray) -> None:
    """Numerically stable in-place logistic sigmoid via tanh.

    ``sigmoid(x) = (tanh(x/2) + 1) / 2`` is finite for any ``x`` and needs
    no temporaries, unlike the exp-based split form.
    """
    a *= 0.5
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5


class _StackedLayerTape:
    """Per-layer activations, leading client axis."""

    def __init__(self, K: int, T: int, B: int, in_size: int, hidden: int) -> None:
        H = hidden
        # ``h[:, 0]`` / ``c[:, 0]`` hold the zero initial state, so
        # ``h[:, t]`` is the state *entering* step ``t``.
        self.h = np.zeros((K, T + 1, B, H))
        self.c = np.zeros((K, T + 1, B, H))
        self.tanh_c = np.empty((K, T, B, H))
        # Post-nonlinearity gates in the internal [i, f, o, g] order.
        self.gates = np.empty((K, T, B, 4 * H))
        self.w_x_p = np.empty((K, in_size, 4 * H))
        self.w_h_p = np.empty((K, H, 4 * H))
        self.b_p = np.empty((K, 4 * H))
        # Gradient scratch, allocated by the first backward: ``d_p`` in the
        # internal column order, ``d`` un-permuted to the external one.
        self.d_p: Tuple[np.ndarray, ...] = ()
        self.d: Tuple[np.ndarray, ...] = ()


class StackedLSTMWorkspace:
    """Reusable LSTM tape, keyed by call shape ``(K, T, B, in, H, layers)``.

    One workspace amortizes allocation across the minibatches and local
    epochs of a solve (minibatch shapes repeat within an epoch, evaluation
    blocks across rounds, and the cohort width K changes only at scheduler
    segment boundaries).

    A shape's buffers are *live* between a forward and its backward:
    another forward of that shape overwrites the tape.  :meth:`acquire`
    bumps :attr:`generation`, which lets an autograd node detect that its
    tape was recycled before its backward ran (see ``fused_lstm``).
    """

    def __init__(self) -> None:
        self._tapes: dict = {}
        self.generation = 0

    def acquire(
        self, K: int, T: int, B: int, in_size: int, hidden: int, layers: int
    ) -> dict:
        """Forward buffers for one call shape, allocating on first use."""
        key = (K, T, B, in_size, hidden, layers)
        st = self._tapes.get(key)
        if st is None:
            H = hidden
            st = {
                "K": K, "T": T, "B": B, "in_size": in_size, "H": H,
                "layers": [
                    _StackedLayerTape(K, T, B, in_size if l == 0 else H, H)
                    for l in range(layers)
                ],
                "x_km": np.empty((K, T, B, in_size)),
                "tmp4h": np.empty((K, B, 4 * H)),
                "tmph": np.empty((K, B, H)),
                # Column order [i, f, g, o] -> [i, f, o, g] (an involution).
                "perm": np.r_[0 : 2 * H, 3 * H : 4 * H, 2 * H : 3 * H],
            }
            self._tapes[key] = st
        self.generation += 1
        return st


def _backward_scratch(st: dict) -> None:
    """Allocate the backward-only buffers of a tape, once."""
    if "dgates" in st:
        return
    K, T, B, H, n_in = st["K"], st["T"], st["B"], st["H"], st["in_size"]
    st.update(
        dh=np.empty((K, B, H)),
        dc=np.empty((K, B, H)),
        tmp3h=np.empty((K, B, 3 * H)),
        dgates=np.empty((K, T, B, 4 * H)),
        dseq_a=np.empty((K, T, B, H)),
        dseq_b=np.empty((K, T, B, H)),
        dx=np.empty((K, T, B, n_in)),
    )
    for tape in st["layers"]:
        shapes = (tape.w_x_p.shape, tape.w_h_p.shape, tape.b_p.shape)
        tape.d_p = tuple(np.empty(s) for s in shapes)
        tape.d = tuple(np.empty(s) for s in shapes)


def stacked_lstm_forward(
    st: dict, params: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Multi-client forward; input read from ``st["x_km"]`` (K, T, B, in).

    ``params`` is one ``(w_x, w_h, b)`` triple per layer with leading
    client axis: ``(K, in, 4H)`` / ``(K, H, 4H)`` / ``(K, 4H)``, in the
    external [i, f, g, o] gate layout.  Returns the top layer's final
    hidden state as a ``(K, B, H)`` view into the tape; the full top-layer
    sequence is ``st["layers"][-1].h[:, 1:]``.
    """
    K, T, B, H = st["K"], st["T"], st["B"], st["H"]
    tmp4h, tmph, perm = st["tmp4h"], st["tmph"], st["perm"]
    inp = st["x_km"]
    for l, (w_x, w_h, b) in enumerate(params):
        tape = st["layers"][l]
        gates, h, c = tape.gates, tape.h, tape.c
        np.take(w_x, perm, axis=2, out=tape.w_x_p)
        np.take(w_h, perm, axis=2, out=tape.w_h_p)
        np.take(b, perm, axis=1, out=tape.b_p)
        np.matmul(
            inp.reshape(K, T * B, -1), tape.w_x_p,
            out=gates.reshape(K, T * B, 4 * H),
        )
        gates += tape.b_p[:, None, None, :]  # one broadcast add for all T steps
        h[:, 0].fill(0.0)
        c[:, 0].fill(0.0)
        w_h_p = tape.w_h_p
        tanh_c = tape.tanh_c
        for t in range(T):
            g_t = gates[:, t]
            np.matmul(h[:, t], w_h_p, out=tmp4h)
            g_t += tmp4h
            _sigmoid_inplace(g_t[:, :, : 3 * H])        # input, forget, output
            np.tanh(g_t[:, :, 3 * H :], out=g_t[:, :, 3 * H :])  # candidate
            c_next = c[:, t + 1]
            np.multiply(g_t[:, :, H : 2 * H], c[:, t], out=c_next)  # f * c_prev
            np.multiply(g_t[:, :, :H], g_t[:, :, 3 * H :], out=tmph)  # i * g
            c_next += tmph
            np.tanh(c_next, out=tanh_c[:, t])
            np.multiply(g_t[:, :, 2 * H : 3 * H], tanh_c[:, t], out=h[:, t + 1])
        inp = h[:, 1:]
    return st["layers"][-1].h[:, T]


def stacked_lstm_backward(
    st: dict, dh_out: np.ndarray, need_dx: bool = False
) -> List[Tuple[np.ndarray, ...]]:
    """Multi-client backward of the last :func:`stacked_lstm_forward`.

    Reads the parameters from the tape's own permuted copies.  ``dh_out``
    is the gradient of the top layer's output: ``(K, B, H)`` for the final
    hidden state, or ``(K, T, B, H)`` for the full sequence.  Per-layer
    gradients land in the tape buffers and are
    returned as ``(d_wx, d_wh, d_b)`` triples in the external gate layout
    (valid until the next call); when ``need_dx`` the input gradient is
    left in ``st["dx"]`` as ``(K, T, B, in)``.
    """
    _backward_scratch(st)
    K, T, B, H = st["K"], st["T"], st["B"], st["H"]
    dh, dc, tmp = st["dh"], st["dc"], st["tmph"]
    tmp3h, perm = st["tmp3h"], st["perm"]
    dgates = st["dgates"]
    dseq = st["dseq_a"]
    if dh_out.ndim == 4:
        np.copyto(dseq, dh_out)
    else:
        dseq.fill(0.0)
        dseq[:, T - 1] = dh_out
    for l in range(len(st["layers"]) - 1, -1, -1):
        tape = st["layers"][l]
        gates, h, c, tanh_c = tape.gates, tape.h, tape.c, tape.tanh_c
        dh.fill(0.0)
        dc.fill(0.0)
        w_h_pT = tape.w_h_p.transpose(0, 2, 1)
        for t in range(T - 1, -1, -1):
            dh += dseq[:, t]
            g_t = gates[:, t]
            i_g = g_t[:, :, :H]
            f_g = g_t[:, :, H : 2 * H]
            o_g = g_t[:, :, 2 * H : 3 * H]
            g_g = g_t[:, :, 3 * H :]
            dg_t = dgates[:, t]
            # dc += dh * o * (1 - tanh(c)^2)
            np.multiply(tanh_c[:, t], tanh_c[:, t], out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            tmp *= o_g
            tmp *= dh
            dc += tmp
            # Gradients w.r.t. the three sigmoid gate *values*...
            np.multiply(dc, g_g, out=dg_t[:, :, :H])                 # input
            np.multiply(dc, c[:, t], out=dg_t[:, :, H : 2 * H])      # forget
            np.multiply(dh, tanh_c[:, t], out=dg_t[:, :, 2 * H : 3 * H])  # out
            # ...through one fused sigmoid derivative over [i, f, o].
            np.subtract(1.0, g_t[:, :, : 3 * H], out=tmp3h)
            tmp3h *= g_t[:, :, : 3 * H]
            dg_t[:, :, : 3 * H] *= tmp3h
            # cell gate: dc * i * (1 - g^2)
            da_g = dg_t[:, :, 3 * H :]
            np.multiply(g_g, g_g, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(dc, tmp, out=da_g)
            da_g *= i_g
            # carry to step t-1
            dc *= f_g
            np.matmul(dg_t, w_h_pT, out=dh)
        # Fused parameter accumulation: one GEMM per matrix over each
        # client's (T*B, .) stack instead of T rank-B updates.
        flat_dg = dgates.reshape(K, T * B, 4 * H)
        inp = st["x_km"] if l == 0 else st["layers"][l - 1].h[:, 1:]
        d_wx_p, d_wh_p, d_b_p = tape.d_p
        np.matmul(inp.reshape(K, T * B, -1).transpose(0, 2, 1), flat_dg, out=d_wx_p)
        np.matmul(h[:, :T].reshape(K, T * B, H).transpose(0, 2, 1), flat_dg, out=d_wh_p)
        flat_dg.sum(axis=1, out=d_b_p)
        d_wx, d_wh, d_b = tape.d
        np.take(d_wx_p, perm, axis=2, out=d_wx)
        np.take(d_wh_p, perm, axis=2, out=d_wh)
        np.take(d_b_p, perm, axis=1, out=d_b)
        if l > 0:
            nxt = st["dseq_b"] if dseq is st["dseq_a"] else st["dseq_a"]
            np.matmul(
                flat_dg, tape.w_x_p.transpose(0, 2, 1),
                out=nxt.reshape(K, T * B, H),
            )
            dseq = nxt
        elif need_dx:
            np.matmul(
                flat_dg, tape.w_x_p.transpose(0, 2, 1),
                out=st["dx"].reshape(K, T * B, st["in_size"]),
            )
    return [tape.d for tape in st["layers"]]
