"""Composite differentiable functions built on the primitive ops.

These are the loss functions and fused operations used by the model zoo.
Fusing softmax with cross-entropy keeps the backward pass numerically
stable and cheap (the classic ``softmax - onehot`` gradient).

:func:`fused_lstm` is the autograd node for the unrolled multi-layer LSTM —
the hot path of the paper's Shakespeare and Sent140 workloads.  It
participates in the graph like any other op (one node for the whole
unroll) but runs the hand-derived kernels of
:mod:`repro.autograd.stacked_lstm` as their ``K = 1`` call instead of
building ~10 graph nodes per timestep.  The graph-mode cell in
:mod:`repro.nn.recurrent` remains the correctness oracle: the test suite
checks the fused gradients against it and against finite differences.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from . import ops
from .stacked_lstm import (
    StackedLSTMWorkspace,
    stacked_lstm_backward,
    stacked_lstm_forward,
)
from .tensor import Tensor, as_tensor


def softmax_cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    reduction: str = "mean",
    sample_weight: Optional[np.ndarray] = None,
) -> Tensor:
    """Cross-entropy between ``softmax(logits)`` and integer ``labels``.

    Parameters
    ----------
    logits:
        ``(batch, classes)`` unnormalized scores.
    labels:
        ``(batch,)`` integer class indices.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    sample_weight:
        Optional per-sample weights, applied before the reduction.

    Returns
    -------
    Tensor
        Scalar loss (or per-sample loss vector when ``reduction="none"``).
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"expected (batch, classes) logits, got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )

    batch = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    per_sample = -log_probs[np.arange(batch), labels]
    if sample_weight is not None:
        per_sample = per_sample * sample_weight

    softmax_vals = np.exp(log_probs)

    if reduction == "mean":
        out_data = per_sample.mean()
    elif reduction == "sum":
        out_data = per_sample.sum()
    elif reduction == "none":
        out_data = per_sample
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(grad: np.ndarray) -> None:
        base = softmax_vals.copy()
        base[np.arange(batch), labels] -= 1.0
        if sample_weight is not None:
            base *= np.asarray(sample_weight)[:, None]
        if reduction == "mean":
            g = base * (grad / batch)
        elif reduction == "sum":
            g = base * grad
        else:  # per-sample
            g = base * np.asarray(grad)[:, None]
        logits._accumulate(g)

    if logits.requires_grad or logits._parents:
        return Tensor(out_data, _parents=(logits,), _backward_fn=backward)
    return Tensor(out_data)


def binary_cross_entropy_with_logits(
    logits: Tensor, labels: np.ndarray, reduction: str = "mean"
) -> Tensor:
    """Binary cross-entropy on raw logits, numerically stable.

    Uses the identity
    ``BCE(x, y) = max(x, 0) - x*y + log(1 + exp(-|x|))``.

    Parameters
    ----------
    logits:
        Arbitrary-shape raw scores.
    labels:
        Same-shape array of {0, 1} targets (floats allowed).
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    logits = as_tensor(logits)
    y = np.asarray(labels, dtype=np.float64)
    x = logits.data
    per_elem = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))

    sigma = np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.abs(x))),
        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
    )

    if reduction == "mean":
        out_data = per_elem.mean()
    elif reduction == "sum":
        out_data = per_elem.sum()
    elif reduction == "none":
        out_data = per_elem
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(grad: np.ndarray) -> None:
        base = sigma - y
        if reduction == "mean":
            g = base * (grad / per_elem.size)
        elif reduction == "sum":
            g = base * grad
        else:
            g = base * np.asarray(grad)
        logits._accumulate(g)

    if logits.requires_grad or logits._parents:
        return Tensor(out_data, _parents=(logits,), _backward_fn=backward)
    return Tensor(out_data)


def mse_loss(pred: Tensor, target: np.ndarray, reduction: str = "mean") -> Tensor:
    """Mean squared error between ``pred`` and a constant ``target``."""
    pred = as_tensor(pred)
    diff = ops.sub(pred, Tensor(np.asarray(target, dtype=np.float64)))
    sq = ops.mul(diff, diff)
    if reduction == "mean":
        return ops.mean(sq)
    if reduction == "sum":
        return ops.sum_(sq)
    if reduction == "none":
        return sq
    raise ValueError(f"unknown reduction {reduction!r}")


def l2_norm_squared(t: Tensor) -> Tensor:
    """Squared Euclidean norm ``sum(t**2)`` of a tensor of any shape."""
    t = as_tensor(t)
    return ops.sum_(ops.mul(t, t))


def fused_lstm(
    x,
    layers: Sequence[Tuple[Tensor, Tensor, Tensor]],
    workspace: Optional[StackedLSTMWorkspace] = None,
    return_sequence: bool = False,
) -> Tensor:
    """Unrolled multi-layer LSTM with hand-derived forward/backward.

    Semantically identical to running :class:`repro.nn.recurrent.LSTM`
    (zero initial state, gate layout ``[input, forget, cell, output]``,
    same association order of the pre-activation sums), but executed as
    the ``K = 1`` call of the kernel in :mod:`repro.autograd.stacked_lstm`.

    Parameters
    ----------
    x:
        ``(batch, time, in_size)`` input — an ndarray or a Tensor (e.g. an
        embedding lookup); gradients propagate into a Tensor input that
        participates in the graph.
    layers:
        One ``(w_x, w_h, bias)`` parameter triple per layer, with shapes
        ``(in, 4H)`` / ``(H, 4H)`` / ``(4H,)`` — exactly the parameters of
        :class:`repro.nn.recurrent.LSTMCell`.
    workspace:
        Activation tape reused across calls (see
        :class:`~repro.autograd.stacked_lstm.StackedLSTMWorkspace`); a
        private one is allocated per call when omitted.  A forward through
        the same workspace before this node's backward recycles the tape,
        and the backward then raises ``RuntimeError`` instead of
        corrupting gradients.
    return_sequence:
        Return all top-layer hidden states ``(batch, time, hidden)``
        instead of the final state ``(batch, hidden)``.

    Returns
    -------
    Tensor
        The top layer's final hidden state (or full sequence), wired into
        the autograd graph as a single node.
    """
    x_t = as_tensor(x)
    xd = x_t.data
    if xd.ndim != 3:
        raise ValueError(f"expected (batch, time, features), got {xd.shape}")
    if not layers:
        raise ValueError("fused_lstm needs at least one layer")
    B, T, in_size = xd.shape
    H = layers[0][1].shape[0]
    for l, (w_x, w_h, b) in enumerate(layers):
        expect_in = in_size if l == 0 else H
        if w_x.shape != (expect_in, 4 * H) or w_h.shape != (H, 4 * H) or b.shape != (4 * H,):
            raise ValueError(
                f"layer {l}: expected shapes ({expect_in}, {4*H}) / "
                f"({H}, {4*H}) / ({4*H},), got {w_x.shape} / {w_h.shape} / {b.shape}"
            )

    ws = workspace if workspace is not None else StackedLSTMWorkspace()
    st = ws.acquire(1, T, B, in_size, H, len(layers))
    generation = ws.generation
    np.copyto(st["x_km"][0], xd.transpose(1, 0, 2))
    h_final = stacked_lstm_forward(
        st, [(w_x.data[None], w_h.data[None], b.data[None]) for w_x, w_h, b in layers]
    )
    if return_sequence:
        out_data = np.ascontiguousarray(st["layers"][-1].h[0, 1:].transpose(1, 0, 2))
    else:
        out_data = h_final[0].copy()

    x_in_graph = x_t.requires_grad or bool(x_t._parents)
    parents = [p for triple in layers for p in triple]
    if x_in_graph:
        parents.append(x_t)
    if not any(p.requires_grad or p._parents for p in parents):
        return Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        if ws.generation != generation:
            raise RuntimeError(
                "fused_lstm backward ran against a recycled workspace: "
                "another forward reused the activation tape before this "
                "node's backward pass (run backward before the next forward, "
                "or give each concurrent graph its own workspace)"
            )
        grad = np.asarray(grad)
        dh_out = grad.transpose(1, 0, 2)[None] if return_sequence else grad[None]
        # The kernel's backward reads the tape's own parameter copies, so
        # this closure pins no parameter arrays: they may be views of a
        # flat vector the solver replaces every step, and keeping each one
        # alive until backward fragments the heap.
        grads = stacked_lstm_backward(st, dh_out, need_dx=x_in_graph)
        for triple, d_triple in zip(layers, grads):
            for p, d in zip(triple, d_triple):
                p._accumulate(d[0])
        if x_in_graph:
            x_t._accumulate(st["dx"][0].transpose(1, 0, 2))

    return Tensor(out_data, _parents=tuple(parents), _backward_fn=backward)
