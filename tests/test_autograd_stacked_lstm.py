"""Row contract of the LSTM kernel.

``fused_lstm`` is the ``K = 1`` call of :mod:`repro.autograd.stacked_lstm`;
the cohort solver calls the same kernel at ``K > 1`` with a different
parameter row per client.  Row ``k`` of a stacked call must be *bitwise*
one ``fused_lstm`` forward/backward at client ``k``'s parameters — for the
final-state and the full-sequence output gradient, for the input gradient,
and across layers (whose inputs are read as views of the hidden-state
tape).
"""

import weakref

import numpy as np
import pytest

from repro.autograd import (
    StackedLSTMWorkspace,
    Tensor,
    fused_lstm,
    stacked_lstm_backward,
    stacked_lstm_forward,
)

K, B, T, IN, H, LAYERS = 3, 4, 5, 3, 6, 2


@pytest.fixture
def problem(rng):
    """Per-client parameter rows, inputs and output gradients."""
    params = []
    for l in range(LAYERS):
        in_size = IN if l == 0 else H
        params.append(
            (
                rng.normal(scale=0.4, size=(K, in_size, 4 * H)),
                rng.normal(scale=0.4, size=(K, H, 4 * H)),
                rng.normal(scale=0.1, size=(K, 4 * H)),
            )
        )
    x = rng.normal(size=(K, B, T, IN))
    dh_final = rng.normal(size=(K, B, H))
    dh_seq = rng.normal(size=(K, T, B, H))
    return params, x, dh_final, dh_seq


def _stacked(params, x, dh_out):
    """One stacked forward/backward; copies of every result."""
    st = StackedLSTMWorkspace().acquire(K, T, B, IN, H, LAYERS)
    st["x_km"][...] = x.transpose(0, 2, 1, 3)
    h_final = stacked_lstm_forward(st, params).copy()
    h_seq = st["layers"][-1].h[:, 1:].copy()
    grads = stacked_lstm_backward(st, dh_out, need_dx=True)
    grads = [tuple(g.copy() for g in triple) for triple in grads]
    return h_final, h_seq, grads, st["dx"].copy()


def _fused_row(params, x, k, grad, return_sequence):
    """``fused_lstm`` at client ``k``; output, parameter and input grads."""
    layers = [
        tuple(Tensor(p[k].copy(), requires_grad=True) for p in triple)
        for triple in params
    ]
    xt = Tensor(x[k].copy(), requires_grad=True)
    out = fused_lstm(xt, layers, return_sequence=return_sequence)
    out.backward(grad)
    return out.data, [tuple(p.grad for p in triple) for triple in layers], xt.grad


@pytest.mark.parametrize("sequence", [False, True], ids=["final", "sequence"])
def test_stacked_rows_equal_fused_calls_bitwise(problem, sequence):
    params, x, dh_final, dh_seq = problem
    dh_out = dh_seq if sequence else dh_final
    h_final, h_seq, grads, dx = _stacked(params, x, dh_out)
    for k in range(K):
        grad_k = dh_seq[k].transpose(1, 0, 2) if sequence else dh_final[k]
        out, layer_grads, x_grad = _fused_row(params, x, k, grad_k, sequence)
        expected_out = h_seq[k].transpose(1, 0, 2) if sequence else h_final[k]
        np.testing.assert_array_equal(out, expected_out)
        for l in range(LAYERS):
            for got, want in zip(grads[l], layer_grads[l]):
                np.testing.assert_array_equal(got[k], want)
        np.testing.assert_array_equal(dx[k].transpose(1, 0, 2), x_grad)


def test_forward_only_calls_skip_backward_buffers(problem):
    params, x, dh_final, _ = problem
    ws = StackedLSTMWorkspace()
    st = ws.acquire(K, T, B, IN, H, LAYERS)
    st["x_km"][...] = x.transpose(0, 2, 1, 3)
    stacked_lstm_forward(st, params)
    assert "dgates" not in st and "dx" not in st
    stacked_lstm_backward(st, dh_final)
    assert st["dgates"].shape == (K, T, B, 4 * H)
    # The shape's tape is reused, and every acquire bumps the generation.
    generation = ws.generation
    assert ws.acquire(K, T, B, IN, H, LAYERS) is st
    assert ws.generation == generation + 1


def test_pending_fused_node_pins_no_parameter_arrays(rng):
    """Solvers rebind parameter data every step; a pending node must not
    keep the replaced arrays alive (the backward reads the tape's copies)."""
    shapes = [(IN, 4 * H), (H, 4 * H), (4 * H,)]
    layer = tuple(Tensor(rng.normal(size=s), requires_grad=True) for s in shapes)
    out = fused_lstm(rng.normal(size=(B, T, IN)), [layer])
    replaced = weakref.ref(layer[1].data)
    layer[1].data = layer[1].data.copy()
    assert replaced() is None
    out.backward(np.ones((B, H)))
    assert layer[1].grad.shape == (H, 4 * H)
