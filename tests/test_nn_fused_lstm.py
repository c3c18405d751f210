"""Fused LSTM kernels: gradcheck oracle + graph-mode parity.

Testing policy for hand-derived kernels (see DESIGN.md §12): the autograd
engine is the correctness oracle.  Every fused gradient is checked twice —
against central finite differences (:mod:`repro.autograd.gradcheck`) and
against the graph-mode :class:`repro.nn.LSTM` built from the same seed,
where agreement must be at the 1e-10 level (floating-point association is
the only permitted difference).
"""

import numpy as np
import pytest

from repro.autograd import (
    StackedLSTMWorkspace,
    Tensor,
    check_gradients,
    fused_lstm,
    ops,
)
from repro.nn import LSTM, FusedLSTM

GRAD_TOL = 1e-10


def _pair(input_size, hidden, layers, seed=3):
    """A graph-mode and a fused LSTM with identical initialization."""
    graph = LSTM(input_size, hidden, layers, np.random.default_rng(seed))
    fused = FusedLSTM(input_size, hidden, layers, np.random.default_rng(seed))
    return graph, fused


class TestFusedLSTMFunction:
    def test_gradcheck_single_layer(self, rng):
        x = rng.normal(size=(2, 3, 3))
        cell = LSTM(3, 2, 1, rng).cells[0]

        def fn(ts):
            w_x, w_h, b, xt = ts
            return ops.sum_(fused_lstm(xt, [(w_x, w_h, b)]))

        check_gradients(
            fn,
            [cell.w_x.data.copy(), cell.w_h.data.copy(), cell.bias.data.copy(), x],
            rtol=1e-3,
        )

    def test_gradcheck_two_layers_sequence(self, rng):
        x = rng.normal(size=(2, 3, 2))
        lstm = LSTM(2, 2, 2, rng)
        c0, c1 = lstm.cells[0], lstm.cells[1]

        def fn(ts):
            w0, h0, b0, w1, h1, b1 = ts
            out = fused_lstm(
                x, [(w0, h0, b0), (w1, h1, b1)], return_sequence=True
            )
            return ops.sum_(ops.mul(out, out))

        check_gradients(
            fn,
            [
                c0.w_x.data.copy(), c0.w_h.data.copy(), c0.bias.data.copy(),
                c1.w_x.data.copy(), c1.w_h.data.copy(), c1.bias.data.copy(),
            ],
            rtol=1e-3,
        )

    def test_constant_inputs_build_no_graph(self, rng):
        lstm = LSTM(3, 4, 1, rng)
        triples = [
            (cell.w_x.detach(), cell.w_h.detach(), cell.bias.detach())
            for cell in lstm.cells
        ]
        out = fused_lstm(rng.normal(size=(2, 5, 3)), triples)
        assert out._parents == ()
        assert out._backward_fn is None

    def test_rejects_bad_shapes(self, rng):
        lstm = LSTM(3, 4, 1, rng)
        triple = [(lstm.cells[0].w_x, lstm.cells[0].w_h, lstm.cells[0].bias)]
        with pytest.raises(ValueError, match="batch, time, features"):
            fused_lstm(rng.normal(size=(2, 3)), triple)
        with pytest.raises(ValueError, match="layer 0"):
            fused_lstm(rng.normal(size=(2, 3, 5)), triple)  # in=5 vs w_x (3, 16)
        with pytest.raises(ValueError, match="at least one layer"):
            fused_lstm(rng.normal(size=(2, 3, 5)), [])

    def test_stale_workspace_backward_raises(self, rng):
        lstm = LSTM(3, 4, 1, rng)
        triples = [(lstm.cells[0].w_x, lstm.cells[0].w_h, lstm.cells[0].bias)]
        ws = StackedLSTMWorkspace()
        x = rng.normal(size=(2, 3, 3))
        first = ops.sum_(fused_lstm(x, triples, workspace=ws))
        ops.sum_(fused_lstm(x, triples, workspace=ws))  # recycles the tape
        with pytest.raises(RuntimeError, match="recycled workspace"):
            first.backward()


class TestFusedMatchesGraph:
    def test_identical_initialization(self):
        graph, fused = _pair(5, 7, 2)
        np.testing.assert_array_equal(graph.get_flat(), fused.get_flat())

    @pytest.mark.parametrize("return_sequence", [False, True])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_forward_and_backward_parity(self, rng, layers, return_sequence):
        graph, fused = _pair(4, 6, layers)
        x = rng.normal(size=(3, 5, 4))

        results = []
        for lstm in (graph, fused):
            xt = Tensor(x, requires_grad=True)
            out = lstm(xt, return_sequence=return_sequence)
            lstm.zero_grad()
            ops.sum_(ops.mul(out, out)).backward()
            results.append((out.data.copy(), lstm.flat_grad(), xt.grad.copy()))

        (out_g, grad_g, dx_g), (out_f, grad_f, dx_f) = results
        np.testing.assert_allclose(out_f, out_g, rtol=0, atol=GRAD_TOL)
        np.testing.assert_allclose(grad_f, grad_g, rtol=0, atol=GRAD_TOL)
        np.testing.assert_allclose(dx_f, dx_g, rtol=0, atol=GRAD_TOL)

    def test_workspace_reuse_across_batch_shapes(self, rng):
        """The tape re-keys cleanly when the minibatch shape alternates."""
        graph, fused = _pair(3, 5, 2)
        for batch, time in [(4, 6), (2, 6), (4, 6), (4, 3)]:
            x = rng.normal(size=(batch, time, 3))
            graph.zero_grad()
            fused.zero_grad()
            ops.sum_(graph(Tensor(x))).backward()
            ops.sum_(fused(Tensor(x))).backward()
            np.testing.assert_allclose(
                fused.flat_grad(), graph.flat_grad(), rtol=0, atol=GRAD_TOL
            )

    def test_repeated_solve_loop_stays_consistent(self, rng):
        """Many forward/backward cycles through one workspace drift nowhere:
        grads of identical inputs are identical on the 1st and 50th pass."""
        _, fused = _pair(3, 4, 1)
        x = rng.normal(size=(2, 4, 3))
        fused.zero_grad()
        ops.sum_(fused(Tensor(x))).backward()
        reference = fused.flat_grad().copy()
        for _ in range(49):
            fused.zero_grad()
            ops.sum_(fused(Tensor(x))).backward()
        np.testing.assert_array_equal(fused.flat_grad(), reference)

    def test_flat_state_transfers_between_backends(self, rng):
        graph, fused = _pair(4, 5, 2, seed=11)
        w = rng.normal(size=graph.num_parameters())
        graph.set_flat(w)
        fused.set_flat(w)
        x = rng.normal(size=(2, 4, 4))
        np.testing.assert_allclose(
            fused(Tensor(x)).data, graph(Tensor(x)).data, rtol=0, atol=GRAD_TOL
        )
