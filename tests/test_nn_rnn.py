"""Tests for recurrent layers and the self-attention aggregator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (BiLSTMLayer, GRU, LSTM, LSTMDecoder,
                      SelfAttentionAggregator, StackedBiLSTM, Tensor,
                      sequence_mask)

from .oracles import masked_softmax

RNG = np.random.default_rng(23)


def batch(b=3, t=5, f=4):
    return Tensor(RNG.normal(size=(b, t, f)))


class TestSequenceMask:
    def test_values(self):
        mask = sequence_mask(np.array([1, 3]), 4)
        expected = np.array([[1, 0, 0, 0], [1, 1, 1, 0]], dtype=float)
        np.testing.assert_array_equal(mask, expected)

    def test_full_lengths(self):
        mask = sequence_mask(np.array([4]), 4)
        np.testing.assert_array_equal(mask, np.ones((1, 4)))


class TestLSTM:
    def test_output_shapes(self):
        lstm = LSTM(4, 8, RNG)
        outputs, (h, c) = lstm(batch())
        assert outputs.shape == (3, 5, 8)
        assert h.shape == (3, 8)
        assert c.shape == (3, 8)

    def test_padding_invariance(self):
        """Padded garbage must not change outputs on valid steps."""
        lstm = LSTM(4, 6, np.random.default_rng(0))
        x = RNG.normal(size=(1, 3, 4))
        padded = np.concatenate([x, RNG.normal(size=(1, 2, 4)) * 50], axis=1)
        out_short, (h_short, _) = lstm(Tensor(x), np.array([3]))
        out_long, (h_long, _) = lstm(Tensor(padded), np.array([3]))
        np.testing.assert_allclose(out_short.numpy(),
                                   out_long.numpy()[:, :3, :], atol=1e-12)
        np.testing.assert_allclose(h_short.numpy(), h_long.numpy(),
                                   atol=1e-12)

    def test_final_hidden_is_last_valid_step(self):
        lstm = LSTM(4, 6, np.random.default_rng(0))
        x = batch(b=2, t=5)
        lengths = np.array([2, 5])
        outputs, (h, _) = lstm(x, lengths)
        np.testing.assert_allclose(h.numpy()[0], outputs.numpy()[0, 1])
        np.testing.assert_allclose(h.numpy()[1], outputs.numpy()[1, 4])

    def test_reverse_final_hidden_reads_whole_sequence(self):
        lstm = LSTM(4, 6, np.random.default_rng(0), reverse=True)
        x = batch(b=1, t=4)
        outputs, (h, _) = lstm(x, np.array([4]))
        # In reverse mode the state at t=0 has seen everything.
        np.testing.assert_allclose(h.numpy(), outputs.numpy()[:, 0, :])

    def test_gradients_flow_to_cell_weights(self):
        lstm = LSTM(4, 6, RNG)
        outputs, _ = lstm(batch(), np.array([5, 3, 1]))
        outputs.sum().backward()
        for p in lstm.parameters():
            assert p.grad is not None
            assert np.isfinite(p.grad).all()

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        lstm = LSTM(2, 3, rng)
        x = rng.normal(size=(1, 3, 2))
        weight = lstm.cell.w_ih

        def loss_value():
            out, _ = lstm(Tensor(x))
            return float(out.sum().numpy())

        out, _ = lstm(Tensor(x))
        out.sum().backward()
        analytic = weight.grad.copy()

        eps = 1e-6
        numeric = np.zeros_like(weight.data)
        it = np.nditer(weight.data, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = weight.data[idx]
            weight.data[idx] = original + eps
            plus = loss_value()
            weight.data[idx] = original - eps
            minus = loss_value()
            weight.data[idx] = original
            numeric[idx] = (plus - minus) / (2 * eps)
            it.iternext()
        np.testing.assert_allclose(analytic, numeric, atol=1e-5, rtol=1e-4)


class TestGRU:
    def test_output_shapes(self):
        gru = GRU(4, 8, RNG)
        outputs, h = gru(batch())
        assert outputs.shape == (3, 5, 8)
        assert h.shape == (3, 8)

    def test_padding_invariance(self):
        gru = GRU(4, 6, np.random.default_rng(0))
        x = RNG.normal(size=(1, 3, 4))
        padded = np.concatenate([x, np.ones((1, 2, 4)) * 9], axis=1)
        _, h_short = gru(Tensor(x), np.array([3]))
        _, h_long = gru(Tensor(padded), np.array([3]))
        np.testing.assert_allclose(h_short.numpy(), h_long.numpy(), atol=1e-12)

    def test_gradients_exist(self):
        gru = GRU(4, 6, RNG)
        outputs, _ = gru(batch())
        outputs.sum().backward()
        assert all(p.grad is not None for p in gru.parameters())


class TestBiLSTM:
    def test_layer_shape(self):
        layer = BiLSTMLayer(4, 8, RNG)
        out = layer(batch())
        assert out.shape == (3, 5, 8)

    def test_stacked_shape_and_depth(self):
        stacked = StackedBiLSTM(4, 8, num_layers=3, rng=RNG)
        assert len(stacked.layers) == 3
        out = stacked(batch())
        assert out.shape == (3, 5, 8)

    def test_stacked_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            StackedBiLSTM(4, 8, num_layers=0)

    def test_bidirectional_sees_future(self):
        """Changing the last element must change the first output."""
        layer = BiLSTMLayer(2, 4, np.random.default_rng(0))
        x = RNG.normal(size=(1, 4, 2))
        y = x.copy()
        y[0, -1, :] += 10.0
        out_x = layer(Tensor(x)).numpy()[0, 0]
        out_y = layer(Tensor(y)).numpy()[0, 0]
        assert np.abs(out_x - out_y).max() > 1e-6

    def test_padding_invariance(self):
        layer = BiLSTMLayer(2, 4, np.random.default_rng(0))
        x = RNG.normal(size=(1, 3, 2))
        padded = np.concatenate([x, np.full((1, 2, 2), 77.0)], axis=1)
        out_short = layer(Tensor(x), np.array([3])).numpy()
        out_long = layer(Tensor(padded), np.array([3])).numpy()
        np.testing.assert_allclose(out_short, out_long[:, :3, :], atol=1e-12)


class TestLSTMDecoder:
    def test_expands_vector_to_sequence(self):
        decoder = LSTMDecoder(6, 4, RNG)
        out = decoder(Tensor(RNG.normal(size=(2, 6))), steps=7)
        assert out.shape == (2, 7, 4)

    def test_steps_differ(self):
        decoder = LSTMDecoder(3, 4, np.random.default_rng(0))
        out = decoder(Tensor(RNG.normal(size=(1, 3))), steps=3).numpy()
        assert np.abs(out[0, 0] - out[0, 1]).max() > 1e-9

    def test_gradients_flow(self):
        decoder = LSTMDecoder(3, 4, RNG)
        v = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        decoder(v, steps=4).sum().backward()
        assert v.grad is not None


class TestAttention:
    def test_masked_softmax_zeroes_invalid(self):
        scores = Tensor(np.zeros((2, 4)))
        mask = sequence_mask(np.array([2, 4]), 4)
        probs = masked_softmax(scores, mask, axis=1).numpy()
        np.testing.assert_allclose(probs[0, 2:], [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(probs.sum(axis=1), [1.0, 1.0])

    def test_aggregator_shape(self):
        attn = SelfAttentionAggregator(8, RNG)
        outputs = Tensor(RNG.normal(size=(3, 5, 8)))
        last = Tensor(RNG.normal(size=(3, 8)))
        assert attn(outputs, last).shape == (3, 8)

    def test_aggregator_rejects_wrong_hidden(self):
        attn = SelfAttentionAggregator(8, RNG)
        with pytest.raises(ValueError):
            attn(Tensor(RNG.normal(size=(3, 5, 4))),
                 Tensor(RNG.normal(size=(3, 4))))

    def test_aggregator_respects_mask(self):
        attn = SelfAttentionAggregator(4, np.random.default_rng(0))
        outputs = RNG.normal(size=(1, 3, 4))
        padded = np.concatenate([outputs, np.full((1, 2, 4), 1e3)], axis=1)
        last = Tensor(outputs[:, -1, :])
        short = attn(Tensor(outputs), last, np.array([3])).numpy()
        long = attn(Tensor(padded), last, np.array([3])).numpy()
        np.testing.assert_allclose(short, long, atol=1e-9)

    def test_aggregator_output_in_convex_hull(self):
        """Attention output is a convex combination of the hidden states."""
        attn = SelfAttentionAggregator(2, np.random.default_rng(0))
        outputs = RNG.normal(size=(1, 4, 2))
        result = attn(Tensor(outputs), Tensor(outputs[:, -1, :])).numpy()[0]
        assert result[0] <= outputs[0, :, 0].max() + 1e-9
        assert result[0] >= outputs[0, :, 0].min() - 1e-9
