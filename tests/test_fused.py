"""Tests for the fused whole-sequence autograd kernels (repro.nn.fused).

Three layers of guarantees:

* **Gradcheck** — every fused op's hand-derived backward matches central
  finite differences of its forward (float64, ``atol=1e-6``), including
  ragged lengths and all-padded rows.
* **Tape equivalence** — the fused ops produce bit-identical forward
  values and ``rtol=1e-9`` gradients versus the per-step tape oracle
  (:func:`tests.oracles.tape_path`), both at the op level and through
  one-epoch autoencoder and joint fine-tuning runs.
* **Thread isolation** — the no-grad mode flag is per-thread.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import pytest

from repro.detection import (DetectorTrainingConfig, GroupDetector,
                             JointDetectorTrainer)
from repro.encoding import (AutoencoderTrainer, AutoencoderTrainingConfig,
                            CompressionOperator, EncoderConfig,
                            HierarchicalAutoencoder)
from repro.nn import (GRU, LSTM, BiLSTMLayer, Linear, LSTMDecoder,
                      SelfAttentionAggregator, Tensor, mse_loss, no_grad)
from repro.nn.fused import (affine, attention_pool, gru_sequence,
                            lstm_sequence, mlp_head, prefix_attention_pool)

from .oracles import tape_path
from .test_joint import make_specs

RNG = np.random.default_rng(77)

B, T, F, H = 3, 5, 4, 6
LENGTHS = np.array([5, 3, 0])  # ragged + one all-padded row


def _finite_difference(tensors, loss_fn, eps=1e-6):
    """Central-difference gradients of ``loss_fn()`` w.r.t. each tensor."""
    grads = []
    for t in tensors:
        grad = np.zeros_like(t.data)
        flat = t.data.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            hi = loss_fn()
            flat[i] = original - eps
            lo = loss_fn()
            flat[i] = original
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads.append(grad)
    return grads


def _gradcheck(tensors, build_loss, atol=1e-6):
    """Backprop through ``build_loss()`` and compare to finite differences."""
    for t in tensors:
        t.grad = None
    loss = build_loss()
    loss.backward()
    analytic = [t.grad for t in tensors]

    with no_grad():
        numeric = _finite_difference(tensors, lambda: build_loss().item())
    for a, n in zip(analytic, numeric):
        assert a is not None
        np.testing.assert_allclose(a, n, rtol=1e-5, atol=atol)


def _weighted(out):
    """A non-uniform scalar readout so grads differ per position."""
    w = np.linspace(0.5, 1.5, out.data.size).reshape(out.shape)
    return (out * w).sum()


class TestGradcheckLSTM:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("lengths", [None, LENGTHS],
                             ids=["dense", "ragged"])
    def test_lstm_sequence(self, reverse, lengths):
        lstm = LSTM(F, H, rng=np.random.default_rng(1), reverse=reverse)
        cell = lstm.cell
        x = Tensor(RNG.normal(size=(B, T, F)), requires_grad=True)

        def build():
            (out, h, c), = lstm_sequence(
                [x], [(cell.w_ih, cell.w_hh, cell.bias)], [lengths],
                [reverse])
            return _weighted(out) + _weighted(h) + _weighted(c)

        _gradcheck([x, cell.w_ih, cell.w_hh, cell.bias], build)

    def test_stacked_lstm_sequence(self):
        """Two LSTMs of opposite directions over batches of different
        rows and widths (one row all padding) in one time loop."""
        lstms = [LSTM(F, H, rng=np.random.default_rng(seed), reverse=rev)
                 for seed, rev in ((21, False), (22, True))]
        xs = [Tensor(RNG.normal(size=shape), requires_grad=True)
              for shape in ((3, 4, F), (2, 3, F))]
        lengths = [np.array([4, 2, 0]), np.array([1, 3])]
        params = [p for lstm in lstms for _, p in lstm.named_parameters()]

        def build():
            runs = LSTM.run_together(lstms, xs, lengths)
            return sum((_weighted(t) for run in runs for t in run),
                       Tensor(0.0))

        _gradcheck(xs + params, build)


#: Stacks run in one time loop: ``(rows, widths, lengths, reverse)`` per
#: slice.  Rows and widths differ (the envelope pads them), directions
#: mix, lengths are ragged with all-padding rows, and one stack is all
#: single rows.
STACKS = {
    "k2-mixed": ((3, 3), (5, 5), ([5, 3, 0], [2, 5, 4]), (False, True)),
    "k2-b1": ((1, 1), (4, 3), ([4], [2]), (True, False)),
    "k4-ragged": ((3, 2, 4, 3), (5, 4, 5, 2),
                  ([5, 3, 0], [4, 1], [5, 5, 2, 0], [2, 2, 1]),
                  (False, True, True, False)),
    "k4-dense": ((3, 3, 3, 3), (5, 5, 5, 5), (None,) * 4,
                 (False, True, False, True)),
}


class TestStackedLSTM:
    """K LSTMs in one time loop == K lone LSTMs == the tape, per slice."""

    @staticmethod
    def _run(lstms, xds, lengths, runner):
        xs = [Tensor(xd.copy(), requires_grad=True) for xd in xds]
        runs = runner(xs)
        loss = Tensor(0.0)
        for run in runs:
            for t in run:
                loss = loss + _weighted(t)
        loss.backward()
        params = [p for lstm in lstms for _, p in lstm.named_parameters()]
        return ([[t.data.copy() for t in run] for run in runs],
                _grab_grads(xs + params))

    @pytest.mark.parametrize("case", sorted(STACKS))
    def test_stack_equals_lone_calls_and_tape(self, case):
        rows, widths, lengths, reverse = STACKS[case]
        lstms = [LSTM(F, H, rng=np.random.default_rng(30 + k), reverse=rev)
                 for k, rev in enumerate(reverse)]
        xds = [RNG.normal(size=(b, t, F)) for b, t in zip(rows, widths)]
        lens = [None if le is None else np.array(le) for le in lengths]

        def stacked(xs):
            return LSTM.run_together(lstms, xs, lens)

        def lone(xs):
            return [(out, h, c) for lstm, x, le in zip(lstms, xs, lens)
                    for out, (h, c) in [lstm(x, le)]]

        got, got_grads = self._run(lstms, xds, lens, stacked)
        for reference in (lone, "tape"):
            if reference == "tape":
                with tape_path():
                    want, want_grads = self._run(lstms, xds, lens, stacked)
            else:
                want, want_grads = self._run(lstms, xds, lens, reference)
            for got_run, want_run in zip(got, want):
                for a, b in zip(got_run, want_run):
                    assert np.array_equal(a, b)
            for a, b in zip(got_grads, want_grads):
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_lone_row_in_a_wider_stack(self):
        """A one-row slice padded to the envelope's rows leaves BLAS's
        matrix-vector product for a matrix product: its last bits may
        move, never past float64 reassociation."""
        lstms = [LSTM(F, H, rng=np.random.default_rng(40 + k))
                 for k in range(2)]
        xs = [Tensor(RNG.normal(size=(b, T, F))) for b in (1, 3)]
        with no_grad():
            stacked = LSTM.run_together(lstms, xs, [None, None])[0][0]
            alone = lstms[0](xs[0])[0]
        np.testing.assert_allclose(stacked.data, alone.data, rtol=1e-12,
                                   atol=1e-15)

    def test_vector_slices_stack_with_sequence_slices(self):
        """Decoder slices (one vector fed at every step) stacked with
        sequence slices, ragged and mixed in direction, equal each lone
        run: outputs bit for bit, gradients at float64 reassociation."""
        lstms = [LSTM(F, H, rng=np.random.default_rng(50 + k), reverse=rev)
                 for k, rev in enumerate((False, True, False, False))]
        weights = [(lstm.cell.w_ih, lstm.cell.w_hh, lstm.cell.bias)
                   for lstm in lstms]
        xds = [RNG.normal(size=(3, 5, F)), RNG.normal(size=(2, F)),
               RNG.normal(size=(4, F)), RNG.normal(size=(2, 3, F))]
        lens = [np.array([5, 3, 0]), np.array([4, 1]),
                np.array([6, 0, 2, 6]), None]
        steps = [None, 4, 6, None]
        reverse = [lstm.reverse for lstm in lstms]

        def stacked(xs):
            return lstm_sequence(xs, weights, lens, reverse, steps)

        def lone(xs):
            return [run for k, x in enumerate(xs)
                    for run in lstm_sequence([x], [weights[k]], [lens[k]],
                                             [reverse[k]], [steps[k]])]

        got, got_grads = self._run(lstms, xds, lens, stacked)
        want, want_grads = self._run(lstms, xds, lens, lone)
        for got_run, want_run in zip(got, want):
            for a, b in zip(got_run, want_run):
                assert np.array_equal(a, b)
        for a, b in zip(got_grads, want_grads):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_sizes_must_agree(self):
        lstms = [LSTM(F, H, rng=np.random.default_rng(1)),
                 LSTM(F, H + 1, rng=np.random.default_rng(2))]
        xs = [Tensor(RNG.normal(size=(2, T, F)))] * 2
        with pytest.raises(ValueError):
            LSTM.run_together(lstms, xs, [None, None])

    @pytest.mark.parametrize("shape, steps", [((2, T, F), 4), ((2, F), None)],
                             ids=["sequence-with-steps", "vector-without"])
    def test_step_count_must_match_input_rank(self, shape, steps):
        cell = LSTM(F, H, rng=np.random.default_rng(1)).cell
        with pytest.raises(ValueError):
            lstm_sequence([Tensor(RNG.normal(size=shape))],
                          [(cell.w_ih, cell.w_hh, cell.bias)],
                          steps=[steps])


class TestSliceWidths:
    """Every slice runs at least one step; rows may run none."""

    @staticmethod
    def _weights(seed: int):
        cell = LSTM(F, H, rng=np.random.default_rng(seed)).cell
        return (cell.w_ih, cell.w_hh, cell.bias)

    def test_zero_step_sequence_slice_is_rejected(self):
        xs = [Tensor(RNG.normal(size=(2, T, F))),
              Tensor(np.zeros((2, 0, F)))]
        with pytest.raises(ValueError, match="slice 1 has no steps"):
            lstm_sequence(xs, [self._weights(1), self._weights(2)])

    def test_zero_step_vector_slice_is_rejected(self):
        with pytest.raises(ValueError, match="slice 0 has no steps"):
            lstm_sequence([Tensor(RNG.normal(size=(2, F)))],
                          [self._weights(1)], steps=[0])

    def test_zero_length_rows_keep_working(self):
        """Rows of length 0 inside a non-empty envelope keep the initial
        (zero) state: zero outputs and final states."""
        x = Tensor(RNG.normal(size=(3, T, F)))
        with no_grad():
            (out, h, c), = lstm_sequence([x], [self._weights(3)],
                                         [np.array([T, 0, 2])])
        assert not out.data[1].any() and not h.data[1].any() \
            and not c.data[1].any()
        assert out.data[0].any() and h.data[2].any()


class TestResumedRuns:
    """Continuing stored runs (inference only) equals running them whole."""

    def test_initial_state_continues_a_run(self):
        """Steps ``[:s]`` then ``[s:]`` from the stored ``(h, c)`` equal
        one run over all steps, rows of different lengths included."""
        lstm = LSTM(F, H, rng=np.random.default_rng(60))
        weights = [(lstm.cell.w_ih, lstm.cell.w_hh, lstm.cell.bias)]
        xd = RNG.normal(size=(B, T, F))
        lens = np.array([T, 4, 3])
        split = 2
        with no_grad():
            (whole, h_all, c_all), = lstm_sequence([Tensor(xd)], weights,
                                                   [lens])
            (head, h, c), = lstm_sequence([Tensor(xd[:, :split])], weights)
            (tail, h_end, c_end), = lstm_sequence(
                [Tensor(xd[:, split:])], weights, [lens - split],
                initial=[(h.data, c.data)])
        np.testing.assert_allclose(head.data, whole.data[:, :split],
                                   rtol=0, atol=0)
        for row, length in enumerate(lens):
            np.testing.assert_allclose(tail.data[row, :length - split],
                                       whole.data[row, split:length],
                                       rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(h_end.data, h_all.data, rtol=1e-12,
                                   atol=1e-15)
        np.testing.assert_allclose(c_end.data, c_all.data, rtol=1e-12,
                                   atol=1e-15)

    def test_initial_state_is_inference_only(self):
        lstm = LSTM(F, H, rng=np.random.default_rng(61))
        state = np.zeros((B, H))
        with pytest.raises(ValueError, match="inference only"):
            lstm_sequence([Tensor(RNG.normal(size=(B, T, F)))],
                          [(lstm.cell.w_ih, lstm.cell.w_hh, lstm.cell.bias)],
                          initial=[(state, state)])

    @pytest.mark.parametrize("attention", [True, False],
                             ids=["attention", "nosel"])
    def test_resumed_prefixes_equal_fresh_ones(self, attention):
        """Runs continued from a :class:`RunState` give the prefixes that
        end on their new steps what the whole runs give, and leave the
        state of the whole runs."""
        op = CompressionOperator(F, H, rng=np.random.default_rng(62),
                                 use_attention=attention)
        xd = RNG.normal(size=(3, 5, F))
        total = np.array([5, 4, 2])
        done = np.array([3, 2, 0])          # the last run starts fresh
        run = np.array([0, 0, 1, 1, 2, 2])
        length = np.array([4, 5, 3, 4, 1, 2])
        with no_grad():
            want = op.prefixes(Tensor(xd), total, run, length).numpy()
            resume = [None]
            op.prefixes_together([op], [Tensor(xd[:, :3])], [done],
                                 [(np.array([0]), np.array([1]))], resume)
            stored = resume[0]
            new = np.zeros((3, 3, F))
            for r in range(3):
                new[r, :total[r] - done[r]] = xd[r, done[r]:total[r]]
            got = op.prefixes_together(
                [op], [Tensor(new)], [total - done], [(run, length)],
                resume)[0].numpy()
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-15)
        np.testing.assert_array_equal(resume[0].steps, total)
        with no_grad():
            (_, h, c), = LSTM.run_together([op.lstm], [Tensor(xd)], [total])
        np.testing.assert_allclose(resume[0].h, h.data, rtol=1e-12,
                                   atol=1e-15)
        np.testing.assert_allclose(resume[0].c, c.data, rtol=1e-12,
                                   atol=1e-15)


class TestGradcheckGRU:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("lengths", [None, LENGTHS],
                             ids=["dense", "ragged"])
    def test_gru_sequence(self, reverse, lengths):
        gru = GRU(F, H, rng=np.random.default_rng(2), reverse=reverse)
        cell = gru.cell
        x = Tensor(RNG.normal(size=(B, T, F)), requires_grad=True)

        def build():
            out, h = gru_sequence(x, cell.w_ih, cell.w_hh, cell.b_ih,
                                  cell.b_hh, lengths=lengths,
                                  reverse=reverse)
            return _weighted(out) + _weighted(h)

        _gradcheck([x, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh], build)


class TestGradcheckDecoder:
    @pytest.mark.parametrize("lengths", [None, np.array([4, 2, 0])],
                             ids=["dense", "ragged"])
    def test_lstm_decode(self, lengths):
        """The decoder's vector-input slice of ``lstm_sequence``."""
        dec = LSTMDecoder(H, H, rng=np.random.default_rng(3))
        cell = dec.cell
        v = Tensor(RNG.normal(size=(3, H)), requires_grad=True)

        def build():
            (out, h, c), = lstm_sequence(
                [v], [(cell.w_ih, cell.w_hh, cell.bias)], [lengths],
                steps=[4])
            return _weighted(out) + _weighted(h) + _weighted(c)

        _gradcheck([v, cell.w_ih, cell.w_hh, cell.bias], build)


class TestGradcheckAffineAttention:
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_affine(self, ndim):
        lin = Linear(F, H, rng=np.random.default_rng(4))
        shape = (B, F) if ndim == 2 else (B, T, F)
        x = Tensor(RNG.normal(size=shape), requires_grad=True)

        def build():
            return _weighted(affine(x, lin.weight, lin.bias))

        _gradcheck([x, lin.weight, lin.bias], build)

    @pytest.mark.parametrize("lengths", [None, np.array([5, 3, 1])],
                             ids=["dense", "ragged"])
    def test_attention_pool(self, lengths):
        att = SelfAttentionAggregator(H, rng=np.random.default_rng(5))
        outputs = Tensor(RNG.normal(size=(B, T, H)), requires_grad=True)
        last = Tensor(RNG.normal(size=(B, H)), requires_grad=True)

        def build():
            return _weighted(attention_pool(
                outputs, last, att.query.weight, att.query.bias,
                att.key.weight, att.key.bias, lengths))

        _gradcheck([outputs, last, att.query.weight, att.query.bias,
                    att.key.weight, att.key.bias], build)

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_mlp_head(self, ndim):
        fc1 = Linear(F, H, rng=np.random.default_rng(12))
        fc2 = Linear(H, F, rng=np.random.default_rng(13))
        shape = (B, F) if ndim == 2 else (B, T, F)
        x = Tensor(RNG.normal(size=shape), requires_grad=True)

        def build():
            return _weighted(mlp_head(x, fc1.weight, fc1.bias,
                                      fc2.weight, fc2.bias))

        _gradcheck([x, fc1.weight, fc1.bias, fc2.weight, fc2.bias], build)

    def test_fused_mse(self):
        pred = Tensor(RNG.normal(size=(B, T, F)), requires_grad=True)
        target = RNG.normal(size=(B, T, F))
        mask = np.zeros((B, T))
        mask[0, :5] = 1.0
        mask[1, :3] = 1.0

        def build():
            return mse_loss(pred, target, mask)

        _gradcheck([pred], build)


#: Runs for the all-prefix ops: ragged, one of length 1, one all padded.
RUN_LENGTHS = np.array([4, 2, 1, 0])
#: Every prefix of every non-empty run, in scrambled order.
PREFIX_RUN = np.array([1, 0, 2, 0, 1, 0, 0])
PREFIX_LEN = np.array([2, 3, 1, 1, 1, 4, 2])


class TestGradcheckPrefixes:
    def test_prefix_attention_pool(self):
        att = SelfAttentionAggregator(H, rng=np.random.default_rng(17))
        outputs = Tensor(RNG.normal(size=(4, 4, H)), requires_grad=True)

        def build():
            return _weighted(prefix_attention_pool(
                outputs, att.query.weight, att.query.bias, att.key.weight,
                att.key.bias, PREFIX_RUN, PREFIX_LEN))

        _gradcheck([outputs, att.query.weight, att.query.bias,
                    att.key.weight, att.key.bias], build)

    @pytest.mark.parametrize("attention", [True, False],
                             ids=["attention", "nosel"])
    def test_compress_prefixes(self, attention):
        op = CompressionOperator(F, H, rng=np.random.default_rng(18),
                                 use_attention=attention)
        x = Tensor(RNG.normal(size=(4, 4, F)), requires_grad=True)
        params = [p for _, p in op.named_parameters()]

        def build():
            return _weighted(op.prefixes(x, RUN_LENGTHS, PREFIX_RUN,
                                         PREFIX_LEN))

        _gradcheck([x] + params, build)

    @pytest.mark.parametrize("attention", [True, False],
                             ids=["attention", "nosel"])
    def test_prefixes_equal_forward_on_each_prefix(self, attention):
        op = CompressionOperator(F, H, rng=np.random.default_rng(19),
                                 use_attention=attention)
        xd = RNG.normal(size=(4, 4, F))
        with no_grad():
            got = op.prefixes(Tensor(xd), RUN_LENGTHS, PREFIX_RUN,
                              PREFIX_LEN).numpy()
            for row, (r, length) in enumerate(zip(PREFIX_RUN, PREFIX_LEN)):
                want = op(Tensor(xd[r:r + 1, :length])).numpy()[0]
                np.testing.assert_allclose(got[row], want, rtol=1e-9,
                                           atol=1e-15)


def _grab_grads(tensors):
    grads = [t.grad.copy() for t in tensors]
    for t in tensors:
        t.grad = None
    return grads


class TestTapeEquivalence:
    """Fused modules == legacy per-step tape: values bit-identical,
    gradients within float64 reassociation tolerance."""

    def test_tape_oracle_is_engaged(self):
        """Inside ``tape_path`` the LSTM records one node per step, alone
        or stacked, so the comparisons below never compare the fused
        kernel to itself."""
        lstm = LSTM(F, H, rng=np.random.default_rng(16))
        x = Tensor(RNG.normal(size=(B, T, F)), requires_grad=True)
        fused_out, _ = lstm(x)
        with tape_path():
            tape_out, _ = lstm(x)
        assert len(tape_out._parents) == T         # stack of T steps
        assert len(fused_out._parents) == 1        # one fused node
        assert len(lstm(x)[0]._parents) == 1       # restored on exit

        pair = [lstm, LSTM(F, H, rng=np.random.default_rng(17),
                           reverse=True)]
        xs = [x, Tensor(RNG.normal(size=(2, T - 1, F)), requires_grad=True)]
        fused_runs = LSTM.run_together(pair, xs, [LENGTHS, None])
        with tape_path():
            tape_runs = LSTM.run_together(pair, xs, [LENGTHS, None])
        nodes = {id(run[0]._parents[0]) for run in fused_runs}
        assert len(nodes) == 1                     # one node for the stack
        assert [len(run[0]._parents) for run in tape_runs] == [T, T - 1]

        ops = [CompressionOperator(F, H, rng=np.random.default_rng(s))
               for s in (18, 19)]
        fused_prefixes = CompressionOperator.prefixes_together
        with tape_path():
            assert CompressionOperator.prefixes_together is not \
                fused_prefixes
            tape_vecs = CompressionOperator.prefixes_together(
                ops, [Tensor(RNG.normal(size=(4, 4, F)))] * 2,
                [RUN_LENGTHS] * 2, [(PREFIX_RUN, PREFIX_LEN)] * 2)
        assert CompressionOperator.prefixes_together is fused_prefixes
        assert len(tape_vecs) == 2

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_module(self, reverse):
        lstm = LSTM(F, H, rng=np.random.default_rng(6), reverse=reverse)
        xd = RNG.normal(size=(B, T, F))
        params = [lstm.cell.w_ih, lstm.cell.w_hh, lstm.cell.bias]

        def run():
            x = Tensor(xd.copy(), requires_grad=True)
            out, (h, c) = lstm(x, lengths=LENGTHS)
            (_weighted(out) + _weighted(h) + _weighted(c)).backward()
            return out.data.copy(), _grab_grads([x] + params)

        with tape_path():
            ref_out, ref_grads = run()
        fused_out, fused_grads = run()
        assert np.array_equal(ref_out, fused_out)
        for a, b in zip(ref_grads, fused_grads):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gru_module(self, reverse):
        gru = GRU(F, H, rng=np.random.default_rng(7), reverse=reverse)
        xd = RNG.normal(size=(B, T, F))
        params = [gru.cell.w_ih, gru.cell.w_hh, gru.cell.b_ih,
                  gru.cell.b_hh]

        def run():
            x = Tensor(xd.copy(), requires_grad=True)
            out, h = gru(x, lengths=LENGTHS)
            (_weighted(out) + _weighted(h)).backward()
            return out.data.copy(), _grab_grads([x] + params)

        with tape_path():
            ref_out, ref_grads = run()
        fused_out, fused_grads = run()
        assert np.array_equal(ref_out, fused_out)
        for a, b in zip(ref_grads, fused_grads):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_decoder_module(self):
        dec = LSTMDecoder(H, H, rng=np.random.default_rng(8))
        vd = RNG.normal(size=(2, H))
        params = [dec.cell.w_ih, dec.cell.w_hh, dec.cell.bias]

        def run():
            v = Tensor(vd.copy(), requires_grad=True)
            out = dec(v, steps=4, lengths=np.array([4, 0]))
            _weighted(out).backward()
            return out.data.copy(), _grab_grads([v] + params)

        with tape_path():
            ref_out, ref_grads = run()
        fused_out, fused_grads = run()
        assert np.array_equal(ref_out, fused_out)
        for a, b in zip(ref_grads, fused_grads):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_bilstm_module(self):
        bi = BiLSTMLayer(F, H, rng=np.random.default_rng(9))
        xd = RNG.normal(size=(B, T, F))
        params = [p for _, p in bi.named_parameters()]

        def run():
            x = Tensor(xd.copy(), requires_grad=True)
            out = bi(x, lengths=LENGTHS)
            _weighted(out).backward()
            return out.data.copy(), _grab_grads([x] + params)

        with tape_path():
            ref_out, ref_grads = run()
        fused_out, fused_grads = run()
        assert np.array_equal(ref_out, fused_out)
        for a, b in zip(ref_grads, fused_grads):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_linear_and_attention_modules(self):
        lin = Linear(H, H, rng=np.random.default_rng(10))
        att = SelfAttentionAggregator(H, rng=np.random.default_rng(11))
        hd = RNG.normal(size=(B, T, H))
        hld = RNG.normal(size=(B, H))
        params = ([lin.weight, lin.bias]
                  + [p for _, p in att.named_parameters()])

        def run():
            outs = Tensor(hd.copy(), requires_grad=True)
            last = Tensor(hld.copy(), requires_grad=True)
            pooled = att(outs, last, LENGTHS[:B])
            _weighted(lin(pooled)).backward()
            return pooled.data.copy(), _grab_grads([outs, last] + params)

        with tape_path():
            ref_out, ref_grads = run()
        fused_out, fused_grads = run()
        assert np.array_equal(ref_out, fused_out)
        for a, b in zip(ref_grads, fused_grads):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


class TestOperatorEquivalence:
    """The full compression/decompression operators (LSTM + attention +
    fused FC head) match the legacy tape end to end."""

    def test_compression_operator(self):
        from repro.encoding.operators import CompressionOperator
        op = CompressionOperator(F, H, rng=np.random.default_rng(14))
        xd = RNG.normal(size=(B, T, F))
        params = [p for _, p in op.named_parameters()]

        def run():
            x = Tensor(xd.copy(), requires_grad=True)
            out = op(x, lengths=LENGTHS)
            _weighted(out).backward()
            return out.data.copy(), _grab_grads([x] + params)

        with tape_path():
            ref_out, ref_grads = run()
        fused_out, fused_grads = run()
        assert np.array_equal(ref_out, fused_out)
        for a, b in zip(ref_grads, fused_grads):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("attention", [True, False],
                             ids=["attention", "nosel"])
    def test_compression_operator_prefixes(self, attention):
        op = CompressionOperator(F, H, rng=np.random.default_rng(20),
                                 use_attention=attention)
        xd = RNG.normal(size=(4, 4, F))
        params = [p for _, p in op.named_parameters()]

        def run():
            x = Tensor(xd.copy(), requires_grad=True)
            out = op.prefixes(x, RUN_LENGTHS, PREFIX_RUN, PREFIX_LEN)
            _weighted(out).backward()
            return out.data.copy(), _grab_grads([x] + params)

        fused_prefixes = CompressionOperator.prefixes
        with tape_path():
            assert CompressionOperator.prefixes is not fused_prefixes
            ref_out, ref_grads = run()
        fused_out, fused_grads = run()
        assert np.array_equal(ref_out, fused_out)
        for a, b in zip(ref_grads, fused_grads):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_decompression_operator(self):
        from repro.encoding.operators import DecompressionOperator
        op = DecompressionOperator(H, H, F, rng=np.random.default_rng(15))
        vd = RNG.normal(size=(B, H))
        params = [p for _, p in op.named_parameters()]

        def run():
            v = Tensor(vd.copy(), requires_grad=True)
            out = op(v, steps=4, lengths=np.array([4, 2, 0]))
            _weighted(out).backward()
            return out.data.copy(), _grab_grads([v] + params)

        with tape_path():
            ref_out, ref_grads = run()
        fused_out, fused_grads = run()
        assert np.array_equal(ref_out, fused_out)
        for a, b in zip(ref_grads, fused_grads):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


def _make_samples(n, rng):
    """``n`` one-candidate days: ``(stay lists, move lists, samples)``,
    each candidate spanning all of its day's 2-4 stay points."""
    stay_lists, move_lists, samples = [], [], []
    for day in range(n):
        n_stays = int(rng.integers(2, 5))
        segs = [rng.normal(size=(int(rng.integers(2, 7)), 32))
                for _ in range(2 * n_stays - 1)]
        stay_lists.append(segs[0::2])
        move_lists.append(segs[1::2])
        samples.append((day, (1, n_stays)))
    return stay_lists, move_lists, samples


class TestTrainerEquivalence:
    def test_one_epoch_loss_curve_matches_legacy_tape(self):
        """Fused vs tape training over the identical batch stream ends
        with near-identical losses (gradients differ only by float64
        reassociation)."""
        samples = _make_samples(12, np.random.default_rng(0))
        losses = {}
        for tape in (False, True):
            model = HierarchicalAutoencoder(EncoderConfig(seed=21))
            cfg = AutoencoderTrainingConfig(epochs=2, batch_size=4, seed=3)
            with tape_path() if tape else contextlib.nullcontext():
                history = AutoencoderTrainer(model, cfg).fit(*samples)
            losses[tape] = history.epoch_losses
        np.testing.assert_allclose(losses[False], losses[True],
                                   rtol=1e-7)

    def test_one_epoch_joint_finetune_matches_tape(self):
        """Joint fine-tuning backpropagates the detector losses through
        the all-prefix phase 2; fused and tape runs agree."""
        losses = {}
        for tape in (False, True):
            trainer = JointDetectorTrainer(
                HierarchicalAutoencoder(EncoderConfig(seed=24)),
                GroupDetector(64, 8, 1, np.random.default_rng(25)),
                GroupDetector(64, 8, 1, np.random.default_rng(26)),
                config=DetectorTrainingConfig(epochs=2, batch_size=3,
                                              seed=0),
                finetune_encoder=True)
            specs = make_specs(np.random.default_rng(27), n_specs=5)
            with tape_path() if tape else contextlib.nullcontext():
                histories = trainer.fit(specs)
            losses[tape] = [h.epoch_losses for h in histories]
        np.testing.assert_allclose(losses[False], losses[True], rtol=1e-7)

    def test_bucketed_batching_trains_and_history_is_finite(self):
        samples = _make_samples(12, np.random.default_rng(1))
        model = HierarchicalAutoencoder(EncoderConfig(seed=22))
        cfg = AutoencoderTrainingConfig(epochs=2, batch_size=4, seed=3)
        history = AutoencoderTrainer(model, cfg).fit(*samples)
        assert len(history.epoch_losses) == 2
        assert np.all(np.isfinite(history.epoch_losses))

    def test_bucketing_is_deterministic(self):
        samples = _make_samples(10, np.random.default_rng(2))
        curves = []
        for _ in range(2):
            model = HierarchicalAutoencoder(EncoderConfig(seed=23))
            cfg = AutoencoderTrainingConfig(epochs=2, batch_size=4, seed=5)
            curves.append(AutoencoderTrainer(model, cfg).fit(*samples).epoch_losses)
        assert curves[0] == curves[1]


class TestThreadIsolation:
    def test_no_grad_does_not_leak_across_threads(self):
        """Regression: grad mode lives in threading.local, so a worker
        thread inside a ``no_grad`` block still records gradients."""
        recorded = {}

        def worker():
            x = Tensor(np.ones(3), requires_grad=True)
            y = (x * 2.0).sum()
            recorded["requires_grad"] = y.requires_grad

        with no_grad():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            x = Tensor(np.ones(3), requires_grad=True)
            assert not (x * 2.0).requires_grad
        assert recorded["requires_grad"] is True
