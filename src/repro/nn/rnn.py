"""Recurrent layers: LSTM, GRU, bidirectional and stacked variants.

All recurrent layers operate on right-padded batches ``(B, T, F)`` with an
optional ``lengths`` vector.  Padding is handled with *freeze masking*: at a
padded step the hidden state is carried through unchanged, so the hidden
state after the loop equals the state at each sequence's true last step.
The same trick makes the reversed direction of a BiLSTM correct without any
explicit sequence reversal: iterating from the right, the state stays at its
initial value until the first valid (rightmost) element is reached.

Performance: the input-to-hidden projection of a gated cell does not
depend on the recurrent state, so the drivers *hoist* it out of the time
loop — one ``(B*T, F) @ (F, 4H)`` GEMM up front replaces ``T`` small
``(B, F) @ (F, 4H)`` GEMMs inside the loop (``3H`` for GRUs).  A
decoder's input is the *same* vector at every step, so it runs as a
vector-input slice of the LSTM kernel, whose single ``(B, F) @ (F, 4H)``
product serves all ``T`` steps.  The per-step work left in Python is
only the irreducible recurrent part, ``h @ W_hh`` plus the gate
nonlinearities.

The drivers (:class:`LSTM`, :class:`GRU`, :class:`LSTMDecoder`, and
through them :class:`BiLSTMLayer` / :class:`StackedBiLSTM`) run whole
sequences through the fused kernels of :mod:`repro.nn.fused`, which
execute the time loop in raw numpy and contribute a *single* node to
the autograd tape (hand-derived BPTT) instead of ~20 nodes per step.
The LSTM kernel runs a stack of LSTMs in one time loop:
:meth:`LSTM.run_together` runs several LSTMs over their own inputs,
a bidirectional layer runs both directions that way,
:meth:`StackedBiLSTM.run_together` runs every direction of several
stacks layer by layer, and :class:`LSTMDecoder` is its ``K = 1`` call
on a vector-input slice.
The cell classes hold the gate weights; a per-step tape reference that
the kernels are verified against (bit-identical forward, ``rtol=1e-9``
gradients) lives with the tests in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .fused import gru_sequence, lstm_sequence
from .init import orthogonal, xavier_uniform
from .layers import Linear
from .module import Module, Parameter
from .tensor import Tensor, concat

__all__ = [
    "LSTMCell", "GRUCell", "LSTM", "GRU", "BiLSTMLayer", "StackedBiLSTM",
    "LSTMDecoder", "sequence_mask",
]


def sequence_mask(lengths: np.ndarray, max_len: int) -> np.ndarray:
    """Return a ``(B, T)`` float mask with 1.0 at valid positions."""
    lengths = np.asarray(lengths)
    return (np.arange(max_len)[None, :] < lengths[:, None]).astype(np.float64)


class LSTMCell(Module):
    """The weights of one LSTM layer (Hochreiter & Schmidhuber, 1997).

    Gate layout along the last axis of the fused weight matrices is
    ``[input, forget, cell, output]``.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(xavier_uniform((input_size, 4 * hidden_size), rng))
        self.w_hh = Parameter(np.concatenate(
            [orthogonal((hidden_size, hidden_size), rng) for _ in range(4)],
            axis=1))
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size:2 * hidden_size] = 1.0  # forget-gate bias trick
        self.bias = Parameter(bias)


class GRUCell(Module):
    """The weights of one GRU layer (Cho et al., 2014).

    Gate layout is ``[reset, update, new]``.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(xavier_uniform((input_size, 3 * hidden_size), rng))
        self.w_hh = Parameter(np.concatenate(
            [orthogonal((hidden_size, hidden_size), rng) for _ in range(3)],
            axis=1))
        self.b_ih = Parameter(np.zeros(3 * hidden_size))
        self.b_hh = Parameter(np.zeros(3 * hidden_size))


class _Recurrent(Module):
    """Shared driver for unidirectional recurrent layers."""

    def __init__(self, hidden_size: int, reverse: bool) -> None:
        super().__init__()
        self.hidden_size = hidden_size
        self.reverse = reverse


class LSTM(_Recurrent):
    """LSTM over a padded batch.

    Returns ``(outputs, (h_last, c_last))`` where ``outputs`` is
    ``(B, T, H)`` and ``h_last`` is the hidden state at each sequence's last
    valid step (first valid step when ``reverse=True``).
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None,
                 reverse: bool = False) -> None:
        super().__init__(hidden_size, reverse)
        self.cell = LSTMCell(input_size, hidden_size, rng)

    def forward(self, x: Tensor, lengths: np.ndarray | None = None
                ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        (outputs, h, c), = LSTM.run_together([self], [x], [lengths])
        return outputs, (h, c)

    @staticmethod
    def run_together(lstms: Sequence["LSTM"], xs: Sequence[Tensor],
                     lengths: Sequence[np.ndarray | None],
                     initial: Sequence[tuple[np.ndarray, np.ndarray]
                                       | None] | None = None
                     ) -> list[tuple[Tensor, Tensor, Tensor]]:
        """Run ``lstms[k]`` over ``xs[k]`` for every ``k`` in one time
        loop (:func:`~repro.nn.fused.lstm_sequence`).

        The LSTMs must share input and hidden sizes; batch sizes, lengths
        and directions may differ.  Returns ``(outputs, h_last, c_last)``
        per LSTM, each exactly what the LSTM returns on its own.
        ``initial[k]``, when given, is the ``(h, c)`` LSTM ``k`` starts
        from (inference only).
        """
        return lstm_sequence(
            xs, [(lstm.cell.w_ih, lstm.cell.w_hh, lstm.cell.bias)
                 for lstm in lstms],
            lengths, [lstm.reverse for lstm in lstms], initial=initial)


class GRU(_Recurrent):
    """GRU over a padded batch; same contract as :class:`LSTM`."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None,
                 reverse: bool = False) -> None:
        super().__init__(hidden_size, reverse)
        self.cell = GRUCell(input_size, hidden_size, rng)

    def forward(self, x: Tensor, lengths: np.ndarray | None = None
                ) -> tuple[Tensor, Tensor]:
        return gru_sequence(
            x, self.cell.w_ih, self.cell.w_hh, self.cell.b_ih,
            self.cell.b_hh, lengths=lengths, reverse=self.reverse)


class BiLSTMLayer(Module):
    """One bidirectional LSTM layer with the paper's output projection.

    Following Eq. (9) of the paper, the forward and reversed hidden
    sequences are concatenated and projected back to ``hidden_size`` so
    that layers can be stacked.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.forward_lstm = LSTM(input_size, hidden_size, rng, reverse=False)
        self.backward_lstm = LSTM(input_size, hidden_size, rng, reverse=True)
        self.projection = Linear(2 * hidden_size, hidden_size, rng)

    def forward(self, x: Tensor, lengths: np.ndarray | None = None) -> Tensor:
        return _bilstm_layers([self], [x], [lengths])[0]


def _bilstm_layers(layers: Sequence[BiLSTMLayer], xs: Sequence[Tensor],
                   lengths: Sequence[np.ndarray | None]) -> list[Tensor]:
    """``layers[k](xs[k], lengths[k])`` for every ``k``: both directions
    of every layer run in one time loop (``2·len(layers)`` LSTMs)."""
    lstms = [lstm for layer in layers
             for lstm in (layer.forward_lstm, layer.backward_lstm)]
    runs = LSTM.run_together(lstms, [x for x in xs for _ in range(2)],
                             [lens for lens in lengths for _ in range(2)])
    return [layer.projection(concat([runs[2 * k][0], runs[2 * k + 1][0]],
                                    axis=2))
            for k, layer in enumerate(layers)]


class StackedBiLSTM(Module):
    """A stack of :class:`BiLSTMLayer` (the paper's detector backbone)."""

    def __init__(self, input_size: int, hidden_size: int, num_layers: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng or np.random.default_rng()
        sizes = [input_size] + [hidden_size] * (num_layers - 1)
        self.layers = [BiLSTMLayer(s, hidden_size, rng) for s in sizes]

    def forward(self, x: Tensor, lengths: np.ndarray | None = None) -> Tensor:
        return StackedBiLSTM.run_together([self], [x], [lengths])[0]

    @staticmethod
    def run_together(stacks: Sequence["StackedBiLSTM"], xs: Sequence[Tensor],
                     lengths: Sequence[np.ndarray | None]) -> list[Tensor]:
        """``stacks[k](xs[k], lengths[k])`` for every ``k``, layer by
        layer: each layer depth is one time loop over both directions of
        every stack.  The stacks must share depth and sizes."""
        depth = len(stacks[0].layers)
        if any(len(stack.layers) != depth for stack in stacks):
            raise ValueError("stacks run together must share their depth")
        for d in range(depth):
            xs = _bilstm_layers([stack.layers[d] for stack in stacks], xs,
                                lengths)
        return list(xs)


class LSTMDecoder(Module):
    """LSTM that expands a single vector into a sequence (paper Eq. 5).

    The compressed vector is fed as the input at *every* step, and the
    hidden state sequence is the reconstruction scaffold: a vector-input
    slice of :func:`~repro.nn.fused.lstm_sequence`, so it shares the
    encoder's LSTM step, freeze rule and BPTT.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size

    def forward(self, v: Tensor, steps: int,
                lengths: np.ndarray | None = None) -> Tensor:
        (outputs, _, _), = lstm_sequence(
            [v], [(self.cell.w_ih, self.cell.w_hh, self.cell.bias)],
            [lengths], steps=[steps])
        return outputs
