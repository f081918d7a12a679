"""Compression and decompression operators (paper §IV-B, Eqs. 2-7).

A *compression operator* is an LSTM followed by a self-attention aggregator
(Eqs. 2-3) and two fully connected layers with a tanh (Eq. 4): it maps a
variable-length sequence to one fixed-size vector.

A *decompression operator* is an LSTM that consumes the same input vector
at every step (Eq. 5) followed by two fully connected layers with a tanh
(Eq. 6): it expands a vector back into a sequence.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..nn import (Linear, LSTM, LSTMDecoder, Module, SelfAttentionAggregator,
                  Tensor)
from ..nn.fused import mlp_head, prefix_attention_pool

__all__ = ["CompressionOperator", "DecompressionOperator"]


def _head(fc1: Linear, fc2: Linear, x: Tensor) -> Tensor:
    """``tanh(fc2(fc1(x)))`` as one fused tape node."""
    return mlp_head(x, fc1.weight, fc1.bias, fc2.weight, fc2.bias)


class CompressionOperator(Module):
    """Sequence -> vector (LSTM + self-attention + 2 FC + tanh).

    With ``use_attention=False`` (the LEAD-NoSel ablation) the attention
    aggregation is replaced by the LSTM's last hidden state.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None,
                 use_attention: bool = True) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.hidden_size = hidden_size
        self.use_attention = use_attention
        self.lstm = LSTM(input_size, hidden_size, rng)
        if use_attention:
            self.attention = SelfAttentionAggregator(hidden_size, rng)
        self.fc1 = Linear(hidden_size, hidden_size, rng)
        self.fc2 = Linear(hidden_size, hidden_size, rng)

    def forward(self, x: Tensor, lengths: np.ndarray | None = None) -> Tensor:
        """Compress ``(B, T, F)`` into ``(B, H)``."""
        return CompressionOperator.run_together([self], [x], [lengths])[0]

    def prefixes(self, runs: Tensor, lengths: np.ndarray, run: np.ndarray,
                 length: np.ndarray) -> Tensor:
        """Row ``k``: :meth:`forward` on the first ``length[k]`` steps of
        run ``run[k]`` of ``runs``, all from one LSTM pass."""
        return CompressionOperator.prefixes_together(
            [self], [runs], [lengths], [(run, length)])[0]

    @staticmethod
    def run_together(operators: Sequence["CompressionOperator"],
                     xs: Sequence[Tensor],
                     lengths: Sequence[np.ndarray | None]) -> list[Tensor]:
        """``operators[k](xs[k], lengths[k])`` for every ``k``, with every
        operator's LSTM in one time loop."""
        runs = LSTM.run_together([op.lstm for op in operators], xs, lengths)
        out = []
        for op, (outputs, last_hidden, _), lens in zip(operators, runs,
                                                       lengths):
            if op.use_attention:
                aggregated = op.attention(outputs, last_hidden, lens)
            else:
                aggregated = last_hidden
            out.append(_head(op.fc1, op.fc2, aggregated))
        return out

    @staticmethod
    def prefixes_together(operators: Sequence["CompressionOperator"],
                          runs: Sequence[Tensor],
                          lengths: Sequence[np.ndarray],
                          prefixes: Sequence[tuple[np.ndarray, np.ndarray]]
                          ) -> list[Tensor]:
        """``operators[k].prefixes(runs[k], lengths[k], *prefixes[k])``
        for every ``k``, with every operator's LSTM in one time loop.

        A forward LSTM's first ``L`` states over a run *are* its states
        over the run's length-``L`` prefix, so each prefix is read off its
        run (:func:`repro.nn.fused.prefix_attention_pool`; LEAD-NoSel
        reads the state at step ``length - 1``).
        """
        states = LSTM.run_together([op.lstm for op in operators], runs,
                                   lengths)
        out = []
        for op, (outputs, _, _), (run, length) in zip(operators, states,
                                                      prefixes):
            if op.use_attention:
                query, key = op.attention.query, op.attention.key
                pooled = prefix_attention_pool(
                    outputs, query.weight, query.bias, key.weight, key.bias,
                    run, length)
            else:
                pooled = outputs[run, length - 1]
            out.append(_head(op.fc1, op.fc2, pooled))
        return out


class DecompressionOperator(Module):
    """Vector -> sequence (LSTM decoder + 2 FC + tanh)."""

    def __init__(self, input_size: int, hidden_size: int, output_size: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.decoder = LSTMDecoder(input_size, hidden_size, rng)
        self.fc1 = Linear(hidden_size, hidden_size, rng)
        self.fc2 = Linear(hidden_size, output_size, rng)

    def forward(self, v: Tensor, steps: int,
                lengths: np.ndarray | None = None) -> Tensor:
        """Expand ``(B, D)`` into ``(B, steps, output_size)``."""
        hidden = self.decoder(v, steps, lengths)
        return _head(self.fc1, self.fc2, hidden)
