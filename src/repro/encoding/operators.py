"""Compression and decompression operators (paper §IV-B, Eqs. 2-7).

A *compression operator* is an LSTM followed by a self-attention aggregator
(Eqs. 2-3) and two fully connected layers with a tanh (Eq. 4): it maps a
variable-length sequence to one fixed-size vector.

A *decompression operator* is an LSTM that consumes the same input vector
at every step (Eq. 5) followed by two fully connected layers with a tanh
(Eq. 6): it expands a vector back into a sequence.
"""

from __future__ import annotations

import numpy as np

from ..nn import (Linear, LSTM, LSTMDecoder, Module, SelfAttentionAggregator,
                  Tensor)
from ..nn.fused import compress_prefixes, mlp_head

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
        outputs, (last_hidden, _) = self.lstm(x, lengths)
        if self.use_attention:
            aggregated = self.attention(outputs, last_hidden, lengths)
        else:
            aggregated = last_hidden
        return _head(self.fc1, self.fc2, aggregated)

    def prefixes(self, runs: Tensor, lengths: np.ndarray, run: np.ndarray,
                 length: np.ndarray) -> Tensor:
        """Row ``k``: :meth:`forward` on the first ``length[k]`` steps of
        run ``run[k]`` of ``runs``, all from one LSTM pass
        (:func:`repro.nn.fused.compress_prefixes`)."""
        cell = self.lstm.cell
        attention = None
        if self.use_attention:
            query, key = self.attention.query, self.attention.key
            attention = (query.weight, query.bias, key.weight, key.bias)
        return compress_prefixes(
            runs, lengths, (cell.w_ih, cell.w_hh, cell.bias), attention,
            (self.fc1.weight, self.fc1.bias, self.fc2.weight, self.fc2.bias),
            run, length)


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
