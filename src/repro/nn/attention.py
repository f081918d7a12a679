"""Self-attention aggregation used by the compression operators.

The paper (Eqs. 3-4) aggregates the hidden states of an LSTM into a single
vector: the query is the last hidden state, the keys are projections of all
hidden states, and the values are the raw hidden states themselves.
"""

from __future__ import annotations

import numpy as np

from .fused import attention_pool
from .layers import Linear
from .module import Module
from .tensor import Tensor

__all__ = ["SelfAttentionAggregator"]

_NEG_INF = -1e9


class SelfAttentionAggregator(Module):
    """Aggregate an LSTM output sequence into one vector (paper Eqs. 3-4).

    Given hidden states ``H`` of shape ``(B, T, H)`` and the last hidden
    state ``h_last`` of shape ``(B, H)``:

    * ``q = h_last @ Wq + bq``
    * ``K = H @ Wk + bk``
    * ``s = softmax(q . K / sqrt(d_k))`` over valid timesteps
    * result ``= sum_t s_t * H_t``
    """

    def __init__(self, hidden_size: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.hidden_size = hidden_size
        self.query = Linear(hidden_size, hidden_size, rng)
        self.key = Linear(hidden_size, hidden_size, rng)

    def forward(self, outputs: Tensor, last_hidden: Tensor,
                lengths: np.ndarray | None = None) -> Tensor:
        hidden = outputs.shape[-1]
        if hidden != self.hidden_size:
            raise ValueError(
                f"expected hidden size {self.hidden_size}, got {hidden}")
        return attention_pool(outputs, last_hidden,
                              self.query.weight, self.query.bias,
                              self.key.weight, self.key.bias,
                              lengths, neg_inf=_NEG_INF)
