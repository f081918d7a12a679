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
from typing import NamedTuple

import numpy as np

from ..nn import (Linear, LSTM, LSTMDecoder, Module, SelfAttentionAggregator,
                  Tensor)
from ..nn.fused import mlp_head, prefix_attention_pool

__all__ = ["CompressionOperator", "DecompressionOperator", "RunState"]


class RunState(NamedTuple):
    """LSTM runs after their last step: what a later call continues.

    Row ``r`` has run ``steps[r]`` steps; ``outputs[r, :steps[r]]`` are
    its hidden states after each of them and ``(h[r], c[r])`` the state
    after the last (zeros for a run not started yet).
    """

    h: np.ndarray        # (R, H)
    c: np.ndarray        # (R, H)
    outputs: np.ndarray  # (R, T, H)
    steps: np.ndarray    # (R,)


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
                          prefixes: Sequence[tuple[np.ndarray, np.ndarray]],
                          resume: list[RunState | None] | None = None
                          ) -> list[Tensor]:
        """``operators[k].prefixes(runs[k], lengths[k], *prefixes[k])``
        for every ``k``, with every operator's LSTM in one time loop.

        A forward LSTM's first ``L`` states over a run *are* its states
        over the run's length-``L`` prefix, so each prefix is read off its
        run (:func:`repro.nn.fused.prefix_attention_pool`; LEAD-NoSel
        reads the state at step ``length - 1``).

        With ``resume`` (inference only), ``resume[k]`` is the
        :class:`RunState` operator ``k``'s runs continue from, or
        ``None`` when every run starts here: ``runs[k]`` holds only the
        new steps, prefix lengths count the earlier ones too, and each
        prefix must end on a new step (only those are queried).  On
        return ``resume[k]`` is the runs' state after this call.
        """
        initial = None if resume is None else [
            None if prior is None else (prior.h, prior.c)
            for prior in resume]
        states = LSTM.run_together([op.lstm for op in operators], runs,
                                   lengths, initial=initial)
        out = []
        for k, (op, (outputs, h, c), (run, length)) in enumerate(
                zip(operators, states, prefixes)):
            prior = None if resume is None else resume[k]
            first = None
            if prior is not None:
                outputs = Tensor(_continue(prior, outputs.data, lengths[k]))
                first = prior.steps
            if op.use_attention:
                query, key = op.attention.query, op.attention.key
                pooled = prefix_attention_pool(
                    outputs, query.weight, query.bias, key.weight, key.bias,
                    run, length, first=first)
            else:
                pooled = outputs[run, length - 1]
            out.append(_head(op.fc1, op.fc2, pooled))
            if resume is not None:
                resume[k] = RunState(
                    h.data, c.data, outputs.data, lengths[k] if prior is None
                    else prior.steps + lengths[k])
        return out


def _continue(prior: RunState, new: np.ndarray,
              lengths: np.ndarray) -> np.ndarray:
    """Each run's earlier outputs followed by its new ones, ``(R, T, H)``."""
    ends = prior.steps + lengths
    outputs = np.zeros((len(ends), int(ends.max()), new.shape[2]),
                       dtype=new.dtype)
    outputs[:, :prior.outputs.shape[1]] = prior.outputs
    rows, cols = np.nonzero(np.arange(new.shape[1]) < lengths[:, None])
    outputs[rows, prior.steps[rows] + cols] = new[rows, cols]
    return outputs


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
