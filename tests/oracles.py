"""Reference implementations that exist only to check production code.

Two oracles live here, each the code the production path replaced:

* :func:`group_distribution` — single-trajectory inference through the
  Group layout: encode one trajectory's candidates, run each detector
  over its padded forward/backward group and merge (Eq. 13).  The
  inference core (``LEAD._predict_many``) must match it bit for bit on
  a batch of one and at ``rtol=1e-9`` on multi-trajectory batches.
* :func:`tape_path` — the per-step autograd tape of the recurrent
  drivers, the linear and attention layers, the operator heads and the
  MSE loss.  Inside the context those modules build one tape node per
  elementary op; the fused kernels of :mod:`repro.nn.fused` must match
  its forward values bit for bit and its gradients at ``rtol=1e-9``.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.detection import (build_backward_group, build_forward_group,
                             merge_distributions)
from repro.encoding import operators
from repro.nn import (GRU, LSTM, Linear, LSTMDecoder,
                      SelfAttentionAggregator, Tensor, losses, no_grad)
from repro.nn.attention import masked_softmax
from repro.nn.rnn import sequence_mask
from repro.nn.tensor import stack

__all__ = ["group_distribution", "tape_path"]


# ----------------------------------------------------------------------
# Group-based single-trajectory inference
# ----------------------------------------------------------------------
def group_distribution(lead, processed, direction: str = "both"
                       ) -> np.ndarray:
    """Merged Eq. 13 distribution of one processed trajectory."""
    stay, move = lead._segments(processed)
    pairs = [c.pair for c in processed.candidates]
    n = processed.num_stay_points
    with no_grad():
        cvecs = lead.autoencoder.encode_trajectory_tensor(
            stay, move, pairs).numpy()
        if lead.independent_detector is not None:
            return merge_distributions(
                lead.independent_detector(Tensor(cvecs)).numpy())
        forward = backward = None
        if lead.forward_detector is not None and direction in (
                "both", "forward"):
            forward = lead.forward_detector(
                build_forward_group(cvecs, n)).numpy()
        if lead.backward_detector is not None and direction in (
                "both", "backward"):
            backward = lead.backward_detector(
                build_backward_group(cvecs, n)).numpy()
    if forward is None:
        return merge_distributions(backward)
    return merge_distributions(forward, backward)


# ----------------------------------------------------------------------
# Per-step autograd tape
# ----------------------------------------------------------------------
def _blend(new: Tensor, old: Tensor, mask: np.ndarray | None) -> Tensor:
    """Freeze masking: keep ``old`` where the step is padding."""
    if mask is None:
        return new
    keep = mask.reshape(-1, 1)
    return new * keep + old * (1.0 - keep)


def _lstm_step(cell, h: Tensor, c: Tensor, x_proj: Tensor,
               mask: np.ndarray | None) -> tuple[Tensor, Tensor]:
    n = cell.hidden_size
    gates = x_proj + h @ cell.w_hh + cell.bias
    i = gates[:, 0 * n:1 * n].sigmoid()
    f = gates[:, 1 * n:2 * n].sigmoid()
    g = gates[:, 2 * n:3 * n].tanh()
    o = gates[:, 3 * n:4 * n].sigmoid()
    c_new = f * c + i * g
    h_new = o * c_new.tanh()
    return _blend(h_new, h, mask), _blend(c_new, c, mask)


def _gru_step(cell, h: Tensor, gi: Tensor,
              mask: np.ndarray | None) -> Tensor:
    n = cell.hidden_size
    gh = h @ cell.w_hh + cell.b_hh
    r = (gi[:, 0 * n:1 * n] + gh[:, 0 * n:1 * n]).sigmoid()
    z = (gi[:, 1 * n:2 * n] + gh[:, 1 * n:2 * n]).sigmoid()
    candidate = (gi[:, 2 * n:3 * n] + r * gh[:, 2 * n:3 * n]).tanh()
    return _blend((1.0 - z) * candidate + z * h, h, mask)


def _zeros(batch: int, hidden: int, like: Tensor) -> Tensor:
    return Tensor(np.zeros((batch, hidden), dtype=like.data.dtype))


def _time_order(steps: int, reverse: bool) -> range:
    return range(steps - 1, -1, -1) if reverse else range(steps)


def _tape_lstm(self, x: Tensor, lengths=None):
    batch, steps, features = x.shape
    mask = None if lengths is None else sequence_mask(lengths, steps)
    h = _zeros(batch, self.hidden_size, x)
    c = _zeros(batch, self.hidden_size, x)
    # Hoisted input projection: one GEMM for all steps.
    x_proj = (x.reshape(batch * steps, features) @ self.cell.w_ih).reshape(
        batch, steps, 4 * self.hidden_size)
    outputs: list[Tensor] = [None] * steps  # type: ignore[list-item]
    for t in _time_order(steps, self.reverse):
        h, c = _lstm_step(self.cell, h, c, x_proj[:, t, :],
                          None if mask is None else mask[:, t])
        outputs[t] = h
    return stack(outputs, axis=1), (h, c)


def _tape_gru(self, x: Tensor, lengths=None):
    batch, steps, features = x.shape
    mask = None if lengths is None else sequence_mask(lengths, steps)
    h = _zeros(batch, self.hidden_size, x)
    x_proj = (x.reshape(batch * steps, features) @ self.cell.w_ih
              + self.cell.b_ih).reshape(batch, steps, 3 * self.hidden_size)
    outputs: list[Tensor] = [None] * steps  # type: ignore[list-item]
    for t in _time_order(steps, self.reverse):
        h = _gru_step(self.cell, h, x_proj[:, t, :],
                      None if mask is None else mask[:, t])
        outputs[t] = h
    return stack(outputs, axis=1), h


def _tape_decoder(self, v: Tensor, steps: int, lengths=None) -> Tensor:
    batch = v.shape[0]
    mask = None if lengths is None else sequence_mask(lengths, steps)
    h = _zeros(batch, self.hidden_size, v)
    c = _zeros(batch, self.hidden_size, v)
    # The input is the same vector at every step: project it once.
    v_proj = v @ self.cell.w_ih
    outputs: list[Tensor] = []
    for t in range(steps):
        h, c = _lstm_step(self.cell, h, c, v_proj,
                          None if mask is None else mask[:, t])
        outputs.append(h)
    return stack(outputs, axis=1)


def _tape_linear(self, x: Tensor) -> Tensor:
    if x.shape[-1] != self.in_features:
        raise ValueError(
            f"expected last axis {self.in_features}, got {x.shape}")
    return x @ self.weight + self.bias


def _tape_attention(self, outputs: Tensor, last_hidden: Tensor,
                    lengths=None) -> Tensor:
    batch, steps, hidden = outputs.shape
    q = self.query(last_hidden)                      # (B, H)
    k = self.key(outputs)                            # (B, T, H)
    scale = 1.0 / np.sqrt(hidden)
    scores = (k * q.reshape(batch, 1, hidden)).sum(axis=2) * scale
    mask = None if lengths is None else sequence_mask(lengths, steps)
    weights = masked_softmax(scores, mask, axis=1)   # (B, T)
    return (outputs * weights.reshape(batch, steps, 1)).sum(axis=1)


def _tape_head(fc1: Linear, fc2: Linear, x: Tensor) -> Tensor:
    return fc2(fc1(x)).tanh()


def _tape_mse(prediction: Tensor, target: np.ndarray,
              mask: np.ndarray | None) -> Tensor:
    diff = prediction - target
    squared = diff * diff
    if mask is None:
        return squared.mean()
    valid = float(np.broadcast_to(mask, squared.shape).sum())
    if valid == 0:
        raise ValueError("mask selects no elements")
    return (squared * mask).sum() * (1.0 / valid)


_TAPE_PATCHES = (
    (LSTM, "forward", _tape_lstm),
    (GRU, "forward", _tape_gru),
    (LSTMDecoder, "forward", _tape_decoder),
    (Linear, "forward", _tape_linear),
    (SelfAttentionAggregator, "forward", _tape_attention),
    (operators, "_head", _tape_head),
    (losses, "_fused_mse", _tape_mse),
)


@contextlib.contextmanager
def tape_path():
    """Swap the per-step tape in for the fused kernels (not re-entrant,
    process-wide: only for single-threaded tests)."""
    saved = [(owner, name, vars(owner)[name])
             for owner, name, _ in _TAPE_PATCHES]
    for owner, name, replacement in _TAPE_PATCHES:
        setattr(owner, name, replacement)
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
