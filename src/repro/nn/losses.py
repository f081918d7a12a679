"""Loss functions used in the LEAD pipeline."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, is_grad_enabled

__all__ = ["mse_loss", "kld_loss", "bce_loss"]

_EPS = 1e-12


def _fused_mse(prediction: Tensor, target: np.ndarray,
               mask: np.ndarray | None) -> Tensor:
    """Masked MSE as ONE tape node (see :mod:`repro.nn.fused`).

    The tape version records five nodes and four full-size temporaries
    per loss; the training path evaluates a loss per branch per batch,
    so collapsing it matters.  Forward replays the tape's float op
    order exactly; the hand backward is ``d/dpred = 2·mask·diff/valid``
    (the tape accumulates ``dsq·diff`` twice, and ``a + a == 2·a``
    bit-exactly for floats).
    """
    diff = prediction.data - target
    squared = diff * diff
    if mask is None:
        valid = float(squared.size)
        value = squared.mean()
    else:
        valid = float(np.broadcast_to(mask, squared.shape).sum())
        if valid == 0:
            raise ValueError("mask selects no elements")
        value = (squared * mask).sum() * (1.0 / valid)

    def backward(grad: np.ndarray) -> None:
        g = diff * (float(grad) * (2.0 / valid))
        if mask is not None:
            g *= mask
        prediction._accumulate(g, own=True)

    return Tensor._make(np.asarray(value), (prediction,), backward)


def mse_loss(prediction: Tensor, target: np.ndarray,
             mask: np.ndarray | None = None) -> Tensor:
    """Mean squared error (paper Eq. 8).

    ``mask`` (same leading shape as ``prediction``, broadcastable) selects
    valid positions in padded batches; the mean is taken over valid
    elements only.

    With gradients enabled the whole loss is a single custom autograd
    op; without them (evaluation) it is plain tensor arithmetic.
    """
    target = np.asarray(target, dtype=np.float64)
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.ndim < prediction.data.ndim:
            mask = mask.reshape(
                mask.shape + (1,) * (prediction.data.ndim - mask.ndim))
    if is_grad_enabled():
        return _fused_mse(prediction, target, mask)
    diff = prediction - target
    squared = diff * diff
    if mask is None:
        return squared.mean()
    valid = float(np.broadcast_to(mask, squared.shape).sum())
    if valid == 0:
        raise ValueError("mask selects no elements")
    return (squared * mask).sum() * (1.0 / valid)


def kld_loss(label: np.ndarray, prediction: Tensor) -> Tensor:
    """Kullback-Leibler divergence KL(label || prediction) (Eqs. 11-12).

    ``label`` is a fixed (already epsilon-smoothed) discrete distribution;
    gradients flow only through ``prediction``.
    """
    label = np.asarray(label, dtype=np.float64)
    if label.shape != prediction.shape:
        raise ValueError(
            f"label shape {label.shape} != prediction shape {prediction.shape}")
    log_pred = (prediction + _EPS).log()
    constant = float(np.sum(label * np.log(label + _EPS)))
    return Tensor(constant) - (log_pred * label).sum()


def bce_loss(prediction: Tensor, target: np.ndarray) -> Tensor:
    """Binary cross entropy over probabilities in (0, 1)."""
    target = np.asarray(target, dtype=np.float64)
    pred = prediction * (1.0 - 2.0 * _EPS) + _EPS  # keep log() finite
    loss = (pred.log() * target + (1.0 - pred).log() * (1.0 - target)) * -1.0
    return loss.mean()
