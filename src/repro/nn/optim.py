"""Gradient-based optimizers."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "Adam", "clip_grad_norm"]


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the norm before clipping.  Recurrent nets trained on long
    sequences occasionally produce exploding gradients; clipping keeps
    training stable without changing the descent direction.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    # np.dot on the raveled gradient is a single BLAS pass; (g**2).sum()
    # would allocate a temporary and scan twice.
    total = float(np.sqrt(sum(
        float(np.dot(g.ravel(), g.ravel())) for g in grads)))
    if total > max_norm > 0.0:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total


class Optimizer:
    """Base class holding a parameter list and the learning rate."""

    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """Snapshot of the optimizer's mutable state (for checkpoints).

        ``arrays`` maps slot names to per-parameter moment arrays and
        ``scalars`` holds plain numbers; both round-trip through
        :meth:`load_state_dict` on an optimizer built over the *same*
        parameter list (same order, same shapes).
        """
        return {"scalars": {"lr": self.lr}, "arrays": {}}

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        scalars = state.get("scalars", {})
        self.lr = float(scalars.get("lr", self.lr))
        self._load_arrays(state.get("arrays", {}))

    def _load_arrays(self, arrays: dict[str, list[np.ndarray]]) -> None:
        for name, values in arrays.items():
            slot = getattr(self, name, None)
            if slot is None or len(slot) != len(values):
                raise ValueError(
                    f"optimizer state slot {name!r} does not match: "
                    f"expected {len(slot) if slot is not None else 0} "
                    f"arrays, got {len(values)}")
            for current, value in zip(slot, values):
                if current.shape != np.asarray(value).shape:
                    raise ValueError(
                        f"optimizer state shape mismatch in {name!r}")
                current[...] = value


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) — the optimizer used in the paper (§VI-A)."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        # Reusable per-parameter scratch (not part of the optimizer
        # state: it never survives a step).
        self._buf = [np.empty_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """Allocation-free Adam update.

        The moment updates write through one reusable scratch buffer per
        parameter (``x**2`` for float64 is computed as ``x*x``, so the
        moments stay bit-identical to the textbook form), and the bias
        correction is folded into the step size::

            lr·(m/bias1)/(sqrt(v/bias2) + eps)
              == (lr·sqrt(bias2)/bias1) · m / (sqrt(v) + eps·sqrt(bias2))

        which removes the ``m_hat``/``v_hat`` temporaries entirely.
        """
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        sqrt_bias2 = np.sqrt(bias2)
        step_size = self.lr * sqrt_bias2 / bias1
        eps_hat = self.eps * sqrt_bias2
        one_minus_b1 = 1.0 - self.beta1
        one_minus_b2 = 1.0 - self.beta2
        for p, m, v, buf in zip(self.parameters, self._m, self._v,
                                self._buf):
            if p.grad is None:
                continue
            grad = p.grad
            m *= self.beta1
            np.multiply(grad, one_minus_b1, out=buf)
            m += buf
            v *= self.beta2
            np.multiply(grad, grad, out=buf)
            buf *= one_minus_b2
            v += buf
            if self.weight_decay:
                # Decoupled weight decay (AdamW): regularizes without
                # polluting the adaptive moments.
                np.multiply(p.data, self.lr * self.weight_decay, out=buf)
                p.data -= buf
            np.sqrt(v, out=buf)
            buf += eps_hat
            np.divide(m, buf, out=buf)
            buf *= step_size
            p.data -= buf
            # In-place update: invalidate cached precision weight views.
            p.version = getattr(p, "version", 0) + 1

    def state_dict(self) -> dict[str, object]:
        return {
            "scalars": {"lr": self.lr, "beta1": self.beta1,
                        "beta2": self.beta2, "eps": self.eps,
                        "weight_decay": self.weight_decay,
                        "step_count": self._step_count},
            "arrays": {"_m": [m.copy() for m in self._m],
                       "_v": [v.copy() for v in self._v]},
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        super().load_state_dict(state)
        scalars = state.get("scalars", {})
        self.beta1 = float(scalars.get("beta1", self.beta1))
        self.beta2 = float(scalars.get("beta2", self.beta2))
        self.eps = float(scalars.get("eps", self.eps))
        self.weight_decay = float(scalars.get("weight_decay",
                                              self.weight_decay))
        self._step_count = int(scalars.get("step_count", self._step_count))
