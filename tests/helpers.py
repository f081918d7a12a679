"""Shared test utilities."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn import Adam, EarlyStopping, Module, Tensor


def numeric_grad(fn: Callable[[np.ndarray], float], x: np.ndarray,
                 eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def check_gradient(op: Callable[[Tensor], Tensor], x: np.ndarray,
                   atol: float = 1e-5, rtol: float = 1e-4) -> None:
    """Assert autograd gradient of ``sum(op(x))`` matches finite differences."""
    x = np.asarray(x, dtype=np.float64)

    tensor = Tensor(x.copy(), requires_grad=True)
    out = op(tensor)
    out.sum().backward()
    analytic = tensor.grad

    def scalar(values: np.ndarray) -> float:
        return float(op(Tensor(values)).sum().numpy())

    numeric = numeric_grad(scalar, x.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


def fresh_training_state(module: Module) -> dict[str, object]:
    """The optimizer, RNG, stopper and histories a checkpoint save takes,
    as a freshly started fit of ``module`` would hold them."""
    return {"optimizer": Adam(module.parameters()),
            "rng": np.random.default_rng(0), "stopper": EarlyStopping(),
            "histories": []}
