"""Basic feed-forward layers."""

from __future__ import annotations

import numpy as np

from .fused import affine
from .init import xavier_uniform
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["Linear", "Sequential"]


class Linear(Module):
    """Fully connected layer: ``y = x @ W + b``.

    Accepts inputs of any leading shape; the last axis must equal
    ``in_features``.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected last axis {self.in_features}, got {x.shape}")
        return affine(x, self.weight, self.bias)


class Sequential(Module):
    """Apply modules in order; each must map Tensor -> Tensor."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.steps = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for step in self.steps:
            x = step(x)
        return x

    def __iter__(self):
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)
