"""Reverse-mode automatic differentiation on top of numpy.

This module is the foundation of the neural substrate used by the LEAD
reproduction.  The paper trains LSTM/attention models with PyTorch on a GPU;
this environment has no deep-learning framework installed, so we implement a
small, well-tested autograd engine ourselves.

A :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations that
produced it.  Calling :meth:`Tensor.backward` on a scalar tensor propagates
gradients to every tensor in the graph with ``requires_grad=True``.

Only the operations needed by the models in this repository are implemented,
but each supports full numpy broadcasting where it makes sense, and each has
a gradient that is verified against finite differences in the test suite.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "concat", "stack", "no_grad", "is_grad_enabled"]

#: Per-thread autograd mode.  Detection workers may run in parallel
#: threads; a module-level boolean would let one worker's ``no_grad``
#: block silently disable graph construction in a concurrently training
#: thread, so the flag lives in ``threading.local`` storage instead.
#: Each thread starts with gradients enabled.
_GRAD_STATE = threading.local()


class no_grad:
    """Context manager that disables graph construction.

    Inference-only code paths (e.g. online detection) run noticeably faster
    when the engine does not record backward closures.  The switch is
    thread-local: entering ``no_grad`` on one thread never changes the
    grad mode observed by other threads.
    """

    def __enter__(self) -> "no_grad":
        self._previous = getattr(_GRAD_STATE, "enabled", True)
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        _GRAD_STATE.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded for backprop.

    The answer is per-thread (see :data:`_GRAD_STATE`).
    """
    return getattr(_GRAD_STATE, "enabled", True)


#: Per-thread inference-precision policy, set by
#: :func:`repro.nn.precision.inference_dtype`.  It lives here, next to
#: the autograd flag, because :class:`Tensor` construction must consult
#: both to decide whether a float32 array may pass through uncoerced.
_PRECISION_STATE = threading.local()


def active_dtype_name() -> str:
    """Name of this thread's inference dtype (``"float64"`` default)."""
    return getattr(_PRECISION_STATE, "dtype_name", "float64")


def _coerce_master_dtype(arr: np.ndarray) -> np.ndarray:
    """Coerce to the float64 master dtype unless on the float32
    inference path.

    float32 arrays pass through only while gradients are disabled *and*
    a float32 inference context is active — the one situation in which
    the reduced-precision kernels produce them.  Everything else (lists,
    ints, float16, and notably float32 features handed to ``fit()``) is
    coerced to float64, preserving the "training always runs float64"
    invariant that the gradient checks depend on.
    """
    if arr.dtype == np.float64:
        return arr
    if (arr.dtype == np.float32
            and not getattr(_GRAD_STATE, "enabled", True)
            and getattr(_PRECISION_STATE, "dtype_name",
                        "float64") == "float32"):
        return arr
    return np.asarray(arr, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after broadcasting.

    numpy broadcasting may have expanded an operand along leading axes or
    along axes of size one; the corresponding gradient must be summed back.
    """
    if grad.shape == shape:
        return grad
    # Sum away the extra leading axes introduced by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(key: object) -> bool:
    """True when ``key`` is pure basic (non-fancy) numpy indexing.

    Basic indexing — ints, slices, ``None``/``Ellipsis`` and tuples
    thereof — selects each source element at most once, so the gradient
    scatter can be a direct assignment into a zero buffer instead of the
    far slower duplicate-safe ``np.add.at``.
    """
    if isinstance(key, tuple):
        return all(k is None or k is Ellipsis
                   or isinstance(k, (int, np.integer, slice)) for k in key)
    return (key is None or key is Ellipsis
            or isinstance(key, (int, np.integer, slice)))


class Tensor:
    """A numpy array with reverse-mode autograd support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: np.ndarray | Sequence[float] | float,
        requires_grad: bool = False,
    ) -> None:
        # float64 is the master dtype; float32 arrays pass through
        # untouched only on the no-grad float32 inference path (see
        # _coerce_master_dtype), so reduced-precision flows stay float32
        # end-to-end while training stays float64 even for callers that
        # feed float32 inputs.
        self.data = _coerce_master_dtype(np.asarray(data))
        self.requires_grad = (bool(requires_grad)
                              and getattr(_GRAD_STATE, "enabled", True))
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but severed from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @classmethod
    def _make(
        cls,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        parents = tuple(p for p in parents if isinstance(p, Tensor))
        out = cls(data)
        if (getattr(_GRAD_STATE, "enabled", True)
                and any(p.requires_grad for p in parents)):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, own: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``own=True`` asserts that the caller created ``grad`` exclusively
        for this tensor and holds no other reference to it, letting the
        first accumulation adopt the buffer instead of copying it —
        backward closures that compute a fresh temporary (``grad * x``,
        a GEMM result, a scatter buffer) pass ``own=True``; closures
        that forward the upstream gradient or a view of it must not.
        """
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            # _unbroadcast sums at least one axis here, so its result is
            # always a freshly allocated array we may adopt.
            grad = _unbroadcast(grad, self.data.shape)
            own = True
        if self.grad is None:
            if own and grad.flags.writeable:
                self.grad = grad
            else:
                self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar output")
            grad = np.ones_like(self.data)
        # Topological order via iterative post-order DFS.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: "Tensor | float") -> "Tensor":
        """Wrap a non-Tensor operand, matching our dtype for scalars.

        NEP 50 treats 0-d float64 *arrays* as strong: wrapping a python
        scalar into ``Tensor(other)`` (a float64 0-d array) would
        silently promote a float32 operand back to float64.  Scalars are
        therefore wrapped in the operand's own dtype — byte-identical
        for float64, dtype-preserving for float32 inference flows.
        """
        if isinstance(other, Tensor):
            return other
        if isinstance(other, (int, float, np.integer, np.floating)):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return Tensor(other)

    def __add__(self, other: "Tensor | float") -> "Tensor":
        other_t = self._coerce(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(grad)

        return Tensor._make(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad, own=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: "Tensor | float") -> "Tensor":
        other_t = self._coerce(other)
        out_data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(-grad, own=True)

        return Tensor._make(out_data, (self, other_t), backward)

    def __rsub__(self, other: float) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        other_t = self._coerce(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other_t.data, own=True)
            if other_t.requires_grad:
                other_t._accumulate(grad * self.data, own=True)

        return Tensor._make(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float") -> "Tensor":
        other_t = self._coerce(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other_t.data, own=True)
            if other_t.requires_grad:
                other_t._accumulate(-grad * self.data / (other_t.data**2),
                                    own=True)

        return Tensor._make(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: float) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1),
                                 own=True)

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = self._coerce(other)
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other_t.data.ndim == 1:
                    self._accumulate(np.outer(grad, other_t.data)
                                     if self.data.ndim == 2
                                     else grad * other_t.data, own=True)
                else:
                    self._accumulate(
                        _unbroadcast(grad @ np.swapaxes(other_t.data, -1, -2),
                                     self.data.shape), own=True)
            if other_t.requires_grad:
                if self.data.ndim == 1:
                    other_t._accumulate(np.outer(self.data, grad), own=True)
                else:
                    other_t._accumulate(
                        _unbroadcast(np.swapaxes(self.data, -1, -2) @ grad,
                                     other_t.data.shape), own=True)

        return Tensor._make(out_data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2), own=True)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data),
                                 own=True)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0.0), own=True)

        return Tensor._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -700.0, 700.0))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data, own=True)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data, own=True)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    # ------------------------------------------------------------------
    # Reductions and shape manipulation
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        out_data = np.swapaxes(self.data, axis1, axis2)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(grad, axis1, axis2))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.swapaxes(-1, -2)

    def __getitem__(self, key: object) -> "Tensor":
        out_data = self.data[key]
        basic = _is_basic_index(key)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if basic:
                    # Basic indexing hits each element at most once, so a
                    # plain assignment scatters the gradient correctly —
                    # orders of magnitude faster than np.add.at.
                    full[key] = grad
                else:
                    np.add.at(full, key, grad)
                self._accumulate(full, own=True)

        return Tensor._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                inner = (grad * out_data).sum(axis=axis, keepdims=True)
                self._accumulate(out_data * (grad - inner), own=True)

        return Tensor._make(out_data, (self,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an axis, differentiable."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, differentiable."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for tensor, slab in zip(tensors, slabs):
            if tensor.requires_grad:
                tensor._accumulate(slab)

    return Tensor._make(out_data, tensors, backward)
