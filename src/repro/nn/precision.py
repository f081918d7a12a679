"""Inference precision policy — dtype as a threaded-through parameter.

The numeric substrate trains in float64 (gradient checks and the
reproduction's equivalence gates depend on it), but inference is a
thresholded argmax over reconstruction-error softmaxes and tolerates
reduced precision.  This module makes the compute dtype an explicit,
per-thread policy instead of a hard-coded constant:

* :func:`inference_dtype` — a ``threading.local`` context manager.
  Inside ``inference_dtype("float32")`` the fused kernels run their
  *inference* branches in float32; training is untouched because
  float32 is only ever applied while gradients are disabled.
* :func:`weight_view` — one-time-cast float32 views of float64 master
  weights, cached per parameter and invalidated when the parameter
  mutates.  Optimizers update ``p.data`` **in place**, so invalidation
  cannot rely on array identity alone: every
  :class:`~repro.nn.module.Parameter` carries a ``version`` counter that
  optimizer steps bump, and a cached view is only served while both the
  backing array object and the version match.

Master weights always stay float64 — ``state_dict`` never sees a cast
view, so checkpoints written under an active float32 context are
byte-identical to ones written outside it.  The view cache counts its
hits, misses and invalidations in module integers guarded by its lock;
:func:`weight_view_stats` reads them there.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict

import numpy as np

from .tensor import Tensor, _PRECISION_STATE, active_dtype_name

__all__ = ["VALID_DTYPES", "inference_dtype", "active_dtype",
           "active_dtype_name", "weight_view",
           "weight_view_stats", "clear_weight_views"]

#: The dtype names a precision context accepts, and the inference
#: policies ``LEADConfig.inference_dtype`` allows.
VALID_DTYPES = ("float64", "float32")

_DTYPES = {"float64": np.dtype(np.float64),
           "float32": np.dtype(np.float32)}

# The per-thread policy state itself lives in ``repro.nn.tensor``
# (``_PRECISION_STATE`` / ``active_dtype_name``), next to the autograd
# flag: ``Tensor`` construction consults both to decide whether a
# float32 array may pass through uncoerced, and importing it from here
# would be circular.  Like autograd mode, the policy is
# ``threading.local`` so a detection worker running float32 never
# changes the dtype observed by a concurrently training thread; each
# thread starts in float64.


def active_dtype() -> np.dtype:
    """This thread's inference dtype as a numpy dtype object."""
    return _DTYPES[active_dtype_name()]


@contextlib.contextmanager
def inference_dtype(name: str):
    """Run the enclosed block under the given inference dtype.

    Only affects code paths that already run without gradients; the
    training tape records float64 regardless of the active context, so
    entering ``inference_dtype("float32")`` around a training step is a
    no-op rather than a silent precision downgrade.
    """
    if name not in _DTYPES:
        raise ValueError(
            f"unknown inference dtype {name!r}; expected one of "
            f"{VALID_DTYPES}")
    previous = active_dtype_name()
    _PRECISION_STATE.dtype_name = name
    try:
        yield
    finally:
        _PRECISION_STATE.dtype_name = previous


# ----------------------------------------------------------------------
# Weight-view cache
# ----------------------------------------------------------------------
#: ``id(tensor) -> (tensor, source_array, version, cast_view)``.  The
#: entry holds a strong reference to the tensor, so its ``id`` cannot be
#: recycled while the entry lives; bounded LRU keeps transient tensors
#: from pinning memory forever.
_VIEW_CACHE: OrderedDict[int, tuple[Tensor, np.ndarray, int, np.ndarray]] \
    = OrderedDict()
_VIEW_CACHE_MAX = 1024
#: Hit/miss/invalidation counts, mutated under :data:`_VIEW_LOCK`.
_VIEW_COUNTS = {"hits": 0, "misses": 0, "invalidations": 0}
#: The cache is shared by every thread (inference workers and a
#: concurrently training thread see the same master weights), so all
#: OrderedDict/stats mutation happens under one lock — get +
#: move_to_end + popitem interleavings would otherwise drop entries or
#: raise KeyError under eviction pressure.  The cast a miss performs
#: dwarfs the lock cost.
_VIEW_LOCK = threading.Lock()


def weight_view(tensor: Tensor, dtype: np.dtype | None = None) -> np.ndarray:
    """A cached cast of ``tensor.data`` in the requested dtype.

    Returns ``tensor.data`` itself when it already has the requested
    dtype.  A cached cast is served only while the backing array is the
    *same object* (``load_state_dict`` rebinds ``data``) **and** the
    tensor's ``version`` counter is unchanged (optimizers mutate the
    array in place and bump the counter) — either mutation path drops
    the stale view.  Thread-safe: see :data:`_VIEW_LOCK`.
    """
    if dtype is None:
        dtype = active_dtype()
    data = tensor.data
    if data.dtype == dtype:
        return data
    key = id(tensor)
    version = getattr(tensor, "version", 0)
    with _VIEW_LOCK:
        entry = _VIEW_CACHE.get(key)
        if entry is not None:
            if (entry[0] is tensor and entry[1] is data
                    and entry[2] == version and entry[3].dtype == dtype):
                _VIEW_CACHE.move_to_end(key)
                _VIEW_COUNTS["hits"] += 1
                return entry[3]
            _VIEW_COUNTS["invalidations"] += 1
        _VIEW_COUNTS["misses"] += 1
        view = np.asarray(data, dtype=dtype)
        view.setflags(write=False)
        _VIEW_CACHE[key] = (tensor, data, version, view)
        while len(_VIEW_CACHE) > _VIEW_CACHE_MAX:
            _VIEW_CACHE.popitem(last=False)
    return view


def weight_view_stats() -> dict[str, int]:
    """Hit/miss/invalidation counts plus the current entry count."""
    with _VIEW_LOCK:
        return {**_VIEW_COUNTS, "entries": len(_VIEW_CACHE)}


def clear_weight_views() -> None:
    """Drop every cached view (tests and cold benches)."""
    with _VIEW_LOCK:
        _VIEW_CACHE.clear()
        _VIEW_COUNTS.update(dict.fromkeys(_VIEW_COUNTS, 0))
