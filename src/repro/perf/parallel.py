"""Order-preserving process-parallel map for the offline stages.

Offline stages such as raw-trajectory processing are embarrassingly
parallel: each task is a pure function of its input, so the result
cannot depend on which worker ran it or in what order.
:func:`parallel_map` keeps three promises on top of that:

1. **Order is part of the contract.**  Results always come back in
   input order, regardless of completion order.
2. **One failure type on every path.**  A task that raises surfaces as
   :class:`~repro.errors.TaskFailedError` carrying the failing item's
   index, with the original exception chained — serially and in a pool.
3. **A pool that cannot run degrades to serial.**  If the platform
   refuses to give us a pool (no fork support, sandboxed semaphores,
   dead workers), the map computes serially instead of crashing; the
   tasks are pure, so the results are identical, only slower.

``workers=None`` / ``0`` / ``1`` run serially in-process (the default —
no pickling, no pool startup).  ``workers >= 2`` uses a
``ProcessPoolExecutor``; negative values mean one worker per usable CPU.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

from ..errors import TaskFailedError
from ..obs.core import obs_span

__all__ = ["parallel_map", "effective_workers"]

T = TypeVar("T")
R = TypeVar("R")


def effective_workers(workers: int | None) -> int:
    """Normalize a worker-count request to an actual process count.

    ``None``/``0``/``1`` mean serial; negative values mean one per CPU
    this process may run on (its affinity mask, where the platform
    has one).
    """
    if workers is None:
        return 1
    if workers < 0:
        if hasattr(os, "sched_getaffinity"):
            return max(len(os.sched_getaffinity(0)), 1)
        return max(os.cpu_count() or 1, 1)
    return max(int(workers), 1)


def _run_serial(fn: Callable[[T], R], items: list[T]) -> list[R]:
    """In-process execution; a raising task names its index."""
    results: list[R] = []
    for index, item in enumerate(items):
        # In-process tasks inherit the ambient telemetry context, so each
        # gets a real child span; pool workers run detached (no-op).
        with obs_span("parallel.task", child_key=str(index), index=index):
            try:
                results.append(fn(item))
            except Exception as exc:
                error = TaskFailedError(index, f"{type(exc).__name__}: {exc}")
                raise error from exc
    return results


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 workers: int | None = None) -> list[R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Results are returned in input order.  ``fn`` and the items must be
    picklable when ``workers >= 2`` (module-level functions, bound
    methods of picklable objects, or ``functools.partial`` of either).
    See the module docstring for the failure and fallback rules.
    """
    items = list(items)
    count = effective_workers(workers)
    with obs_span("parallel.map", tasks=len(items), workers=count):
        if count <= 1 or len(items) <= 1:
            return _run_serial(fn, items)
        return _pool_map(fn, items, count)


def _pool_map(fn: Callable[[T], R], items: list[T], count: int) -> list[R]:
    # Four chunks per worker; callers that order their tasks by cost
    # (longest first) rely on this chunking to finish together.
    chunksize = max(1, len(items) // (4 * count))
    try:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(count, len(items))) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))
    except Exception:
        # Either the pool failed (no multiprocessing support, sandbox
        # without semaphores, OOM-killed worker) or a task raised and pool.map
        # cannot say which.  The tasks are pure, so a serial rerun is
        # bit-identical, and a task that fails again there gets its
        # index attached to the TaskFailedError.
        return _run_serial(fn, items)
