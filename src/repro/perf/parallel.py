"""Process-parallel map with a deterministic seeding discipline.

The offline stages (truck-day simulation, raw-trajectory processing,
candidate featurization) are embarrassingly parallel: each task is a pure
function of its inputs, or — for the simulator — of its inputs plus a
random stream.  Two rules make them safe to parallelize:

1. **Order is part of the contract.**  ``parallel_map`` always returns
   results in input order, regardless of completion order.
2. **Randomness is keyed by task, never by schedule.**  A stochastic task
   never shares a generator with its siblings; it derives its own stream
   from ``(seed, task_index)`` via :func:`spawn_rng`, so the output is a
   function of the seed and the task's position — bit-for-bit identical
   whether the map runs serially, with 2 workers, or with 32.

``workers=None`` / ``0`` / ``1`` run serially in-process (the default —
reproducible, no pickling, no pool startup).  ``workers >= 2`` uses a
``ProcessPoolExecutor``; if the platform refuses to give us a pool (no
fork support, sandboxed semaphores, dead workers), the map degrades to
serial execution instead of crashing — the results are identical by rule
2, only slower.

**Failure semantics** are identical on every path: a task that raises
surfaces as :class:`~repro.errors.TaskFailedError` carrying the failing
item's index, with the original exception chained.  Passing a
:class:`~repro.supervise.RetryPolicy` turns the map *supervised*:
crashed tasks are retried up to the attempt budget, attempts that
exceed the policy's ``timeout_s`` are abandoned (hung worker), and any
task the pool cannot complete is re-executed serially in the parent —
order and determinism preserved by rule 2 — before the map gives up.

Chaos (:mod:`repro.chaos`) instruments dispatch at fault site
``"parallel.task"``: decisions are drawn *in the parent*, keyed by task
index so the ledger is schedule-independent, and applied wherever the
task runs — ``crash`` raises, ``hang`` sleeps ``param`` seconds,
``wrong`` returns :data:`CHAOS_WRONG_RESULT` (catchable only via the
``verify`` callback — silent corruption is the failure mode it models).
A decision is drawn once per task, so the retry / serial re-execution
path runs the task clean: exactly the recovery being tested.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, TypeVar

import numpy as np

from ..chaos.core import Fault, chaos_point
from ..errors import TaskFailedError
from ..obs.core import obs_span

__all__ = ["spawn_rng", "parallel_map", "effective_workers",
           "CHAOS_WRONG_RESULT"]

T = TypeVar("T")
R = TypeVar("R")

#: Sentinel returned by a task hit with a ``wrong``-kind chaos fault.
CHAOS_WRONG_RESULT = "__repro_chaos_wrong_result__"


def spawn_rng(seed: int, index: int) -> np.random.Generator:
    """An independent generator for task ``index`` of a seeded stage.

    Uses :class:`numpy.random.SeedSequence` spawn keys, the supported way
    to derive statistically independent child streams: the stream depends
    only on ``(seed, index)``, never on how many sibling tasks exist or
    which worker runs them.
    """
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(index,)))


def effective_workers(workers: int | None) -> int:
    """Normalize a worker-count request to an actual process count.

    ``None``/``0``/``1`` mean serial; negative values mean "one per CPU".
    """
    if workers is None:
        return 1
    if workers < 0:
        return max(os.cpu_count() or 1, 1)
    return max(int(workers), 1)


class _InjectedWorkerCrash(RuntimeError):
    """Raised inside a task hit by a ``crash`` chaos fault."""


class _ChaoticTask:
    """Apply a parent-drawn chaos decision around one task call.

    Picklable (function + frozen Fault), so the decision made in the
    parent is enforced wherever the task runs.
    """

    def __init__(self, fn: Callable, fault: Fault) -> None:
        self.fn = fn
        self.fault = fault

    def __call__(self, item):
        fault = self.fault
        if fault.kind == "crash":
            raise _InjectedWorkerCrash(
                f"chaos: injected worker crash (seq {fault.seq})")
        if fault.kind == "hang":
            time.sleep(fault.param if fault.param is not None else 0.25)
        elif fault.kind == "wrong":
            return CHAOS_WRONG_RESULT
        return self.fn(item)


def _clean(call: Callable) -> Callable:
    """The fault-free form of a dispatched call (for recovery paths)."""
    return call.fn if isinstance(call, _ChaoticTask) else call


def _dispatch_plan(fn: Callable[[T], R],
                   count: int) -> list[Callable[[T], R]]:
    """Per-item callables with chaos decisions pre-drawn in the parent."""
    calls: list[Callable[[T], R]] = []
    for index in range(count):
        fault = chaos_point("parallel.task", key=str(index))
        calls.append(fn if fault is None else _ChaoticTask(fn, fault))
    return calls


def _fail(index: int, exc: BaseException) -> TaskFailedError:
    error = TaskFailedError(index, f"{type(exc).__name__}: {exc}")
    error.__cause__ = exc
    return error


def _bump(counters: dict | None, key: str, by: int = 1) -> None:
    if counters is not None:
        counters[key] = counters.get(key, 0) + by


def _run_serial(calls: list[Callable[[T], R]], items: list[T],
                retry=None, verify=None,
                counters: dict | None = None) -> list[R]:
    """In-process execution with the shared failure/retry semantics."""
    results: list[R] = []
    for index, (call, item) in enumerate(zip(calls, items)):
        attempts = 1 if retry is None else retry.max_attempts
        failure: BaseException | None = None
        # In-process tasks inherit the ambient telemetry context, so each
        # gets a real child span; pool workers run detached (no-op).
        with obs_span("parallel.task", child_key=str(index), index=index):
            for attempt in range(attempts):
                # The drawn chaos fault applies to the first attempt only;
                # retries run the task clean (recovery under test).
                run = call if attempt == 0 else _clean(call)
                if attempt > 0:
                    _bump(counters, "retries")
                try:
                    value = run(item)
                except Exception as exc:
                    failure = exc
                    continue
                if verify is not None and not verify(value):
                    failure = ValueError("result rejected by verify()")
                    continue
                failure = None
                results.append(value)
                break
            if failure is not None:
                raise _fail(index, failure) from failure
    return results


def _run_task_remote(call: Callable, item):
    """Module-level worker entry (picklable) for the supervised pool."""
    return call(item)


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 workers: int | None = None,
                 chunksize: int | None = None,
                 retry=None,
                 verify: Callable[[R], bool] | None = None,
                 counters: dict | None = None) -> list[R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Results are returned in input order.  ``fn`` and the items must be
    picklable when ``workers >= 2`` (module-level functions, bound
    methods of picklable objects, or ``functools.partial`` of either).
    A task that raises surfaces as :class:`~repro.errors.TaskFailedError`
    with the failing item's index attached, identically on the serial
    and pool paths; *pool-level* failures (platform refuses to fork,
    workers killed by the OS) fall back to computing serially, because
    every task is pure or deterministically seeded — see the module
    docstring.

    ``retry`` (a :class:`~repro.supervise.RetryPolicy`) enables
    supervision: per-task resubmission on crash, abandonment of attempts
    exceeding ``retry.timeout_s``, and a final serial re-execution in
    the parent before a task is declared failed.  ``verify`` rejects
    wrong results (``False`` → treated as a task failure); ``counters``
    (any dict) accumulates ``retries`` / ``timeouts`` /
    ``serial_fallbacks`` / ``pool_failures`` for recovery ledgers.
    """
    items = list(items)
    count = effective_workers(workers)
    with obs_span("parallel.map", tasks=len(items), workers=count):
        return _map_impl(fn, items, count, chunksize, retry, verify,
                         counters)


def _map_impl(fn, items, count, chunksize, retry, verify,
              counters) -> list:
    calls = _dispatch_plan(fn, len(items))
    chaotic = any(isinstance(call, _ChaoticTask) for call in calls)
    if count <= 1 or len(items) <= 1:
        return _run_serial(calls, items, retry=retry, verify=verify,
                           counters=counters)
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:                                 # pragma: no cover
        return _run_serial(calls, items, retry=retry, verify=verify,
                           counters=counters)
    if retry is not None:
        return _supervised_pool_map(calls, items, count, retry, verify,
                                    counters, ProcessPoolExecutor,
                                    BrokenProcessPool)
    if chunksize is None:
        chunksize = max(1, len(items) // (4 * count))
    try:
        with ProcessPoolExecutor(max_workers=min(count, len(items))) as pool:
            if chaotic:
                # Rare (chaos installed): ship each pre-drawn decision.
                raw = pool.map(_run_task_remote, calls, items,
                               chunksize=chunksize)
            else:
                raw = pool.map(fn, items, chunksize=chunksize)
            results = list(raw)
    except (OSError, PermissionError, BrokenProcessPool):
        # The pool itself failed (sandbox without semaphores, OOM-killed
        # worker, missing fork support).  The tasks are schedule-
        # independent by contract, so a serial rerun is bit-identical.
        _bump(counters, "pool_failures")
        return _run_serial(calls, items, verify=verify,
                           counters=counters)
    except Exception:
        # A task raised.  pool.map cannot say which, so re-run serially:
        # the tasks are deterministic, so the same input fails again and
        # the serial path attaches its index to the TaskFailedError.
        return _run_serial(calls, items, verify=verify,
                           counters=counters)
    if verify is not None:
        for index, value in enumerate(results):
            if not verify(value):
                raise _fail(index, ValueError(
                    "result rejected by verify()"))
    return results


def _supervised_pool_map(calls, items, count, retry, verify, counters,
                         pool_cls, broken_pool_exc) -> list:
    """Submit per task, enforce timeouts, retry, fall back serially."""
    from concurrent.futures import TimeoutError as FutureTimeout
    results: list = [None] * len(items)
    needs_serial: list[int] = []
    try:
        pool = pool_cls(max_workers=min(count, len(items)))
    except (OSError, PermissionError):
        _bump(counters, "pool_failures")
        return _run_serial(calls, items, retry=retry, verify=verify,
                           counters=counters)
    try:
        active = {index: (pool.submit(_run_task_remote, calls[index],
                                      items[index]), 1)
                  for index in range(len(items))}
        while active:
            pool_broken = False
            for index in sorted(active):
                future, attempt = active.pop(index)
                failed = False
                try:
                    value = future.result(timeout=retry.timeout_s)
                except FutureTimeout:
                    _bump(counters, "timeouts")
                    future.cancel()
                    failed = True
                except broken_pool_exc:
                    pool_broken = True
                    needs_serial.append(index)
                    continue
                except Exception:
                    failed = True    # the task crashed in the worker
                if not failed and verify is not None \
                        and not verify(value):
                    failed = True
                if not failed:
                    results[index] = value
                    continue
                if pool_broken:
                    needs_serial.append(index)
                elif attempt < retry.max_attempts:
                    _bump(counters, "retries")
                    # Retries run the task clean: the drawn chaos fault
                    # fired on the first attempt (see _ChaoticTask).
                    active[index] = (
                        pool.submit(_run_task_remote, _clean(calls[index]),
                                    items[index]), attempt + 1)
                else:
                    needs_serial.append(index)
            if pool_broken:
                _bump(counters, "pool_failures")
                needs_serial.extend(active)
                active.clear()
    finally:
        # A hung worker's injected sleep is bounded (see _ChaoticTask);
        # wait=False returns now and the interpreter reaps at exit.
        pool.shutdown(wait=False, cancel_futures=True)
    for index in sorted(set(needs_serial)):
        _bump(counters, "serial_fallbacks")
        try:
            value = _clean(calls[index])(items[index])
        except Exception as exc:
            raise _fail(index, exc) from exc
        if verify is not None and not verify(value):
            raise _fail(index, ValueError(
                "result rejected by verify() after serial re-execution"))
        results[index] = value
    return results
