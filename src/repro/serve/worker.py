"""Shard worker: one FleetSessionManager driven by a command queue.

The wire protocol is deliberately tiny — plain tuples whose first two
elements are always ``(kind, seq)`` — and every command is answered by
:func:`reply`, which applies it with :func:`apply_command`.  A shard's
worker comes on one of two transports with one surface — ``put`` a
command, read replies with ``get``/``get_nowait``, ``is_alive`` and
``kill``: :func:`worker_main` in a forked process behind a pair of
``multiprocessing`` queues, or an :class:`InlineWorker` in the caller's
process.  Both run *identical* code against the session manager.

Commands (responses are ``(seq, "ok", payload)`` or
``(seq, "error", message)``):

========================  ====================================================
``("ingest", seq, batch, fault)``  ``batch`` maps ``(truck_id, day)`` to
                          columnar ``(lats, lngs, ts)`` lists, each
                          truck's pings in submission order; ``fault``
                          is a parent-drawn :class:`~repro.chaos.Fault`
                          (or None) enforced *before* the batch is
                          applied, so a crashed worker never
                          half-applies it.
``("tick", seq)``         provisional verdicts for resident sessions.
``("flush", seq, truck_id, day)``  final verdict for one truck-day.
``("drain", seq)``        final verdicts for every known session.
``("stats", seq)``        the manager's ``stats()`` dict.
``("barrier", seq, dir)`` ``checkpoint_all`` into ``dir`` (restart protocol).
``("stop", seq)``         acknowledge and exit the loop.
========================  ====================================================

Per-truck ordering is structural: one FIFO queue, one single-threaded
consumer, and deterministic routing in the frontend mean a truck's
pings are applied in submission order, always on the same manager.
"""

from __future__ import annotations

import collections
import ctypes
import os
import queue
import time

from ..stream.fleet import FleetConfig, FleetSessionManager

__all__ = ["InlineWorker", "apply_command", "blas_pin_available",
           "pin_blas_threads", "reply", "worker_main"]


def _openblas_thread_setter():
    """numpy's bundled OpenBLAS ``set_num_threads``, or None.

    ``dlsym`` on the handle of numpy's core extension also searches the
    libraries it links, so the symbol resolves wherever the wheel keeps
    its scipy-openblas; any other BLAS (or numpy layout) yields None.
    """
    try:
        from numpy._core import _multiarray_umath as core
        return ctypes.CDLL(core.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None


def blas_pin_available() -> bool:
    """Whether :func:`pin_blas_threads` can take effect here."""
    return _openblas_thread_setter() is not None


def pin_blas_threads() -> None:
    """Run this process's BLAS on one thread (a no-op without a setter).

    A shard worker shares the host's cores with the frontend and its
    sibling shards, and its products are small: a thread pool of its
    own only adds wake-up latency after every idle gap.
    """
    setter = _openblas_thread_setter()
    if setter is not None:
        setter(1)


def apply_command(manager: FleetSessionManager, command: tuple):
    """Apply one protocol command to a shard's session manager."""
    kind = command[0]
    if kind == "ingest":
        # The frontend ships the batch pre-grouped by truck-day with
        # each truck's pings in submission order; sessions are
        # independent, so applying it group by group is per-ping
        # ingest in submission order.
        count = 0
        for (truck_id, day), (lats, lngs, ts) in command[2].items():
            manager.ingest_batch(truck_id, lats, lngs, ts, day=day)
            count += len(ts)
        return count
    if kind == "tick":
        return manager.tick()
    if kind == "flush":
        return manager.flush(command[2], day=command[3])
    if kind == "drain":
        return manager.flush_all()
    if kind == "stats":
        return manager.stats()
    if kind == "barrier":
        return manager.checkpoint_all(directory=command[2])
    raise ValueError(f"unknown serve command {kind!r}")


def reply(manager: FleetSessionManager, command: tuple) -> tuple:
    """Apply one command; ``(seq, "ok", payload)`` or ``(seq, "error", msg)``.

    The manager isolates input-dependent failures, so an escaping
    exception is a programming error: reported, not worth dying for.
    """
    try:
        return (command[1], "ok", apply_command(manager, command))
    except Exception as exc:   # noqa: BLE001 - report, don't die
        return (command[1], "error", f"{type(exc).__name__}: {exc}")


def _enforce_fault(fault) -> None:
    """Honor a parent-drawn chaos decision inside the worker.

    ``crash`` exits hard (no cleanup, mimicking SIGKILL/OOM); ``hang``
    stalls past the frontend's response timeout so the parent's
    hung-worker detection — not this sleep — decides the outcome;
    ``kill`` is the parent's own SIGKILL.
    """
    if fault is None:
        return
    if fault.kind == "crash":
        os._exit(3)
    if fault.kind == "hang":
        time.sleep(fault.param if fault.param is not None else 60.0)


def worker_main(shard_id: int, detector, fleet_config: FleetConfig,
                requests, responses) -> None:
    """Entry point of one forked shard worker process.

    Pins its BLAS to one thread first (:func:`pin_blas_threads`), then
    answers commands with :func:`reply` until ``stop``.
    """
    pin_blas_threads()
    manager = FleetSessionManager(detector, fleet_config)
    manager.adopt_spills()
    while True:
        command = requests.get()
        kind, seq = command[0], command[1]
        if kind == "stop":
            responses.put((seq, "ok", None))
            return
        if kind == "ingest":
            _enforce_fault(command[3])
        responses.put(reply(manager, command))


class InlineWorker:
    """A shard worker in the caller's process, on the forked one's surface.

    ``put`` answers a command at once with :func:`reply`, queued for
    ``get``/``get_nowait``; a chaos fault of any kind in an ``ingest``
    kills it before the batch is applied.  Teardown's ``join`` and
    ``cancel_join_thread``/``close`` have nothing to do in-process.
    """

    def __init__(self, detector, fleet_config: FleetConfig) -> None:
        self.manager = FleetSessionManager(detector, fleet_config)
        self.manager.adopt_spills()
        self._replies: collections.deque = collections.deque()
        self._alive = True

    def put(self, command: tuple, timeout: float | None = None) -> None:
        if command[0] == "stop":
            self._alive = False
            self._replies.append((command[1], "ok", None))
        elif command[0] == "ingest" and command[3] is not None:
            self._alive = False
        else:
            self._replies.append(reply(self.manager, command))

    def get_nowait(self) -> tuple:
        if not self._replies:
            raise queue.Empty
        return self._replies.popleft()

    def get(self, timeout: float | None = None) -> tuple:
        """Never blocks: each reply was queued by the ``put`` it answers."""
        return self.get_nowait()

    def is_alive(self) -> bool:
        return self._alive

    def kill(self) -> None:
        self._alive = False

    def join(self, timeout: float | None = None) -> None:
        """Nothing to reap: the worker is this process."""

    cancel_join_thread = close = join
