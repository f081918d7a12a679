"""Shard worker: one FleetSessionManager driven over a socket pair.

The wire protocol is deliberately tiny — plain tuples whose first two
elements are always ``(kind, seq)`` — and every command is answered by
:func:`reply`, which applies it with :func:`apply_command`.  A shard's
worker comes on one of two transports with one channel surface —
``send`` a command, ``recv`` replies, ``close`` — plus ``is_alive``,
``kill`` and ``join``: :func:`worker_main` in a forked process at the
far end of a :class:`SocketChannel` (one ``socket.socketpair()`` carrying
length-prefixed pickle frames), or an :class:`InlineWorker` in the
caller's process.  Both run *identical* code against the session
manager.

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
========================  ====================================================

A forked worker exits when its socket reads EOF: the frontend closed
its end, or died.

Per-truck ordering is structural: one byte stream, one single-threaded
consumer, and deterministic routing in the frontend mean a truck's
pings are applied in submission order, always on the same manager.
"""

from __future__ import annotations

import collections
import ctypes
import os
import pickle
import select
import socket
import struct
import time

from ..stream.fleet import FleetConfig, FleetSessionManager

__all__ = ["InlineWorker", "SocketChannel", "apply_command",
           "blas_pin_available", "pin_blas_threads", "reply", "worker_main"]

#: A frame is its pickle's byte length, then the pickle.
_HEADER = struct.Struct("!Q")
#: Bytes asked of one ``recv``; a shorter read means the socket is empty.
_CHUNK = 1 << 16
_INCOMPLETE = object()


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


class SocketChannel:
    """One end of a shard's socket pair: length-prefixed pickle frames.

    Both ends keep the socket non-blocking and wait in ``poll``.  A
    ``send`` that must wait for room also reads whatever the peer sent
    meanwhile, so the two ends can never both block writing.  The peer's
    exit shows as EOF (or a reset, when it died with input unread):
    ``recv`` raises :class:`EOFError` once every frame sent before it is
    read, and a later ``send`` raises :class:`BrokenPipeError`.
    """

    def __init__(self, sock: socket.socket, inherited=()) -> None:
        sock.setblocking(False)
        self.sock = sock
        #: Frontend ends open when the worker at this end forked; it
        #: closes them first, or the frontend's death never reaches it.
        self.inherited = tuple(inherited)
        self._inbox = bytearray()
        self._eof = False
        self._poll = select.poll()
        self._poll.register(sock, select.POLLIN)

    def send(self, message, timeout: float | None = None) -> None:
        """Write one frame; ``TimeoutError`` when the peer takes no byte
        of it for ``timeout`` seconds (None: wait for ever)."""
        data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        view = memoryview(_HEADER.pack(len(data)) + data)
        while view:
            try:
                view = view[self.sock.send(view):]
            except BlockingIOError:
                if not self._wait(select.POLLIN | select.POLLOUT, timeout):
                    raise TimeoutError(
                        f"peer took nothing for {timeout} s") from None
                self._read()

    def recv(self, timeout: float | None = None):
        """The next message, or None when none is complete within
        ``timeout`` seconds (0: only what is in, None: wait for ever)."""
        while True:
            message = self._pop()
            if message is not _INCOMPLETE:
                return message
            if self._eof:
                raise EOFError("the peer closed its end")
            if timeout == 0:
                if not self._read():
                    return None
            elif self._wait(select.POLLIN, timeout):
                self._read()
            else:
                return None

    def close(self) -> None:
        self.sock.close()

    def _wait(self, events: int, timeout: float | None) -> bool:
        self._poll.modify(self.sock, events)
        # poll takes at most INT_MAX ms (24.8 days); a longer timeout,
        # infinity included, waits that long.
        return bool(self._poll.poll(
            None if timeout is None else min(timeout * 1e3, 2**31 - 1)))

    def _read(self) -> bool:
        """Move every byte already sent into the inbox; False if none."""
        moved = False
        while not self._eof:
            try:
                chunk = self.sock.recv(_CHUNK)
            except BlockingIOError:
                break
            except ConnectionResetError:
                chunk = b""
            moved = True
            if not chunk:
                self._eof = True
            self._inbox += chunk
            if len(chunk) < _CHUNK:
                break
        return moved

    def _pop(self):
        inbox = self._inbox
        if len(inbox) < _HEADER.size:
            return _INCOMPLETE
        end = _HEADER.size + _HEADER.unpack_from(inbox)[0]
        if len(inbox) < end:
            return _INCOMPLETE
        message = pickle.loads(inbox[_HEADER.size:end])
        del inbox[:end]
        return message


def worker_main(shard_id: int, detector, fleet_config: FleetConfig,
                channel: SocketChannel) -> None:
    """Entry point of one forked shard worker process.

    Closes every frontend end it inherited at fork (its own shard's and
    every other shard's then open), so the frontend's exit reaches it
    as EOF; pins its BLAS to one thread (:func:`pin_blas_threads`);
    then answers commands with :func:`reply` until the frontend is gone.
    """
    for end in channel.inherited:
        end.close()
    pin_blas_threads()
    manager = FleetSessionManager(detector, fleet_config)
    manager.adopt_spills()
    try:
        while True:
            command = channel.recv()
            if command[0] == "ingest":
                _enforce_fault(command[3])
            channel.send(reply(manager, command))
    except (EOFError, ConnectionError):
        return


class InlineWorker:
    """A shard worker in the caller's process, on the forked one's surface.

    It is its own channel: ``send`` answers a command at once with
    :func:`reply`, queued for ``recv``; a chaos fault of any kind in an
    ``ingest`` kills it before the batch is applied.  A dead one refuses
    sends like a closed socket and reads as EOF once its replies are
    taken.  ``join`` and ``close`` have nothing to do in-process.
    """

    def __init__(self, detector, fleet_config: FleetConfig) -> None:
        self.manager = FleetSessionManager(detector, fleet_config)
        self.manager.adopt_spills()
        self._replies: collections.deque = collections.deque()
        self._alive = True

    def send(self, command: tuple, timeout: float | None = None) -> None:
        if not self._alive:
            raise BrokenPipeError("the inline worker is dead")
        if command[0] == "ingest" and command[3] is not None:
            self._alive = False
        else:
            self._replies.append(reply(self.manager, command))

    def recv(self, timeout: float | None = None):
        """Never blocks: each reply was queued by the ``send`` it answers."""
        if self._replies:
            return self._replies.popleft()
        if not self._alive:
            raise EOFError("the inline worker is dead")
        return None

    def is_alive(self) -> bool:
        return self._alive

    def kill(self) -> None:
        self._alive = False

    def join(self, timeout: float | None = None) -> None:
        """Nothing to reap: the worker is this process."""

    close = join
