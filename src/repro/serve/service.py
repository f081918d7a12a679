"""The sharded fleet service frontend.

``FleetService`` places every truck on one of N shards with
:func:`~repro.serve.routing.shard_for` and drives each shard — a
:class:`~repro.stream.FleetSessionManager` plus a detector replica —
through the tiny command protocol of :mod:`repro.serve.worker`.  The
backend only picks each shard's worker transport: ``process`` forks a
worker at the far end of a :class:`~repro.serve.worker.SocketChannel`
(one socket pair carrying length-prefixed pickle frames, written and
read on the caller's thread), ``inline`` keeps an
:class:`~repro.serve.worker.InlineWorker` in-process (deterministic
tests, constrained sandboxes, and the degraded mode a process shard
falls into when its restart breaker opens).  Both offer one surface,
so sending, reply handling, barriers and recovery are one path.

**Convergence contract.**  A truck's final verdict is a pure function
of its ordered ping sequence: routing pins each truck to one shard, the
shard's byte stream and single-threaded worker preserve submission
order, and ``flush`` recomputes from the session's final state — so an
N-shard drain equals a serial ``FleetSessionManager`` replay
verdict-for-verdict (same pair, same provenance tier, probabilities
allclose), shard count and interleaving notwithstanding.

**Restart protocol (journal + barrier).**  The frontend journals every
mutating command (``ingest``/``flush``/``drain``) per shard.  With a
``checkpoint_dir``, every ``checkpoint_every`` mutations it asks the
worker for a *barrier*: ``checkpoint_all`` snapshots every known
session into a fresh ``shard-<i>/barrier-<seq>`` directory (resident
sessions written from live state, evicted sessions' spill files copied
verbatim — exact, since evicted sessions receive no pings).  When the
barrier acks, the journal is truncated to entries after it; an
acknowledged ``drain`` does the same as an empty barrier, with or
without a ``checkpoint_dir``, since it leaves no session behind.  A dead or
hung worker is then recovered by wiping the shard's live sessions
directory, copying the barrier in, starting a fresh manager
(``adopt_spills`` re-registers never-re-touched trucks) and replaying
the journal suffix — every command applied exactly once against
barrier state, so recovery converges bit-for-bit with an undisturbed
run.  A worker is dead when its socket reads EOF or a reset, or
refuses a send; it is hung when it sends no reply, or takes no byte of
a command, for ``response_timeout_s``.  Each restart is a failure on
the shard's :class:`~repro.supervise.CircuitBreaker` and each
acknowledged reply a success, so only consecutive deaths with no
acknowledged reply between them trip it.  An open breaker degrades a
process shard to an inline worker; the degraded shard asks the breaker
once per command it is sent, and the admitted probe restarts it into a
worker.

**Admission control.**  A shard with ``queue_high_water`` un-acked
commands rejects new pings — they come back in the
:class:`SubmitResult` with a backpressure reason instead of queueing
without bound.

Chaos site ``serve.worker`` (keyed by shard index) injects ``kill``
(the frontend SIGKILLs the worker), ``crash`` (the worker hard-exits
before applying the batch) and ``hang`` (the worker stalls past the
response timeout); an inline worker dies before the batch on any of
the three.  All funnel into the same restart path.

All public methods take keyword-only options — the serve surface is
keyword-only from day one.
"""

from __future__ import annotations

import multiprocessing as mp
import shutil
import socket
import warnings
import weakref
from dataclasses import dataclass, replace
from pathlib import Path

from ..chaos.core import chaos_point
from ..obs.core import obs_event, obs_span
from ..stream.verdict import ProvisionalVerdict
from ..supervise import CircuitBreaker
from .config import ServeConfig
from .routing import shard_for
from .worker import (InlineWorker, SocketChannel, blas_pin_available,
                     worker_main)

__all__ = ["FleetService", "ServeCounters", "ServeError", "SubmitResult"]

#: Command kinds the frontend journals (and therefore replays).
_JOURNALED = frozenset({"ingest", "flush", "drain"})

#: Consecutive restart failures that trip a shard's breaker, and how
#: many commands a degraded (inline) shard is sent before its probe.
SHARD_BREAKER_FAILURES = 3
SHARD_BREAKER_COOLDOWN = 8

#: Every frontend socket end open in this process.  A forked worker
#: closes all of them, or a dead frontend would never reach it as EOF.
_FRONTEND_ENDS: weakref.WeakSet = weakref.WeakSet()


class ServeError(RuntimeError):
    """A shard reported a command failure, or the service is closed."""


@dataclass(frozen=True)
class SubmitResult:
    """What one ``submit`` call did with its pings."""

    accepted: int
    rejected: int
    #: The rejected pings in normalized ``(truck_id, day, lat, lng, t)``
    #: tuple form, in input order — feed them straight back to
    #: ``submit()`` once the overloaded shards drain.
    rejected_pings: tuple = ()
    #: One backpressure reason per rejecting shard.
    reasons: tuple[str, ...] = ()


@dataclass
class ServeCounters:
    """Frontend-level counters (per-shard stats live in the workers)."""

    submitted_pings: int = 0
    accepted_pings: int = 0
    rejected_pings: int = 0
    restarts: int = 0
    degraded_shards: int = 0
    barriers: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class _Shard:
    """Frontend-side state of one shard and its worker transport."""

    def __init__(self, index: int, fleet_config) -> None:
        self.index = index
        self.fleet_config = fleet_config
        self.mode: str = "unstarted"        # "process" | "inline"
        self.degraded = False               # process backend run inline
        # A forked worker and its socket end, or one InlineWorker in both.
        self.process = None
        self.channel = None
        self.manager = None
        self.seq = 0                        # next command seq
        self.inflight = 0                   # sent, not yet acked
        self.interest: set[int] = set()     # seqs someone will await
        self.results: dict[int, tuple] = {}
        self.journal: list[tuple[int, tuple]] = []
        self.mutations = 0                  # since the last barrier
        self.barrier_seq = -1
        self.barrier_dir: Path | None = None
        self.pending_barrier: tuple[int, Path] | None = None
        self.breaker = CircuitBreaker(
            f"serve-shard-{index}", SHARD_BREAKER_FAILURES,
            SHARD_BREAKER_COOLDOWN)

    def next_seq(self) -> int:
        seq = self.seq
        self.seq += 1
        return seq

    def advance_barrier(self, seq: int, directory: Path | None) -> None:
        """Make ``directory`` (None: an empty manager) the state at
        ``seq``: recovery replays only the journal after it."""
        previous = self.barrier_dir
        self.barrier_seq = seq
        self.barrier_dir = directory
        self.journal = [(s, c) for s, c in self.journal if s > seq]
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)


class FleetService:
    """N-shard fleet frontend: ``submit`` / ``flush`` / ``drain`` / ``stats``."""

    def __init__(self, detector=None, *,
                 config: ServeConfig | None = None) -> None:
        self.detector = detector
        self.config = config or ServeConfig()
        self.counters = ServeCounters()
        self._ctx = mp.get_context("fork")
        self._closed = False
        # Routing memo: shard_for() is a pure function of the truck id,
        # so one blake2b per *truck* (not per ping) is enough.
        self._routes: dict[str, int] = {}
        root = self.config.checkpoint_dir
        self._root = Path(root) if root is not None else None
        self._shards = [self._build_shard(i)
                        for i in range(self.config.num_shards)]
        if self.config.backend == "process" and not blas_pin_available():
            obs_event("serve.blas_unpinned",
                      reason="no scipy-openblas thread setter in numpy; "
                             "workers keep the default BLAS threads")
        for shard in self._shards:
            self._start_shard(shard)

    # ------------------------------------------------------------------
    # Shard lifecycle
    # ------------------------------------------------------------------
    def _sessions_dir(self, index: int) -> Path | None:
        if self._root is None:
            return None
        return self._root / f"shard-{index}" / "sessions"

    def _build_shard(self, index: int) -> _Shard:
        fleet = self.config.fleet
        sessions = self._sessions_dir(index)
        if sessions is not None:
            fleet = replace(fleet, checkpoint_dir=str(sessions))
        if fleet.quarantine_dir is not None:
            fleet = replace(fleet, quarantine_dir=str(
                Path(fleet.quarantine_dir) / f"shard-{index}"))
        return _Shard(index, fleet)

    def _start_shard(self, shard: _Shard) -> None:
        """(Re)start one shard's worker: the backend's transport, but
        inline (degraded) while a process shard's breaker is open."""
        if self.config.backend == "process" \
                and shard.breaker.state != "open":
            ours, theirs = socket.socketpair()
            _FRONTEND_ENDS.add(ours)
            shard.channel = SocketChannel(ours)
            shard.process = self._ctx.Process(
                target=worker_main,
                args=(shard.index, self.detector, shard.fleet_config,
                      SocketChannel(theirs, tuple(_FRONTEND_ENDS))),
                daemon=True)
            shard.process.start()
            theirs.close()
            shard.manager = None
            shard.mode = "process"
        else:
            worker = InlineWorker(self.detector, shard.fleet_config)
            shard.process = shard.channel = worker
            shard.manager = worker.manager
            shard.mode = "inline"
        degraded = shard.mode != self.config.backend
        if degraded and not shard.degraded:
            self.counters.degraded_shards += 1
            obs_event("serve.shard_degraded", shard=shard.index,
                      reason="restart breaker open; running inline")
        shard.degraded = degraded
        shard.inflight = 0

    def _restart_shard(self, shard: _Shard, reason: str, *,
                       failed: bool = True) -> None:
        """Rebuild a shard from its last barrier and replay its journal.

        ``failed=False`` is the breaker's probe: nothing died.
        """
        with obs_span("serve.restart", shard=shard.index, reason=reason):
            while True:
                self.counters.restarts += 1
                if failed:
                    shard.breaker.record_failure()
                failed = True
                obs_event("serve.shard_restart", shard=shard.index,
                          reason=reason, journal=len(shard.journal),
                          barrier_seq=shard.barrier_seq)
                self._teardown(shard)
                self._rebuild_dirs(shard)
                self._start_shard(shard)
                if self._replay(shard):
                    return
                reason = "worker died or hung during journal replay"

    def _teardown(self, shard: _Shard) -> None:
        """Stop a shard's worker and close its socket end.

        Whatever was still in flight on the socket is dropped with it:
        the journal replays every mutation into the new worker.
        """
        if shard.process.is_alive():
            shard.process.kill()
        shard.process.join(timeout=5.0)
        shard.channel.close()
        if shard.pending_barrier is not None:
            shutil.rmtree(shard.pending_barrier[1], ignore_errors=True)
            shard.pending_barrier = None

    def _rebuild_dirs(self, shard: _Shard) -> None:
        """Reset the live sessions dir to the last barrier snapshot."""
        sessions = self._sessions_dir(shard.index)
        if sessions is None:
            return
        shutil.rmtree(sessions, ignore_errors=True)
        sessions.mkdir(parents=True, exist_ok=True)
        if shard.barrier_dir is not None and shard.barrier_dir.exists():
            for spill in sorted(shard.barrier_dir.glob("*.json")):
                shutil.copy(spill, sessions / spill.name)

    def _replay(self, shard: _Shard) -> bool:
        """Re-send the journal suffix to a fresh worker; False if it
        died or hung.  Replies already in are read."""
        for _seq, command in shard.journal:
            if self._deliver(shard, command) is not None:
                return False
        return self._pump(shard)

    # ------------------------------------------------------------------
    # Command plumbing
    # ------------------------------------------------------------------
    def _handle_response(self, shard: _Shard, item: tuple) -> None:
        """The one reply handler: ack, breaker success, barrier, result."""
        seq, status, payload = item
        shard.inflight = max(0, shard.inflight - 1)
        if status == "ok" and not shard.degraded:
            shard.breaker.record_success()
        if shard.pending_barrier is not None \
                and seq == shard.pending_barrier[0]:
            self._finish_barrier(shard, status == "ok")
        elif seq in shard.interest:
            shard.results[seq] = (status, payload)

    def _pump(self, shard: _Shard) -> bool:
        """Handle every reply already in, without blocking; False once
        the worker is gone."""
        try:
            while (item := shard.channel.recv(0)) is not None:
                self._handle_response(shard, item)
        except EOFError:
            return False
        return True

    def _finish_barrier(self, shard: _Shard, ok: bool) -> None:
        seq, directory = shard.pending_barrier
        shard.pending_barrier = None
        if not ok:
            shutil.rmtree(directory, ignore_errors=True)
            warnings.warn(
                f"serve shard {shard.index} barrier {seq} failed; "
                "keeping the previous snapshot", RuntimeWarning,
                stacklevel=4)
            return
        shard.advance_barrier(seq, directory)
        self.counters.barriers += 1

    def _maybe_barrier(self, shard: _Shard) -> None:
        if (self._root is None or shard.pending_barrier is not None
                or shard.mutations < self.config.checkpoint_every):
            return
        shard.mutations = 0
        seq = shard.next_seq()
        directory = self._root / f"shard-{shard.index}" / f"barrier-{seq}"
        shard.pending_barrier = (seq, directory)
        self._put(shard, ("barrier", seq, str(directory)))

    def _deliver(self, shard: _Shard, message: tuple) -> str | None:
        """The one send, bounded by ``response_timeout_s``.

        Returns None once the command is on its way, else why the
        worker cannot take it.
        """
        try:
            shard.channel.send(message, self.config.response_timeout_s)
        except TimeoutError:
            return "worker hung (send timeout)"
        except OSError:
            return "worker died before send"
        shard.inflight += 1
        return None

    def _put(self, shard: _Shard, message: tuple) -> None:
        """Hand one command to the shard's worker and count it in flight.

        A worker that cannot take it gets the normal restart.  The
        restart's journal replay has then already re-sent a journaled
        command, and it discarded any pending barrier, so neither is
        sent again: a second copy would apply the same pings twice.
        """
        while (reason := self._deliver(shard, message)) is not None:
            self._restart_shard(shard, reason)
            if message[0] in _JOURNALED or message[0] == "barrier":
                return

    def _send(self, shard: _Shard, command: tuple, *, fault=None,
              interest: bool = False) -> None:
        """Dispatch one command (journaling and chaos already decided).

        A degraded shard asks its breaker first; the admitted probe
        restarts it into a worker.  A drawn ``fault`` rides in the sent
        ingest only, never in the journal the replay reads.
        """
        if shard.degraded and shard.breaker.allow():
            self._pump(shard)   # the live inline worker's last replies
            self._restart_shard(shard, "breaker probe", failed=False)
        if interest:
            shard.interest.add(command[1])
        if command[0] in _JOURNALED:
            shard.journal.append((command[1], command))
            shard.mutations += 1
        if fault is None:
            self._put(shard, command)
        else:
            self._put(shard, (*command[:3], fault))
            if fault.kind == "kill":
                if shard.process.is_alive():
                    shard.process.kill()
                self._restart_shard(shard, "chaos:kill")
        self._maybe_barrier(shard)

    def _collect(self, shard: _Shard, command: tuple | None = None) -> None:
        """The one collect loop: read replies until ``command``'s is in.

        Without a ``command`` it reads until nothing is in flight.  A
        dead worker, or one silent for ``response_timeout_s``, is
        restarted; the journal replay re-sends every journaled command,
        so only an unjournaled ``command`` is sent again.
        """
        timeout = self.config.response_timeout_s
        while (shard.inflight > 0 if command is None
               else command[1] not in shard.results):
            try:
                item = shard.channel.recv(timeout)
            except EOFError:
                reason = "worker died"
            else:
                if item is not None:
                    self._handle_response(shard, item)
                    continue
                reason = "worker hung (response timeout)"
            self._restart_shard(shard, reason)
            if command is not None and command[0] not in _JOURNALED:
                self._put(shard, command)

    def _await(self, shard: _Shard, command: tuple):
        """Block until ``command``'s response arrives; recover en route."""
        self._collect(shard, command)
        seq = command[1]
        shard.interest.discard(seq)
        status, payload = shard.results.pop(seq)
        if status == "error":
            raise ServeError(
                f"shard {shard.index} failed {command[0]!r}: {payload}")
        return payload

    # ------------------------------------------------------------------
    # Public surface (keyword-only from day one)
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ServeError("service is closed")

    def submit(self, pings) -> SubmitResult:
        """Route a batch of pings to their shards (pipelined, non-blocking).

        ``pings`` is an iterable of :class:`~repro.stream.Ping` objects
        or ``(truck_id, day, lat, lng, t)`` tuples.  Pings bound for a
        shard over its high-water mark are *rejected*, not queued:
        they come back in the result for the caller to retry.
        """
        self._check_open()
        pings = list(pings)
        with obs_span("serve.submit", pings=len(pings)):
            routes = self._routes
            num_shards = self.config.num_shards
            # Per shard: (truck_id, day) -> columnar (lats, lngs, ts)
            # lists, each truck's pings in submission order; a worker
            # hands each group to its session with one lookup.
            by_shard: dict[int, dict] = {}
            # (truck_id, day) -> bound column appenders.  Routing and
            # group setup run once per truck-day; the per-ping body is
            # one dict probe and three appends.
            appenders: dict = {}
            for ping in pings:
                if not isinstance(ping, tuple):
                    ping = (ping.truck_id, ping.day, ping.lat,
                            ping.lng, ping.t)
                key = ping[:2]
                adders = appenders.get(key)
                if adders is None:
                    truck_id = ping[0]
                    index = routes.get(truck_id)
                    if index is None:
                        index = routes[truck_id] = shard_for(
                            truck_id, num_shards)
                    groups = by_shard.get(index)
                    if groups is None:
                        groups = by_shard[index] = {}
                    rows = groups[key] = ([], [], [])
                    adders = appenders[key] = (
                        rows[0].append, rows[1].append, rows[2].append)
                adders[0](ping[2])
                adders[1](ping[3])
                adders[2](ping[4])
            accepted = 0
            rejected: list = []
            reasons: list[str] = []
            for index in sorted(by_shard):
                shard = self._shards[index]
                if not self._pump(shard):
                    self._restart_shard(shard, "worker died")
                batch = by_shard[index]
                size = sum(len(rows[2]) for rows in batch.values())
                if shard.inflight >= self.config.queue_high_water:
                    for (truck_id, day), (lats, lngs, ts) in batch.items():
                        rejected.extend(
                            (truck_id, day, lats[i], lngs[i], ts[i])
                            for i in range(len(ts)))
                    reason = (f"backpressure: shard {index} has "
                              f"{shard.inflight} un-acked commands "
                              f"(high water "
                              f"{self.config.queue_high_water})")
                    reasons.append(reason)
                    obs_event("serve.backpressure", shard=index,
                              inflight=shard.inflight,
                              rejected=size)
                    continue
                seq = shard.next_seq()
                fault = chaos_point("serve.worker", key=str(index))
                # The column lists cross the socket as built: a window's
                # groups hold a few pings each, and a few-float list
                # pickles far faster than an ndarray.
                self._send(shard, ("ingest", seq, batch, None),
                           fault=fault)
                accepted += size
            self.counters.submitted_pings += len(pings)
            self.counters.accepted_pings += accepted
            self.counters.rejected_pings += len(rejected)
        return SubmitResult(accepted=accepted, rejected=len(rejected),
                            rejected_pings=tuple(rejected),
                            reasons=tuple(reasons))

    def flush(self, truck_id: str, *, day: str = "") -> ProvisionalVerdict:
        """Finalize one truck-day on its shard; returns the final verdict."""
        self._check_open()
        shard = self._shards[shard_for(truck_id, self.config.num_shards)]
        command = ("flush", shard.next_seq(), truck_id, day)
        self._send(shard, command, interest=True)
        return self._await(shard, command)

    def tick(self) -> list[ProvisionalVerdict]:
        """One provisional-detection tick on every shard, merged."""
        self._check_open()
        commands = []
        for shard in self._shards:
            command = ("tick", shard.next_seq())
            self._send(shard, command, interest=True)
            commands.append((shard, command))
        verdicts: list[ProvisionalVerdict] = []
        for shard, command in commands:
            verdicts.extend(self._await(shard, command))
        return sorted(verdicts, key=lambda v: (v.day, v.truck_id))

    def drain(self) -> list[ProvisionalVerdict]:
        """Flush every known session on every shard (end of day).

        Returns the merged final verdicts sorted by ``(day, truck_id)``
        — a deterministic order regardless of shard count.
        """
        self._check_open()
        with obs_span("serve.drain"):
            commands = []
            for shard in self._shards:
                command = ("drain", shard.next_seq())
                self._send(shard, command, interest=True)
                commands.append((shard, command))
            verdicts: list[ProvisionalVerdict] = []
            for shard, command in commands:
                verdicts.extend(self._await(shard, command))
                self._drained(shard, command[1])
        return sorted(verdicts, key=lambda v: (v.day, v.truck_id))

    def _drained(self, shard: _Shard, seq: int) -> None:
        """An acknowledged drain is an empty barrier.

        It finalized and dropped every session on the shard (spill files
        included), so a fresh manager is the shard's state at ``seq``.
        Without this, a service with no ``checkpoint_dir`` would journal
        every batch it was ever sent.
        """
        shard.advance_barrier(seq, None)
        shard.mutations = 0

    def wait(self) -> None:
        """Block until every submitted command has been acknowledged."""
        self._check_open()
        for shard in self._shards:
            self._collect(shard)

    def stats(self) -> dict:
        """Frontend counters plus every shard's manager stats."""
        self._check_open()
        shards: dict[str, dict] = {}
        commands = []
        for shard in self._shards:
            command = ("stats", shard.next_seq())
            self._send(shard, command, interest=True)
            commands.append((shard, command))
        for shard, command in commands:
            fleet_stats = self._await(shard, command)
            shards[str(shard.index)] = {
                "mode": shard.mode,
                "inflight": shard.inflight,
                "journal_entries": len(shard.journal),
                "barrier_seq": shard.barrier_seq,
                "breaker": shard.breaker.stats(),
                "fleet": fleet_stats,
            }
        return {
            "num_shards": self.config.num_shards,
            "backend": self.config.backend,
            "frontend": self.counters.as_dict(),
            "shards": shards,
        }

    def kill_worker(self, *, shard: int) -> bool:
        """SIGKILL one shard's worker process (ops drill / soak hook).

        The next interaction with the shard notices the corpse and runs
        the normal restart-and-replay recovery; an inline worker is
        killed the same way.  Returns False when the shard's worker is
        already dead.
        """
        target = self._shards[shard].process
        if target.is_alive():
            target.kill()
            return True
        return False

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker; the service rejects calls afterwards."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.channel.close()     # its worker reads EOF and exits
        for shard in self._shards:
            shard.process.join(timeout=2.0)
            self._teardown(shard)

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
