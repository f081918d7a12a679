"""Fleet-scale session multiplexing with bounded memory and fault isolation.

A regulator's feed interleaves pings from thousands of trucks; the
:class:`FleetSessionManager` owns one :class:`~repro.stream.TruckSession`
per ``(truck_id, day)`` and keeps the resident set bounded: least
recently active sessions are evicted, and — when a ``checkpoint_dir`` is
configured — written to disk through :mod:`repro.io`'s atomic writer so
the next ping for that truck restores them bit-for-bit.  Without a
checkpoint directory an evicted session is simply dropped (counted), and
a later ping starts a fresh session: degraded, never wrong about what it
has seen.

Detection runs on a *tick*: the manager snapshots every live session
whose detection input — closed stay-point count and sanitize notes,
:attr:`~repro.stream.TruckSession.detection_input` — changed since its
last verdict, hands the batch to the detector's degradation-aware
``detect_many`` (one fused pass over the whole fleet), and emits a
:class:`~repro.stream.ProvisionalVerdict` per session; every other
session is served its last verdict, which the same input would
reproduce.  Each session's :attr:`~repro.stream.TruckSession.encoding`
state goes along, so a tick encodes only what the session's newly
closed stay points add, and is replaced once the detection returned.
``flush`` finalizes a session (drains its reorder buffer, closes the
trailing stay-point run) and produces the *final* verdict —
the one that equals offline ``LEAD.detect`` on the completed trajectory.

**Supervision** (PR 6): the failure domain is one session, never the
fleet.  A session whose snapshot or detection keeps failing is retried
(:class:`~repro.supervise.RetryPolicy` semantics), then *quarantined* —
captured in a :class:`~repro.supervise.Quarantine` dead-letter store
with the triggering exception and its full replayable ``state()`` —
while every other truck's verdict proceeds.  A failing batched detector
pass falls back to per-session isolation; a *persistently* failing
detector trips a :class:`~repro.supervise.CircuitBreaker` so ticks stop
hammering it until a cooldown passes (final flushes always try — the
end-of-day verdict is the product).  Spill/restore IO failures degrade
(keep-resident, fresh-session) behind their own retry policy and
breaker instead of poisoning ``ingest``.  No exception escapes
``tick()`` / ``flush_all()`` for input-dependent failures; programming
errors (``config`` misuse) still raise.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from urllib.parse import quote, unquote

from ..chaos.core import InjectedFault, chaos_point
from ..configbase import ConfigMixin
from ..errors import ArtifactCorruptedError
from ..io import atomic_write_bytes, atomic_write_json, load_checked_json
from ..obs.core import obs_event, obs_timed
from ..processing import RawTrajectoryProcessor
from ..supervise import (CircuitBreaker, Quarantine, RetryCounters,
                         RetryPolicy)
from .session import SessionCounters, TruckSession
from .verdict import ProvisionalVerdict, confidence_tier

__all__ = ["FleetConfig", "FleetCounters", "FleetSessionManager"]

SessionKey = tuple[str, str]  # (truck_id, day)


def _default_io_retry() -> RetryPolicy:
    # Zero base backoff: the ingest path must not sleep; the retry is
    # for transient syscall failures, not remote services.
    return RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0)


#: Detection attempts per session before it is quarantined.
DETECT_ATTEMPTS = 2
#: Consecutive *batched* detector failures that trip the detector
#: breaker, and how many ticks it stays open before a probe.
DETECTOR_BREAKER_FAILURES = 3
DETECTOR_BREAKER_COOLDOWN = 2
#: Consecutive spill failures that trip the spill breaker (further
#: evictions then keep sessions resident without touching disk), and
#: how many spill attempts it stays open before a probe.
SPILL_BREAKER_FAILURES = 3
SPILL_BREAKER_COOLDOWN = 16


@dataclass
class FleetConfig(ConfigMixin):
    """Serving knobs of the fleet session manager."""

    #: Resident session bound; LRU sessions beyond it are evicted
    #: (checkpointed to disk when ``checkpoint_dir`` is set).
    max_sessions: int = 1024
    #: Per-session reorder tolerance (see processing.ReorderBuffer).
    reorder_capacity: int = 16
    #: Directory for evicted-session checkpoints; ``None`` disables
    #: persistence (evictions then lose state, counted).
    checkpoint_dir: str | Path | None = None
    #: Directory for the quarantine dead-letter store; ``None`` keeps
    #: the ledger in memory only.
    quarantine_dir: str | Path | None = None
    #: Retry policy for session spill/restore IO.
    io_retry: RetryPolicy = field(default_factory=_default_io_retry)

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.reorder_capacity < 1:
            raise ValueError("reorder_capacity must be >= 1")


@dataclass
class FleetCounters:
    """Manager-level counters (session counters aggregate separately)."""

    sessions_opened: int = 0
    sessions_restored: int = 0
    sessions_evicted: int = 0
    sessions_dropped: int = 0     # evicted with no checkpoint dir
    sessions_flushed: int = 0
    sessions_quarantined: int = 0
    ticks: int = 0
    verdicts_emitted: int = 0
    detect_calls: int = 0         # sessions actually re-detected
    detect_batch_failures: int = 0   # batched passes that fell back
    detect_retries: int = 0       # extra per-session attempts
    detect_skipped_breaker: int = 0  # sessions skipped: breaker open
    spill_failures: int = 0       # spill attempts that failed (kept)
    spill_skipped_breaker: int = 0   # spills not attempted: breaker open
    restore_failures: int = 0     # unreadable spills (fresh session)

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class FleetSessionManager:
    """Multiplex thousands of concurrent truck sessions.

    ``detector`` is anything exposing the :meth:`repro.pipeline.LEAD.
    detect_many` contract (and optionally ``processor`` /
    ``feature_cache``); pass ``None`` for an ingest-only manager (soak
    tests, pure extraction services) — ticks then report stay-point
    progress with ``confidence="none"``.
    """

    def __init__(self, detector=None, config: FleetConfig | None = None,
                 processor: RawTrajectoryProcessor | None = None) -> None:
        self.detector = detector
        self.config = config or FleetConfig()
        if processor is None:
            processor = getattr(detector, "processor", None) \
                or RawTrajectoryProcessor()
        self.processor = processor
        self.counters = FleetCounters()
        # The config's policy with this manager's own tally: managers
        # built from one config (serve shards) must not share counts.
        self.io_retry = replace(self.config.io_retry,
                                counters=RetryCounters())
        self.quarantine = Quarantine(self.config.quarantine_dir)
        self.detector_breaker = CircuitBreaker(
            "detector", DETECTOR_BREAKER_FAILURES, DETECTOR_BREAKER_COOLDOWN)
        self.spill_breaker = CircuitBreaker(
            "session-spill", SPILL_BREAKER_FAILURES, SPILL_BREAKER_COOLDOWN)
        self._sessions: OrderedDict[SessionKey, TruckSession] = OrderedDict()
        self._known: dict[SessionKey, None] = {}   # insertion-ordered set
        self._aggregate = SessionCounters()        # of flushed sessions
        self._tick_index = 0
        if self.config.checkpoint_dir is not None:
            Path(self.config.checkpoint_dir).mkdir(parents=True,
                                                   exist_ok=True)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Resident (in-memory) session count."""
        return len(self._sessions)

    @property
    def known_sessions(self) -> list[SessionKey]:
        """Every unflushed session key ever seen (resident or evicted)."""
        return list(self._known)

    @staticmethod
    def _chaos_key(session: TruckSession) -> str:
        return f"{session.truck_id}|{session.day}"

    @staticmethod
    def _spill_name(key: SessionKey) -> str:
        return quote(f"{key[0]}|{key[1]}", safe="") + ".json"

    def _checkpoint_path(self, key: SessionKey) -> Path | None:
        if self.config.checkpoint_dir is None:
            return None
        return Path(self.config.checkpoint_dir) / self._spill_name(key)

    def session(self, truck_id: str, day: str = "") -> TruckSession:
        """The resident session for a truck-day (restored or created)."""
        return self._session((truck_id, day))

    def _session(self, key: SessionKey) -> TruckSession:
        session = self._sessions.get(key)
        if session is not None:
            self._sessions.move_to_end(key)
            return session
        session = self._restore(key)
        if session is None:
            session = TruckSession(
                key[0], key[1], processor=self.processor,
                reorder_capacity=self.config.reorder_capacity)
            self.counters.sessions_opened += 1
        self._sessions[key] = session
        self._known[key] = None
        self._evict_over_capacity()
        return session

    def _restore(self, key: SessionKey) -> TruckSession | None:
        """Restore an evicted session; degrade to fresh on bad spills.

        Transient read failures are retried under :attr:`io_retry`;
        a spill that stays unreadable (or will not parse back into a
        session) is quarantined with the path for forensics, deleted,
        and the truck restarts from a fresh session — degraded and
        counted, never raised into ``ingest``.
        """
        path = self._checkpoint_path(key)
        if path is None or not path.exists():
            return None
        try:
            state = self.io_retry.call(load_checked_json, path)
            session = TruckSession.from_state(state,
                                              processor=self.processor)
        except (ArtifactCorruptedError, OSError, KeyError, TypeError,
                ValueError) as exc:
            self.counters.restore_failures += 1
            obs_event("fleet.restore_failed", truck_id=key[0],
                      day=key[1], path=str(path), reason=str(exc))
            self.quarantine.record(
                f"{key[0]}|{key[1]}", "restore", exc,
                metadata={"path": str(path)})
            path.unlink(missing_ok=True)
            warnings.warn(
                f"session spill {path} is unreadable ({exc}); starting "
                "a fresh session", RuntimeWarning, stacklevel=3)
            return None
        self.counters.sessions_restored += 1
        return session

    def _evict_over_capacity(self) -> None:
        """LRU-evict past ``max_sessions``; spill failures degrade.

        A failing or breaker-open spill keeps the victim *resident*
        (memory over budget beats lost state) and stops this eviction
        round, so an unwritable checkpoint directory shows up as
        counters and a warning — never as an exception inside
        ``ingest``.
        """
        while len(self._sessions) > self.config.max_sessions:
            key, session = self._sessions.popitem(last=False)
            path = self._checkpoint_path(key)
            if path is None:
                # State is gone; a later ping reopens from scratch.
                self._aggregate.add(session.counters)
                self._known.pop(key, None)
                self.counters.sessions_dropped += 1
                self.counters.sessions_evicted += 1
                obs_event("fleet.session_dropped", truck_id=key[0],
                          day=key[1],
                          reason="evicted with no checkpoint dir; "
                                 "state lost")
                continue
            if not self.spill_breaker.allow():
                self.counters.spill_skipped_breaker += 1
                obs_event("fleet.spill_skipped", truck_id=key[0],
                          day=key[1], reason="spill breaker open")
                self._keep_resident(key, session)
                return
            try:
                self.io_retry.call(atomic_write_json, path,
                                   session.state())
            except OSError as exc:
                self.spill_breaker.record_failure()
                self.counters.spill_failures += 1
                obs_event("fleet.spill_failed", truck_id=key[0],
                          day=key[1], path=str(path), reason=str(exc))
                warnings.warn(
                    f"failed to spill session {key[0]}/{key[1]} to "
                    f"{path} ({exc}); keeping it resident",
                    RuntimeWarning, stacklevel=3)
                self._keep_resident(key, session)
                return
            self.spill_breaker.record_success()
            self.counters.sessions_evicted += 1

    def _keep_resident(self, key: SessionKey,
                       session: TruckSession) -> None:
        """Re-insert an eviction victim at its LRU position."""
        self._sessions[key] = session
        self._sessions.move_to_end(key, last=False)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, truck_id: str, lat: float, lng: float, t: float,
               day: str = "") -> None:
        """Route one raw ping to its session."""
        self._session((truck_id, day)).ingest(lat, lng, t)

    def ingest_batch(self, truck_id: str, lats, lngs, ts, *,
                     day: str = "") -> None:
        """Route one truck-day's pings, in order, to its session.

        Calling :meth:`ingest` per ping with the session looked up once;
        the fixes wait for the session's next read like any other.  The
        serve workers apply each submitted truck-day group with this.
        """
        ingest = self._session((truck_id, day)).ingest
        for lat, lng, t in zip(lats, lngs, ts):
            ingest(lat, lng, t)

    # ------------------------------------------------------------------
    # Detection ticks
    # ------------------------------------------------------------------
    def tick(self) -> list[ProvisionalVerdict]:
        """Provisional verdicts for every *resident* session.

        A session whose closed stay-point count and sanitize notes are
        unchanged since its last verdict is served that verdict object
        (no re-detection: closed spans are final, so the same input
        gives the same answer); everything else goes through one
        batched, degradation-aware detector pass.  Failures never
        escape: a failing session is quarantined (its verdict reports
        ``confidence="none"``), the rest of the fleet proceeds.
        """
        return obs_timed("fleet.tick", self._tick_impl, "fleet_tick_seconds",
                         "wall time of fleet detection ticks",
                         resident=len(self._sessions))

    def _tick_impl(self) -> list[ProvisionalVerdict]:
        self._tick_index += 1
        self.counters.ticks += 1
        verdicts: list[ProvisionalVerdict] = []
        pending: list[TruckSession] = []
        for session in self._sessions.values():
            if session.last_verdict_input == session.detection_input:
                verdicts.append(session.last_verdict)
            else:
                pending.append(session)
        verdicts.extend(self._detect(pending, final=False))
        self.counters.verdicts_emitted += len(verdicts)
        return verdicts

    # -- supervised building blocks ------------------------------------
    def _safe_snapshot(self, session: TruckSession):
        """``session.snapshot()`` under retry; raises after the budget.

        The ``fleet.snapshot`` chaos site fires here (keyed by
        ``"truck|day"``), modelling snapshot-stage poison: a session
        whose rolling candidate state breaks the featurization path.
        """
        key = self._chaos_key(session)
        failure: BaseException | None = None
        for attempt in range(DETECT_ATTEMPTS):
            if attempt:
                self.counters.detect_retries += 1
            try:
                fault = chaos_point("fleet.snapshot", key=key)
                if fault is not None:
                    raise InjectedFault(
                        f"chaos: injected snapshot failure for {key}")
                return session.snapshot()
            except Exception as exc:   # noqa: BLE001 - isolation boundary
                failure = exc
        raise failure

    def _detect_one(self, session: TruckSession, snapshot, notes,
                    final: bool):
        """One session's detection under retry; raises after the budget."""
        key = self._chaos_key(session)
        failure: BaseException | None = None
        for attempt in range(DETECT_ATTEMPTS):
            if attempt:
                self.counters.detect_retries += 1
            try:
                fault = chaos_point("detector.forward", key=key)
                if fault is not None:
                    raise InjectedFault(
                        f"chaos: injected detector failure for {key}")
                states = None if final else [session.encoding]
                result = self.detector.detect_many([snapshot], [notes],
                                                   states)[0]
                self._commit_encodings([session], states)
                self.counters.detect_calls += 1
                return result
            except Exception as exc:   # noqa: BLE001 - isolation boundary
                failure = exc
        raise failure

    def _quarantine_session(self, session: TruckSession, stage: str,
                            exc: BaseException) -> None:
        """Dead-letter one poison session; the fleet moves on.

        The entry carries the session's full checkpoint ``state()`` —
        enough to rebuild it with :meth:`TruckSession.from_state` and
        replay the failure offline — plus the provenance notes and the
        tick it died on.
        """
        key = (session.truck_id, session.day)
        obs_event("fleet.quarantined", truck_id=session.truck_id,
                  day=session.day, stage=stage, error=str(exc),
                  tick=self._tick_index)
        self.quarantine.record(
            self._chaos_key(session), stage, exc,
            attempts=DETECT_ATTEMPTS,
            metadata={
                "truck_id": session.truck_id,
                "day": session.day,
                "tick": self._tick_index,
                "state": session.state(),
                "sanitize_notes": session.sanitize_notes(),
            })
        self._sessions.pop(key, None)
        self._known.pop(key, None)
        path = self._checkpoint_path(key)
        if path is not None:
            path.unlink(missing_ok=True)
        self._aggregate.add(session.counters)
        self.counters.sessions_quarantined += 1

    def _detect(self, sessions: list[TruckSession],
                final: bool) -> list[ProvisionalVerdict]:
        """Supervised batched detector pass over ``sessions`` (in order).

        Healthy path: one fused ``detect_many`` over every session with
        a candidate snapshot.  A batch failure (or an open detector
        breaker probe) falls back to per-session isolation; sessions
        that fail their own retry budget are quarantined.  On non-final
        ticks an *open* breaker skips detection entirely — affected
        sessions keep their previous verdict and stay eligible for
        re-detection — while final flushes always attempt detection.
        """
        snapshots: dict[int, object] = {}
        failures: dict[int, BaseException] = {}
        for i, session in enumerate(sessions):
            try:
                snapshots[i] = self._safe_snapshot(session)
            except Exception as exc:   # noqa: BLE001 - isolation boundary
                failures[i] = exc
        ready = [i for i, snapshot in snapshots.items()
                 if snapshot is not None and self.detector is not None]
        results, skipped = self._detect_ready(sessions, snapshots, ready,
                                              failures, final)
        verdicts: list[ProvisionalVerdict] = []
        for i, session in enumerate(sessions):
            if i in failures:
                self._quarantine_session(
                    session, "flush-detect" if final else "tick-detect",
                    failures[i])
                verdicts.append(self._empty_verdict(session, final))
                continue
            if i in skipped:
                # Breaker open: serve the stale verdict (or none) and
                # keep its detection input, so the session stays due.
                verdicts.append(session.last_verdict
                                if session.last_verdict is not None
                                else self._empty_verdict(session, final))
                continue
            result = results.get(i)
            if result is None:
                verdict = self._empty_verdict(session, final)
            else:
                snapshot = snapshots[i]
                probability = float(result.distribution[
                    snapshot.candidate_index(result.pair)])
                verdict = ProvisionalVerdict(
                    truck_id=session.truck_id, day=session.day,
                    pair=result.pair, probability=probability,
                    confidence=confidence_tier(probability),
                    final=final,
                    num_stay_points=snapshot.num_stay_points,
                    num_candidates=snapshot.num_candidates,
                    tick=self._tick_index,
                    provenance=result.provenance,
                    distribution=result.distribution)
            session.last_verdict = verdict
            session.last_verdict_input = session.detection_input
            verdicts.append(verdict)
        return verdicts

    def _detect_ready(self, sessions, snapshots, ready, failures,
                      final) -> tuple[dict, set[int]]:
        """Run the detector over the ready set; returns (results, skipped).

        ``results`` maps session position → DetectionResult; positions
        that fail move into ``failures``; ``skipped`` positions were not
        attempted because the breaker is open (non-final only).
        """
        if not ready:
            return {}, set()
        if not final and not self.detector_breaker.allow():
            self.counters.detect_skipped_breaker += len(ready)
            return {}, set(ready)
        batch = [snapshots[i] for i in ready]
        notes = [sessions[i].sanitize_notes() for i in ready]
        # Flushes encode from scratch (the final verdict is offline's);
        # ticks extend each session's encoding state.
        states = None if final else [sessions[i].encoding for i in ready]
        try:
            fault = chaos_point("detector.batch")
            if fault is not None:
                raise InjectedFault(
                    "chaos: injected batched-detector failure")
            for i in ready:   # per-session poison surfaces in the batch
                fault = chaos_point("detector.forward",
                                    key=self._chaos_key(sessions[i]))
                if fault is not None:
                    raise InjectedFault(
                        "chaos: injected detector failure for "
                        f"{self._chaos_key(sessions[i])}")
            raw = self.detector.detect_many(batch, notes, states)
        except Exception:  # noqa: BLE001 - isolate below
            self.detector_breaker.record_failure()
            self.counters.detect_batch_failures += 1
            results: dict[int, object] = {}
            for i in ready:
                try:
                    results[i] = self._detect_one(
                        sessions[i], snapshots[i], notes[ready.index(i)],
                        final)
                except Exception as exc:  # noqa: BLE001
                    failures[i] = exc
            return results, set()
        self.detector_breaker.record_success()
        self._commit_encodings([sessions[i] for i in ready], states)
        self.counters.detect_calls += len(ready)
        return dict(zip(ready, raw)), set()

    @staticmethod
    def _commit_encodings(sessions: list[TruckSession], states) -> None:
        """Keep the encoding states a returned detection left (a failed
        one commits nothing: its states never get here)."""
        if states is not None:
            for session, state in zip(sessions, states):
                session.encoding = state

    def _empty_verdict(self, session: TruckSession,
                       final: bool) -> ProvisionalVerdict:
        return ProvisionalVerdict(
            truck_id=session.truck_id, day=session.day,
            pair=None, probability=None,
            confidence=confidence_tier(None), final=final,
            num_stay_points=session.num_closed_stay_points,
            num_candidates=0, tick=self._tick_index)

    # ------------------------------------------------------------------
    # Flush (end of day)
    # ------------------------------------------------------------------
    def flush(self, truck_id: str, *, day: str = "") -> ProvisionalVerdict:
        """Finalize one session and return its *final* verdict."""
        return self._flush_keys([(truck_id, day)])[0]

    def flush_all(self) -> list[ProvisionalVerdict]:
        """Finalize every known session (resident and evicted alike).

        Processes in chunks bounded by ``max_sessions`` so restoring
        evicted sessions never blows the memory budget, and each chunk
        shares one batched detector pass.
        """
        keys = list(self._known)
        chunk_size = max(1, self.config.max_sessions)
        verdicts: list[ProvisionalVerdict] = []
        for start in range(0, len(keys), chunk_size):
            verdicts.extend(self._flush_keys(keys[start:start + chunk_size]))
        return verdicts

    def _flush_keys(self, keys: list[SessionKey]
                    ) -> list[ProvisionalVerdict]:
        return obs_timed("fleet.flush", lambda: self._flush_keys_impl(keys),
                         "fleet_flush_seconds",
                         "wall time of fleet flush chunks",
                         sessions=len(keys))

    def _flush_keys_impl(self, keys: list[SessionKey]
                         ) -> list[ProvisionalVerdict]:
        sessions = []
        for key in keys:
            session = self._session(key)
            session.finalize()
            sessions.append(session)
        verdicts = self._detect(sessions, final=True)
        for key, session in zip(keys, sessions):
            if key not in self._known and key not in self._sessions:
                continue   # quarantined during the final detect
            self._sessions.pop(key, None)
            self._known.pop(key, None)
            path = self._checkpoint_path(key)
            if path is not None:
                path.unlink(missing_ok=True)
            self._aggregate.add(session.counters)
            self.counters.sessions_flushed += 1
        self.counters.verdicts_emitted += len(verdicts)
        return verdicts

    # ------------------------------------------------------------------
    # Barrier snapshots (serve-layer restart protocol)
    # ------------------------------------------------------------------
    def checkpoint_all(self, *, directory: str | Path | None = None) -> int:
        """Snapshot every known session's state into ``directory``.

        Resident sessions are written fresh from ``state()``; evicted
        sessions' existing spill files are copied verbatim — exact,
        because an evicted session receives no pings while evicted.
        The manager's own state is untouched: this is a read-only
        barrier snapshot used by :mod:`repro.serve`'s restart protocol.
        Returns the number of sessions captured.
        """
        if directory is None:
            directory = self.config.checkpoint_dir
        if directory is None:
            raise ValueError(
                "checkpoint_all needs a directory when the manager has "
                "no checkpoint_dir")
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        captured = 0
        for key, session in self._sessions.items():
            self.io_retry.call(
                atomic_write_json, target / self._spill_name(key),
                session.state())
            captured += 1
        source = (Path(self.config.checkpoint_dir)
                  if self.config.checkpoint_dir is not None else None)
        if source is not None and source != target:
            for key in self._known:
                if key in self._sessions:
                    continue
                spill = source / self._spill_name(key)
                if spill.exists():
                    self.io_retry.call(
                        atomic_write_bytes, target / self._spill_name(key),
                        spill.read_bytes())
                    captured += 1
        return captured

    def adopt_spills(self) -> int:
        """Register every on-disk spill as a known session.

        After a restart a fresh manager's known set is empty, so a
        checkpointed truck that never pings again would be invisible to
        :meth:`flush_all`.  Scanning ``checkpoint_dir`` re-registers
        those keys (sessions restore lazily on first touch).  Returns
        the number of keys adopted.
        """
        if self.config.checkpoint_dir is None:
            return 0
        adopted = 0
        for path in sorted(Path(self.config.checkpoint_dir).glob("*.json")):
            truck_id, sep, day = unquote(path.stem).partition("|")
            if not sep:
                continue
            key = (truck_id, day)
            if key not in self._known:
                self._known[key] = None
                adopted += 1
        return adopted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def session_totals(self) -> SessionCounters:
        """Aggregated session counters (flushed + resident sessions)."""
        totals = SessionCounters()
        totals.add(self._aggregate)
        for session in self._sessions.values():
            totals.add(session.counters)
        return totals

    def stats(self) -> dict:
        """One JSON-safe dict of everything worth printing."""
        payload = {
            "resident_sessions": len(self._sessions),
            "known_sessions": len(self._known),
            "fleet": self.counters.as_dict(),
            "sessions": self.session_totals().as_dict(),
            "quarantine": self.quarantine.summary(),
            "breakers": {
                "detector": self.detector_breaker.stats(),
                "session_spill": self.spill_breaker.stats(),
            },
            "io_retry": self.io_retry.counters.as_dict(),
        }
        cache = getattr(self.detector, "feature_cache", None)
        if cache is not None:
            payload["feature_cache"] = cache.stats.as_dict()
            counts = getattr(cache, "dtype_key_counts", None)
            if counts is not None:
                payload["feature_cache"]["dtype_keys"] = counts()
        return payload
