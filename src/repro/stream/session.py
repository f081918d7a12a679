"""Per-truck streaming session: one ping in, incremental state forward.

A :class:`TruckSession` is the online mirror of
:meth:`repro.processing.RawTrajectoryProcessor.process` plus the
``sanitize_trajectory`` front door of :meth:`repro.pipeline.LEAD.detect`.
Each ping takes two cheap steps on arrival:

1. **sanitize** — non-finite / out-of-range fixes are dropped and
   counted (the same predicate, and at flush time the same provenance
   note, as the offline ``sanitize_trajectory``);
2. **reorder** — a bounded :class:`~repro.processing.ReorderBuffer`
   restores timestamp monotonicity; too-late pings are dropped, never
   raised on.

The fixes the reorder buffer releases wait in a pending list.  The
heavy stages run array-at-a-time when that list is drained — by every
read of the processed state (:meth:`TruckSession.snapshot`,
:meth:`~TruckSession.state`, :meth:`~TruckSession.finalize`, ``version``,
``counters`` and the other accessors):

3. **noise filter** — :meth:`~repro.processing.NoiseFilter.kept_indices`
   resumed from the *last kept* fix (identical rule, identical state,
   therefore an identical kept set);
4. **stay points** — kept fixes feed the resumable
   :class:`~repro.processing.StayPointScanner` through
   :meth:`~repro.processing.StayPointScanner.feed_batch`; spans that
   close are final, the open trailing run waits for more pings or the
   flush.

Because each step is the same code (or the same state machine) the
offline path runs, and draining ends in the same state however
the fixes are split into drains, the session's post-flush snapshot is
exactly what the offline pipeline computes on the completed trajectory —
the convergence guarantee the provisional detector builds on.

Sessions are checkpointable: :meth:`~TruckSession.state` drains, then
captures the whole thing as a JSON-safe dict (floats round-trip exactly
through ``repr``), and :meth:`~TruckSession.from_state` resumes
bit-for-bit — the fleet manager uses this to evict cold sessions to disk
under memory pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..model import StayPoint, Trajectory
from ..obs.core import obs_event
from ..processing import (ProcessedTrajectory, RawTrajectoryProcessor,
                          ReorderBuffer, extract_move_points)

__all__ = ["SessionCounters", "TruckSession"]


@dataclass
class SessionCounters:
    """Lightweight per-session ingest counters."""

    pings_ingested: int = 0          # every ping offered to the session
    pings_dropped_invalid: int = 0   # non-finite / out-of-range fixes
    pings_dropped_late: int = 0      # behind the reorder horizon
    pings_reordered: int = 0         # out of order but recovered
    pings_dropped_noise: int = 0     # implausible speed (noise filter)
    pings_kept: int = 0              # fixes that reached the scanner
    staypoints_opened: int = 0       # runs that reached stay-point status
    staypoints_closed: int = 0       # spans decided and emitted

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, payload: dict) -> "SessionCounters":
        return cls(**{k: int(v) for k, v in payload.items()})

    def add(self, other: "SessionCounters") -> None:
        for key, value in other.__dict__.items():
            setattr(self, key, getattr(self, key) + value)


def _is_valid_fix(lat: float, lng: float, t: float) -> bool:
    """The per-ping form of ``validation._usable_mask``."""
    return (math.isfinite(lat) and math.isfinite(lng) and math.isfinite(t)
            and abs(lat) <= 90.0 and abs(lng) <= 180.0)


class TruckSession:
    """Incremental processing state of one truck-day."""

    def __init__(self, truck_id: str, day: str = "",
                 processor: RawTrajectoryProcessor | None = None,
                 reorder_capacity: int = 16) -> None:
        self.truck_id = truck_id
        self.day = day
        self.processor = processor or RawTrajectoryProcessor()
        self._counters = SessionCounters()
        self._reorder = ReorderBuffer(reorder_capacity)
        #: Sanitized, in-order fixes the noise filter has not seen yet.
        self._pending: list[tuple[float, float, float]] = []
        self._scanner = self.processor.extractor.scanner()
        self._spans: list[tuple[int, int]] = []
        self._last_kept: tuple[float, float, float] | None = None
        self._open_qualified = False
        self._finalized = False
        self._version = 0
        #: Most recent verdict the fleet manager emitted and the
        #: :attr:`detection_input` it was computed from (bookkeeping
        #: only; the session itself never reads them — a tick serves
        #: ``last_verdict`` again while the detection input is unchanged).
        self.last_verdict = None
        self.last_verdict_input: tuple[int, tuple[str, ...]] | None = None
        #: The encoding state the last provisional detection left
        #: (:class:`~repro.encoding.EncodingState`): the next one encodes
        #: only what newly closed stay points add.  Replaced by the
        #: fleet manager once a detection returned, dropped at
        #: :meth:`finalize`, never part of a checkpoint.
        self.encoding = None

    # ------------------------------------------------------------------
    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def version(self) -> int:
        """Monotone revision counter: bumped whenever the cleaned
        trajectory or the span set changes; part of the checkpoint (a
        tick keys on :attr:`detection_input` instead)."""
        self._drain()
        return self._version

    @property
    def counters(self) -> SessionCounters:
        """Ingest counters, with every pending fix accounted for."""
        self._drain()
        return self._counters

    @property
    def num_closed_stay_points(self) -> int:
        self._drain()
        return len(self._spans)

    @property
    def detection_input(self) -> tuple[int, tuple[str, ...]]:
        """What a detection of :meth:`snapshot` depends on: the closed
        stay-point count and the sanitize notes.

        Closed spans are final, so fixes that close no stay point leave
        the candidates, their encodings and the distribution unchanged;
        the notes feed the verdict's provenance.  A detection after new
        stay points closed encodes only what they add, from the
        :attr:`encoding` state the last one left; one after a change of
        the notes alone encodes nothing.
        """
        return self.num_closed_stay_points, tuple(self.sanitize_notes())

    # ------------------------------------------------------------------
    def ingest(self, lat: float, lng: float, t: float) -> None:
        """Offer one raw ping.

        Sanitizes and reorders the ping at once; the fixes the reorder
        buffer releases wait for the next drain (see the module
        docstring).  Never raises on hostile input: invalid fixes and
        too-late pings are dropped and counted.  Raises ``ValueError``
        only on API misuse (ingesting into a finalized session).
        """
        if self._finalized:
            raise ValueError(
                f"session {self.truck_id}/{self.day} is finalized")
        counters = self._counters
        counters.pings_ingested += 1
        lat, lng, t = float(lat), float(lng), float(t)
        if not _is_valid_fix(lat, lng, t):
            counters.pings_dropped_invalid += 1
            self._emit_drop("invalid", 1)
            return
        stats = self._reorder.stats
        dropped, reordered = stats.dropped, stats.reordered
        self._pending.extend(self._reorder.push(lat, lng, t))
        late = stats.dropped - dropped
        if late:
            # Reorder-buffer loss was previously visible only in local
            # counters; the event makes it auditable fleet-wide.
            counters.pings_dropped_late += late
            self._emit_drop("late", late)
        counters.pings_reordered += stats.reordered - reordered

    def _emit_drop(self, reason: str, count: int) -> None:
        """Structured audit trail for data loss (no-op without telemetry).

        ``invalid`` = non-finite/out-of-range fixes, ``late`` = behind
        the reorder horizon (ReorderBuffer drops).  Noise-filter
        rejections are intentional cleaning, not loss, and stay
        counters-only.
        """
        obs_event("stream.ping_dropped", truck_id=self.truck_id,
                  day=self.day, reason=reason, count=count)

    def _drain(self) -> int:
        """Run the pending fixes through the noise filter and scanner,
        as arrays.  Returns how many stay points closed."""
        fixes = self._pending
        if not fixes:
            return 0
        self._pending = []
        lats, lngs, ts = np.array(fixes, dtype=np.float64).T
        kept = self.processor.noise_filter.kept_indices(
            lats, lngs, ts, prev=self._last_kept)
        counters = self._counters
        counters.pings_dropped_noise += len(fixes) - int(kept.size)
        if kept.size == 0:
            return 0
        kept_lats = lats[kept]
        kept_lngs = lngs[kept]
        kept_ts = ts[kept]
        self._last_kept = (float(kept_lats[-1]), float(kept_lngs[-1]),
                           float(kept_ts[-1]))
        counters.pings_kept += int(kept.size)
        spans = self._scanner.feed_batch(kept_lats, kept_lngs, kept_ts)
        self._record_spans(spans)
        # One bump per kept fix, so the revision does not depend on how
        # the fixes were split into drains.
        self._version += int(kept.size)
        return len(spans)

    def _record_spans(self, spans: list[tuple[int, int]]) -> None:
        if spans:
            # The first closed span is the tracked open run when that
            # run had already qualified; any further spans in the same
            # burst opened and closed within it.
            newly_opened = len(spans) - (1 if self._open_qualified else 0)
            self._counters.staypoints_opened += max(0, newly_opened)
            self._counters.staypoints_closed += len(spans)
            self._spans.extend(spans)
            self._open_qualified = False
        if not self._open_qualified and self._scanner.open_run_qualifies():
            self._open_qualified = True
            self._counters.staypoints_opened += 1

    def finalize(self) -> int:
        """End of day: drain the reorder buffer, close the open run.

        Idempotent.  Returns how many stay points the flush closed.
        """
        if self._finalized:
            return 0
        self._drain()
        self._pending = self._reorder.flush()
        closed = self._drain()
        spans = self._scanner.finish()
        self._record_spans(spans)
        closed += len(spans)
        self._finalized = True
        self.encoding = None   # the final verdict encodes from scratch
        self._version += 1
        return closed

    # ------------------------------------------------------------------
    def sanitize_notes(self) -> list[str]:
        """Provenance notes matching the offline ``sanitize_trajectory``."""
        dropped = self._counters.pings_dropped_invalid
        if dropped:
            return [f"dropped {dropped} non-finite/out-of-range fixes"]
        return []

    def cleaned_trajectory(self) -> Trajectory:
        """The cleaned trajectory accumulated so far (a copy)."""
        self._drain()
        return Trajectory(np.asarray(self._scanner.lats, dtype=np.float64),
                          np.asarray(self._scanner.lngs, dtype=np.float64),
                          np.asarray(self._scanner.ts, dtype=np.float64),
                          truck_id=self.truck_id, day=self.day)

    def snapshot(self) -> ProcessedTrajectory | None:
        """Processed view over the stay points that have *closed*.

        Returns ``None`` while no candidate exists — fewer than the
        processor's ``min_stay_points`` closed stay points, or more
        than the candidate generator's cap (the cases where the offline
        path abstains too).  Built afresh on every call and held by no
        one: a tick snapshots only the sessions whose
        :attr:`detection_input` changed, so between ticks a resident
        session keeps no copy of its cleaned trajectory alive.
        """
        self._drain()
        if len(self._spans) < self.processor.min_stay_points:
            return None
        trajectory = self.cleaned_trajectory()
        stay_points = [StayPoint(trajectory, start, end, ordinal=k + 1)
                       for k, (start, end) in enumerate(self._spans)]
        move_points = extract_move_points(trajectory, stay_points)
        try:
            candidates = self.processor.generator.generate(stay_points,
                                                           move_points)
        except ValueError:
            return None  # over the stay-point cap; offline abstains too
        return ProcessedTrajectory(
            raw=trajectory, cleaned=trajectory,
            stay_points=tuple(stay_points),
            move_points=tuple(move_points),
            candidates=tuple(candidates),
            label_pair=None)

    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Checkpointable state (JSON-safe; exact resume).

        Drains first, so pending fixes are never part of a checkpoint.
        """
        self._drain()
        return {
            "schema": 1,
            "truck_id": self.truck_id,
            "day": self.day,
            "scanner": self._scanner.state(),
            "reorder": self._reorder.state(),
            "spans": [list(span) for span in self._spans],
            "last_kept": (None if self._last_kept is None
                          else list(self._last_kept)),
            "open_qualified": self._open_qualified,
            "finalized": self._finalized,
            "version": self._version,
            "counters": self._counters.as_dict(),
        }

    @classmethod
    def from_state(cls, state: dict,
                   processor: RawTrajectoryProcessor | None = None
                   ) -> "TruckSession":
        """Resume a session from :meth:`state` output.

        The processor (thresholds) is configuration, not state — the
        caller passes the same one it always uses.
        """
        from ..processing import StayPointScanner
        session = cls(str(state["truck_id"]), str(state["day"]),
                      processor=processor)
        session._scanner = StayPointScanner.from_state(state["scanner"])
        session._reorder = ReorderBuffer.from_state(state["reorder"])
        session._spans = [(int(a), int(b)) for a, b in state["spans"]]
        kept = state["last_kept"]
        session._last_kept = None if kept is None else (
            float(kept[0]), float(kept[1]), float(kept[2]))
        session._open_qualified = bool(state["open_qualified"])
        session._finalized = bool(state["finalized"])
        session._version = int(state["version"])
        session._counters = SessionCounters.from_dict(state["counters"])
        return session
