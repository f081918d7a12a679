"""Validation and repair of hostile raw trajectory input.

Production GPS feeds contain garbage the paper's curated dataset never
shows: NaN/Inf fixes from cold receivers, coordinates outside the valid
range, out-of-order or duplicated timestamps from buffered uploads, and
frozen clocks.  The detection path routes every trajectory through
:func:`sanitize_trajectory`, which drops unusable fixes and raises a
typed :class:`~repro.errors.InvalidTrajectoryError` only when nothing
usable remains; :class:`Trajectory`'s constructor already rejects
non-increasing timestamps, and ping streams restore their order through
:class:`ReorderBuffer`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidTrajectoryError
from ..model import Trajectory

__all__ = ["MIN_USABLE_FIXES", "sanitize_trajectory", "ReorderBuffer",
           "ReorderStats"]

#: Fewer usable fixes than this cannot form even one move segment.
MIN_USABLE_FIXES = 2


def _usable_mask(lats: np.ndarray, lngs: np.ndarray,
                 ts: np.ndarray) -> np.ndarray:
    """Fixes that are finite and inside the valid coordinate range."""
    return (np.isfinite(lats) & np.isfinite(lngs) & np.isfinite(ts)
            & (np.abs(lats) <= 90.0) & (np.abs(lngs) <= 180.0))


def sanitize_trajectory(trajectory: Trajectory
                        ) -> tuple[Trajectory, list[str]]:
    """Drop unusable fixes; return the repaired trajectory and notes.

    Raises :class:`InvalidTrajectoryError` when fewer than
    :data:`MIN_USABLE_FIXES` usable fixes remain.
    """
    mask = _usable_mask(trajectory.lats, trajectory.lngs, trajectory.ts)
    kept = int(mask.sum())
    if kept < MIN_USABLE_FIXES:
        raise InvalidTrajectoryError(
            f"trajectory {trajectory.truck_id or '?'}/"
            f"{trajectory.day or '?'} has {kept} usable fixes of "
            f"{len(trajectory)} (need >= {MIN_USABLE_FIXES})")
    if kept == len(trajectory):
        return trajectory, []
    dropped = len(trajectory) - kept
    repaired = Trajectory(trajectory.lats[mask], trajectory.lngs[mask],
                          trajectory.ts[mask],
                          truck_id=trajectory.truck_id, day=trajectory.day)
    return repaired, [f"dropped {dropped} non-finite/out-of-range fixes"]


# ---------------------------------------------------------------------------
# Timestamp-monotonicity sanitization for ping *streams*
# ---------------------------------------------------------------------------
@dataclass
class ReorderStats:
    """Counters of one :class:`ReorderBuffer` instance.

    ``reordered`` counts accepted pings that arrived behind a
    later-stamped ping (and were put back in place); ``dropped`` counts
    pings discarded as too late (older than an already-released
    timestamp) or as exact duplicates.  Nothing in the buffer ever
    raises — hostility is counted, not crashed on.
    """

    pushed: int = 0
    released: int = 0
    reordered: int = 0
    dropped: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"pushed": self.pushed, "released": self.released,
                "reordered": self.reordered, "dropped": self.dropped}


class ReorderBuffer:
    """Bounded buffer restoring timestamp monotonicity of a ping stream.

    GPS uplinks batch, retry, and interleave: fixes arrive out of order
    within a bounded window.  :class:`~repro.model.Trajectory` (and the
    stay-point scanner) require strictly increasing timestamps, so both
    the streaming ingest path and any caller feeding raw ping streams
    route fixes through this buffer first.

    The buffer holds up to ``capacity`` fixes in a min-heap and releases
    the oldest one per overflow, so any ping displaced by at most
    ``capacity`` positions is silently put back in place (counted in
    :attr:`ReorderStats.reordered`).  A ping at or behind the newest
    *released* timestamp can no longer be placed and is dropped
    (counted, never raised); the released stream is strictly increasing
    by construction.
    """

    #: The one release algorithm, as :meth:`state` records it (checkpoint
    #: schema 1 carries the field).
    POLICY = "reorder"

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = ReorderStats()
        self._heap: list[tuple[float, int, float, float]] = []
        self._seq = 0                      # tie-break for equal timestamps
        self._last_released = -np.inf
        self._max_seen = -np.inf

    def __len__(self) -> int:
        return len(self._heap)

    def _release(self) -> tuple[float, float, float] | None:
        t, _, lat, lng = heapq.heappop(self._heap)
        if t <= self._last_released:
            self.stats.dropped += 1        # duplicate inside the window
            return None
        self._last_released = t
        self.stats.released += 1
        return (lat, lng, t)

    def push(self, lat: float, lng: float, t: float
             ) -> list[tuple[float, float, float]]:
        """Ingest one fix; return the ``(lat, lng, t)`` fixes released
        by it, in strictly increasing timestamp order."""
        self.stats.pushed += 1
        t = float(t)
        if not np.isfinite(t) or t <= self._last_released:
            self.stats.dropped += 1
            return []
        if t < self._max_seen:
            self.stats.reordered += 1
        else:
            self._max_seen = t
        heapq.heappush(self._heap, (t, self._seq, float(lat), float(lng)))
        self._seq += 1
        released: list[tuple[float, float, float]] = []
        while len(self._heap) > self.capacity:
            fix = self._release()
            if fix is not None:
                released.append(fix)
        return released

    def flush(self) -> list[tuple[float, float, float]]:
        """Drain every buffered fix, in timestamp order."""
        released: list[tuple[float, float, float]] = []
        while self._heap:
            fix = self._release()
            if fix is not None:
                released.append(fix)
        return released

    # ------------------------------------------------------------------
    def state(self) -> dict:
        """JSON-serializable resume state (exact float round-trip)."""
        return {"capacity": self.capacity, "policy": self.POLICY,
                "heap": [list(item) for item in self._heap],
                "seq": self._seq,
                "last_released": (None if self._last_released == -np.inf
                                  else self._last_released),
                "max_seen": (None if self._max_seen == -np.inf
                             else self._max_seen),
                "stats": self.stats.as_dict()}

    @classmethod
    def from_state(cls, state: dict) -> "ReorderBuffer":
        """Resume from :meth:`state`; a state recorded under any other
        policy than :attr:`POLICY` raises ``ValueError``."""
        if state["policy"] != cls.POLICY:
            raise ValueError(
                f"unknown reorder policy {state['policy']!r} in state")
        buffer = cls(int(state["capacity"]))
        buffer._heap = [(float(t), int(seq), float(lat), float(lng))
                        for t, seq, lat, lng in state["heap"]]
        heapq.heapify(buffer._heap)
        buffer._seq = int(state["seq"])
        last = state["last_released"]
        buffer._last_released = -np.inf if last is None else float(last)
        seen = state["max_seen"]
        buffer._max_seen = -np.inf if seen is None else float(seen)
        buffer.stats = ReorderStats(**state["stats"])
        return buffer
