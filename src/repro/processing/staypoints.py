"""Stay point extraction (paper §III, after Li et al. [7]).

Anchor-based rule algorithm: starting from an anchor point, collect the
maximal run of successors within ``Dmax`` meters of the anchor; if the run
lasts at least ``Tmin`` seconds it is a stay point and the anchor jumps past
it, otherwise the anchor advances by one.  The produced stay points are
temporally consecutive and numbered 1..n, as the paper requires for stay
point ordinals.

The algorithm is implemented once, as the *resumable*
:class:`StayPointScanner` that consumes blocks of GPS fixes as arrays and
emits a stay-point span the moment it is decidable.  Offline extraction
(:meth:`StayPointExtractor.extract`) is literally a replay of the online
path — feed every point, then flush — so the streaming subsystem
(:mod:`repro.stream`) and the batch pipeline can never disagree about
where stay points are.  However a stream is split into blocks, the
scanner ends in the same state and emits the same spans; the per-fix
rule loop it is pinned against is ``ScalarStayPointScanner`` in
``tests/oracles.py``.

Why a span is decidable online: a run breaks the moment a fix falls more
than ``Dmax`` from the anchor, and the accept/reject decision for the
broken run depends only on fixes *before* the breaking one.  Future
fixes can extend an unbroken run but never reopen a broken one, so every
span emitted mid-stream is final.  Only the trailing (still open) run
must wait for :meth:`StayPointScanner.finish`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..geo import EARTH_RADIUS_M, haversine_rad_m
from ..model import MovePoint, StayPoint, Trajectory

__all__ = ["StayPointScanner", "StayPointExtractor", "extract_move_points"]

#: Candidate points examined per vectorized scan round.  Bounds the
#: temporary arrays of :meth:`StayPointScanner.feed_batch` regardless of
#: trajectory length; anything ≥ a few hundred amortizes numpy call
#: overhead completely.
_SCAN_CHUNK = 2048

#: Below this many candidates a tight :mod:`math` loop beats numpy's
#: per-call overhead (the common case for streaming feeds, where the
#: unscanned tail is a handful of fixes).
_SCALAR_CUTOFF = 24


class StayPointScanner:
    """Resumable core of the stay-point rule algorithm.

    Feed cleaned GPS fixes in timestamp order with :meth:`feed_batch`;
    each call returns the (possibly empty) list of ``(start, end)`` index
    spans that became decidable, in ordinal order.  :meth:`finish`
    decides the trailing open run exactly the way the offline algorithm
    treats the end of a trajectory.  The scanner owns the growing point
    buffer, so a session checkpoint (:meth:`state` / :meth:`from_state`)
    captures everything needed to resume mid-day, bit-for-bit.
    """

    __slots__ = ("max_distance_m", "min_duration_s", "lats", "lngs", "ts",
                 "_anchor", "_last", "_scan", "_emitted", "_finished",
                 "_rad_lat", "_rad_lng", "_rlat", "_rlng", "_far")

    def __init__(self, max_distance_m: float = 500.0,
                 min_duration_s: float = 15.0 * 60.0) -> None:
        if max_distance_m <= 0 or min_duration_s <= 0:
            raise ValueError("thresholds must be positive")
        self.max_distance_m = max_distance_m
        self.min_duration_s = min_duration_s
        #: The cleaned fixes seen so far (plain lists: append-only).
        self.lats: list[float] = []
        self.lngs: list[float] = []
        self.ts: list[float] = []
        self._anchor = 0      # first index of the current run
        self._last = 0        # last index within Dmax of the anchor
        self._scan = 1        # next index to test against the anchor
        self._emitted = 0     # spans emitted so far (== next ordinal - 1)
        self._finished = False
        #: Radian mirrors of ``lats``/``lngs``, kept twice: numpy
        #: buffers (doubling capacity) feed the chunked vectorized scan,
        #: and plain float lists feed the scalar head loop — indexing a
        #: Python list of floats is ~5x cheaper per element than boxing
        #: ``np.float64`` scalars out of an array.
        self._rad_lat = np.empty(64)
        self._rad_lng = np.empty(64)
        self._rlat: list[float] = []
        self._rlng: list[float] = []
        #: ``_far[i]`` ⇔ fix ``i+1`` is farther than ``Dmax`` from fix
        #: ``i``.  When a *fresh* run's first candidate is already far,
        #: the rule algorithm provably rejects and advances the anchor
        #: by one — so :meth:`_advance_batch` fast-forwards through
        #: whole moving stretches by walking these precomputed flags
        #: instead of re-deciding each anchor with a haversine.
        self._far: list[bool] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ts)

    @property
    def open_run(self) -> tuple[int, int] | None:
        """The undecided trailing run ``(anchor, last)``, if any."""
        if self._anchor >= len(self.ts):
            return None
        return (self._anchor, self._last)

    def open_run_qualifies(self) -> bool:
        """True when the open run would already be a stay point if the
        stream ended now (it can only keep qualifying: the run's
        duration is non-decreasing until it breaks)."""
        run = self.open_run
        if run is None:
            return False
        anchor, last = run
        return (last > anchor
                and self.ts[last] - self.ts[anchor] >= self.min_duration_s)

    # ------------------------------------------------------------------
    def _close_run(self) -> tuple[int, int] | None:
        """Decide the current run, advance the anchor, reset the scan."""
        anchor, last = self._anchor, self._last
        span = None
        if (last > anchor
                and self.ts[last] - self.ts[anchor] >= self.min_duration_s):
            span = (anchor, last)
            self._emitted += 1
            self._anchor = last + 1
        else:
            self._anchor = anchor + 1
        self._last = self._anchor
        self._scan = self._anchor + 1
        return span

    def _find_break(self, n: int) -> int | None:
        """First index in ``[_scan, n)`` farther than ``Dmax`` from the
        anchor, or ``None`` when the whole tail stays within range.

        One chunked haversine over the precomputed radian buffers
        instead of one scalar call per fix.  Short tails (the streaming
        case) take a tight :mod:`math` loop that beats numpy's call
        overhead.
        """
        rlat, rlng = self._rlat, self._rlng
        a_lat = rlat[self._anchor]
        a_lng = rlng[self._anchor]
        # Tight math loop over the first few candidates: most runs break
        # within a handful of fixes, and streaming feeds drain short
        # tails.
        head_end = min(self._scan + _SCALAR_CUTOFF, n)
        cos_a = math.cos(a_lat)
        sin = math.sin
        cos = math.cos
        asin = math.asin
        sqrt = math.sqrt
        diameter = 2.0 * EARTH_RADIUS_M
        dmax = self.max_distance_m
        for k in range(self._scan, head_end):
            sin_dlat = sin((rlat[k] - a_lat) / 2.0)
            sin_dlng = sin((rlng[k] - a_lng) / 2.0)
            h = (sin_dlat * sin_dlat
                 + cos_a * cos(rlat[k]) * sin_dlng * sin_dlng)
            if h > 1.0:
                h = 1.0
            elif h < 0.0:
                h = 0.0
            if diameter * asin(sqrt(h)) > dmax:
                return k
        # Doubling chunks beyond the head: a break ``d`` fixes away costs
        # O(d) scanned candidates, never a full fixed-width chunk.
        chunk_start, chunk = head_end, 64
        while chunk_start < n:
            chunk_end = min(chunk_start + chunk, n)
            distances = haversine_rad_m(
                a_lat, a_lng,
                self._rad_lat[chunk_start:chunk_end],
                self._rad_lng[chunk_start:chunk_end])
            far = distances > self.max_distance_m
            if far.any():
                return chunk_start + int(far.argmax())
            chunk_start = chunk_end
            chunk = min(chunk * 2, _SCAN_CHUNK)
        return None

    def _advance_batch(self, final: bool) -> list[tuple[int, int]]:
        """Run the rule algorithm as far as the buffered fixes allow.

        Each run break is found with :meth:`_find_break` instead of a
        per-fix scan; the pointers (``_scan``, ``_last``, ``_anchor``)
        and spans are exactly those of the per-fix rule loop."""
        spans: list[tuple[int, int]] = []
        n = len(self.ts)
        far = self._far
        while True:
            if self._scan == self._anchor + 1 and self._scan < n:
                # Fast-forward through a moving stretch: while the fresh
                # run's first candidate is already beyond Dmax, the rule
                # breaks immediately, rejects (the run holds only its
                # anchor), and advances the anchor by one — a pure
                # pointer march this flag walk reproduces exactly.
                a = self._anchor
                stop = n - 1
                while a < stop and far[a]:
                    a += 1
                self._anchor = a
                self._last = a
                self._scan = a + 1
            broke = False
            if self._scan < n:
                k = self._find_break(n)
                if k is None:
                    self._last = n - 1
                    self._scan = n
                else:
                    self._last = k - 1
                    self._scan = k
                    broke = True
            if broke:
                span = self._close_run()
                if span is not None:
                    spans.append(span)
                continue  # rescan the buffer from the new anchor
            if not final:
                return spans
            if self._anchor >= n - 1:
                return spans
            span = self._close_run()
            if span is not None:
                spans.append(span)

    # ------------------------------------------------------------------
    def _ensure_capacity(self, need: int) -> None:
        """Grow the radian buffers to hold at least ``need`` fixes."""
        capacity = self._rad_lat.size
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        for name in ("_rad_lat", "_rad_lng"):
            old = getattr(self, name)
            grown = np.empty(capacity)
            grown[:old.size] = old
            setattr(self, name, grown)

    def feed_batch(self, lats, lngs, ts) -> list[tuple[int, int]]:
        """Ingest many cleaned, time-ordered fixes at once.

        Timestamps must be strictly increasing, within the block and
        across blocks (the stream layer's reorder buffer guarantees this
        before fixes reach the scanner).  Emits exactly the spans that
        feeding the same fixes one at a time would emit, and leaves the
        scanner in the identical state (same anchor/scan pointers, so
        checkpoints and later feeds cannot diverge either).  Each run
        break is found by one chunked vectorized haversine over
        precomputed radian buffers instead of a Python loop of scalar
        calls.
        """
        if self._finished:
            raise ValueError("scanner already finished")
        lats = np.asarray(lats, dtype=np.float64)
        lngs = np.asarray(lngs, dtype=np.float64)
        ts = np.asarray(ts, dtype=np.float64)
        if not (lats.shape == lngs.shape == ts.shape) or lats.ndim != 1:
            raise ValueError("feed_batch needs equal-length 1-D arrays")
        count = ts.size
        if count == 0:
            return []
        if ((self.ts and ts[0] <= self.ts[-1])
                or (count > 1 and not (ts[1:] > ts[:-1]).all())):
            raise ValueError("scanner requires strictly increasing "
                             "timestamps")
        n = len(self.ts)
        self._ensure_capacity(n + count)
        np.radians(lats, out=self._rad_lat[n:n + count])
        np.radians(lngs, out=self._rad_lng[n:n + count])
        total = n + count
        if total >= 2:
            lo = n - 1 if n else 0  # include the pair crossing the batch
            distances = haversine_rad_m(
                self._rad_lat[lo:total - 1], self._rad_lng[lo:total - 1],
                self._rad_lat[lo + 1:total], self._rad_lng[lo + 1:total])
            self._far.extend((distances > self.max_distance_m).tolist())
        self._rlat.extend(self._rad_lat[n:n + count].tolist())
        self._rlng.extend(self._rad_lng[n:n + count].tolist())
        self.lats.extend(lats.tolist())
        self.lngs.extend(lngs.tolist())
        self.ts.extend(ts.tolist())
        return self._advance_batch(final=False)

    def finish(self) -> list[tuple[int, int]]:
        """End of stream: decide everything still open (idempotent)."""
        if self._finished:
            return []
        self._finished = True
        return self._advance_batch(final=True)

    # ------------------------------------------------------------------
    def state(self) -> dict:
        """JSON-serializable resume state (exact: floats round-trip)."""
        return {
            "max_distance_m": self.max_distance_m,
            "min_duration_s": self.min_duration_s,
            "lats": list(self.lats), "lngs": list(self.lngs),
            "ts": list(self.ts),
            "anchor": self._anchor, "last": self._last, "scan": self._scan,
            "emitted": self._emitted, "finished": self._finished,
        }

    @classmethod
    def from_state(cls, state: dict) -> "StayPointScanner":
        scanner = cls(state["max_distance_m"], state["min_duration_s"])
        scanner.lats = [float(v) for v in state["lats"]]
        scanner.lngs = [float(v) for v in state["lngs"]]
        scanner.ts = [float(v) for v in state["ts"]]
        n = len(scanner.ts)
        scanner._ensure_capacity(n)
        scanner._rad_lat[:n] = np.radians(scanner.lats)
        scanner._rad_lng[:n] = np.radians(scanner.lngs)
        scanner._rlat = scanner._rad_lat[:n].tolist()
        scanner._rlng = scanner._rad_lng[:n].tolist()
        if n >= 2:
            distances = haversine_rad_m(
                scanner._rad_lat[:n - 1], scanner._rad_lng[:n - 1],
                scanner._rad_lat[1:n], scanner._rad_lng[1:n])
            scanner._far = (distances
                            > scanner.max_distance_m).tolist()
        scanner._anchor = int(state["anchor"])
        scanner._last = int(state["last"])
        scanner._scan = int(state["scan"])
        scanner._emitted = int(state["emitted"])
        scanner._finished = bool(state["finished"])
        return scanner


@dataclass(frozen=True)
class StayPointExtractor:
    """Extract stay points with distance threshold ``Dmax`` and time
    threshold ``Tmin`` (defaults are the paper's tuned values, §VI-A)."""

    max_distance_m: float = 500.0
    min_duration_s: float = 15.0 * 60.0

    def __post_init__(self) -> None:
        if self.max_distance_m <= 0 or self.min_duration_s <= 0:
            raise ValueError("thresholds must be positive")

    def scanner(self) -> StayPointScanner:
        """A fresh resumable scanner with this extractor's thresholds."""
        return StayPointScanner(self.max_distance_m, self.min_duration_s)

    def extract(self, trajectory: Trajectory) -> list[StayPoint]:
        """All stay points of a (cleaned) trajectory, in temporal order.

        Implemented as a single :meth:`StayPointScanner.feed_batch`
        replay of the online scanner (plus the flush), so offline
        extraction and streaming ingest share one code path — and both
        run the chunked vectorized scan rather than a per-fix loop.
        """
        scanner = self.scanner()
        spans = scanner.feed_batch(trajectory.lats, trajectory.lngs,
                                   trajectory.ts)
        spans.extend(scanner.finish())
        return [StayPoint(trajectory, start, end, ordinal=k + 1)
                for k, (start, end) in enumerate(spans)]


def extract_move_points(trajectory: Trajectory,
                        stay_points: list[StayPoint]) -> list[MovePoint]:
    """Move points connecting consecutive stay points (Definition 5).

    Each move point spans from the last GPS point of the preceding stay
    point to the first GPS point of the following one (inclusive), so a
    move segment is never empty even when sampling skipped the transit.
    """
    move_points: list[MovePoint] = []
    for a, b in zip(stay_points, stay_points[1:]):
        if b.start < a.end:
            raise ValueError("stay points overlap or are out of order")
        move_points.append(MovePoint(trajectory, a.end, b.start,
                                     ordinal=a.ordinal))
    return move_points
