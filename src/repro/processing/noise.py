"""Heuristic speed-based noise filtering (paper §III, after Zheng [6]).

The filter walks the trajectory and computes the travel speed of each GPS
point relative to the last *kept* point; points implying a speed above
``Vmax`` are dropped.  Comparing against the last kept point (rather than
the immediate predecessor) removes runs of consecutive outliers and avoids
discarding the good point that follows an outlier.

The sequential last-kept rule looks inherently scalar, but it has a key
property: *between drops, the last kept point is simply the predecessor*.
So one vectorized pass computes every consecutive-segment speed, and the
walk bulk-accepts whole stretches up to the next precomputed violation;
only the points immediately after a drop (where "last kept" lags behind)
need scalar re-checks until the chain re-joins.  On clean data the filter
is a single array pass with zero per-point Python work.  Offline
cleaning (:meth:`NoiseFilter.filter`) and streaming ingest
(:meth:`NoiseFilter.kept_indices`, resumed from the last kept fix) share
this one lane; the per-point loop it is pinned against is
``scalar_kept_indices`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo import haversine_m, haversine_rad_m, speed_kmh
from ..model import Trajectory

__all__ = ["NoiseFilter"]


@dataclass(frozen=True)
class NoiseFilter:
    """Remove GPS points whose implied speed exceeds ``max_speed_kmh``.

    The paper sets ``Vmax`` to 130 km/h: HCT trucks essentially never move
    faster, so any faster implied jump is sensor error.
    """

    max_speed_kmh: float = 130.0

    def __post_init__(self) -> None:
        if self.max_speed_kmh <= 0:
            raise ValueError("max_speed_kmh must be positive")

    # ------------------------------------------------------------------
    def _walk(self, lats, lngs, ts, violations: np.ndarray,
              prev: tuple[float, float, float] | None) -> list[int]:
        """Resolve the last-kept-point rule given precomputed
        consecutive-speed ``violations`` (point indices whose segment
        from the predecessor is implausible).

        While the chain is intact (last kept == predecessor) the rule
        reduces to the consecutive check, so everything up to the next
        violation is accepted in one slice.  After a drop the last kept
        point lags behind and each candidate needs a scalar check until
        some point is accepted right after its kept predecessor — from
        there the chain is re-joined and bulk mode resumes.
        """
        n = len(ts)
        vmax = self.max_speed_kmh
        keep: list[int] = []
        if prev is None:
            keep.append(0)
            i = 1
        else:
            i = 0
        num_violations = violations.size
        vp = 0  # index of the first violation not yet passed
        while i < n:
            if keep and keep[-1] == i - 1:
                while vp < num_violations and violations[vp] < i:
                    vp += 1
                nxt = int(violations[vp]) if vp < num_violations else n
                if nxt > i:
                    keep.extend(range(i, nxt))
                    i = nxt
                    continue
            if keep:
                j = keep[-1]
                plat, plng, pt = float(lats[j]), float(lngs[j]), float(ts[j])
            else:
                plat, plng, pt = prev
            distance = haversine_m(plat, plng, float(lats[i]),
                                   float(lngs[i]))
            if speed_kmh(distance, float(ts[i]) - pt) <= vmax:
                keep.append(i)
            i += 1
        return keep

    def _consecutive_violations(self, speeds: np.ndarray) -> np.ndarray:
        """Point indices whose segment from the predecessor is too fast."""
        return np.nonzero(speeds > self.max_speed_kmh)[0] + 1

    # ------------------------------------------------------------------
    def filter(self, trajectory: Trajectory) -> Trajectory:
        """Return a cleaned copy of ``trajectory``.

        One vectorized speed pass decides everything on clean stretches;
        the scalar last-kept walk only runs around actual outliers.
        Produces the identical kept set to the per-point rule loop.
        """
        n = len(trajectory)
        if n <= 1:
            return trajectory
        violations = self._consecutive_violations(
            trajectory.segment_speeds_kmh())
        if violations.size == 0:
            return trajectory  # every point chained: nothing to copy
        keep = self._walk(trajectory.lats, trajectory.lngs, trajectory.ts,
                          violations, prev=None)
        index = np.asarray(keep)
        return Trajectory(trajectory.lats[index], trajectory.lngs[index],
                          trajectory.ts[index],
                          truck_id=trajectory.truck_id, day=trajectory.day)

    def kept_indices(self, lats, lngs, ts,
                     prev: tuple[float, float, float] | None = None
                     ) -> np.ndarray:
        """Kept indices for a block of in-order fixes, vectorized.

        ``prev`` is the last kept fix *before* this block (streaming
        resume): when given, even the first point is checked against it;
        when ``None`` the first point is kept unconditionally, matching
        :meth:`filter`.  This is the bulk-ingest entry the stream layer
        uses to push a whole released batch through the filter at once.
        """
        lats = np.asarray(lats, dtype=np.float64)
        lngs = np.asarray(lngs, dtype=np.float64)
        ts = np.asarray(ts, dtype=np.float64)
        n = ts.size
        if n == 0:
            return np.zeros(0, dtype=np.intp)
        if n >= 2:
            rlat = np.radians(lats)
            rlng = np.radians(lngs)
            distances = haversine_rad_m(rlat[:-1], rlng[:-1],
                                        rlat[1:], rlng[1:])
            dt = ts[1:] - ts[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                speeds = np.where(dt > 0,
                                  distances / np.maximum(dt, 1e-12) * 3.6,
                                  np.inf)
            violations = self._consecutive_violations(speeds)
        else:
            violations = np.zeros(0, dtype=np.intp)
        if violations.size == 0 and prev is None:
            return np.arange(n, dtype=np.intp)
        keep = self._walk(lats, lngs, ts, violations, prev=prev)
        return np.asarray(keep, dtype=np.intp)

    def removed_count(self, trajectory: Trajectory) -> int:
        """Number of points the filter would drop."""
        return len(trajectory) - len(self.filter(trajectory))
