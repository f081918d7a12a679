"""Raw trajectories (paper Definition 1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..geo import haversine_m, haversine_rad_m

__all__ = ["GPSPoint", "Trajectory"]


@dataclass(frozen=True)
class GPSPoint:
    """A single GPS fix: ``p = (lat, lng, t)`` with ``t`` in unix seconds."""

    lat: float
    lng: float
    t: float

    def distance_m(self, other: "GPSPoint") -> float:
        return haversine_m(self.lat, self.lng, other.lat, other.lng)


class Trajectory:
    """A chronologically ordered sequence of GPS points.

    Stored columnar (three float64 arrays) for vectorized processing; the
    sequence protocol yields :class:`GPSPoint` views for ergonomic access.
    """

    __slots__ = ("lats", "lngs", "ts", "truck_id", "day", "_radians",
                 "__weakref__")

    def __init__(self, lats: Sequence[float], lngs: Sequence[float],
                 ts: Sequence[float], truck_id: str = "",
                 day: str = "") -> None:
        self.lats = np.asarray(lats, dtype=np.float64)
        self.lngs = np.asarray(lngs, dtype=np.float64)
        self.ts = np.asarray(ts, dtype=np.float64)
        if not (self.lats.shape == self.lngs.shape == self.ts.shape):
            raise ValueError("lats, lngs, ts must have the same length")
        if self.lats.ndim != 1:
            raise ValueError("trajectory arrays must be 1-D")
        if self.ts.size > 1 and not (np.diff(self.ts) > 0).all():
            raise ValueError("timestamps must be strictly increasing")
        self.truck_id = truck_id
        self.day = day
        self._radians: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.lats.size)

    def __iter__(self) -> Iterator[GPSPoint]:
        for i in range(len(self)):
            yield self.point(i)

    def point(self, i: int) -> GPSPoint:
        return GPSPoint(float(self.lats[i]), float(self.lngs[i]),
                        float(self.ts[i]))

    def __getitem__(self, index: int | slice) -> "GPSPoint | Trajectory":
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("trajectory slices must have step 1")
            return self.slice(start, stop)
        return self.point(index)

    def slice(self, start: int, stop: int) -> "Trajectory":
        """Subtrajectory of points ``[start, stop)``."""
        return Trajectory(self.lats[start:stop], self.lngs[start:stop],
                          self.ts[start:stop], truck_id=self.truck_id,
                          day=self.day)

    def radians(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lats, lngs)`` in radians, computed once and cached.

        Every vectorized geo kernel downstream (noise filter, stay-point
        scanner, distance metrics) needs radian coordinates; converting
        per call would re-run two full ``np.radians`` passes each time.
        The arrays are owned by the trajectory — treat them as
        read-only, like the degree columns.
        """
        if self._radians is None:
            self._radians = (np.radians(self.lats), np.radians(self.lngs))
        return self._radians

    # ------------------------------------------------------------------
    @property
    def duration_s(self) -> float:
        if len(self) < 2:
            return 0.0
        return float(self.ts[-1] - self.ts[0])

    def pairwise_distances_m(self) -> np.ndarray:
        """Distances between consecutive points, shape ``(n-1,)``.

        Served from the cached radian arrays, so repeated metric calls
        (length, speeds, noise filtering) share one conversion pass.
        """
        if len(self) < 2:
            return np.zeros(0)
        lats_r, lngs_r = self.radians()
        return haversine_rad_m(lats_r[:-1], lngs_r[:-1],
                               lats_r[1:], lngs_r[1:])

    def length_m(self) -> float:
        """Total path length along consecutive points."""
        return float(self.pairwise_distances_m().sum())

    def segment_speeds_kmh(self) -> np.ndarray:
        """Speed of each consecutive segment, shape ``(n-1,)``."""
        if len(self) < 2:
            return np.zeros(0)
        dist = self.pairwise_distances_m()
        dt = np.diff(self.ts)
        with np.errstate(divide="ignore", invalid="ignore"):
            speeds = np.where(dt > 0, dist / np.maximum(dt, 1e-12) * 3.6,
                              np.inf)
        return speeds

    def to_dict(self) -> dict[str, object]:
        return {
            "truck_id": self.truck_id,
            "day": self.day,
            "lats": self.lats.tolist(),
            "lngs": self.lngs.tolist(),
            "ts": self.ts.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "Trajectory":
        return cls(payload["lats"], payload["lngs"], payload["ts"],
                   truck_id=str(payload.get("truck_id", "")),
                   day=str(payload.get("day", "")))

    def __repr__(self) -> str:
        return (f"Trajectory(truck_id={self.truck_id!r}, day={self.day!r}, "
                f"points={len(self)})")
