"""Equirectangular local projection.

For city-scale geometry (tens of kilometers) an equirectangular projection
around a reference latitude is accurate to well under 0.1% and lets the
spatial index and the road-network router work in planar meters.
"""

from __future__ import annotations

import numpy as np

from .distance import EARTH_RADIUS_M

__all__ = ["LocalProjection"]


class LocalProjection:
    """Project WGS84 (lat, lng) to local planar meters and back."""

    def __init__(self, ref_lat: float, ref_lng: float) -> None:
        self.ref_lat = float(ref_lat)
        self.ref_lng = float(ref_lng)
        self._cos_ref = np.cos(np.radians(ref_lat))
        if self._cos_ref <= 1e-9:
            raise ValueError("reference latitude too close to a pole")

    def to_xy(self, lat: float | np.ndarray, lng: float | np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """Return (x_east_m, y_north_m) relative to the reference point."""
        lat = np.asarray(lat, dtype=np.float64)
        lng = np.asarray(lng, dtype=np.float64)
        x = np.radians(lng - self.ref_lng) * EARTH_RADIUS_M * self._cos_ref
        y = np.radians(lat - self.ref_lat) * EARTH_RADIUS_M
        return x, y

    def to_latlng(self, x: float | np.ndarray, y: float | np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`to_xy`."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        lat = self.ref_lat + np.degrees(y / EARTH_RADIUS_M)
        lng = self.ref_lng + np.degrees(x / (EARTH_RADIUS_M * self._cos_ref))
        return lat, lng
