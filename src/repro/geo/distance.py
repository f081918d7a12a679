"""Great-circle distance and speed computations on the WGS84 sphere.

Two lanes, one formula:

* the **scalar lane** (:func:`haversine_m` on plain floats,
  :func:`speed_kmh`) goes through the :mod:`math` module — a single
  haversine costs ~0.3 µs instead of the ~15 µs of routing four Python
  floats through numpy's scalar ufunc machinery;
* the **array lane** (:func:`haversine_m` on arrays,
  :func:`pairwise_haversine_m`, :func:`haversine_rad_m`) stays in numpy
  and processes whole coordinate arrays per call.

Both lanes multiply by the same ``pi / 180`` constant and evaluate the
same expression tree, so they agree to the last few ulps; every
consumer that needs *decisions* (threshold comparisons in the noise
filter and the stay-point scanner) uses tolerances far above that.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["EARTH_RADIUS_M", "haversine_m", "haversine_rad_m",
           "pairwise_haversine_m", "speed_kmh"]

EARTH_RADIUS_M = 6_371_008.8  # mean Earth radius in meters

#: Types eligible for the scalar fast path.  ``type(x) in`` is the
#: cheapest possible check; ``np.float64`` is listed because trajectory
#: columns hand out ``np.float64`` scalars.
_SCALAR_TYPES = (float, int, np.float64)


def haversine_m(lat1: float, lng1: float, lat2: float, lng2: float) -> float:
    """Great-circle distance in meters between two (lat, lng) points.

    Accepts scalars or numpy arrays (broadcast elementwise).  Pure
    scalars take a :mod:`math`-module fast path that avoids numpy's
    per-call ufunc dispatch overhead entirely.
    """
    if (type(lat1) in _SCALAR_TYPES and type(lng1) in _SCALAR_TYPES
            and type(lat2) in _SCALAR_TYPES and type(lng2) in _SCALAR_TYPES):
        lat1r = math.radians(lat1)
        lat2r = math.radians(lat2)
        sin_dlat = math.sin((lat2r - lat1r) / 2.0)
        sin_dlng = math.sin(math.radians(lng2 - lng1) / 2.0)
        a = (sin_dlat * sin_dlat
             + math.cos(lat1r) * math.cos(lat2r) * sin_dlng * sin_dlng)
        if a > 1.0:
            a = 1.0
        elif a < 0.0:
            a = 0.0
        return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))
    lat1, lng1, lat2, lng2 = map(np.radians, (lat1, lng1, lat2, lng2))
    dlat = lat2 - lat1
    dlng = lng2 - lng1
    a = (np.sin(dlat / 2.0) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin(dlng / 2.0) ** 2)
    result = 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    if np.isscalar(result) or result.ndim == 0:
        return float(result)
    return result


def haversine_rad_m(lat1: np.ndarray, lng1: np.ndarray,
                    lat2: np.ndarray, lng2: np.ndarray) -> np.ndarray:
    """Vectorized haversine over coordinates *already in radians*.

    The hot chunked consumers (stay-point scanning, bulk POI counting)
    precompute radian arrays once per trajectory; this entry skips the
    four ``np.radians`` passes :func:`haversine_m` would re-run on
    every chunk.
    """
    dlat = lat2 - lat1
    dlng = lng2 - lng1
    a = (np.sin(dlat / 2.0) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin(dlng / 2.0) ** 2)
    # minimum/maximum clamp exactly like np.clip, minus its dispatch cost
    # (this runs on every drained block of a stream).
    return 2.0 * EARTH_RADIUS_M * np.arcsin(
        np.sqrt(np.minimum(np.maximum(a, 0.0), 1.0)))


def pairwise_haversine_m(lats: np.ndarray, lngs: np.ndarray) -> np.ndarray:
    """Distances between consecutive points of a polyline, shape ``(n-1,)``."""
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    if lats.shape != lngs.shape or lats.ndim != 1:
        raise ValueError("lats and lngs must be equal-length 1-D arrays")
    if lats.size < 2:
        return np.zeros(0)
    lats = np.radians(lats)
    lngs = np.radians(lngs)
    return haversine_rad_m(lats[:-1], lngs[:-1], lats[1:], lngs[1:])


def speed_kmh(distance_m: float, seconds: float) -> float:
    """Convert a distance/duration pair into km/h.

    Zero or negative durations yield ``inf`` so that the noise filter
    (paper §III) treats timestamp glitches as outliers rather than
    dividing by zero.
    """
    if seconds <= 0:
        return float("inf")
    return distance_m / seconds * 3.6
