"""Per-point feature extraction (paper §IV-A)."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..configbase import ConfigMixin
from ..data.poi import POI_CATEGORIES, POIDatabase
from ..model import Trajectory
from ..perf.cache import CacheStats

__all__ = ["FEATURE_DIM", "FeatureConfig", "FeatureExtractor",
           "subsample_indices"]

#: lat + lng + t + 29 POI category counts.
FEATURE_DIM = 3 + len(POI_CATEGORIES)


@dataclass(frozen=True)
class FeatureConfig(ConfigMixin):
    """Feature extraction knobs.

    ``max_segment_len`` caps the number of GPS points per stay/move
    segment fed to the LSTMs.  The paper runs full-resolution sequences on
    a GPU; on CPU the cap bounds the recurrent step count while keeping the
    sequence's endpoints and overall shape (see DESIGN.md §2).
    """

    poi_radius_m: float = 100.0
    max_segment_len: int = 16
    #: LEAD-NoPoi ablation: zero out the 29 POI columns (the feature
    #: dimension stays 32, matching the paper's zero-padding).
    use_poi: bool = True

    def __post_init__(self) -> None:
        if self.poi_radius_m <= 0:
            raise ValueError("poi_radius_m must be positive")
        if self.max_segment_len < 2:
            raise ValueError("max_segment_len must be >= 2")


#: Upper bound on the extractor's per-trajectory feature memo (entries,
#: LRU-evicted).  A day-long fleet run touches far more distinct
#: trajectory objects than any one detection call reuses, so an
#: unbounded memo would be a slow leak.
TRAJECTORY_CACHE_SIZE = 1024


#: Memo for :func:`subsample_indices`: segment ranges repeat across the
#: candidates of a day (every pair shares stay/move segments), so the
#: same (start, end, max_len) triple recurs constantly on the cold
#: featurization path.  Bounded; cleared wholesale when full.
_SUBSAMPLE_MEMO: dict[tuple[int, int, int], np.ndarray] = {}
_SUBSAMPLE_MEMO_MAX = 8192


def subsample_indices(start: int, end: int, max_len: int) -> np.ndarray:
    """Up to ``max_len`` evenly spaced indices over ``[start, end]``.

    Both endpoints are always included (they anchor a segment to its
    stay points); intermediate indices are unique and sorted.  Returned
    arrays are memoized and read-only — copy before mutating.
    """
    if end < start:
        raise ValueError("end must be >= start")
    key = (start, end, max_len)
    cached = _SUBSAMPLE_MEMO.get(key)
    if cached is not None:
        return cached
    count = end - start + 1
    if count <= max_len:
        indices = np.arange(start, end + 1)
    else:
        # Bit-identical to np.linspace(start, end, num=max_len) for
        # scalar endpoints, minus its dispatch overhead.
        grid = np.arange(max_len, dtype=np.float64)
        grid *= (end - start) / (max_len - 1)
        grid += start
        grid[-1] = end
        indices = grid.round().astype(np.int64)
        # Rounded output is already sorted, so a neighbour-diff mask
        # dedups without np.unique's sort; spacing above one index
        # (count >= 2 * max_len) cannot collide at all.
        if count < 2 * max_len:
            indices = indices[np.concatenate(
                ([True], indices[1:] != indices[:-1]))]
    indices.setflags(write=False)
    if len(_SUBSAMPLE_MEMO) >= _SUBSAMPLE_MEMO_MAX:
        _SUBSAMPLE_MEMO.clear()
    _SUBSAMPLE_MEMO[key] = indices
    return indices


class FeatureExtractor:
    """Turn trajectory points into raw 32-dim feature vectors.

    The extractor memoizes POI counts per trajectory, because the same GPS
    points appear in many candidate trajectories of the same day.  The
    memo is LRU-bounded (:data:`TRAJECTORY_CACHE_SIZE`): the
    hot set of one detection call stays resident, while long fleet runs
    cannot grow it without bound.
    """

    def __init__(self, pois: POIDatabase,
                 config: FeatureConfig | None = None) -> None:
        self.pois = pois
        self.config = config or FeatureConfig()
        # The cache stores (trajectory, features): holding a reference to
        # the trajectory keeps its id() from being reused by a new object.
        # Insertion order is recency order (moved on hit, evicted from
        # the front).
        self._cache: OrderedDict[int, tuple[Trajectory, np.ndarray]] \
            = OrderedDict()
        # Hit/miss/eviction counts, same struct as SegmentFeatureCache.
        self.stats = CacheStats(name="trajectory_features")

    def trajectory_features(self, trajectory: Trajectory) -> np.ndarray:
        """Raw ``(len(trajectory), 32)`` feature matrix (memoized)."""
        key = id(trajectory)
        cached = self._cache.get(key)
        if cached is not None and cached[0] is trajectory:
            self._cache.move_to_end(key)
            self.stats.record_hit()
            return cached[1]
        self.stats.record_miss()
        if self.config.use_poi:
            poi_counts = self.pois.count_categories_batch(
                trajectory.lats, trajectory.lngs,
                radius_m=self.config.poi_radius_m)
        else:
            poi_counts = np.zeros((len(trajectory), FEATURE_DIM - 3))
        features = np.column_stack([trajectory.lats, trajectory.lngs,
                                    trajectory.ts, poi_counts])
        self._cache[key] = (trajectory, features)
        while len(self._cache) > TRAJECTORY_CACHE_SIZE:
            self._cache.popitem(last=False)
            self.stats.record_eviction()
        return features

    def clear_cache(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle without the memo: ``id()`` keys are meaningless in
        another process, and shipping every cached feature matrix to a
        worker would dwarf the task payloads it rides along with.
        Workers rebuild entries on demand — content-identical by
        construction."""
        state = self.__dict__.copy()
        state["_cache"] = OrderedDict()
        return state
