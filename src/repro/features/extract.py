"""Per-point feature extraction (paper §IV-A)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..configbase import ConfigMixin
from ..data.poi import POI_CATEGORIES, POIDatabase
from ..model import Trajectory

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
    """Turn GPS points into raw 32-dim feature vectors."""

    def __init__(self, pois: POIDatabase,
                 config: FeatureConfig | None = None) -> None:
        self.pois = pois
        self.config = config or FeatureConfig()

    def features(self, lats: np.ndarray, lngs: np.ndarray,
                 ts: np.ndarray) -> np.ndarray:
        """Raw ``(n, 32)`` feature rows of ``n`` points.

        Each row depends on its own point only, so any subset of a
        trajectory's points gets exactly the rows of the whole.
        """
        if self.config.use_poi:
            poi_counts = self.pois.count_categories_batch(
                lats, lngs, radius_m=self.config.poi_radius_m)
        else:
            poi_counts = np.zeros((len(lats), FEATURE_DIM - 3))
        return np.column_stack([lats, lngs, ts, poi_counts])

    def trajectory_features(self, trajectory: Trajectory) -> np.ndarray:
        """Raw ``(len(trajectory), 32)`` feature matrix."""
        return self.features(trajectory.lats, trajectory.lngs,
                             trajectory.ts)

    def clear_cache(self) -> None:
        """Nothing to clear: the extractor keeps no memo (kept callable
        for callers that clear every cache before a cold run)."""
