"""SP-R: rule-based white-list baseline (paper §VI-A, baseline 1).

The white list stores both endpoints of every training-set loaded
trajectory as loading/unloading locations.  A stay point is classified as
l/u when a white-list location lies within the searching radius (500 m) of
its centroid.  The lookup is a deliberate linear scan — the paper notes
SP-R's inference cost comes from traversing the whole white list per stay
point, and the efficiency figure (Fig. 8) depends on that behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..geo import haversine_m
from ..model import LoadedLabel
from ..processing import ProcessedTrajectory
from .base import greedy_selection

__all__ = ["WhiteList", "SPRDetector"]


@dataclass
class WhiteList:
    """Known loading/unloading locations harvested from training labels."""

    locations: list[tuple[float, float]] = field(default_factory=list)

    def add_label(self, label: LoadedLabel) -> None:
        self.locations.append((label.loading_lat, label.loading_lng))
        self.locations.append((label.unloading_lat, label.unloading_lng))

    def __len__(self) -> int:
        return len(self.locations)

    def matches(self, lat: float, lng: float, radius_m: float) -> bool:
        """Linear scan: is any stored location within ``radius_m``?"""
        for loc_lat, loc_lng in self.locations:
            if haversine_m(lat, lng, loc_lat, loc_lng) <= radius_m:
                return True
        return False


class SPRDetector:
    """The complete SP-R baseline."""

    def __init__(self, search_radius_m: float = 500.0) -> None:
        if search_radius_m <= 0:
            raise ValueError("search radius must be positive")
        self.search_radius_m = search_radius_m
        self.white_list = WhiteList()

    def fit(self, training: list[tuple[ProcessedTrajectory, LoadedLabel]]
            ) -> "SPRDetector":
        """Harvest the white list from training labels."""
        for _, label in training:
            self.white_list.add_label(label)
        return self

    def detect(self, processed: ProcessedTrajectory) -> tuple[int, int]:
        """Detected (i', j') ordinal pair for one processed trajectory."""
        flags = []
        for sp in processed.stay_points:
            lat, lng = sp.centroid
            flags.append(self.white_list.matches(lat, lng,
                                                 self.search_radius_m))
        return greedy_selection(processed.num_stay_points, flags)
