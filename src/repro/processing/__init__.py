"""Raw trajectory processing — LEAD component 1 (paper §III).

Noise filtering, stay point extraction, and candidate trajectory
generation (DESIGN.md S11-S13).
"""

from .noise import NoiseFilter
from .staypoints import (StayPointExtractor, StayPointScanner,
                         extract_move_points)
from .candidates import CandidateGenerator
from .pipeline import ProcessedTrajectory, RawTrajectoryProcessor
from .validation import (MIN_USABLE_FIXES, ReorderBuffer, ReorderStats,
                         sanitize_trajectory)

__all__ = [
    "NoiseFilter", "StayPointExtractor", "StayPointScanner",
    "extract_move_points",
    "CandidateGenerator", "ProcessedTrajectory", "RawTrajectoryProcessor",
    "MIN_USABLE_FIXES", "ReorderBuffer", "ReorderStats",
    "sanitize_trajectory",
]
