"""Loaded trajectory detection — LEAD component 3 (paper §V).

Group generation, forward/backward stacked-BiLSTM detectors, label
processing, and distribution merging (DESIGN.md S16-S18).
"""

from .grouping import (backward_index_maps, enumerate_pairs,
                       forward_index_maps, index_to_pair, pair_to_index)
from .labels import DEFAULT_EPSILON, smooth_label
from .detectors import GroupDetector, IndependentDetector, score_groups
from .merge import argmax_pair, merge_distributions
from .trainer import DetectorTrainingConfig
from .joint import JointDetectorTrainer, TrajectorySpec

__all__ = [
    "enumerate_pairs", "pair_to_index", "index_to_pair",
    "forward_index_maps", "backward_index_maps",
    "smooth_label", "DEFAULT_EPSILON",
    "GroupDetector", "IndependentDetector", "score_groups",
    "merge_distributions", "argmax_pair",
    "DetectorTrainingConfig",
    "JointDetectorTrainer", "TrajectorySpec",
]
