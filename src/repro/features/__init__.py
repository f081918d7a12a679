"""Feature extraction — inputs of LEAD component 2 (paper §IV-A).

Each GPS point becomes a 32-dim vector ``[lat, lng, t, poi_1..poi_29]``
(the per-category POI counts within 100 m), z-score normalized over the
training set (DESIGN.md S14).
"""

from .normalize import ZScoreNormalizer
from .extract import (FEATURE_DIM, FeatureConfig, FeatureExtractor,
                      subsample_indices)
from .sequences import CandidateFeaturizer

__all__ = [
    "ZScoreNormalizer", "FEATURE_DIM", "FeatureConfig", "FeatureExtractor",
    "subsample_indices", "CandidateFeaturizer",
]
