"""Candidate feature sequences — the f-seq of the paper (§IV-A/B).

A candidate trajectory's feature sequence is segmented into alternating
stay-point and move-point feature subsequences (sp-f-seq / mp-f-seq), which
the hierarchical autoencoder compresses separately and hierarchically.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from ..model import MovePoint, StayPoint
from ..nn.precision import active_dtype_name
from ..perf.cache import SegmentFeatureCache, segment_key
from .extract import FeatureExtractor, subsample_indices
from .normalize import ZScoreNormalizer

__all__ = ["FEATURE_SCALE", "CandidateFeaturizer"]

#: Rescale applied to z-scored features so nearly all values fall inside
#: [-1, 1]: the decompressor's tanh output is range-limited (the paper
#: notes the tanh "matches the range of the f-seq"), and without the
#: rescale the reconstruction MSE has a high floor.
FEATURE_SCALE = 1.0 / 3.0


class CandidateFeaturizer:
    """Featurize the stay and move segments of processed trajectories.

    A candidate's f-seq is the alternating stay/move matrices from its
    first to its last stay point, so the matrices of a day's segments
    plus a pair determine it; callers keep those per-day lists.
    """

    def __init__(self, extractor: FeatureExtractor,
                 normalizer: ZScoreNormalizer) -> None:
        self.extractor = extractor
        self.normalizer = normalizer
        #: Content-keyed cache of per-segment feature matrices.
        self.cache = SegmentFeatureCache()

    # ------------------------------------------------------------------
    def fit_normalizer(self, trajectories) -> ZScoreNormalizer:
        """Fit the z-score normalizer on full training trajectories."""
        blocks = [self.extractor.trajectory_features(tr)
                  for tr in trajectories]
        if not blocks:
            raise ValueError("no trajectories to fit on")
        self.normalizer.fit(np.concatenate(blocks, axis=0))
        return self.normalizer

    # ------------------------------------------------------------------
    def context_fingerprint(self) -> bytes:
        """Digest of everything segment features depend on beyond the segment.

        Covers the normalizer statistics, the feature scale, and the
        extractor's configuration (POI radius, POI on/off, subsampling
        cap).  Refitting the normalizer changes its ``mean_``/``std_``
        and thereby this fingerprint, which silently invalidates every
        stale cache entry.
        """
        cfg = self.extractor.config
        hasher = hashlib.blake2b(digest_size=16)
        if self.normalizer.fitted:
            hasher.update(np.ascontiguousarray(self.normalizer.mean_))
            hasher.update(np.ascontiguousarray(self.normalizer.std_))
        hasher.update(repr((FEATURE_SCALE, cfg.poi_radius_m,
                            cfg.max_segment_len, cfg.use_poi)).encode())
        return hasher.digest()

    def featurize_segments(self, segments: Sequence[StayPoint | MovePoint]
                           ) -> list[np.ndarray]:
        """Z-scored, rescaled ``(L, F)`` feature matrix of each segment.

        The one featurization path: every caller goes through here.  The
        encoder reads each segment at its ``subsample_indices`` only, so
        those ``(lat, lng, t)`` rows are gathered (one fancy index per
        trajectory) and hashed into the segment's cache key
        (:func:`~repro.perf.cache.segment_key`).  Each key gets one
        lookup; a key repeated in ``segments`` is one miss, then hits,
        and yields the same object.  All misses are computed together:
        one POI count over their rows, one normalization, and under an
        active float32 inference policy one cast, so downstream padding
        and kernels stay in float32.  Returned matrices are read-only.
        """
        dtype = active_dtype_name()
        context = self.context_fingerprint()
        max_len = self.extractor.config.max_segment_len
        # Distinct segment objects, grouped by trajectory.
        groups: dict[int, dict[int, StayPoint | MovePoint]] = {}
        for segment in segments:
            groups.setdefault(id(segment.trajectory), {})[id(segment)] = \
                segment
        keys: dict[int, tuple] = {}          # id(segment) -> cache key
        rows_of: dict[tuple, np.ndarray] = {}
        for members in groups.values():
            group = list(members.values())
            trajectory = group[0].trajectory
            picks = [subsample_indices(s.start, s.end, max_len)
                     for s in group]
            points = np.column_stack((trajectory.lats, trajectory.lngs,
                                      trajectory.ts))[np.concatenate(picks)]
            offset = 0
            for segment, pick in zip(group, picks):
                rows = points[offset:offset + len(pick)]
                offset += len(pick)
                key = keys[id(segment)] = segment_key(segment, rows,
                                                      context, dtype)
                rows_of[key] = rows
        cache = self.cache
        order = [keys[id(segment)] for segment in segments]
        found: dict[tuple, np.ndarray] = {}
        missed: dict[tuple, np.ndarray] = {}   # key -> rows
        repeats: list[tuple] = []
        for key in order:
            if key in missed:
                repeats.append(key)
                continue
            value = cache.get(key)
            if value is None:
                missed[key] = rows_of[key]
            else:
                found[key] = value
        if missed:
            rows = np.concatenate(list(missed.values()))
            matrix = self.normalizer.transform(self.extractor.features(
                rows[:, 0], rows[:, 1], rows[:, 2]))
            matrix *= FEATURE_SCALE
            if dtype != "float64":
                matrix = matrix.astype(dtype)
            offset = 0
            for key, read in missed.items():
                value = matrix[offset:offset + len(read)]
                offset += len(read)
                value.setflags(write=False)
                cache.put(key, value)
                found[key] = value
        for key in repeats:
            cache.get(key)   # the hit a one-at-a-time lookup counts
        return [found[key] for key in order]

    def segment_features(self, segment: StayPoint | MovePoint) -> np.ndarray:
        """:meth:`featurize_segments` of one segment."""
        return self.featurize_segments((segment,))[0]

    def clear_memos(self) -> None:
        """Nothing to clear: the only featurization state is
        :attr:`cache` (kept callable for callers that clear every cache
        before a cold run)."""
