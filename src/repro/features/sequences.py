"""Candidate feature sequences — the f-seq of the paper (§IV-A/B).

A candidate trajectory's feature sequence is segmented into alternating
stay-point and move-point feature subsequences (sp-f-seq / mp-f-seq), which
the hierarchical autoencoder compresses separately and hierarchically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from ..model import CandidateTrajectory, MovePoint, StayPoint
from ..nn.precision import active_dtype_name
from ..perf.cache import SegmentFeatureCache, segment_key
from .extract import FeatureExtractor, subsample_indices
from .normalize import ZScoreNormalizer

__all__ = ["SegmentKind", "CandidateFeatures", "CandidateFeaturizer"]


class SegmentKind(str, Enum):
    STAY = "sp"
    MOVE = "mp"


@dataclass(frozen=True)
class CandidateFeatures:
    """The segmented, normalized f-seq of one candidate trajectory.

    ``segments[k]`` is an ``(L_k, 32)`` float matrix; ``kinds[k]`` tells
    whether it is a sp-f-seq or mp-f-seq.  Segments alternate
    sp, mp, sp, ..., mp, sp.
    """

    pair: tuple[int, int]
    segments: tuple[np.ndarray, ...]
    kinds: tuple[SegmentKind, ...]

    def __post_init__(self) -> None:
        if len(self.segments) != len(self.kinds):
            raise ValueError("segments/kinds length mismatch")
        if not self.segments:
            raise ValueError("empty candidate features")
        expected = [SegmentKind.STAY if i % 2 == 0 else SegmentKind.MOVE
                    for i in range(len(self.kinds))]
        if list(self.kinds) != expected:
            raise ValueError("segments must alternate sp/mp starting with sp")
        if self.kinds[-1] is not SegmentKind.STAY:
            raise ValueError("candidate must end with a stay segment")

    @property
    def stay_segments(self) -> list[np.ndarray]:
        """The SPs-f-seq: all stay-point feature subsequences in order."""
        return [s for s, k in zip(self.segments, self.kinds)
                if k is SegmentKind.STAY]

    @property
    def move_segments(self) -> list[np.ndarray]:
        """The MPs-f-seq: all move-point feature subsequences in order."""
        return [s for s, k in zip(self.segments, self.kinds)
                if k is SegmentKind.MOVE]

    @property
    def num_points(self) -> int:
        return int(sum(len(s) for s in self.segments))

    def flat(self) -> np.ndarray:
        """All feature vectors concatenated (the unsegmented f-seq)."""
        return np.concatenate(self.segments, axis=0)


class CandidateFeaturizer:
    """Build :class:`CandidateFeatures` for candidates of a trajectory.

    ``feature_scale`` rescales z-scored features so nearly all values fall
    inside [-1, 1]: the decompressor's tanh output is range-limited (the
    paper notes the tanh "matches the range of the f-seq"), and without
    the rescale the reconstruction MSE has a high floor.
    """

    def __init__(self, extractor: FeatureExtractor,
                 normalizer: ZScoreNormalizer,
                 feature_scale: float = 1.0 / 3.0) -> None:
        if feature_scale <= 0:
            raise ValueError("feature_scale must be positive")
        self.extractor = extractor
        self.normalizer = normalizer
        self.feature_scale = feature_scale
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
        hasher.update(repr((self.feature_scale, cfg.poi_radius_m,
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
            matrix *= self.feature_scale
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

    def featurize_all(self, candidates) -> list[CandidateFeatures]:
        """The segmented f-seq of each candidate, in one featurization
        pass over all their segments."""
        per_candidate = [candidate.segments() for candidate in candidates]
        matrices = iter(self.featurize_segments(
            [segment for segments in per_candidate for segment in segments]))
        return [CandidateFeatures(
                    pair=candidate.pair,
                    segments=tuple(next(matrices) for _ in segments),
                    kinds=tuple(SegmentKind.STAY
                                if isinstance(segment, StayPoint)
                                else SegmentKind.MOVE
                                for segment in segments))
                for candidate, segments in zip(candidates, per_candidate)]

    def featurize(self, candidate: CandidateTrajectory) -> CandidateFeatures:
        """The segmented f-seq of one candidate."""
        return self.featurize_all([candidate])[0]

    def stay_point_features(self, stay_point: StayPoint) -> np.ndarray:
        """Normalized feature sequence of a single stay point.

        Used by the SP-GRU / SP-LSTM baselines, which classify stay points
        in isolation.
        """
        return self.segment_features(stay_point)
