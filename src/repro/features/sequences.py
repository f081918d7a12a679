"""Candidate feature sequences — the f-seq of the paper (§IV-A/B).

A candidate trajectory's feature sequence is segmented into alternating
stay-point and move-point feature subsequences (sp-f-seq / mp-f-seq), which
the hierarchical autoencoder compresses separately and hierarchically.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..model import CandidateTrajectory, MovePoint, StayPoint
from ..nn.precision import active_dtype_name
from ..perf.cache import SegmentFeatureCache
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
        self._context_memo: tuple | None = None
        # Whole-trajectory normalized feature matrices, memoized by object
        # identity + featurization context.  Normalization is elementwise,
        # so slicing rows out of the full transformed matrix is
        # bit-identical to transforming each segment's rows separately —
        # but costs one array op per trajectory instead of one per segment.
        self._normalized_memo: \
            OrderedDict[int, tuple[object, bytes, np.ndarray]] = OrderedDict()

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
        cap).  Refitting the normalizer replaces its ``mean_``/``std_``
        arrays wholesale, which changes this fingerprint and thereby
        silently invalidates every stale cache entry.  Memoized by array
        identity (references are held, so ids stay valid).
        """
        mean = self.normalizer.mean_
        std = self.normalizer.std_
        memo = self._context_memo
        if (memo is not None and memo[0] is mean and memo[1] is std
                and memo[2] == self.feature_scale):
            return memo[3]
        cfg = self.extractor.config
        hasher = hashlib.blake2b(digest_size=16)
        if mean is not None:
            hasher.update(np.ascontiguousarray(mean).tobytes())
            hasher.update(np.ascontiguousarray(std).tobytes())
        hasher.update(repr((self.feature_scale, cfg.poi_radius_m,
                            cfg.max_segment_len, cfg.use_poi)).encode())
        digest = hasher.digest()
        self._context_memo = (mean, std, self.feature_scale, digest)
        return digest

    def segment_features(self, segment: StayPoint | MovePoint) -> np.ndarray:
        """Z-scored, rescaled ``(L, F)`` feature matrix of one segment.

        This is the public hot-path entry point: the pipeline, the
        baselines and the cache all route through it.  Each (trajectory
        content, segment range, featurization context, compute dtype)
        tuple is computed once; cached matrices are returned read-only.
        Under an active float32 inference policy the matrix is cast once
        here — downstream padding and kernels then stay in float32
        without per-call casts — and lives under a dtype-disjoint cache
        key.
        """
        dtype_name = active_dtype_name()
        cache = self.cache
        context = self.context_fingerprint()
        hit = cache.get(segment, context, dtype_name)
        if hit is not None:
            return hit  # type: ignore[return-value]
        value = self._compute_segment_features(segment)
        if dtype_name != "float64":
            value = value.astype(dtype_name)
        value.setflags(write=False)
        cache.put(segment, context, value, dtype_name)
        return value

    _NORMALIZED_MEMO_MAX = 256

    def _normalized_features(self, trajectory) -> np.ndarray:
        """Normalized, rescaled feature matrix of a whole trajectory."""
        context = self.context_fingerprint()
        key = id(trajectory)
        memo = self._normalized_memo
        hit = memo.get(key)
        if hit is not None and hit[0] is trajectory and hit[1] == context:
            memo.move_to_end(key)
            return hit[2]
        matrix = self.normalizer.transform(
            self.extractor.trajectory_features(trajectory)) \
            * self.feature_scale
        memo[key] = (trajectory, context, matrix)
        while len(memo) > self._NORMALIZED_MEMO_MAX:
            memo.popitem(last=False)
        return matrix

    def _compute_segment_features(self, segment: StayPoint | MovePoint
                                  ) -> np.ndarray:
        indices = subsample_indices(segment.start, segment.end,
                                    self.extractor.config.max_segment_len)
        return self._normalized_features(segment.trajectory)[indices]

    def clear_memos(self) -> None:
        """Drop the per-trajectory normalized-matrix memo (cold benches)."""
        self._normalized_memo.clear()

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle without the normalized-matrix memo: ``id()`` keys mean
        nothing in another process and the matrices rebuild on demand."""
        state = self.__dict__.copy()
        state["_normalized_memo"] = OrderedDict()
        return state

    def featurize(self, candidate: CandidateTrajectory) -> CandidateFeatures:
        """The segmented f-seq of one candidate."""
        segments = []
        kinds = []
        for segment in candidate.segments():
            segments.append(self.segment_features(segment))
            kinds.append(SegmentKind.STAY if isinstance(segment, StayPoint)
                         else SegmentKind.MOVE)
        return CandidateFeatures(pair=candidate.pair,
                                 segments=tuple(segments),
                                 kinds=tuple(kinds))

    def featurize_all(self, candidates) -> list[CandidateFeatures]:
        return [self.featurize(c) for c in candidates]

    def stay_point_features(self, stay_point: StayPoint) -> np.ndarray:
        """Normalized feature sequence of a single stay point.

        Used by the SP-GRU / SP-LSTM baselines, which classify stay points
        in isolation.
        """
        return self.segment_features(stay_point)
