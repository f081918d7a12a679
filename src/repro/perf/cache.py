"""Content-keyed caches for the featurization hot path.

Featurization is LEAD's most-repeated computation: every candidate of a
trajectory shares stay/move segments with its neighbours (candidate
``(i', j')`` covers stays ``i'..j'``), the autoencoder's training loop
featurizes the same candidates once per epoch, and the online stage
featurizes a trajectory again on every ``detect`` call.  The z-scored
feature matrix of a segment is a pure function of

* the cleaned trajectory's coordinates (content, not object identity),
* the segment's ``[start, end]`` index range and kind, and
* the featurization context (normalizer statistics, feature scale,
  subsampling cap, POI configuration),

so it can be cached under a key derived from exactly those inputs.  A
content key — rather than ``id()``-based memoization — means a reloaded
or re-deserialized trajectory with identical bytes hits the same entry,
and a refitted normalizer silently invalidates every stale entry because
the context fingerprint changes.

The cache is bounded (LRU) and purely additive: a hit returns exactly
the matrix a miss computes, so it changes speed, never answers.  Each
cache counts its own hits, misses and evictions in a :class:`CacheStats`
of plain integers; ``stats()`` payloads read them there, and telemetry
sees only the ``cache.evicted`` event.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Hashable

import numpy as np

from ..obs.core import obs_event

__all__ = ["CacheStats", "LRUCache", "TrajectoryFingerprinter",
           "SegmentFeatureCache"]


class CacheStats:
    """Hit/miss/eviction counts of one cache instance.

    Three plain integers owned by the cache; ``as_dict`` is the payload
    every ``stats()`` surface prints.
    """

    __slots__ = ("hits", "misses", "evictions", "cache_name")

    def __init__(self, name: str = "cache") -> None:
        self.cache_name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- recording (cache-internal) ------------------------------------
    def record_hit(self) -> None:
        self.hits += 1

    def record_miss(self) -> None:
        self.misses += 1

    def record_eviction(self) -> None:
        self.evictions += 1
        # Visible to operators only while telemetry is active; the
        # count above is unconditional.
        obs_event("cache.evicted", cache=self.cache_name)

    # -- read surface --------------------------------------------------
    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "hit_rate": self.hit_rate}


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``maxsize=0`` disables storage entirely (every ``get`` is a miss);
    ``maxsize=None`` means unbounded.  Not thread-safe by design — the
    repository's hot paths are single-threaded, and process-parallel
    stages (:mod:`repro.perf.parallel`) ship work to subprocesses whose
    caches are independent.
    """

    def __init__(self, maxsize: int | None = 65536,
                 name: str = "lru") -> None:
        if maxsize is not None and maxsize < 0:
            raise ValueError("maxsize must be >= 0 or None")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self.stats = CacheStats(name=name)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: object = None) -> object:
        try:
            value = self._data[key]
        except KeyError:
            self.stats.record_miss()
            return default
        self._data.move_to_end(key)
        self.stats.record_hit()
        return value

    def put(self, key: Hashable, value: object) -> None:
        if self.maxsize == 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if self.maxsize is not None:
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.stats.record_eviction()

    def clear(self) -> None:
        self._data.clear()


def _digest(*parts) -> bytes:
    """Blake2b over byte strings or C-contiguous arrays (zero-copy)."""
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        hasher.update(part)
    return hasher.digest()


class TrajectoryFingerprinter:
    """Content fingerprints of trajectories, memoized per live object.

    Hashing a trajectory's coordinate arrays costs microseconds but would
    still dominate a per-segment lookup if repeated for every segment;
    the fingerprint is therefore memoized by object identity, holding a
    reference to the trajectory so its ``id()`` cannot be recycled (the
    same discipline as :class:`repro.features.FeatureExtractor`).
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self._memo: OrderedDict[tuple, tuple[object, bytes]] = OrderedDict()
        self._max_entries = max_entries

    def _memoized(self, key: tuple, trajectory, build) -> bytes:
        cached = self._memo.get(key)
        if cached is not None and cached[0] is trajectory:
            self._memo.move_to_end(key)
            return cached[1]
        digest = build()
        self._memo[key] = (trajectory, digest)
        while len(self._memo) > self._max_entries:
            self._memo.popitem(last=False)
        return digest

    def fingerprint(self, trajectory) -> bytes:
        return self._memoized(
            (id(trajectory),), trajectory,
            lambda: _digest(
                np.ascontiguousarray(trajectory.lats,
                                     dtype=np.float64).tobytes(),
                np.ascontiguousarray(trajectory.lngs,
                                     dtype=np.float64).tobytes(),
                np.ascontiguousarray(trajectory.ts,
                                     dtype=np.float64).tobytes(),
                repr((getattr(trajectory, "truck_id", None),
                      getattr(trajectory, "day", None))).encode()))

    def fingerprint_slice(self, trajectory, start: int, end: int) -> bytes:
        """Content digest of points ``[start, end]`` (inclusive) only.

        Segment features are a pure function of the fixes *inside* the
        segment, so keying on the slice content (rather than the whole
        trajectory) lets a growing streamed trajectory keep hitting the
        entries of its stable prefix: appending pings changes the full
        fingerprint but not the bytes of any closed segment.  Memoized
        per ``(object, start, end)`` so a tick's snapshot hashes each
        segment at most once.
        """
        return self._memoized(
            (id(trajectory), start, end), trajectory,
            lambda: _digest(
                np.ascontiguousarray(trajectory.lats[start:end + 1],
                                     dtype=np.float64),
                np.ascontiguousarray(trajectory.lngs[start:end + 1],
                                     dtype=np.float64),
                np.ascontiguousarray(trajectory.ts[start:end + 1],
                                     dtype=np.float64)))


class SegmentFeatureCache:
    """Content-keyed cache of per-segment feature matrices.

    Keys combine the trajectory's content fingerprint, the segment's
    ``(kind, start, end)`` coordinates, and a caller-supplied *context
    fingerprint* covering everything else the featurization depends on
    (normalizer statistics, feature scale, subsampling cap, POI config).
    Values are the final z-scored, rescaled ``(L, F)`` matrices; callers
    must treat them as read-only (the hot paths already do).
    """

    def __init__(self, maxsize: int | None = 65536) -> None:
        self._lru = LRUCache(maxsize, name="segment_features")
        self._fingerprinter = TrajectoryFingerprinter()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def key_for(self, segment, context: bytes,
                dtype: str = "float64") -> tuple:
        """The cache key of one stay/move segment under a context.

        The trajectory contributes only the *slice* the segment covers:
        features depend on nothing outside ``[start, end]``, and slice
        keying is what makes streaming ingest suffix-cheap — every tick
        snapshot of a growing trajectory is a new object with a new full
        fingerprint, but its closed segments carry identical slices at
        identical indices and keep hitting the same entries.  ``start``/
        ``end`` stay in the key because the subsampling grid is anchored
        at absolute indices.  ``dtype`` names the *stored matrix* dtype:
        float32 inference entries must never be served to a float64
        caller (or vice versa), so each precision tier owns a disjoint
        key space.
        """
        return (self._fingerprinter.fingerprint_slice(
                    segment.trajectory, segment.start, segment.end),
                type(segment).__name__, segment.start, segment.end, context,
                dtype)

    def get(self, segment, context: bytes,
            dtype: str = "float64") -> np.ndarray | None:
        return self._lru.get(self.key_for(segment, context, dtype))

    def put(self, segment, context: bytes, value: np.ndarray,
            dtype: str = "float64") -> None:
        self._lru.put(self.key_for(segment, context, dtype), value)

    def dtype_key_counts(self) -> dict[str, int]:
        """Live entry count per dtype key component (introspection)."""
        counts: dict[str, int] = {}
        for key in self._lru._data:
            name = key[-1]
            counts[name] = counts.get(name, 0) + 1
        return counts

    def clear(self) -> None:
        self._lru.clear()

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle as an *empty* cache of the same size.

        Process-parallel stages pickle the featurizer (which owns a
        cache) into worker processes; shipping megabytes of cached
        matrices along would defeat the point, and entries rebuilt in a
        worker are content-identical anyway.
        """
        return {"maxsize": self._lru.maxsize}

    def __setstate__(self, state: dict) -> None:
        self.__init__(maxsize=state["maxsize"])
