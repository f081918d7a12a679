"""Content-keyed caches for the featurization hot path.

Featurization is LEAD's most-repeated computation: every candidate of a
trajectory shares stay/move segments with its neighbours (candidate
``(i', j')`` covers stays ``i'..j'``), and the online stage featurizes
a trajectory again on every ``detect`` call.  The z-scored
feature matrix of a segment is a pure function of

* the cleaned trajectory's ``(lat, lng, t)`` at the rows the encoder
  reads, the segment's subsample indices (content, not object identity),
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

__all__ = ["CacheStats", "LRUCache", "SegmentFeatureCache", "segment_key"]


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


def segment_key(segment, rows: np.ndarray, context: bytes,
                dtype: str) -> tuple:
    """The cache key of one stay/move segment.

    ``rows`` are the C-contiguous ``(lat, lng, t)`` rows the encoder
    reads (the segment's ``subsample_indices``): features depend on
    nothing else of the trajectory, so a growing streamed trajectory
    keeps hitting the entries of its closed segments, whose read rows
    never change.  ``start``/``end`` stay in the key because they anchor
    the subsampling grid.  ``dtype`` names the stored matrix dtype and
    stays last (:meth:`SegmentFeatureCache.dtype_key_counts` reads it):
    float32 entries are never served to a float64 caller, or back.
    """
    return (hashlib.blake2b(rows, digest_size=16).digest(),
            type(segment).__name__, segment.start, segment.end, context,
            dtype)


class SegmentFeatureCache:
    """Content-keyed cache of per-segment feature matrices.

    Keys come from :func:`segment_key`.  Values are the final z-scored,
    rescaled ``(L, F)`` matrices; callers must treat them as read-only
    (the hot paths already do).
    """

    def __init__(self, maxsize: int | None = 65536) -> None:
        self._lru = LRUCache(maxsize, name="segment_features")

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, key: tuple) -> np.ndarray | None:
        return self._lru.get(key)

    def put(self, key: tuple, value: np.ndarray) -> None:
        self._lru.put(key, value)

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
