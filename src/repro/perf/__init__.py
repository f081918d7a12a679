"""Throughput layer: caching and deterministic parallelism.

This package holds the machinery that makes LEAD fast without changing
what it computes:

* :mod:`repro.perf.cache` — content-keyed LRU caches for featurization;
* :mod:`repro.perf.parallel` — order-preserving process-parallel map
  for the offline stages.

Its speed is measured end to end, raw pings in to final verdicts out,
by ``benchmarks/e2e`` (host-speed-scaled, paired parent/change runs,
``history.jsonl``); its equivalence contracts are tier-1 tests.
"""

from .cache import CacheStats, LRUCache, SegmentFeatureCache
from .parallel import effective_workers, parallel_map

__all__ = [
    "CacheStats", "LRUCache", "SegmentFeatureCache",
    "effective_workers", "parallel_map",
]
