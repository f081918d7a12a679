"""Metrics primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a named, labelled collection of
instruments.  Instruments are cheap mutable objects guarded by their own
lock (the thread-safety hammer in ``tests/test_obs.py`` hits them from
many threads); the registry's own lock only covers get-or-create, so
steady-state increments never contend on a global.

Two registries matter in practice:

* the **default registry** (:func:`default_registry`) — a process-wide,
  always-on home for infrastructure stats that predate this subsystem
  (feature-cache hit/miss/eviction counters, the weight-view LRU).
  Their legacy ``stats()`` accessors are now thin views over these
  instruments;
* a **session registry** owned by an
  :class:`~repro.obs.core.Observability` bundle, activated around one
  run (a detect call, a fleet replay, a training job) and exported via
  snapshots / JSONL / Prometheus-style text.

Instruments are picklable (the lock is dropped and rebuilt), because
objects holding them — featurizers, caches — travel into
:func:`repro.perf.parallel.parallel_map` worker processes.  A worker's
copy is detached from the parent registry; its increments stay in the
worker, exactly like the caches it instruments.
"""

from __future__ import annotations

import itertools
import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "default_registry", "DEFAULT_LATENCY_BUCKETS_S"]

#: Default histogram buckets for wall-clock latencies (seconds): tuned
#: for the repository's observed range — sub-millisecond cache lookups
#: up to multi-second offline fits.
DEFAULT_LATENCY_BUCKETS_S = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1,
                             0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Monotone instance ids for per-object instrument label sets (each
#: cache instance owns its own counters; see :mod:`repro.perf.cache`).
_INSTANCE_IDS = itertools.count()


def next_instance_id() -> int:
    """A process-unique small integer for per-instance metric labels."""
    return next(_INSTANCE_IDS)


def _render_labels(labels: dict[str, str] | None) -> str:
    """Prometheus-style ``{k="v",...}`` suffix (empty for no labels)."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return "{" + inner + "}"


class _Instrument:
    """Shared base: identity, lock, pickling discipline."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._lock = threading.Lock()

    @property
    def key(self) -> str:
        """Stable identity string: ``name{label="value",...}``."""
        return self.name + _render_labels(self.labels)

    # Locks are unpicklable; instruments travel into worker processes
    # inside featurizers/caches, so drop and rebuild.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class Counter(_Instrument):
    """A monotonically increasing count (resettable for legacy views)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: dict[str, str] | None = None) -> None:
        super().__init__(name, help, labels)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        """Zero the counter (legacy ``clear()``-style accessors only)."""
        with self._lock:
            self._value = 0


class Gauge(_Instrument):
    """A value that goes up and down (losses, resident sessions)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: dict[str, str] | None = None) -> None:
        super().__init__(name, help, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Instrument):
    """Fixed-bucket histogram (cumulative counts, Prometheus-style).

    ``buckets`` are upper bounds in increasing order; an implicit
    ``+Inf`` bucket catches the rest.  ``observe`` is O(len(buckets))
    with one lock acquisition — fine for per-call latencies, not for
    per-element inner loops.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: dict[str, str] | None = None,
                 buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S
                 ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2
                             in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be non-empty and increasing")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)   # last = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> dict:
        """JSON-safe cumulative view: ``{"le": cumulative_count, ...}``."""
        with self._lock:
            counts = list(self._counts)
            total, acc = self._count, self._sum
        cumulative: dict[str, int] = {}
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            cumulative[f"{bound:g}"] = running
        cumulative["+Inf"] = total
        return {"buckets": cumulative, "sum": acc, "count": total}


class MetricsRegistry:
    """Named, labelled instrument collection with get-or-create access."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}
        # Keys queued by :meth:`unregister`, dropped under the lock.
        self._pending_removals: list[str] = []

    def _purge_pending(self) -> None:
        """Drop queued keys; the caller holds ``self._lock``."""
        while self._pending_removals:
            self._instruments.pop(self._pending_removals.pop(), None)

    def _get_or_create(self, cls, name: str, help: str,
                       labels: dict[str, str] | None, **kwargs):
        key = name + _render_labels(labels)
        with self._lock:
            self._purge_pending()
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {key!r} already registered as "
                        f"{existing.kind}, not {cls.kind}")
                return existing
            instrument = cls(name, help=help, labels=labels, **kwargs)
            self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labels: dict[str, str] | None = None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: dict[str, str] | None = None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: dict[str, str] | None = None,
                  buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    def unregister(self, *keys: str) -> None:
        """Drop the instruments with these identity keys (missing: no-op).

        The keys are only queued here and leave the registry at its next
        access.  This runs from garbage-collection finalizers, and a
        collection can start inside this registry's own locked section
        on the same thread, so taking the (non-reentrant) lock here
        would deadlock; ``list.extend`` is atomic and needs no lock.
        """
        self._pending_removals.extend(keys)

    # ------------------------------------------------------------------
    def instruments(self) -> list[_Instrument]:
        """Every registered instrument, sorted by identity key."""
        with self._lock:
            self._purge_pending()
            return [self._instruments[k]
                    for k in sorted(self._instruments)]

    def snapshot(self) -> dict:
        """One JSON-safe dict of every instrument's current value."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for instrument in self.instruments():
            if isinstance(instrument, Counter):
                counters[instrument.key] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[instrument.key] = instrument.value
            elif isinstance(instrument, Histogram):
                histograms[instrument.key] = instrument.snapshot()
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}


#: The process-wide always-on registry (see module docstring).
_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry infrastructure stats live in."""
    return _DEFAULT
