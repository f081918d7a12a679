"""Metrics primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a named, labelled collection of
instruments.  Instruments are cheap mutable objects guarded by their own
lock (the thread-safety hammer in ``tests/test_obs.py`` hits them from
many threads); the registry's own lock only covers get-or-create, so
steady-state increments never contend on a global.

There is no process-wide registry: each
:class:`~repro.obs.core.Observability` bundle owns one, activated around
one run (a detect call, a fleet replay, a training job) and exported via
snapshots / JSONL / Prometheus-style text.  It holds only what telemetry
alone measures (latency histograms, verdict counts).  Counts that an
object keeps for its own ``stats()`` — cache hits, fleet and serve
counters, retry tallies — stay plain integers on that object.
"""

from __future__ import annotations

import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_LATENCY_BUCKETS_S"]

#: Default histogram buckets for wall-clock latencies (seconds): tuned
#: for the repository's observed range — sub-millisecond cache lookups
#: up to multi-second offline fits.
DEFAULT_LATENCY_BUCKETS_S = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1,
                             0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _render_labels(labels: dict[str, str] | None) -> str:
    """Prometheus-style ``{k="v",...}`` suffix (empty for no labels)."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return "{" + inner + "}"


class _Instrument:
    """Shared base: identity and lock."""

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


class Counter(_Instrument):
    """A monotonically increasing count."""

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

    def _get_or_create(self, cls, name: str, help: str,
                       labels: dict[str, str] | None, **kwargs):
        key = name + _render_labels(labels)
        with self._lock:
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

    # ------------------------------------------------------------------
    def instruments(self) -> list[_Instrument]:
        """Every registered instrument, sorted by identity key."""
        with self._lock:
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
