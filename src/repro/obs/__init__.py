"""Unified observability: metrics, tracing spans, structured events.

See DESIGN.md §14 for the architecture, the event taxonomy, and the
span naming scheme.  The three pillars:

* :mod:`repro.obs.metrics` — thread-safe counters / gauges /
  fixed-bucket histograms in a :class:`MetricsRegistry`, one per
  :class:`Observability` bundle and holding only what telemetry alone
  measures (counts that an object keeps for its ``stats()`` stay on
  that object);
* :mod:`repro.obs.trace` — nested spans with deterministic ids under
  seeded runs, context-propagated across threads and parallel tasks;
* :mod:`repro.obs.events` — a bounded structured event log for
  discrete, auditable occurrences (degradations, breaker trips,
  spill failures, reorder drops).

Telemetry is opt-in per thread via :func:`observe`; with no active
bundle, the :func:`obs_span` / :func:`obs_event` helpers are no-ops, so
instrumented hot paths stay bit-identical to their pre-instrumentation
behavior (CI gates the residual overhead at ≤ 5%).
"""

from .core import (Observability, active_obs, obs_event, obs_span,
                   observe)
from .events import EventLog, read_jsonl
from .export import (flatten, render_prometheus, render_span_tree,
                     render_table, render_tables)
from .metrics import (DEFAULT_LATENCY_BUCKETS_S, Counter, Gauge,
                      Histogram, MetricsRegistry)
from .trace import Span, SpanContext, Tracer

__all__ = [
    "Observability", "observe", "active_obs", "obs_span", "obs_event",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "DEFAULT_LATENCY_BUCKETS_S",
    "Tracer", "Span", "SpanContext",
    "EventLog", "read_jsonl",
    "render_prometheus", "render_table", "render_tables",
    "render_span_tree", "flatten",
]
