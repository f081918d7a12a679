"""The Observability bundle and the ambient activation context.

Telemetry is **off by default** and costs (near) nothing when off: call
sites consult a ``threading.local`` slot via :func:`active_obs` — the
same pattern as ``no_grad`` / ``inference_dtype`` — and when it is
empty they either skip instrumentation entirely or receive a shared
no-op context manager.  Nothing global is mutated by merely importing
this module.

Enable telemetry by activating a bundle::

    from repro.obs import Observability, observe

    ob = Observability(seed=7)
    with observe(ob):
        lead.detect(trajectory)
    ob.flush("out.jsonl")

The bundle owns one :class:`MetricsRegistry`, one :class:`Tracer` and
one :class:`EventLog`.  :meth:`Observability.flush` serialises all
three to a JSON-lines file through :func:`repro.io.atomic.atomic_write_text`,
so a crash mid-flush leaves either the previous complete file or (under
an injected torn write) a byte-prefix that
:func:`repro.obs.events.read_jsonl` recovers line-by-line.
"""

from __future__ import annotations

import contextlib
import threading
import time
from pathlib import Path

from .events import EventLog
from .metrics import MetricsRegistry
from .trace import Tracer

__all__ = ["Observability", "observe", "active_obs", "obs_span",
           "obs_event", "obs_timed"]

#: Telemetry file schema version (bumped on incompatible layout change).
SCHEMA_VERSION = 1

_ACTIVE = threading.local()

#: Reusable do-nothing context manager handed out when telemetry is off
#: (``contextlib.nullcontext`` instances are re-enterable).
_NULL_SPAN = contextlib.nullcontext()


class Observability:
    """One run's metrics registry, tracer and event log."""

    def __init__(self, seed: int = 0, max_spans: int = 100_000,
                 max_events: int = 65_536) -> None:
        self.seed = int(seed)
        self.registry = MetricsRegistry()
        self.tracer = Tracer(seed=seed, max_spans=max_spans)
        self.events = EventLog(maxlen=max_events)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """In-memory summary: metric values plus span/event volumes."""
        return {"seed": self.seed,
                "metrics": self.registry.snapshot(),
                "spans": len(self.tracer.finished),
                "spans_dropped": self.tracer.dropped,
                "events": len(self.events),
                "events_dropped": self.events.dropped}

    def to_records(self) -> list[dict]:
        """The full telemetry stream as JSON-safe record dicts."""
        records: list[dict] = [
            {"kind": "meta", "schema": SCHEMA_VERSION,
             "seed": self.seed,
             "spans_dropped": self.tracer.dropped,
             "events_dropped": self.events.dropped}]
        for event in self.events.events:
            records.append({"kind": "event", **event})
        for span in self.tracer.finished:
            records.append({"kind": "span", **span})
        records.append({"kind": "metrics",
                        "metrics": self.registry.snapshot()})
        return records

    def flush(self, path) -> Path:
        """Atomically (re)write the whole telemetry stream as JSONL."""
        import json

        from ..io.atomic import atomic_write_text

        lines = [json.dumps(record, sort_keys=True)
                 for record in self.to_records()]
        target = Path(path)
        atomic_write_text(target, "\n".join(lines) + "\n")
        return target

    # Allow ``with Observability(...) as ob:`` as shorthand.
    def __enter__(self) -> "Observability":
        self._token = observe(self)
        self._token.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        self._token.__exit__(*exc_info)
        del self._token


@contextlib.contextmanager
def observe(ob: Observability):
    """Make ``ob`` this thread's active telemetry bundle."""
    previous = getattr(_ACTIVE, "current", None)
    _ACTIVE.current = ob
    try:
        yield ob
    finally:
        _ACTIVE.current = previous


def active_obs() -> Observability | None:
    """This thread's active bundle, or None when telemetry is off."""
    return getattr(_ACTIVE, "current", None)


def obs_span(name: str, /, child_key: int | None = None, **attrs):
    """A tracer span when telemetry is active, else a shared no-op CM.

    The hot-path contract: when telemetry is off this is one function
    call and one thread-local read, allocating nothing.
    """
    ob = getattr(_ACTIVE, "current", None)
    if ob is None:
        return _NULL_SPAN
    return ob.tracer.span(name, child_key=child_key, **attrs)


def obs_event(name: str, /, **fields) -> dict | None:
    """Emit a structured event when telemetry is active.

    Returns the event dict (with its ``id``) so callers can correlate —
    e.g. cite the event id inside a provenance note — or None when
    telemetry is off.
    """
    ob = getattr(_ACTIVE, "current", None)
    if ob is None:
        return None
    return ob.events.emit(name, **fields)


def obs_timed(name: str, fn, histogram: str, help: str, /,
              labels: dict[str, str] | None = None, **attrs):
    """Run ``fn()`` inside a root span and time it into a histogram.

    With telemetry active, ``fn`` runs under the span ``name`` (with
    ``attrs``) and its wall time is observed into the latency histogram
    ``histogram`` (``help``, ``labels``).  When telemetry is off this
    is a plain ``fn()`` call.
    """
    ob = getattr(_ACTIVE, "current", None)
    if ob is None:
        return fn()
    start = time.perf_counter()
    with ob.tracer.span(name, **attrs):
        result = fn()
    ob.registry.histogram(histogram, help=help, labels=labels).observe(
        time.perf_counter() - start)
    return result
