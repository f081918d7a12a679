"""Nested tracing spans with deterministic, seed-stable identifiers.

Span identity never touches the wall clock or ``os.urandom``: a trace id
hashes ``(seed, root counter)`` and a span id hashes ``(trace id, parent
span id, name, child key)``, where the child key is the parent's running
child index unless the caller pins one explicitly (parallel task fan-out
pins the task index so ids are stable regardless of completion order).
Two seeded runs of the same pipeline therefore produce byte-identical
span trees — only the ``start_s``/``duration_s`` timing fields differ,
and those are excluded from determinism checks.

The *current span* is thread-local.  To parent work running on another
thread (or shipped to a :func:`repro.perf.parallel.parallel_map` worker
task), capture :meth:`Tracer.current_context` — a picklable
:class:`SpanContext` — and re-enter it with :meth:`Tracer.attach` on the
executing side.  Process-pool workers have no live tracer, so a shipped
context degrades to a no-op there; the serial and thread lanes retain
full nesting.  This mirrors how the repo's other ambient policies
(``no_grad``, ``inference_dtype``) scope per thread.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field

__all__ = ["SpanContext", "Span", "Tracer"]


def _digest(payload: str, nbytes: int) -> str:
    return hashlib.blake2b(payload.encode("utf-8"),
                           digest_size=nbytes).hexdigest()


@dataclass(frozen=True)
class SpanContext:
    """A picklable pointer to a span, used to parent remote work."""

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One live span; closed spans are recorded as plain dicts."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    attrs: dict = field(default_factory=dict)
    start_s: float = 0.0
    duration_s: float = 0.0
    _children: int = 0

    def next_child_key(self) -> int:
        key = self._children
        self._children += 1
        return key

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def to_dict(self, seq: int) -> dict:
        return {"seq": seq, "trace_id": self.trace_id,
                "span_id": self.span_id, "parent_id": self.parent_id,
                "name": self.name, "start_s": self.start_s,
                "duration_s": self.duration_s,
                "attrs": dict(self.attrs)}


class _SpanHandle:
    """Context manager yielded by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span", "_prev")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._prev = None

    @property
    def span(self) -> Span:
        return self._span

    def __enter__(self) -> Span:
        local = self._tracer._local
        self._prev = getattr(local, "current", None)
        local.current = self._span
        self._span.start_s = time.perf_counter()
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._span.duration_s = time.perf_counter() - self._span.start_s
        self._tracer._local.current = self._prev
        self._tracer._record(self._span)


class _AttachHandle:
    """Context manager that makes a remote context the local parent."""

    __slots__ = ("_tracer", "_span", "_prev")

    def __init__(self, tracer: "Tracer", context: SpanContext,
                 child_key: int | None) -> None:
        # A synthetic parent Span (never recorded) carrying the remote
        # identity; child spans opened under the attach derive their ids
        # from it exactly as from a live parent.
        self._tracer = tracer
        self._span = Span(name="<attached>", trace_id=context.trace_id,
                          span_id=context.span_id, parent_id=None,
                          _children=child_key if child_key is not None
                          else 0)
        self._prev = None

    def __enter__(self) -> None:
        local = self._tracer._local
        self._prev = getattr(local, "current", None)
        local.current = self._span

    def __exit__(self, *exc_info) -> None:
        self._tracer._local.current = self._prev


class Tracer:
    """Deterministic span factory with a bounded record buffer.

    ``max_spans`` caps memory on long soaks; overflow increments
    ``dropped`` instead of growing without bound, and the drop count is
    exported alongside the spans so truncation is visible.
    """

    def __init__(self, seed: int = 0, max_spans: int = 100_000) -> None:
        self.seed = int(seed)
        self.max_spans = int(max_spans)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: list[dict] = []
        self._roots = 0
        self._seq = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    def current_span(self) -> Span | None:
        return getattr(self._local, "current", None)

    def current_context(self) -> SpanContext | None:
        """The active span's picklable context, or None at top level."""
        span = self.current_span()
        return span.context if span is not None else None

    def span(self, name: str, /, child_key: int | None = None,
             **attrs) -> _SpanHandle:
        """Open a nested span; use as ``with tracer.span("stage"):``.

        ``child_key`` pins the id-derivation key; by default it is the
        parent's running child index (or, for roots, a tracer-wide root
        counter).
        """
        parent = self.current_span()
        if parent is None:
            with self._lock:
                root_index = self._roots
                self._roots += 1
            trace_id = _digest(f"{self.seed}:{root_index}", 12)
            parent_id = None
            key = root_index if child_key is None else child_key
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            key = (parent.next_child_key() if child_key is None
                   else child_key)
        span_id = _digest(f"{trace_id}|{parent_id}|{name}|{key}", 8)
        return _SpanHandle(self, Span(name=name, trace_id=trace_id,
                                      span_id=span_id,
                                      parent_id=parent_id,
                                      attrs=dict(attrs)))

    def attach(self, context: SpanContext,
               child_key: int | None = None) -> _AttachHandle:
        """Parent subsequent spans on this thread under ``context``.

        ``child_key`` seeds the child index, letting concurrent workers
        attached to the same parent derive non-colliding ids from their
        task index instead of a shared (racy) counter.
        """
        return _AttachHandle(self, context, child_key)

    # ------------------------------------------------------------------
    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._finished) >= self.max_spans:
                self.dropped += 1
                return
            self._finished.append(span.to_dict(self._seq))
            self._seq += 1

    @property
    def finished(self) -> list[dict]:
        """Closed spans as dicts, in completion order."""
        with self._lock:
            return list(self._finished)
