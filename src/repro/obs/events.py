"""Structured event log for discrete, auditable occurrences.

Metrics answer "how many / how fast"; events answer "what exactly
happened to truck T-0042 at seq 317".  Each event is a small JSON-safe
record with a stable sequence number and a deterministic id
(``e<seq>``), so a provenance note written into a detection verdict can
cite the event that explains it and an operator can join the two after
the fact.

The in-memory log is bounded: past ``maxlen`` the oldest events are
discarded and ``dropped`` counts the loss, mirroring the tracer's
truncation policy — silent unbounded growth and silent truncation are
both bugs.

Event taxonomy (kept in sync with DESIGN.md §14):

========================  =============================================
name                      emitted when
========================  =============================================
``detection.tier_failed``  a degradation tier raised and the walker
                           moved down the chain
``detection.degraded``     a verdict shipped from any tier below
                           ``both`` (includes the heuristic
                           fallback); carries the provenance notes
``precision.fallback``     the float32 parity gate demoted inference
                           back to float64
``breaker.transition``     a circuit breaker changed state
``retry.attempt`` /        a supervised call was retried / gave up
``retry.exhausted``
``quarantine.recorded``    a payload was quarantined
``fleet.spill_failed``     an eviction spill failed and the session was
                           kept resident (with truck_id and reason)
``fleet.spill_skipped``    the spill breaker was open, spill not tried
``fleet.session_dropped``  an over-capacity session was evicted with no
                           checkpoint dir — state loss
``fleet.restore_failed``   a spilled session could not be restored
``fleet.quarantined``      a session was quarantined by the manager
``stream.ping_dropped``    a session dropped pings (reason ``late`` —
                           reorder-buffer overflow — or ``invalid``)
``cache.evicted``          an LRU cache evicted an entry (emitted only
                           while telemetry is active)
========================  =============================================
"""

from __future__ import annotations

import json
import threading

__all__ = ["EventLog", "read_jsonl"]


class EventLog:
    """Bounded, thread-safe, append-only list of event dicts."""

    def __init__(self, maxlen: int = 65_536) -> None:
        self.maxlen = int(maxlen)
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self._seq = 0
        self.dropped = 0

    def emit(self, name: str, /, **fields) -> dict:
        """Record an event and return it (with ``seq`` and ``id`` set)."""
        with self._lock:
            seq = self._seq
            self._seq += 1
            event = {"seq": seq, "id": f"e{seq:06d}", "name": name,
                     "fields": fields}
            self._events.append(event)
            if len(self._events) > self.maxlen:
                del self._events[0]
                self.dropped += 1
        return event

    @property
    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


def read_jsonl(path) -> list[dict]:
    """Parse a JSONL telemetry file, tolerating a torn tail.

    Flushes go through :mod:`repro.io.atomic`, so a *completed* flush is
    all-or-nothing; a crash (or an injected ``io.write`` torn fault)
    can still leave a byte-prefix of the intended file.  Every complete
    leading line parses — this reader returns that prefix and stops at
    the first line that does not decode, rather than raising.
    """
    records: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return records
    for line in raw.split("\n"):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            break
        if isinstance(record, dict):
            records.append(record)
    return records
