"""Circuit breaker: stop hammering a dependency that keeps failing.

The classic closed → open → half-open state machine, tuned for this
repository's determinism discipline: *time* is a logical clock — every
:meth:`CircuitBreaker.allow` call advances it by one — so soak tests
replay identically regardless of wall-clock scheduling.  Callers that
want real time can inject a ``clock`` callable.

* **closed** — calls flow; ``failure_threshold`` *consecutive* failures
  trip the breaker open.
* **open** — calls are rejected without being attempted (the caller
  falls back: a degraded detector tier, keep-resident instead of spill)
  until ``cooldown`` clock ticks pass.
* **half-open** — one probe call is let through; success closes the
  breaker, failure re-opens it for another cooldown.
"""

from __future__ import annotations

from typing import Callable

from ..obs.core import obs_event

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Guard one dependency with a closed/open/half-open state machine."""

    def __init__(self, name: str = "", failure_threshold: int = 3,
                 cooldown: float = 8.0,
                 clock: Callable[[], float] | None = None) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._ticks = 0                  # logical clock (default mode)
        self.state = "closed"
        self.consecutive_failures = 0
        self._opened_at = -float("inf")
        # Lifetime counters, surfaced through stats().
        self.failures = 0
        self.successes = 0
        self.trips = 0
        self.rejections = 0
        self.probes = 0

    # ------------------------------------------------------------------
    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return float(self._ticks)

    def allow(self) -> bool:
        """May the next call proceed?  Advances the logical clock.

        In the open state this flips to half-open (and admits one
        probe) once the cooldown has elapsed; otherwise the call is
        rejected and counted.
        """
        self._ticks += 1
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._now() - self._opened_at >= self.cooldown:
                self._transition("half_open")
                self.probes += 1
                return True
            self.rejections += 1
            return False
        # half_open: one probe is already in flight; hold the line.
        self.rejections += 1
        return False

    def record_success(self) -> None:
        self.successes += 1
        self.consecutive_failures = 0
        if self.state != "closed":
            self._transition("closed")

    def record_failure(self) -> None:
        self.failures += 1
        self.consecutive_failures += 1
        if (self.state == "half_open"
                or self.consecutive_failures >= self.failure_threshold):
            if self.state != "open":
                self.trips += 1
                self._transition("open")
            self._opened_at = self._now()

    def _transition(self, new_state: str) -> None:
        """Change state, leaving a structured audit event when
        telemetry is active."""
        obs_event("breaker.transition", name=self.name,
                  from_state=self.state, to_state=new_state,
                  consecutive_failures=self.consecutive_failures)
        self.state = new_state

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """JSON-safe snapshot for ledgers and ``stats()`` payloads."""
        return {
            "name": self.name,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "failures": self.failures,
            "successes": self.successes,
            "trips": self.trips,
            "rejections": self.rejections,
            "probes": self.probes,
        }
