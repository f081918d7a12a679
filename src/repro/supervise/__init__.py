"""Supervised execution: retries, circuit breakers, dead letters.

PR 1 made individual components resilient (typed errors, atomic IO,
degradation tiers); PR 4 scaled detection to a fleet of concurrent
sessions.  This package supplies the *supervision* glue between them —
the policies that decide what happens when a component fails anyway:

* :class:`~repro.supervise.retry.RetryPolicy` — bounded retries of
  transient ``OSError`` with deterministic seeded exponential backoff,
  re-raising the original exception when the budget is spent;
* :class:`~repro.supervise.breaker.CircuitBreaker` — closed/open/half-
  open around the fleet's detector and spill IO and the serve shards'
  restarts, so a persistently failing dependency degrades once instead
  of failing per call;
* :class:`~repro.supervise.quarantine.Quarantine` — a deterministic
  dead-letter store capturing poison inputs with the triggering
  exception and replay metadata (atomic JSON via :mod:`repro.io`).

The consumers are :class:`repro.stream.FleetSessionManager` (per-session
fault isolation), :class:`repro.serve.FleetService` (shard restarts)
and :class:`repro.experiments.Experiment` (transient-IO retry of
cached-artifact reads).  :mod:`repro.chaos` proves all of it under
deterministic fault injection.
"""

from .breaker import CircuitBreaker
from .quarantine import Quarantine, QuarantineEntry
from .retry import RetryCounters, RetryPolicy

__all__ = [
    "RetryPolicy", "RetryCounters",
    "CircuitBreaker",
    "Quarantine", "QuarantineEntry",
]
