"""Deterministic chaos harness: prove the recovery paths actually work.

PR 1 built recovery machinery (checkpoint/resume, degradation tiers,
atomic IO) and PR 6 adds supervision (retries, breakers, quarantine) —
this package is what makes those claims *testable*: a seed-driven fault
injector whose every decision comes from a
:class:`numpy.random.SeedSequence`, so a soak that tears writes, fails
detector passes, corrupts pings and poisons sessions replays
bit-identically from the same seed.

* :mod:`repro.chaos.core` — :class:`FaultSpec` rules, the installable
  :class:`ChaosEngine` (context manager / :func:`inject` decorator),
  and the :func:`chaos_point` hooks compiled into the production fault
  sites (``repro.io``, ``repro.stream``, ``repro.serve``);
* :mod:`repro.chaos.streams` — additive ping-stream hostility
  (corrupt / duplicate / clock-skewed retransmissions) that the ingest
  path provably neutralizes;
* :mod:`repro.chaos.soak` — the seeded fleet soak behind ``python -m
  repro.cli chaos``: run a fleet once clean and once under faults,
  assert healthy verdicts match bit-for-bit, and emit the fault /
  recovery ledger.

``streams`` and ``soak`` are lazy-loaded here: ``core`` must stay
import-light because :mod:`repro.io` instruments itself with its hooks.
"""

from .core import (ChaosEngine, Fault, FaultSpec, InjectedFault,
                   active_engine, chaos_point, inject)

__all__ = [
    "ChaosEngine", "Fault", "FaultSpec", "InjectedFault",
    "active_engine", "chaos_point", "inject",
    "chaos_ping_stream", "run_chaos_soak", "format_chaos_ledger",
]


def __getattr__(name: str):
    if name == "chaos_ping_stream":
        from .streams import chaos_ping_stream
        return chaos_ping_stream
    if name in ("run_chaos_soak", "format_chaos_ledger"):
        from . import soak
        return getattr(soak, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
