"""Online detection: ping-at-a-time ingest over the offline LEAD core.

The offline reproduction answers "which part of yesterday's trajectory
was loaded?"; regulators watching a live HCT fleet want that answer
while the truck is still driving.  This package turns the batch pipeline
into a streaming service without forking any of its logic:

* :class:`~repro.stream.session.TruckSession` ingests GPS pings one at
  a time — per-ping sanitization and a bounded reorder buffer
  (:class:`repro.processing.ReorderBuffer`); the released fixes drain,
  array-at-a-time, through the noise filter and the resumable
  stay-point scanner (:class:`repro.processing.StayPointScanner`) that
  the offline extractor *replays*, so streamed stay points are
  bit-identical to offline ones by construction;
* a rolling candidate set grows as stay points close; snapshots are
  ordinary :class:`~repro.processing.ProcessedTrajectory` objects, so
  the segment-feature cache, keyed by the rows the encoder reads,
  re-featurizes only the newly extended suffix on every tick;
* :class:`~repro.stream.fleet.FleetSessionManager` multiplexes
  thousands of concurrent sessions with bounded memory (LRU eviction +
  checkpointed session state via :mod:`repro.io`), runs the provisional
  detector over all live sessions on a tick, and emits
  :class:`~repro.stream.verdict.ProvisionalVerdict` objects that
  converge to the offline ``LEAD.detect`` answer at end-of-day.

Drive it from the command line with ``python -m repro.cli stream``.
"""

from .fleet import FleetConfig, FleetSessionManager
from .replay import Ping, dataset_ping_stream, scramble_stream
from .session import SessionCounters, TruckSession
from .verdict import CONFIDENCE_TIERS, ProvisionalVerdict, confidence_tier

__all__ = [
    "CONFIDENCE_TIERS", "ProvisionalVerdict", "confidence_tier",
    "SessionCounters", "TruckSession",
    "FleetConfig", "FleetSessionManager",
    "Ping", "dataset_ping_stream", "scramble_stream",
]
