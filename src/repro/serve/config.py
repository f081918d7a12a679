"""Serving knobs of the sharded fleet service."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..configbase import ConfigMixin
from ..stream.fleet import FleetConfig

__all__ = ["ServeConfig"]


@dataclass
class ServeConfig(ConfigMixin):
    """All knobs of :class:`~repro.serve.FleetService`.

    The nested ``fleet`` config parameterizes each shard's private
    :class:`~repro.stream.FleetSessionManager`; its ``checkpoint_dir``
    is overridden per shard (``<checkpoint_dir>/shard-<i>/sessions``)
    when the service-level ``checkpoint_dir`` is set.
    """

    #: Worker count; trucks are placed by ``shard_for(truck_id, N)``.
    num_shards: int = 4
    #: Shard worker transport: ``"process"`` forks one per shard,
    #: ``"inline"`` runs it in-process on the same command path (tests,
    #: constrained sandboxes, and a process shard's open-breaker fallback).
    backend: str = "process"
    #: Admission control: a shard with this many un-acked commands
    #: rejects further pings (returned to the caller, counted) instead
    #: of queueing without bound.
    queue_high_water: int = 64
    #: Root directory for shard state (sessions + barrier snapshots);
    #: ``None`` disables barriers, so a restarted shard replays its
    #: whole journal from an empty manager.
    checkpoint_dir: str | Path | None = None
    #: Mutating commands per shard between barrier snapshots (only
    #: meaningful with a ``checkpoint_dir``).
    checkpoint_every: int = 64
    #: Seconds to wait for one shard response before the worker is
    #: declared hung and restarted.
    response_timeout_s: float = 30.0
    #: Per-shard session-manager knobs.
    fleet: FleetConfig = field(default_factory=FleetConfig)

    def __post_init__(self) -> None:
        if self.checkpoint_dir is not None:
            self.checkpoint_dir = Path(self.checkpoint_dir)
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.backend not in ("process", "inline"):
            raise ValueError(
                f"backend must be 'process' or 'inline', "
                f"got {self.backend!r}")
        if self.queue_high_water < 1:
            raise ValueError("queue_high_water must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.response_timeout_s <= 0:
            raise ValueError("response_timeout_s must be positive")
