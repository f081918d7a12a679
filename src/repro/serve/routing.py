"""Deterministic truck → shard routing.

Routing must be a *pure function of the truck id* so that the same
truck always lands on the same shard: per-truck ping order is then
preserved end-to-end (one byte stream, one single-threaded worker per
shard) and the sharded service converges to the exact verdicts of a
serial :class:`~repro.stream.FleetSessionManager` replay.

The hash is keyed ``blake2b`` rather than Python's ``hash()`` because
the latter is salted per process (``PYTHONHASHSEED``): two frontends —
or one frontend and the test asserting against it — must agree on the
placement of every truck.
"""

from __future__ import annotations

from hashlib import blake2b

__all__ = ["shard_for"]


def shard_for(truck_id: str, num_shards: int) -> int:
    """The owning shard of ``truck_id`` in a ``num_shards``-way fleet."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    digest = blake2b(truck_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards
