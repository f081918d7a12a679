"""Dead-letter store for poison inputs: capture, don't crash.

When supervision gives up on an input — a session whose detection fails
every retry, a checkpoint that will not parse — the input's identity,
the triggering exception, and enough *replay metadata* to reconstruct
and re-run it offline are recorded in a :class:`Quarantine`.  The rest
of the fleet proceeds; an operator (or a test) can later replay exactly
what was captured.

Entries are deterministic: they carry a sequence number, not a wall
clock, so a seeded chaos soak produces the same quarantine ledger twice.
With a ``directory`` configured, each entry is also persisted as one
atomic JSON file (:mod:`repro.io`), surviving the process, and a store
opened on that directory numbers its entries after the highest one
already there, so a restart never writes over an earlier dead letter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote

from ..io import atomic_write_json, load_checked_json
from ..obs.core import obs_event

__all__ = ["QuarantineEntry", "Quarantine"]


@dataclass(frozen=True)
class QuarantineEntry:
    """One captured poison input."""

    seq: int                        # position in this store's ledger
    key: str                        # stable identity, e.g. "truck-3|d0"
    stage: str                      # which supervised stage gave up
    error_type: str                 # exception class name
    error: str                      # str(exception)
    attempts: int = 1               # how many tries supervision spent
    metadata: dict = field(default_factory=dict)   # replay payload

    def to_dict(self) -> dict:
        return {"seq": self.seq, "key": self.key, "stage": self.stage,
                "error_type": self.error_type, "error": self.error,
                "attempts": self.attempts, "metadata": self.metadata}

    @classmethod
    def from_dict(cls, payload: dict) -> "QuarantineEntry":
        return cls(seq=int(payload["seq"]), key=str(payload["key"]),
                   stage=str(payload["stage"]),
                   error_type=str(payload["error_type"]),
                   error=str(payload["error"]),
                   attempts=int(payload.get("attempts", 1)),
                   metadata=dict(payload.get("metadata", {})))


def _persisted_seq(path: Path) -> int:
    """The sequence number a persisted entry's file name starts with
    (``-1`` for a file this store did not write)."""
    prefix = path.name.split("_", 1)[0]
    return int(prefix) if prefix.isdigit() else -1


class Quarantine:
    """Ordered dead-letter store, optionally persisted per entry."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = None if directory is None else Path(directory)
        self._entries: list[QuarantineEntry] = []
        self._next_seq = 0
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._next_seq = 1 + max(
                (_persisted_seq(path)
                 for path in self.directory.glob("*.json")), default=-1)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list[QuarantineEntry]:
        return list(self._entries)

    def keys(self) -> list[str]:
        return [entry.key for entry in self._entries]

    def __contains__(self, key: str) -> bool:
        return any(entry.key == key for entry in self._entries)

    def get(self, key: str) -> QuarantineEntry | None:
        """The *latest* entry recorded under ``key`` (or ``None``)."""
        for entry in reversed(self._entries):
            if entry.key == key:
                return entry
        return None

    # ------------------------------------------------------------------
    def record(self, key: str, stage: str, exc: BaseException, *,
               attempts: int = 1,
               metadata: dict | None = None) -> QuarantineEntry:
        """Capture one poison input; returns the ledger entry."""
        entry = QuarantineEntry(
            seq=self._next_seq, key=str(key), stage=str(stage),
            error_type=type(exc).__name__, error=str(exc),
            attempts=int(attempts), metadata=dict(metadata or {}))
        self._next_seq += 1
        self._entries.append(entry)
        obs_event("quarantine.recorded", key=entry.key, stage=entry.stage,
                  error_type=entry.error_type, error=entry.error,
                  seq=entry.seq)
        if self.directory is not None:
            name = quote(f"{entry.seq:06d}_{entry.key}", safe="")
            try:
                atomic_write_json(self.directory / f"{name}.json",
                                  entry.to_dict(), indent=2)
            except OSError:
                # The dead-letter disk being dead too must not take the
                # fleet down; the in-memory ledger still has the entry.
                pass
        return entry

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Compact stats() payload: totals by stage plus the keys."""
        by_stage: dict[str, int] = {}
        for entry in self._entries:
            by_stage[entry.stage] = by_stage.get(entry.stage, 0) + 1
        return {"entries": len(self._entries), "by_stage": by_stage,
                "keys": self.keys()}

    @classmethod
    def load(cls, directory: str | Path) -> "Quarantine":
        """Rehydrate a persisted quarantine directory (sorted by seq)."""
        store = cls(directory)
        entries = []
        for path in sorted(Path(directory).glob("*.json")):
            payload = load_checked_json(path)
            if isinstance(payload, dict) and "seq" in payload:
                entries.append(QuarantineEntry.from_dict(payload))
        store._entries = sorted(entries, key=lambda e: e.seq)
        return store
