"""Provisional verdicts: what the streaming detector knows *so far*.

An offline :class:`~repro.pipeline.DetectionResult` is the answer for a
finished truck-day; a :class:`ProvisionalVerdict` is the same answer
computed mid-day over the stay points that have *closed* by the current
tick, tagged with how much trust it deserves: the probability mass
behind the leading candidate buckets into coarse confidence tiers, the
PR-1 :class:`~repro.pipeline.DetectionProvenance` still records which
inference tier answered and what repairs were applied, and ``final``
says whether the session has been flushed (at which point the verdict
converges to the offline ``LEAD.detect`` answer — see
``tests/test_stream.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CONFIDENCE_TIERS", "confidence_tier", "ProvisionalVerdict"]

#: Confidence tiers in decreasing order of trust.
CONFIDENCE_TIERS = ("high", "medium", "low", "none")

#: Leading-candidate probability at or above which a verdict is
#: ``"high"`` / ``"medium"`` confidence (fixed thresholds, not learned).
HIGH_CONFIDENCE = 0.75
MEDIUM_CONFIDENCE = 0.4


def confidence_tier(probability: float | None) -> str:
    """Bucket a leading-candidate probability into a confidence tier.

    ``None`` (no candidate yet — fewer than two closed stay points)
    maps to ``"none"``.
    """
    if probability is None:
        return "none"
    if probability >= HIGH_CONFIDENCE:
        return "high"
    if probability >= MEDIUM_CONFIDENCE:
        return "medium"
    return "low"


@dataclass(frozen=True)
class ProvisionalVerdict:
    """One session's current best answer.

    ``pair`` / ``probability`` / ``distribution`` / ``provenance`` are
    ``None`` while the session has no candidate yet (fewer than two
    closed stay points, or the stay-point cap was exceeded so the
    offline pipeline would also abstain).  ``tick`` is the fleet
    manager's tick counter at emission time (-1 for verdicts produced
    by an explicit flush outside any tick).
    """

    truck_id: str
    day: str
    pair: tuple[int, int] | None
    probability: float | None
    confidence: str                       # one of CONFIDENCE_TIERS
    final: bool
    num_stay_points: int
    num_candidates: int
    tick: int
    provenance: object | None = None      # DetectionProvenance | None
    distribution: np.ndarray | None = None

    @property
    def detected(self) -> bool:
        """True when the session has a candidate answer at all."""
        return self.pair is not None

    def summary(self) -> str:
        """One line for logs and the ``repro stream`` CLI."""
        state = "final" if self.final else f"tick {self.tick}"
        if self.pair is None:
            return (f"{self.truck_id} {self.day}: no candidate yet "
                    f"({self.num_stay_points} stay points, {state})")
        tier = self.provenance.tier if self.provenance is not None else "?"
        return (f"{self.truck_id} {self.day}: <sp_{self.pair[0]} --> "
                f"sp_{self.pair[1]}> p={self.probability:.3f} "
                f"[{self.confidence}] tier={tier} "
                f"({self.num_stay_points} sps, {state})")
