"""End-to-end raw trajectory processing (LEAD component 1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..errors import InvalidTrajectoryError
from ..model import (CandidateTrajectory, LoadedLabel, MovePoint, StayPoint,
                     Trajectory)
from .candidates import CandidateGenerator
from .noise import NoiseFilter
from .staypoints import StayPointExtractor, extract_move_points
from .validation import sanitize_trajectory

__all__ = ["ProcessedTrajectory", "RawTrajectoryProcessor"]


@dataclass(frozen=True)
class ProcessedTrajectory:
    """The result of processing one raw trajectory.

    ``label_pair`` is the ground-truth ``(i', j')`` ordinal pair when a
    label was supplied and could be mapped onto the extracted stay points,
    otherwise ``None``.
    """

    raw: Trajectory
    cleaned: Trajectory
    stay_points: tuple[StayPoint, ...]
    move_points: tuple[MovePoint, ...]
    candidates: tuple[CandidateTrajectory, ...]
    label_pair: tuple[int, int] | None = None

    @property
    def num_stay_points(self) -> int:
        return len(self.stay_points)

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @cached_property
    def _pair_index(self) -> dict[tuple[int, int], int]:
        """Precomputed pair → enumeration-index map (built once).

        ``candidate_index`` is called once per candidate inside hot
        evaluation loops; a linear scan there made them O(n²) in the
        candidate count.
        """
        return {candidate.pair: index
                for index, candidate in enumerate(self.candidates)}

    def candidate_index(self, pair: tuple[int, int]) -> int:
        """Position of candidate ``(i', j')`` in the enumeration order."""
        try:
            return self._pair_index[pair]
        except KeyError:
            raise KeyError(f"no candidate with pair {pair}") from None

    @property
    def labeled_candidate_index(self) -> int | None:
        if self.label_pair is None:
            return None
        return self.candidate_index(self.label_pair)


@dataclass(frozen=True)
class RawTrajectoryProcessor:
    """Noise filtering -> stay point extraction -> candidate generation."""

    noise_filter: NoiseFilter = field(default_factory=NoiseFilter)
    extractor: StayPointExtractor = field(default_factory=StayPointExtractor)
    generator: CandidateGenerator = field(default_factory=CandidateGenerator)
    min_stay_points: int = 2

    def process(self, trajectory: Trajectory,
                label: LoadedLabel | None = None
                ) -> ProcessedTrajectory | None:
        """Process one raw trajectory.

        Returns ``None`` when fewer than ``min_stay_points`` stay points
        are found (no candidate can be formed), mirroring how such days are
        excluded from the paper's dataset.
        """
        cleaned = self.noise_filter.filter(trajectory)
        stay_points = self.extractor.extract(cleaned)
        if len(stay_points) < self.min_stay_points:
            return None
        move_points = extract_move_points(cleaned, stay_points)
        candidates = self.generator.generate(stay_points, move_points)
        label_pair = None
        if label is not None:
            label_pair = label.to_ordinal_pair(stay_points)
        return ProcessedTrajectory(
            raw=trajectory, cleaned=cleaned,
            stay_points=tuple(stay_points),
            move_points=tuple(move_points),
            candidates=tuple(candidates),
            label_pair=label_pair)

    def process_sample(self, sample) -> ProcessedTrajectory | None:
        """Sanitize, then process, one labelled raw day.

        ``sample`` is a :class:`~repro.data.LabeledSample`.  Training,
        the baselines and the evaluation set take the same front door
        as ``LEAD.detect``: :func:`sanitize_trajectory` drops unusable
        fixes first, and a day it cannot salvage gives ``None``, like a
        day with too few stay points.  A clean day comes back from
        ``sanitize_trajectory`` as the same object, so sanitizing
        changes nothing for it.
        """
        try:
            trajectory, _ = sanitize_trajectory(sample.trajectory)
        except InvalidTrajectoryError:
            return None
        return self.process(trajectory, sample.label)
