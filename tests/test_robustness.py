"""Failure-injection and property tests across the processing stack."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Trajectory
from repro.processing import (NoiseFilter, RawTrajectoryProcessor,
                              StayPointExtractor)

from .test_processing import trajectory_with_stays

METERS_PER_DEG = 111_000.0


def drop_points(trajectory: Trajectory, fraction: float,
                rng: np.random.Generator) -> Trajectory:
    """Simulate GPS dropouts: randomly delete a fraction of fixes."""
    n = len(trajectory)
    keep = np.sort(rng.choice(n, size=max(2, int(n * (1 - fraction))),
                              replace=False))
    return Trajectory(trajectory.lats[keep], trajectory.lngs[keep],
                      trajectory.ts[keep], truck_id=trajectory.truck_id)


def inject_outliers(trajectory: Trajectory, count: int,
                    rng: np.random.Generator,
                    jump_m: float = 20_000.0) -> Trajectory:
    lats = trajectory.lats.copy()
    lngs = trajectory.lngs.copy()
    indices = rng.choice(len(trajectory) - 1, size=count, replace=False) + 1
    for i in indices:
        lats[i] += jump_m / METERS_PER_DEG
    return Trajectory(lats, lngs, trajectory.ts,
                      truck_id=trajectory.truck_id, day=trajectory.day)


def inject_nonfinite(trajectory: Trajectory, count: int,
                     rng: np.random.Generator,
                     value: float = np.nan) -> Trajectory:
    """Corrupt ``count`` fixes' coordinates with NaN/Inf (cold receiver)."""
    lats = trajectory.lats.copy()
    lngs = trajectory.lngs.copy()
    indices = rng.choice(len(trajectory), size=count, replace=False)
    lats[indices] = value
    lngs[indices] = value
    return Trajectory(lats, lngs, trajectory.ts,
                      truck_id=trajectory.truck_id, day=trajectory.day)


def duplicate_timestamps(trajectory: Trajectory, count: int,
                         rng: np.random.Generator
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw arrays with ``count`` duplicated timestamps (buffered uploads).

    Returns raw ``(lats, lngs, ts)``: :class:`Trajectory` itself
    rejects non-increasing timestamps, and these arrays exercise that
    rejection.
    """
    ts = trajectory.ts.copy()
    indices = rng.choice(len(trajectory) - 1, size=count, replace=False) + 1
    ts[indices] = ts[indices - 1]
    return trajectory.lats.copy(), trajectory.lngs.copy(), ts


def frozen_clock(trajectory: Trajectory, start: int, length: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw arrays with a frozen-clock segment: ts stuck at one instant."""
    ts = trajectory.ts.copy()
    stop = min(start + length, len(ts))
    ts[start:stop] = ts[start]
    return trajectory.lats.copy(), trajectory.lngs.copy(), ts


def shuffle_timestamps(trajectory: Trajectory, rng: np.random.Generator
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw arrays with out-of-order fixes (late batched uploads)."""
    order = rng.permutation(len(trajectory))
    return (trajectory.lats[order].copy(), trajectory.lngs[order].copy(),
            trajectory.ts[order].copy())


class TestDropoutRobustness:
    @pytest.mark.parametrize("fraction", [0.1, 0.3])
    def test_stays_survive_moderate_dropout(self, fraction):
        rng = np.random.default_rng(1)
        trajectory = trajectory_with_stays(num_stays=4, stay_points=30)
        degraded = drop_points(trajectory, fraction, rng)
        stays = StayPointExtractor().extract(degraded)
        # Long stays survive losing up to 30% of their fixes.
        assert len(stays) == 4

    def test_processor_never_crashes_on_degraded_input(self):
        rng = np.random.default_rng(2)
        processor = RawTrajectoryProcessor()
        trajectory = trajectory_with_stays(num_stays=3)
        for fraction in (0.0, 0.2, 0.5, 0.8):
            degraded = drop_points(trajectory, fraction, rng)
            result = processor.process(degraded)  # may be None, not raise
            if result is not None:
                assert result.num_stay_points >= 2


class TestOutlierRobustness:
    def test_filter_restores_stay_structure(self):
        rng = np.random.default_rng(3)
        trajectory = trajectory_with_stays(num_stays=3)
        clean_stays = StayPointExtractor().extract(trajectory)
        corrupted = inject_outliers(trajectory, count=5, rng=rng)
        filtered = NoiseFilter().filter(corrupted)
        stays = StayPointExtractor().extract(filtered)
        assert len(stays) == len(clean_stays)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 6))
    def test_filter_removes_exactly_the_outliers(self, count):
        rng = np.random.default_rng(count)
        trajectory = trajectory_with_stays(num_stays=3, stay_points=25)
        corrupted = inject_outliers(trajectory, count=count, rng=rng)
        filtered = NoiseFilter().filter(corrupted)
        assert len(corrupted) - len(filtered) == count


class TestFaultInjectionHelpers:
    def test_inject_outliers_preserves_identity(self):
        rng = np.random.default_rng(0)
        trajectory = trajectory_with_stays(num_stays=3)
        tagged = Trajectory(trajectory.lats, trajectory.lngs, trajectory.ts,
                            truck_id="truck-7", day="2021-03-01")
        corrupted = inject_outliers(tagged, count=2, rng=rng)
        assert corrupted.truck_id == "truck-7"
        assert corrupted.day == "2021-03-01"

    def test_inject_nonfinite_marks_fixes(self):
        rng = np.random.default_rng(1)
        trajectory = trajectory_with_stays(num_stays=3)
        corrupted = inject_nonfinite(trajectory, count=4, rng=rng)
        assert int(np.isnan(corrupted.lats).sum()) == 4

    def test_duplicate_timestamps_rejected_by_constructor(self):
        rng = np.random.default_rng(2)
        trajectory = trajectory_with_stays(num_stays=3)
        lats, lngs, ts = duplicate_timestamps(trajectory, count=3, rng=rng)
        with pytest.raises(ValueError):
            Trajectory(lats, lngs, ts)

    def test_frozen_clock_freezes_segment(self):
        trajectory = trajectory_with_stays(num_stays=3)
        _, _, ts = frozen_clock(trajectory, start=5, length=4)
        assert (ts[5:9] == ts[5]).all()


class TestTimestampEdgeCases:
    def test_minimal_two_point_trajectory(self):
        trajectory = Trajectory([31.9, 31.91], [120.8, 120.8], [0.0, 60.0])
        assert RawTrajectoryProcessor().process(trajectory) is None

    def test_single_point_trajectory(self):
        trajectory = Trajectory([31.9], [120.8], [0.0])
        assert RawTrajectoryProcessor().process(trajectory) is None

    def test_irregular_sampling_intervals(self):
        """Stay extraction is threshold-based, not count-based."""
        # 4 fixes spanning 20 minutes with irregular gaps: still one stay.
        trajectory = Trajectory([31.9] * 4, [120.8] * 4,
                                [0.0, 60.0, 700.0, 1200.0])
        stays = StayPointExtractor().extract(trajectory)
        assert len(stays) == 1

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(1.0, 600.0), min_size=3, max_size=40))
    def test_extractor_invariants_under_random_sampling(self, gaps):
        ts = np.concatenate([[0.0], np.cumsum(gaps)])
        rng = np.random.default_rng(int(sum(gaps)) % 2**31)
        lats = 31.9 + rng.normal(0, 20 / METERS_PER_DEG, size=ts.size)
        lngs = 120.8 + rng.normal(0, 20 / METERS_PER_DEG, size=ts.size)
        trajectory = Trajectory(lats, lngs, ts)
        stays = StayPointExtractor().extract(trajectory)
        for stay in stays:
            assert stay.duration_s >= 15 * 60
        for a, b in zip(stays, stays[1:]):
            assert a.end < b.start
