"""Tests for noise filtering, stay point extraction, candidate generation."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (DatasetConfig, SimulatorConfig, generate_dataset)
from repro.model import Trajectory
from repro.processing import (CandidateGenerator, NoiseFilter,
                              RawTrajectoryProcessor, StayPointExtractor,
                              StayPointScanner, extract_move_points)

from .oracles import ScalarStayPointScanner

METERS_PER_DEG = 111_000.0


def make_trajectory(segments, dt=60.0):
    """Build a trajectory from (lat, lng, count) hold segments."""
    lats, lngs, ts = [], [], []
    t = 0.0
    for lat, lng, count in segments:
        for _ in range(count):
            lats.append(lat)
            lngs.append(lng)
            ts.append(t)
            t += dt
    return Trajectory(lats, lngs, ts)


def trajectory_with_stays(num_stays=3, stay_points=20, travel_points=5,
                          dt=60.0, spacing_deg=0.05):
    """Alternating long stays and fast transits between distinct regions."""
    lats, lngs, ts = [], [], []
    t = 0.0
    for s in range(num_stays):
        base_lat = 31.9 + s * spacing_deg
        for _ in range(stay_points):
            lats.append(base_lat)
            lngs.append(120.8)
            ts.append(t)
            t += dt
        if s < num_stays - 1:
            for k in range(1, travel_points + 1):
                alpha = k / (travel_points + 1)
                lats.append(base_lat + alpha * spacing_deg)
                lngs.append(120.8)
                ts.append(t)
                t += dt
    return Trajectory(lats, lngs, ts)


class TestNoiseFilter:
    def test_clean_trajectory_untouched(self):
        tr = trajectory_with_stays()
        filtered = NoiseFilter().filter(tr)
        assert len(filtered) == len(tr)

    def test_outlier_removed(self):
        # 10 km jump and back within 60 s -> 600 km/h, clearly noise.
        tr = make_trajectory([(31.9, 120.8, 3)])
        lats = list(tr.lats) + [31.9 + 10_000 / METERS_PER_DEG, 31.9]
        lngs = list(tr.lngs) + [120.8, 120.8]
        ts = list(tr.ts) + [180.0, 240.0]
        noisy = Trajectory(lats, lngs, ts)
        filtered = NoiseFilter(max_speed_kmh=130.0).filter(noisy)
        assert len(filtered) == 4
        assert NoiseFilter().removed_count(noisy) == 1

    def test_consecutive_outliers_removed(self):
        base = [(31.9, 120.8)] * 3
        outlier = 31.9 + 12_000 / METERS_PER_DEG
        lats = [p[0] for p in base] + [outlier, outlier + 0.001, 31.9]
        lngs = [120.8] * 6
        ts = [0.0, 60.0, 120.0, 180.0, 240.0, 300.0]
        filtered = NoiseFilter().filter(Trajectory(lats, lngs, ts))
        assert len(filtered) == 4
        assert filtered.lats[-1] == 31.9

    def test_short_trajectories_passthrough(self):
        tr = Trajectory([31.9], [120.8], [0.0])
        assert len(NoiseFilter().filter(tr)) == 1

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            NoiseFilter(max_speed_kmh=0.0)

    def test_first_point_always_kept(self):
        tr = make_trajectory([(31.9, 120.8, 5)])
        filtered = NoiseFilter().filter(tr)
        assert filtered.lats[0] == tr.lats[0]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 30))
    def test_filtered_speeds_below_threshold(self, n):
        rng = np.random.default_rng(n)
        lats = 31.9 + np.cumsum(rng.normal(0, 0.01, size=n))
        lngs = 120.8 + np.cumsum(rng.normal(0, 0.01, size=n))
        ts = np.arange(n) * 120.0
        filtered = NoiseFilter().filter(Trajectory(lats, lngs, ts))
        if len(filtered) > 1:
            assert (filtered.segment_speeds_kmh() <= 130.0 + 1e-6).all()


class TestStayPointExtractor:
    def test_single_stay(self):
        tr = make_trajectory([(31.9, 120.8, 20)])
        sps = StayPointExtractor().extract(tr)
        assert len(sps) == 1
        assert sps[0].start == 0
        assert sps[0].end == len(tr) - 1
        assert sps[0].ordinal == 1

    def test_multiple_stays_with_transits(self):
        tr = trajectory_with_stays(num_stays=4)
        sps = StayPointExtractor().extract(tr)
        assert len(sps) == 4
        assert [sp.ordinal for sp in sps] == [1, 2, 3, 4]

    def test_short_stay_rejected(self):
        # 5 points at 60 s = 4 min < Tmin.
        tr = trajectory_with_stays(num_stays=2, stay_points=5)
        sps = StayPointExtractor().extract(tr)
        assert sps == []

    def test_moving_trajectory_has_no_stays(self):
        n = 50
        lats = 31.8 + np.arange(n) * 0.01  # >1 km per step
        tr = Trajectory(lats, np.full(n, 120.8), np.arange(n) * 60.0)
        assert StayPointExtractor().extract(tr) == []

    def test_duration_threshold_boundary(self):
        # Exactly Tmin duration is accepted (>=).
        tr = make_trajectory([(31.9, 120.8, 16)], dt=60.0)  # 15 min span
        sps = StayPointExtractor(min_duration_s=900.0).extract(tr)
        assert len(sps) == 1

    def test_wander_within_dmax_is_one_stay(self):
        rng = np.random.default_rng(0)
        n = 20
        lats = 31.9 + rng.normal(0, 30 / METERS_PER_DEG, size=n)
        lngs = 120.8 + rng.normal(0, 30 / METERS_PER_DEG, size=n)
        tr = Trajectory(lats, lngs, np.arange(n) * 120.0)
        sps = StayPointExtractor().extract(tr)
        assert len(sps) == 1

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            StayPointExtractor(max_distance_m=-1)
        with pytest.raises(ValueError):
            StayPointExtractor(min_duration_s=0)

    def test_stay_points_disjoint_and_ordered(self):
        tr = trajectory_with_stays(num_stays=5)
        sps = StayPointExtractor().extract(tr)
        for a, b in zip(sps, sps[1:]):
            assert a.end < b.start

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 6))
    def test_extraction_invariants_on_simulated_styles(self, num_stays):
        tr = trajectory_with_stays(num_stays=num_stays)
        sps = StayPointExtractor().extract(tr)
        # Every stay meets the duration threshold.
        assert all(sp.duration_s >= 900.0 for sp in sps)
        # Ordinals are 1..n.
        assert [sp.ordinal for sp in sps] == list(range(1, len(sps) + 1))


class TestStayPointScanner:
    """The offline extractor is a replay of the online scanner, and both
    equal the per-fix rule loop of the oracle."""

    def _replay_spans(self, extractor, trajectory, checkpoint_every=None):
        """Feed the oracle point-by-point; optionally round-trip state."""
        scanner = ScalarStayPointScanner(extractor.max_distance_m,
                                         extractor.min_duration_s)
        spans = []
        for k, (lat, lng, t) in enumerate(zip(trajectory.lats,
                                              trajectory.lngs,
                                              trajectory.ts)):
            if checkpoint_every and k % checkpoint_every == 0:
                state = json.loads(json.dumps(scanner.state()))
                scanner = ScalarStayPointScanner.from_state(state)
            spans.extend(scanner.feed(float(lat), float(lng), float(t)))
        spans.extend(scanner.finish())
        return spans

    def _stream_spans(self, extractor, trajectory, checkpoint_every=None):
        """Feed the production scanner one fix per ``feed_batch`` call;
        optionally round-trip its state through JSON as it goes."""
        scanner = extractor.scanner()
        spans = []
        for k, (lat, lng, t) in enumerate(zip(trajectory.lats,
                                              trajectory.lngs,
                                              trajectory.ts)):
            if checkpoint_every and k % checkpoint_every == 0:
                state = json.loads(json.dumps(scanner.state()))
                scanner = StayPointScanner.from_state(state)
            spans.extend(scanner.feed_batch([lat], [lng], [t]))
        spans.extend(scanner.finish())
        return spans

    def test_replay_matches_extract_on_synthetic_styles(self):
        extractor = StayPointExtractor()
        for num_stays in range(1, 6):
            tr = trajectory_with_stays(num_stays=num_stays)
            offline = [(sp.start, sp.end) for sp in extractor.extract(tr)]
            assert self._replay_spans(extractor, tr) == offline
            assert self._stream_spans(extractor, tr) == offline

    def test_replay_matches_extract_on_simulated_fleet(self):
        dataset = generate_dataset(DatasetConfig(
            num_trajectories=30, num_trucks=10, seed=11))
        extractor = StayPointExtractor()
        noise = NoiseFilter()
        checked = 0
        for sample in dataset.samples:
            cleaned = noise.filter(sample.trajectory)
            offline = [(sp.start, sp.end)
                       for sp in extractor.extract(cleaned)]
            assert self._replay_spans(extractor, cleaned) == offline
            checked += 1
        assert checked == 30

    def test_state_roundtrip_mid_stream_is_exact(self):
        extractor = StayPointExtractor()
        tr = trajectory_with_stays(num_stays=4)
        direct = self._replay_spans(extractor, tr)
        assert self._replay_spans(extractor, tr, checkpoint_every=7) \
            == direct
        assert self._stream_spans(extractor, tr, checkpoint_every=7) \
            == direct

    def test_mid_stream_spans_are_final(self):
        """Spans emitted before the flush never change afterwards."""
        extractor = StayPointExtractor()
        tr = trajectory_with_stays(num_stays=3)
        scanner = extractor.scanner()
        seen = []
        for lat, lng, t in zip(tr.lats, tr.lngs, tr.ts):
            before = list(seen)
            seen.extend(scanner.feed_batch([lat], [lng], [t]))
            assert seen[:len(before)] == before
        final = seen + scanner.finish()
        offline = [(sp.start, sp.end) for sp in extractor.extract(tr)]
        assert final == offline

    def test_feed_requires_increasing_time(self):
        scanner = StayPointExtractor().scanner()
        scanner.feed_batch([31.9], [120.8], [0.0])
        with pytest.raises(ValueError):
            scanner.feed_batch([31.9], [120.8], [0.0])
        with pytest.raises(ValueError):
            scanner.feed_batch([31.9, 31.9], [120.8, 120.8], [5.0, 5.0])

    def test_finish_is_idempotent(self):
        tr = make_trajectory([(31.9, 120.8, 20)])
        scanner = StayPointExtractor().scanner()
        scanner.feed_batch(tr.lats, tr.lngs, tr.ts)
        first = scanner.finish()
        assert len(first) == 1
        assert scanner.finish() == []


class TestMovePoints:
    def test_move_points_connect_stays(self):
        tr = trajectory_with_stays(num_stays=3)
        sps = StayPointExtractor().extract(tr)
        mps = extract_move_points(tr, sps)
        assert len(mps) == 2
        for sp, mp in zip(sps, mps):
            assert mp.start == sp.end
        for mp, sp in zip(mps, sps[1:]):
            assert mp.end == sp.start

    def test_move_points_never_empty(self):
        tr = trajectory_with_stays(num_stays=2, travel_points=0)
        sps = StayPointExtractor().extract(tr)
        if len(sps) == 2:
            mps = extract_move_points(tr, sps)
            assert mps[0].num_points >= 2

    def test_empty_for_single_stay(self):
        tr = make_trajectory([(31.9, 120.8, 20)])
        sps = StayPointExtractor().extract(tr)
        assert extract_move_points(tr, sps) == []


class TestCandidateGenerator:
    def test_counts_formula(self):
        assert CandidateGenerator.count_for(5) == 10
        assert CandidateGenerator.count_for(14) == 91
        assert CandidateGenerator.count_for(3) == 3

    def test_generation_order_matches_forward_grouping(self):
        tr = trajectory_with_stays(num_stays=4)
        sps = StayPointExtractor().extract(tr)
        mps = extract_move_points(tr, sps)
        candidates = CandidateGenerator().generate(sps, mps)
        pairs = [c.pair for c in candidates]
        assert pairs == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_cap_enforced(self):
        tr = trajectory_with_stays(num_stays=3)
        sps = StayPointExtractor().extract(tr)
        mps = extract_move_points(tr, sps)
        with pytest.raises(ValueError):
            CandidateGenerator(max_stay_points=2).generate(sps, mps)

    def test_mismatched_move_points_rejected(self):
        tr = trajectory_with_stays(num_stays=3)
        sps = StayPointExtractor().extract(tr)
        with pytest.raises(ValueError):
            CandidateGenerator().generate(sps, [])


class TestProcessorEndToEnd:
    @pytest.fixture(scope="class")
    def processed(self):
        dataset = generate_dataset(DatasetConfig(
            num_trajectories=10, num_trucks=5, seed=13))
        processor = RawTrajectoryProcessor()
        results = []
        for sample in dataset:
            result = processor.process(sample.trajectory, sample.label)
            if result is not None:
                results.append(result)
        return results

    def test_most_samples_processable(self, processed):
        assert len(processed) >= 8

    def test_stay_counts_in_paper_range(self, processed):
        for result in processed:
            assert 2 <= result.num_stay_points <= 16

    def test_labels_mapped_for_most(self, processed):
        mapped = [r for r in processed if r.label_pair is not None]
        assert len(mapped) >= len(processed) * 0.8

    def test_label_pair_is_valid_candidate(self, processed):
        for result in processed:
            if result.label_pair is None:
                continue
            index = result.labeled_candidate_index
            assert result.candidates[index].pair == result.label_pair

    def test_candidate_count_matches_formula(self, processed):
        for result in processed:
            assert result.num_candidates == \
                CandidateGenerator.count_for(result.num_stay_points)

    def test_noise_filter_removes_injected_outliers(self):
        dataset = generate_dataset(DatasetConfig(
            num_trajectories=4, num_trucks=2, seed=21,
            sim=SimulatorConfig(outlier_probability=0.05)))
        nf = NoiseFilter()
        removed = sum(nf.removed_count(s.trajectory) for s in dataset)
        assert removed > 0
        for sample in dataset:
            cleaned = nf.filter(sample.trajectory)
            assert (cleaned.segment_speeds_kmh() <= 130.0 + 1e-6).all()

    def test_processor_returns_none_without_stays(self):
        n = 50
        lats = 31.8 + np.arange(n) * 0.01
        tr = Trajectory(lats, np.full(n, 120.8), np.arange(n) * 60.0)
        assert RawTrajectoryProcessor().process(tr) is None
