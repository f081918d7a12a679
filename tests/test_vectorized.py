"""Property tests: the array front-end lanes equal the per-fix oracles.

Every front-end stage has one production lane in ``src/`` — array at a
time — and a per-fix reference in ``tests/oracles.py``.  The contract is
exact agreement: bit-identical stay-point spans and scanner pointers,
identical noise-filter kept sets, POI counts equal to a brute-force
count over every POI.  Hypothesis drives adversarially shaped
trajectories (duplicate-adjacent fixes, teleporting outliers, all-stay,
all-move, single-point, empty) through both, including random batch
splits and mid-stream checkpoint round-trips; a simulated fleet pins the
same three equalities on realistic days.  The streaming session's
deferred drain is pinned here too: per-ping ingest never scans.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (DatasetConfig, SyntheticWorld, WorldConfig,
                        generate_dataset)
from repro.data.poi import POI, POI_CATEGORIES, POIDatabase
from repro.model import Trajectory
from repro.processing import NoiseFilter, StayPointExtractor
from repro.processing.staypoints import StayPointScanner
from repro.stream import FleetConfig, FleetSessionManager, TruckSession

from .oracles import (ScalarStayPointScanner, count_categories_bruteforce,
                      filter_scalar, scalar_kept_indices)

BASE_LAT, BASE_LNG = 31.95, 120.85


# ---------------------------------------------------------------------------
# Trajectory strategies: interleaved stay / move / teleport segments.

@st.composite
def trajectories(draw, min_points=0, max_points=160):
    n = draw(st.integers(min_points, max_points))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Segment behaviour per point: mostly-stay, mostly-move, or mixed.
    regime = draw(st.sampled_from(["stay", "move", "mixed"]))
    lat, lng, t = BASE_LAT, BASE_LNG, 0.0
    lats, lngs, ts = [], [], []
    mode = "stay" if regime != "move" else "move"
    for _ in range(n):
        if regime == "mixed" and rng.random() < 0.05:
            mode = "move" if mode == "stay" else "stay"
        if rng.random() < 0.04 and lats:
            # duplicate-adjacent fix: same position, later timestamp
            lats.append(lats[-1])
            lngs.append(lngs[-1])
        else:
            if mode == "stay":
                lat += rng.uniform(-3e-4, 3e-4)
                lng += rng.uniform(-3e-4, 3e-4)
            else:
                lat += rng.uniform(-0.02, 0.02)
                lng += rng.uniform(0.004, 0.02)
            step_lat, step_lng = lat, lng
            if rng.random() < 0.05:
                # teleporting outlier: a one-fix excursion
                step_lat += rng.uniform(-0.8, 0.8)
            lats.append(step_lat)
            lngs.append(step_lng)
        t += rng.uniform(1.0, 180.0)
        ts.append(t)
    return Trajectory(lats, lngs, ts)


# ---------------------------------------------------------------------------
class TestScannerEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(trajectories(), st.randoms(use_true_random=False))
    def test_feed_batch_equals_feed(self, trajectory, rnd):
        """Random batch splits emit the scalar spans and pointers."""
        n = len(trajectory)
        ref = ScalarStayPointScanner()
        ref_spans = []
        for lat, lng, t in zip(trajectory.lats, trajectory.lngs,
                               trajectory.ts):
            ref_spans.extend(ref.feed(float(lat), float(lng), float(t)))
        ref_spans.extend(ref.finish())

        bat = StayPointScanner()
        bat_spans = []
        i = 0
        while i < n:
            step = rnd.randint(1, max(1, n // 3))
            bat_spans.extend(bat.feed_batch(trajectory.lats[i:i + step],
                                            trajectory.lngs[i:i + step],
                                            trajectory.ts[i:i + step]))
            i += step
            if rnd.random() < 0.25:
                # checkpoint round-trip mid-stream must not perturb
                resumed = StayPointScanner.from_state(
                    json.loads(json.dumps(bat.state())))
                assert resumed.state() == bat.state()
                bat = resumed
        bat_spans.extend(bat.finish())

        assert bat_spans == ref_spans
        assert (bat._anchor, bat._last, bat._scan, bat._emitted) \
            == (ref._anchor, ref._last, ref._scan, ref._emitted)
        assert bat.state() == ref.state()

    @settings(max_examples=25, deadline=None)
    @given(trajectories(min_points=1))
    def test_extract_equals_scalar_replay(self, trajectory):
        extractor = StayPointExtractor()
        scanner = ScalarStayPointScanner(extractor.max_distance_m,
                                         extractor.min_duration_s)
        spans = []
        for lat, lng, t in zip(trajectory.lats, trajectory.lngs,
                               trajectory.ts):
            spans.extend(scanner.feed(float(lat), float(lng), float(t)))
        spans.extend(scanner.finish())
        assert [(sp.start, sp.end)
                for sp in extractor.extract(trajectory)] == spans

    def test_single_point_and_empty(self):
        scanner = StayPointScanner()
        assert scanner.feed_batch([], [], []) == []
        assert scanner.feed_batch([BASE_LAT], [BASE_LNG], [0.0]) == []
        assert scanner.finish() == []
        assert StayPointExtractor().extract(
            Trajectory([BASE_LAT], [BASE_LNG], [0.0])) == []

    def test_all_stay_single_span(self):
        ts = np.arange(0.0, 3600.0, 30.0)
        lats = BASE_LAT + 1e-5 * np.sin(ts)
        lngs = BASE_LNG + 1e-5 * np.cos(ts)
        spans = StayPointExtractor().extract(Trajectory(lats, lngs, ts))
        assert [(sp.start, sp.end) for sp in spans] \
            == [(0, len(ts) - 1)]

    def test_all_move_no_spans(self):
        n = 200
        ts = np.arange(n) * 30.0
        lats = BASE_LAT + np.arange(n) * 0.01  # ~1.1 km per fix
        lngs = np.full(n, BASE_LNG)
        assert StayPointExtractor().extract(
            Trajectory(lats, lngs, ts)) == []


class TestNoiseFilterEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(trajectories())
    def test_filter_equals_scalar(self, trajectory):
        nf = NoiseFilter()
        fast = nf.filter(trajectory)
        slow = filter_scalar(nf, trajectory)
        assert np.array_equal(fast.ts, slow.ts)
        assert np.array_equal(fast.lats, slow.lats)
        assert np.array_equal(fast.lngs, slow.lngs)

    @settings(max_examples=40, deadline=None)
    @given(trajectories(), st.booleans())
    def test_kept_indices_equals_scalar_walk(self, trajectory, with_prev):
        nf = NoiseFilter()
        prev = (BASE_LAT, BASE_LNG, -60.0) if with_prev else None
        kept = nf.kept_indices(trajectory.lats, trajectory.lngs,
                               trajectory.ts, prev=prev)
        assert kept.tolist() == scalar_kept_indices(
            nf.max_speed_kmh, trajectory.lats, trajectory.lngs,
            trajectory.ts, prev=prev)


class TestPOICountEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(trajectories(max_points=40), st.integers(0, 2**32 - 1),
           st.sampled_from([60.0, 100.0, 350.0]))
    def test_batch_counts_equal_scalar(self, trajectory, seed, radius):
        rng = np.random.default_rng(seed)
        db = POIDatabase()
        for k in range(rng.integers(0, 120)):
            db.add(POI(poi_id=k,
                       category=POI_CATEGORIES[
                           int(rng.integers(len(POI_CATEGORIES)))],
                       lat=float(BASE_LAT + rng.uniform(-0.05, 0.05)),
                       lng=float(BASE_LNG + rng.uniform(-0.05, 0.05))))
        batch = db.count_categories_batch(trajectory.lats, trajectory.lngs,
                                          radius_m=radius)
        assert batch.shape == (len(trajectory), len(POI_CATEGORIES))
        reference = count_categories_bruteforce(
            db, trajectory.lats, trajectory.lngs, radius)
        assert np.allclose(batch, reference, rtol=1e-9, atol=0.0)
        for k in range(min(len(trajectory), 3)):
            assert np.array_equal(db.count_categories(
                float(trajectory.lats[k]), float(trajectory.lngs[k]),
                radius_m=radius), reference[k])

    def test_empty_query_and_empty_db(self):
        db = POIDatabase()
        assert db.count_categories_batch([], [], radius_m=100.0).shape \
            == (0, len(POI_CATEGORIES))
        assert db.count_categories_batch(
            [BASE_LAT], [BASE_LNG], radius_m=100.0).shape \
            == (1, len(POI_CATEGORIES))


# ---------------------------------------------------------------------------
class TestFrontEndOnSimulatedFleet:
    """The three production lanes equal their oracles on simulated days."""

    @pytest.fixture(scope="class")
    def fleet(self):
        world = SyntheticWorld(WorldConfig(seed=11))
        dataset = generate_dataset(DatasetConfig(
            num_trajectories=30, num_trucks=10, seed=11), world=world)
        return world.pois, [s.trajectory for s in dataset.samples]

    def test_noise_filter_keeps_the_oracle_set(self, fleet):
        _, raw = fleet
        nf = NoiseFilter()
        dropped = 0
        for trajectory in raw:
            kept = nf.kept_indices(trajectory.lats, trajectory.lngs,
                                   trajectory.ts)
            assert kept.tolist() == scalar_kept_indices(
                nf.max_speed_kmh, trajectory.lats, trajectory.lngs,
                trajectory.ts)
            assert np.array_equal(nf.filter(trajectory).ts,
                                  filter_scalar(nf, trajectory).ts)
            dropped += len(trajectory) - kept.size
        assert len(raw) == 30
        assert dropped > 0

    def test_extract_emits_the_oracle_spans(self, fleet):
        _, raw = fleet
        nf, extractor = NoiseFilter(), StayPointExtractor()
        for trajectory in raw:
            cleaned = nf.filter(trajectory)
            oracle = ScalarStayPointScanner(extractor.max_distance_m,
                                            extractor.min_duration_s)
            spans = []
            for lat, lng, t in zip(cleaned.lats, cleaned.lngs, cleaned.ts):
                spans.extend(oracle.feed(lat, lng, t))
            spans.extend(oracle.finish())
            assert [(sp.start, sp.end)
                    for sp in extractor.extract(cleaned)] == spans
            assert spans

    def test_poi_counts_equal_bruteforce(self, fleet):
        pois, raw = fleet
        nf = NoiseFilter()
        hits = 0
        for trajectory in raw:
            cleaned = nf.filter(trajectory)
            counts = pois.count_categories_batch(cleaned.lats, cleaned.lngs,
                                                 radius_m=100.0)
            assert np.array_equal(counts, count_categories_bruteforce(
                pois, cleaned.lats, cleaned.lngs, 100.0))
            hits += int(counts.sum())
        assert hits > 0


# ---------------------------------------------------------------------------
class TestDeferredSessionLane:
    """Per-ping ingest only sanitizes and reorders; reads drain."""

    def test_ingest_never_scans_until_a_read(self, monkeypatch):
        calls = []
        original = StayPointScanner.feed_batch

        def counting(self, *args):
            calls.append(len(args[0]))
            return original(self, *args)

        monkeypatch.setattr(StayPointScanner, "feed_batch", counting)
        session = TruckSession("t", "d")
        for k in range(50):
            session.ingest(BASE_LAT + 1e-5 * (k % 3), BASE_LNG, 30.0 * k)
        assert calls == []
        session.snapshot()
        assert len(calls) == 1
        session.snapshot()
        assert len(calls) == 1

    def test_fleet_groups_never_scan_until_a_read(self, monkeypatch):
        """The serve workers' group entry stays as lazy as ``ingest``."""
        calls = []
        original = StayPointScanner.feed_batch

        def counting(self, *args):
            calls.append(len(args[0]))
            return original(self, *args)

        monkeypatch.setattr(StayPointScanner, "feed_batch", counting)
        manager = FleetSessionManager(None, FleetConfig())
        for group in range(50):
            ks = range(3 * group, 3 * group + 3)
            manager.ingest_batch(
                "t", [BASE_LAT + 1e-5 * (k % 3) for k in ks],
                [BASE_LNG] * 3, [30.0 * k for k in ks], day="d")
        assert calls == []
        manager.session("t", "d").snapshot()
        assert len(calls) == 1
