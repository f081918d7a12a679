"""Tests for the online detection subsystem (``repro.stream``).

The load-bearing contract: a trajectory streamed ping-by-ping through a
:class:`TruckSession` / :class:`FleetSessionManager` ends — after the
flush — at *exactly* the offline ``LEAD.detect`` answer: same candidate
pair, ``allclose`` distribution at ``rtol=1e-9``, identical provenance
(tier and notes), across ≥50 simulated truck-days and under hostile
arrival conditions (bounded out-of-order delivery, non-finite and
out-of-range fixes, knocked-out detectors).  On top of that sit the
serving-layer mechanics: tick memoization, incremental encoding from
each session's encoding state, LRU eviction with bit-exact checkpoint
restore, and a thousand-session soak.
"""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosEngine, FaultSpec
from repro.data import (DatasetConfig, SyntheticWorld, WorldConfig,
                        generate_dataset)
from repro.detection import DetectorTrainingConfig
from repro.encoding import AutoencoderTrainingConfig, HierarchicalAutoencoder
from repro.model import Trajectory
from repro.pipeline import LEAD, LEADConfig
from repro.processing import ReorderBuffer
from repro.serve import ServeConfig
from repro.stream import (FleetConfig, FleetSessionManager, Ping,
                          TruckSession, confidence_tier, dataset_ping_stream,
                          scramble_stream)


def tiny_lead_config(**overrides) -> LEADConfig:
    base = dict(
        encoder_training=AutoencoderTrainingConfig(
            epochs=1, max_samples_per_epoch=30, batch_size=8, seed=0),
        detector_training=DetectorTrainingConfig(
            epochs=1, batch_size=4, seed=0),
        max_autoencoder_samples=40,
        seed=0)
    base.update(overrides)
    return LEADConfig(**base)


@pytest.fixture(scope="module")
def world_and_data():
    world = SyntheticWorld(WorldConfig(seed=13))
    dataset = generate_dataset(
        DatasetConfig(num_trajectories=50, num_trucks=20, seed=13),
        world=world)
    return world, dataset


@pytest.fixture(scope="module")
def fitted(world_and_data):
    world, dataset = world_and_data
    lead = LEAD(world.pois, tiny_lead_config())
    lead.fit(dataset.samples[:8])
    return lead


@pytest.fixture(scope="module")
def offline(world_and_data, fitted):
    """Reference offline answers, one per truck-day."""
    _, dataset = world_and_data
    results = {}
    for sample in dataset.samples:
        trajectory = sample.trajectory
        key = (str(trajectory.truck_id), str(trajectory.day))
        assert key not in results, "truck-day keys must be unique"
        results[key] = fitted.detect(trajectory)
    return results


def assert_verdict_matches(verdict, result):
    """Streamed final verdict == offline DetectionResult, bit for bit."""
    if result is None:
        assert verdict.pair is None
        assert verdict.confidence == "none"
        return
    assert verdict.final
    assert verdict.pair == result.pair
    assert np.allclose(verdict.distribution, result.distribution,
                       rtol=1e-9, atol=0.0)
    assert verdict.provenance.tier == result.provenance.tier
    assert verdict.provenance.notes == result.provenance.notes
    assert verdict.provenance.sanitized == result.provenance.sanitized
    expected = float(result.distribution[
        result.processed.candidate_index(result.pair)])
    assert verdict.probability == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# 1. Convergence: streamed final == offline detect (≥50 truck-days)
# ---------------------------------------------------------------------------
class TestConvergence:
    def _run_fleet(self, fitted, pings, **config):
        manager = FleetSessionManager(fitted, FleetConfig(**config))
        for ping in pings:
            manager.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                           day=ping.day)
        return {(v.truck_id, v.day): v for v in manager.flush_all()}

    def test_in_order_replay_matches_offline(self, world_and_data, fitted,
                                             offline):
        _, dataset = world_and_data
        finals = self._run_fleet(
            fitted, dataset_ping_stream(dataset.samples))
        assert len(finals) == 50
        for key, result in offline.items():
            assert_verdict_matches(finals[key], result)
        # The fixture set must actually exercise detection.
        assert sum(r is not None for r in offline.values()) >= 25

    def test_out_of_order_replay_matches_offline(self, world_and_data,
                                                 fitted, offline):
        """Bounded scrambling is absorbed by the reorder buffer."""
        _, dataset = world_and_data
        pings = scramble_stream(dataset_ping_stream(dataset.samples),
                                window=6, seed=3)
        finals = self._run_fleet(fitted, pings, reorder_capacity=8)
        for key, result in offline.items():
            assert_verdict_matches(finals[key], result)

    def test_ticks_between_pings_do_not_change_the_final(
            self, world_and_data, fitted, offline):
        """Interleaved provisional ticks never perturb convergence."""
        _, dataset = world_and_data
        samples = dataset.samples[:6]
        manager = FleetSessionManager(fitted, FleetConfig())
        pings = dataset_ping_stream(samples)
        for i, ping in enumerate(pings):
            manager.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                           day=ping.day)
            if i % 400 == 0:
                manager.tick()
        finals = {(v.truck_id, v.day): v for v in manager.flush_all()}
        for sample in samples:
            key = (str(sample.trajectory.truck_id),
                   str(sample.trajectory.day))
            assert_verdict_matches(finals[key], offline[key])

    def test_degraded_model_provenance_matches_offline(self, world_and_data,
                                                       fitted):
        """A knocked-out detector degrades the stream exactly like
        the serial path: forward-only tier, same failure notes."""
        world, dataset = world_and_data
        crippled = LEAD(world.pois, tiny_lead_config())
        crippled.featurizer.normalizer = fitted.featurizer.normalizer
        crippled.autoencoder = fitted.autoencoder
        crippled.forward_detector = fitted.forward_detector
        crippled.backward_detector = None
        crippled._fitted = True
        samples = dataset.samples[8:16]
        finals = self._run_fleet(crippled, dataset_ping_stream(samples))
        answered = 0
        for sample in samples:
            trajectory = sample.trajectory
            key = (str(trajectory.truck_id), str(trajectory.day))
            result = crippled.detect(trajectory)
            assert_verdict_matches(finals[key], result)
            if result is not None:
                answered += 1
                assert finals[key].provenance.tier == "forward-only"
                assert any("tier 'both' failed" in note
                           for note in finals[key].provenance.notes)
        assert answered > 0

    def test_hostile_fixes_counted_like_offline_sanitize(self,
                                                         world_and_data,
                                                         fitted):
        """Non-finite / out-of-range pings drop with the offline note."""
        _, dataset = world_and_data
        clean = dataset.samples[9].trajectory
        lats = np.array(clean.lats)
        lngs = np.array(clean.lngs)
        ts = np.array(clean.ts)
        # Corrupt three interior fixes in ways sanitize must drop.
        lats[5], lngs[17], lats[40] = np.nan, 400.0, 95.0
        hostile = Trajectory(lats, lngs, ts, truck_id=clean.truck_id,
                             day=clean.day)
        result = fitted.detect(hostile)
        assert result is not None
        assert result.provenance.sanitized
        session = TruckSession(str(clean.truck_id), str(clean.day),
                               processor=fitted.processor)
        for lat, lng, t in zip(lats, lngs, ts):
            session.ingest(lat, lng, t)
        session.finalize()
        assert session.counters.pings_dropped_invalid == 3
        assert session.sanitize_notes() == \
            ["dropped 3 non-finite/out-of-range fixes"]
        verdicts = fitted.detect_many([session.snapshot()],
                                      [session.sanitize_notes()])
        assert verdicts[0].pair == result.pair
        assert verdicts[0].provenance == result.provenance
        assert np.allclose(verdicts[0].distribution, result.distribution,
                           rtol=1e-9, atol=0.0)

    @settings(max_examples=8, deadline=None)
    @given(window=st.integers(1, 6), seed=st.integers(0, 1000))
    def test_property_scrambled_stream_converges(self, world_and_data,
                                                 fitted, offline, window,
                                                 seed):
        """Any bounded-window scramble of the feed converges exactly."""
        _, dataset = world_and_data
        samples = dataset.samples[:4]
        pings = scramble_stream(dataset_ping_stream(samples),
                                window=window, seed=seed)
        finals = self._run_fleet(fitted, pings, reorder_capacity=8)
        for sample in samples:
            key = (str(sample.trajectory.truck_id),
                   str(sample.trajectory.day))
            assert_verdict_matches(finals[key], offline[key])


# ---------------------------------------------------------------------------
# 2. Tick mechanics: memoization and suffix-only refeaturization
# ---------------------------------------------------------------------------
class TestTicks:
    def test_unchanged_sessions_skip_redetection(self, world_and_data,
                                                 fitted):
        _, dataset = world_and_data
        manager = FleetSessionManager(fitted, FleetConfig())
        for ping in dataset_ping_stream(dataset.samples[:3]):
            manager.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                           day=ping.day)
        first = manager.tick()
        calls = manager.counters.detect_calls
        second = manager.tick()
        assert manager.counters.detect_calls == calls  # all memoized
        assert [v.pair for v in second] == [v.pair for v in first]

    def test_served_tick_verdicts_equal_a_fresh_detection(self,
                                                          world_and_data,
                                                          fitted):
        """A verdict a tick serves without re-detecting is what
        detecting the session's current snapshot gives."""
        _, dataset = world_and_data
        manager = FleetSessionManager(fitted, FleetConfig())
        served = redetected = 0
        for i, ping in enumerate(dataset_ping_stream(dataset.samples[:3])):
            manager.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                           day=ping.day)
            if i % 7:
                continue
            for verdict in manager.tick():
                assert not verdict.final
                session = manager.session(verdict.truck_id, verdict.day)
                assert verdict.num_stay_points == \
                    session.num_closed_stay_points
                snapshot = session.snapshot()
                if snapshot is None:
                    assert verdict.pair is None
                    continue
                want = fitted.detect_many([snapshot],
                                          [session.sanitize_notes()])[0]
                assert verdict.pair == want.pair
                assert verdict.provenance.tier == want.provenance.tier
                assert verdict.provenance.notes == want.provenance.notes
                assert np.allclose(verdict.distribution, want.distribution,
                                   rtol=1e-9, atol=0.0)
                if verdict.tick == manager.counters.ticks:
                    redetected += 1
                else:
                    served += 1
        assert served > redetected > 0

    @staticmethod
    def _with_stay_points(dataset, fitted, minimum: int):
        """A manager fed one truck-day until ``minimum`` stay points
        closed, its session, and the fixes not yet fed."""
        trajectory = max(dataset.samples,
                         key=lambda s: len(s.trajectory)).trajectory
        truck, day = str(trajectory.truck_id), str(trajectory.day)
        manager = FleetSessionManager(fitted, FleetConfig())
        session = manager.session(truck, day)
        fixes = list(zip(trajectory.lats, trajectory.lngs, trajectory.ts))
        while session.num_closed_stay_points < minimum:
            manager.ingest(truck, *fixes.pop(0), day=day)
        return manager, session, fixes

    def test_tick_without_a_new_stay_point_detects_nothing(
            self, world_and_data, fitted):
        _, dataset = world_and_data
        manager, session, fixes = self._with_stay_points(dataset, fitted, 2)
        (verdict,) = manager.tick()
        assert verdict.pair is not None
        skipped = 0
        for lat, lng, t in fixes:
            closed, version = session.num_closed_stay_points, session.version
            calls = manager.counters.detect_calls
            manager.ingest(session.truck_id, lat, lng, t, day=session.day)
            (now,) = manager.tick()
            if session.num_closed_stay_points != closed:
                assert manager.counters.detect_calls == calls + 1
                assert now.tick == manager.counters.ticks
            else:
                assert manager.counters.detect_calls == calls
                assert now is verdict
                skipped += session.version != version
            verdict = now
        # Kept fixes moved the session revision on most of those ticks.
        assert skipped > len(fixes) // 2

    def test_non_finite_ping_forces_redetection(self, world_and_data,
                                                fitted):
        _, dataset = world_and_data
        manager, session, fixes = self._with_stay_points(dataset, fitted, 2)
        (before,) = manager.tick()
        assert before.pair is not None and not before.provenance.sanitized
        calls = manager.counters.detect_calls
        manager.ingest(session.truck_id, float("nan"), fixes[0][1],
                       fixes[0][2], day=session.day)
        (after,) = manager.tick()
        assert manager.counters.detect_calls == calls + 1
        assert after.tick == manager.counters.ticks
        assert after.num_stay_points == before.num_stay_points
        assert after.provenance.sanitized
        assert "dropped 1 non-finite/out-of-range fixes" in \
            after.provenance.notes
        assert after.pair == before.pair
        assert np.allclose(after.distribution, before.distribution,
                           rtol=1e-9, atol=0.0)

    def test_breaker_skipped_session_redetects_once_admitted(
            self, world_and_data, fitted):
        """A stay point that closed while the detector breaker was open
        is detected on the first tick the breaker admits again."""
        _, dataset = world_and_data
        manager, session, fixes = self._with_stay_points(dataset, fitted, 2)
        (stale,) = manager.tick()
        breaker = manager.detector_breaker
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        assert breaker.state == "open"
        closed = session.num_closed_stay_points
        while session.num_closed_stay_points == closed:
            manager.ingest(session.truck_id, *fixes.pop(0), day=session.day)
        (verdict,) = manager.tick()
        assert verdict is stale
        assert manager.counters.detect_skipped_breaker == 1
        calls = manager.counters.detect_calls
        for _ in range(8):
            (verdict,) = manager.tick()
            if breaker.state == "closed":
                break
            assert verdict is stale
        assert breaker.state == "closed"
        assert manager.counters.detect_calls == calls + 1
        assert verdict.tick == manager.counters.ticks
        assert verdict.num_stay_points == session.num_closed_stay_points

    def test_tick_encodes_only_new_segments(self, world_and_data, fitted,
                                            monkeypatch):
        """A tick featurizes and phase-1-encodes exactly the segments
        that closed since the session's last detection (every one on the
        first), and none when only the sanitize notes changed."""
        _, dataset = world_and_data
        featurized: list[int] = []
        phase1: list[int] = []
        featurize = fitted.featurizer.featurize_segments
        real_phase1 = HierarchicalAutoencoder._phase1

        def count_segments(segments):
            featurized.append(len(segments))
            return featurize(segments)

        def count_rows(operators, segment_lists):
            phase1.append(sum(map(len, segment_lists)))
            return real_phase1(operators, segment_lists)

        monkeypatch.setattr(fitted.featurizer, "featurize_segments",
                            count_segments)
        monkeypatch.setattr(HierarchicalAutoencoder, "_phase1",
                            staticmethod(count_rows))
        manager, session, fixes = self._with_stay_points(dataset, fitted, 2)
        detected = 0              # stay points at the last detection
        for k, (lat, lng, t) in enumerate(fixes):
            manager.ingest(session.truck_id, lat, lng, t, day=session.day)
            if k % 5:
                continue
            featurized.clear()
            phase1.clear()
            (verdict,) = manager.tick()
            if verdict.tick != manager.counters.ticks:
                assert featurized == phase1 == []        # served
                continue
            n = session.num_closed_stay_points
            closed = 2 * n - 1 if not detected else 2 * (n - detected)
            assert sum(featurized) == sum(phase1) == closed
            detected = n
        assert detected > 4
        featurized.clear()
        phase1.clear()
        manager.ingest(session.truck_id, float("nan"), 0.0, 0.0,
                       day=session.day)
        (verdict,) = manager.tick()
        assert verdict.tick == manager.counters.ticks    # re-detected
        assert sum(featurized) == sum(phase1) == 0

    @staticmethod
    def _watch_snapshots(session) -> list:
        """Weak references to the cleaned trajectory of every snapshot
        the session hands out from now on."""
        cleaned = []
        build = session.snapshot

        def snapshot():
            processed = build()
            if processed is not None:
                cleaned.append(weakref.ref(processed.cleaned))
            return processed

        session.snapshot = snapshot
        return cleaned

    def test_detected_snapshot_is_released_after_the_tick(
            self, world_and_data, fitted):
        """Bounded resources: with no further pings, nothing keeps the
        snapshot a tick detected on alive after that tick."""
        _, dataset = world_and_data
        manager, session, _ = self._with_stay_points(dataset, fitted, 2)
        cleaned = self._watch_snapshots(session)
        (verdict,) = manager.tick()
        assert verdict.pair is not None and len(cleaned) == 1
        gc.collect()
        assert cleaned[0]() is None

    def test_superseded_snapshot_is_released(self, world_and_data, fitted):
        """Bounded resources: once a tick re-detects a session on a newer
        snapshot, nothing keeps the previous snapshot's cleaned
        trajectory alive (no per-object featurization memo holds it)."""
        _, dataset = world_and_data
        manager, session, fixes = self._with_stay_points(dataset, fitted, 2)
        cleaned = self._watch_snapshots(session)
        (verdict,) = manager.tick()
        assert verdict.pair is not None and len(cleaned) == 1
        previous = cleaned[0]
        closed = session.num_closed_stay_points
        while session.num_closed_stay_points == closed:
            manager.ingest(session.truck_id, *fixes.pop(0), day=session.day)
        (verdict,) = manager.tick()
        assert verdict.tick == manager.counters.ticks    # re-detected
        assert verdict.num_stay_points == closed + 1
        gc.collect()
        assert previous() is None

    def test_ingest_only_manager_reports_progress(self, world_and_data):
        _, dataset = world_and_data
        manager = FleetSessionManager(None)
        for ping in dataset_ping_stream(dataset.samples[:2]):
            manager.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                           day=ping.day)
        verdicts = manager.tick()
        assert len(verdicts) == 2
        assert all(v.pair is None and v.confidence == "none"
                   for v in verdicts)
        assert all(v.num_stay_points > 0 for v in verdicts)


class TestEncodingLifetime:
    """A session's encoding state never makes a tick differ from a fresh
    detection: it is re-keyed when the weights or the dtype change,
    dropped at flush and eviction, and replaced only by a detection that
    returned."""

    @staticmethod
    def _ticks_match_fresh(manager, lead, pings, every=5, between=None,
                           tolerance=None):
        """Tick every ``every`` pings; each verdict a tick re-detects
        equals a fresh ``detect_many`` of its snapshot.  Returns how many
        were checked."""
        tolerance = tolerance or dict(rtol=1e-9, atol=0.0)
        checked = 0
        for k, ping in enumerate(pings):
            manager.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                           day=ping.day)
            if k % every:
                continue
            if between is not None:
                between(k)
            for verdict in manager.tick():
                if verdict.tick != manager.counters.ticks \
                        or verdict.pair is None:
                    continue
                session = manager.session(verdict.truck_id, verdict.day)
                want = lead.detect_many([session.snapshot()],
                                        [session.sanitize_notes()])[0]
                assert verdict.pair == want.pair
                assert verdict.provenance == want.provenance
                np.testing.assert_allclose(verdict.distribution,
                                           want.distribution, **tolerance)
                checked += 1
        return checked

    @staticmethod
    def _longest(dataset, count: int):
        return sorted(dataset.samples,
                      key=lambda s: -len(s.trajectory))[:count]

    @pytest.mark.parametrize("change", ["load", "refit"])
    def test_weights_changed_between_ticks(self, world_and_data, fitted,
                                           tmp_path, change):
        world, dataset = world_and_data
        fitted.save(tmp_path / "a")
        other = LEAD(world.pois, tiny_lead_config()).load(tmp_path / "a")
        for _, param in other.autoencoder.named_parameters():
            param.data *= 1.05
        other.save(tmp_path / "b")
        lead = LEAD(world.pois, tiny_lead_config()).load(tmp_path / "a")
        manager = FleetSessionManager(lead, FleetConfig())
        pings = list(dataset_ping_stream(self._longest(dataset, 2)))
        swap = len(pings) // 2

        def swap_weights(k):
            if swap <= k < swap + 5:
                if change == "load":
                    lead.load(tmp_path / "b")
                else:
                    lead.fit(dataset.samples[8:12])

        assert self._ticks_match_fresh(manager, lead, pings,
                                       between=swap_weights) > 4

    def test_float32_policy(self, world_and_data, fitted, tmp_path):
        """Ticks compute in float32 once the parity gate passes, and the
        states follow the compute dtype.  A tick's incremental shapes
        (a lone new segment runs BLAS's matrix-vector product) round
        differently in float32, so the check is at float32 resolution."""
        world, dataset = world_and_data
        fitted.save(tmp_path / "model")
        lead = LEAD(world.pois, tiny_lead_config(
            inference_dtype="float32")).load(tmp_path / "model")
        manager = FleetSessionManager(lead, FleetConfig())
        pings = list(dataset_ping_stream(self._longest(dataset, 2)))
        assert self._ticks_match_fresh(
            manager, lead, pings,
            tolerance=dict(rtol=1e-5, atol=1e-5)) > 4
        states = [manager.session(*key).encoding
                  for key in manager.known_sessions]
        assert states and all(s.cvecs.dtype == s.sp_runs.h.dtype
                              == np.float32 for s in states)

    def test_eviction_and_restore_mid_day(self, world_and_data, fitted,
                                          tmp_path):
        _, dataset = world_and_data
        manager = FleetSessionManager(fitted, FleetConfig(
            max_sessions=1, checkpoint_dir=tmp_path / "spill"))
        first, second = (list(dataset_ping_stream([sample]))
                         for sample in self._longest(dataset, 2))
        # Alternate the trucks every 7 pings, so each tick's session was
        # evicted and restored since the previous one.
        pings = [ping for k in range(0, max(len(first), len(second)), 7)
                 for ping in first[k:k + 7] + second[k:k + 7]]
        assert self._ticks_match_fresh(manager, fitted, pings, every=7) > 4
        assert manager.counters.sessions_restored > 4

    def test_failed_batch_and_per_session_retry(self, world_and_data,
                                                fitted):
        _, dataset = world_and_data
        manager = FleetSessionManager(fitted, FleetConfig())
        pings = list(dataset_ping_stream(self._longest(dataset, 3)))
        faults = [FaultSpec("detector.batch", "fail", rate=0.5),
                  FaultSpec("detector.forward", "fail", rate=0.2)]
        with ChaosEngine(3, faults):
            checked = self._ticks_match_fresh(manager, fitted, pings)
        assert checked > 4
        assert manager.counters.detect_batch_failures > 0
        assert manager.counters.detect_retries > 0

    def test_failed_detection_commits_nothing(self, world_and_data, fitted,
                                              monkeypatch):
        """A detection that raises after encoding leaves the session's
        state as it was; the retry that succeeds replaces it."""
        _, dataset = world_and_data
        manager, session, fixes = TestTicks._with_stay_points(
            dataset, fitted, 3)
        manager.tick()
        before = session.encoding
        assert before is not None and before.stays == 3
        real = fitted.detect_many
        seen = []

        def encode_then_fail(processed, notes=None, states=None):
            seen.append(session.encoding)
            results = real(processed, notes, states)
            if len(seen) == 1:
                raise RuntimeError("scoring died after encoding")
            return results

        monkeypatch.setattr(fitted, "detect_many", encode_then_fail)
        while session.num_closed_stay_points == 3:
            manager.ingest(session.truck_id, *fixes.pop(0), day=session.day)
        manager.tick()
        # The batch failed, and its retry started from the same state.
        assert seen == [before, before]
        assert manager.counters.detect_batch_failures == 1
        assert session.encoding.stays == 4

    def test_flush_drops_the_state(self, world_and_data, fitted):
        _, dataset = world_and_data
        manager, session, _ = TestTicks._with_stay_points(dataset, fitted, 3)
        manager.tick()
        state = weakref.ref(session.encoding)
        manager.flush(session.truck_id, day=session.day)
        assert session.encoding is None
        gc.collect()
        assert state() is None


# ---------------------------------------------------------------------------
# 2b. Deferred drain: reads between per-ping ingests change nothing
# ---------------------------------------------------------------------------
def hostile_feed(samples, window: int, rng) -> list[Ping]:
    """A scrambled fleet feed with invalid, duplicate and stale pings."""
    pings = scramble_stream(dataset_ping_stream(samples), window=window,
                            seed=int(rng.integers(1 << 30)))
    feed: list[Ping] = []
    for ping in pings:
        roll = rng.random()
        if roll < 0.02:
            feed.append(Ping(ping.truck_id, ping.day, float("nan"),
                             ping.lng, ping.t))
        elif roll < 0.04:
            feed.append(Ping(ping.truck_id, ping.day, 95.0, ping.lng,
                             ping.t))
        elif roll < 0.06:
            feed.append(Ping(ping.truck_id, ping.day, ping.lat, ping.lng,
                             ping.t - 3600.0))      # behind the horizon
        feed.append(ping)
        if rng.random() < 0.03:
            feed.append(ping)                       # duplicate timestamp
    return feed


class TestDeferredDrain:
    """Per-ping ingest defers the noise filter and scanner to the next
    read; where the reads fall must not change any outcome."""

    @staticmethod
    def _final(manager, keys):
        finals = {}
        for key in keys:
            session = manager.session(*key)
            finals[key] = (json.dumps(session.state()),
                           session.counters.as_dict(), session.version)
        verdicts = {(v.truck_id, v.day): v for v in manager.flush_all()}
        return finals, verdicts

    @settings(max_examples=8, deadline=None)
    @given(window=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
    def test_interleaved_reads_change_nothing(self, world_and_data, fitted,
                                              window, seed):
        _, dataset = world_and_data
        rng = np.random.default_rng(seed)
        samples = dataset.samples[11:14]
        feed = hostile_feed(samples, window, rng)
        keys = sorted({(p.truck_id, p.day) for p in feed})
        config = FleetConfig(reorder_capacity=4)

        quiet = FleetSessionManager(fitted, config)
        for ping in feed:
            quiet.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                         day=ping.day)
        expected, expected_verdicts = self._final(quiet, keys)

        busy = FleetSessionManager(fitted, config)
        for ping in feed:
            busy.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                        day=ping.day)
            if rng.random() >= 0.2:
                continue
            key = (ping.truck_id, ping.day)
            session = busy.session(*key)
            read = rng.integers(5)
            if read == 0:
                session.version
            elif read == 1:
                session.counters
            elif read == 2:
                session.snapshot()
            elif read == 3:
                # An evict/restore cycle: JSON checkpoint, fresh session.
                state = json.loads(json.dumps(session.state()))
                busy._sessions[key] = TruckSession.from_state(
                    state, processor=busy.processor)
            else:
                json.dumps(busy.stats())
        got, got_verdicts = self._final(busy, keys)

        bulk = FleetSessionManager(fitted, config)
        for key in keys:
            mine = [p for p in feed if (p.truck_id, p.day) == key]
            start = 0
            while start < len(mine):
                stop = start + int(rng.integers(1, 40))
                chunk = mine[start:stop]
                bulk.ingest_batch(key[0], [p.lat for p in chunk],
                                  [p.lng for p in chunk],
                                  [p.t for p in chunk], day=key[1])
                start = stop
        batched, batched_verdicts = self._final(bulk, keys)

        assert got == expected
        assert batched == expected
        for verdicts in (got_verdicts, batched_verdicts):
            assert verdicts.keys() == expected_verdicts.keys()
            for key, verdict in verdicts.items():
                want = expected_verdicts[key]
                assert (verdict.pair, verdict.confidence,
                        verdict.num_stay_points, verdict.provenance) == \
                    (want.pair, want.confidence, want.num_stay_points,
                     want.provenance)
                assert (verdict.distribution is None) == \
                    (want.distribution is None)
                if want.distribution is not None:
                    assert np.array_equal(verdict.distribution,
                                          want.distribution)

    def test_checkpoint_format_is_unchanged(self):
        """Schema 1, no pending fixes: a checkpoint written before the
        drain was deferred restores, and a deferred session writes it
        byte for byte."""
        session = TruckSession("t", "d", reorder_capacity=2)
        for k in range(6):
            session.ingest(31.9, 120.8 + 1e-5 * k, 60.0 * k)
        assert json.dumps(session.state()) == SCHEMA_1_CHECKPOINT
        resumed = TruckSession.from_state(json.loads(SCHEMA_1_CHECKPOINT))
        for k in range(6, 40):
            session.ingest(31.9, 120.8 + 1e-5 * k, 60.0 * k)
            resumed.ingest(31.9, 120.8 + 1e-5 * k, 60.0 * k)
        session.finalize()
        resumed.finalize()
        assert resumed.state() == session.state()
        assert session.num_closed_stay_points == 1


#: ``TruckSession.state()`` after six in-order pings into a
#: ``reorder_capacity=2`` session, as written by the per-ping scanner
#: lane this module's deferred drain replaced.
SCHEMA_1_CHECKPOINT = (
    '{"schema": 1, "truck_id": "t", "day": "d", "scanner": '
    '{"max_distance_m": 500.0, "min_duration_s": 900.0, "lats": '
    '[31.9, 31.9, 31.9, 31.9], "lngs": [120.8, 120.80001, 120.80002, '
    '120.80002999999999], "ts": [0.0, 60.0, 120.0, 180.0], "anchor": 0, '
    '"last": 3, "scan": 4, "emitted": 0, "finished": false}, "reorder": '
    '{"capacity": 2, "policy": "reorder", "heap": [[240.0, 4, 31.9, '
    '120.80004], [300.0, 5, 31.9, 120.80005]], "seq": 6, '
    '"last_released": 180.0, "max_seen": 300.0, "stats": {"pushed": 6, '
    '"released": 4, "reordered": 0, "dropped": 0}}, "spans": [], '
    '"last_kept": [31.9, 120.80002999999999, 180.0], "open_qualified": '
    'false, "finalized": false, "version": 4, "counters": '
    '{"pings_ingested": 6, "pings_dropped_invalid": 0, '
    '"pings_dropped_late": 0, "pings_reordered": 0, '
    '"pings_dropped_noise": 0, "pings_kept": 4, "staypoints_opened": 0, '
    '"staypoints_closed": 0}}')


# ---------------------------------------------------------------------------
# 3. Session checkpointing: bit-exact suspend/resume
# ---------------------------------------------------------------------------
class TestSessionCheckpoint:
    def test_json_roundtrip_mid_stream_is_bit_exact(self, world_and_data,
                                                    fitted):
        _, dataset = world_and_data
        trajectory = dataset.samples[10].trajectory
        processor = fitted.processor
        full = TruckSession("a", "d", processor=processor)
        resumed = TruckSession("a", "d", processor=processor)
        half = len(trajectory) // 2
        for i, (lat, lng, t) in enumerate(zip(trajectory.lats,
                                              trajectory.lngs,
                                              trajectory.ts)):
            full.ingest(lat, lng, t)
            if i < half:
                resumed.ingest(lat, lng, t)
        # Suspend at the halfway mark through JSON (as the fleet
        # manager's checkpoint files do), then catch up.
        state = json.loads(json.dumps(resumed.state()))
        resumed = TruckSession.from_state(state, processor=processor)
        for lat, lng, t in zip(trajectory.lats[half:],
                               trajectory.lngs[half:],
                               trajectory.ts[half:]):
            resumed.ingest(lat, lng, t)
        full.finalize()
        resumed.finalize()
        assert resumed.counters.as_dict() == full.counters.as_dict()
        a, b = full.snapshot(), resumed.snapshot()
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a.cleaned.lats, b.cleaned.lats)
            assert np.array_equal(a.cleaned.lngs, b.cleaned.lngs)
            assert np.array_equal(a.cleaned.ts, b.cleaned.ts)
            assert [(sp.start, sp.end) for sp in a.stay_points] == \
                   [(sp.start, sp.end) for sp in b.stay_points]

    def test_finalized_session_rejects_pings(self):
        session = TruckSession("t", "d")
        session.ingest(31.9, 120.8, 0.0)
        session.finalize()
        with pytest.raises(ValueError):
            session.ingest(31.9, 120.8, 60.0)
        assert session.finalize() == 0  # idempotent

    def test_session_never_raises_on_hostile_pings(self):
        session = TruckSession("t", "d")
        session.ingest(np.nan, 120.8, 0.0)
        session.ingest(31.9, np.inf, 1.0)
        session.ingest(999.0, 120.8, 2.0)
        session.ingest(31.9, 120.8, 10.0)
        session.ingest(31.9, 120.8, 5.0)   # within reorder window
        session.ingest(31.9, 120.8, 10.0)  # duplicate timestamp
        session.finalize()
        assert session.counters.pings_dropped_invalid == 3
        assert session.counters.pings_kept == 2


# ---------------------------------------------------------------------------
# 4. Fleet manager: LRU eviction, checkpoint spill, 1000-session soak
# ---------------------------------------------------------------------------
class TestFleetSoak:
    def test_thousand_sessions_bounded_memory(self, tmp_path):
        manager = FleetSessionManager(None, FleetConfig(
            max_sessions=64, checkpoint_dir=tmp_path / "ckpt"))
        trucks = [f"truck-{i:04d}" for i in range(1000)]
        # Two passes: the second pass restores evicted sessions from
        # their checkpoints (memory stays bounded throughout).
        for t0 in (0.0, 3000.0):
            for k, truck in enumerate(trucks):
                for j in range(3):
                    manager.ingest(truck, 31.9 + (k % 7) * 1e-4, 120.8,
                                   t0 + j * 60.0, day="2026-08-06")
                assert len(manager) <= 64
        assert manager.counters.sessions_opened == 1000
        assert manager.counters.sessions_evicted > 900
        assert manager.counters.sessions_restored >= 900
        assert manager.counters.sessions_dropped == 0
        finals = manager.flush_all()
        assert len(finals) == 1000
        assert {(v.truck_id, v.day) for v in finals} == \
               {(t, "2026-08-06") for t in trucks}
        totals = manager.session_totals()
        assert totals.pings_ingested == 1000 * 6
        assert len(manager) == 0
        assert manager.known_sessions == []
        # Flush removed every checkpoint file.
        assert list((tmp_path / "ckpt").glob("*.json")) == []

    def test_eviction_without_checkpoint_dir_drops_state(self):
        manager = FleetSessionManager(None, FleetConfig(max_sessions=2))
        for truck in ("a", "b", "c"):
            manager.ingest(truck, 31.9, 120.8, 0.0)
        assert len(manager) == 2
        assert manager.counters.sessions_dropped == 1
        # The dropped truck re-opens from scratch on its next ping.
        manager.ingest("a", 31.9, 120.8, 60.0)
        assert manager.counters.sessions_opened == 4

    def test_evict_restore_matches_uninterrupted_session(self, tmp_path,
                                                         world_and_data,
                                                         fitted, offline):
        """An eviction/restore cycle mid-day is invisible to the final
        verdict."""
        _, dataset = world_and_data
        samples = dataset.samples[:4]
        manager = FleetSessionManager(fitted, FleetConfig(
            max_sessions=2, checkpoint_dir=tmp_path / "spill"))
        for ping in dataset_ping_stream(samples):
            manager.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                           day=ping.day)
        assert manager.counters.sessions_evicted > 0
        assert manager.counters.sessions_restored > 0
        finals = {(v.truck_id, v.day): v for v in manager.flush_all()}
        for sample in samples:
            key = (str(sample.trajectory.truck_id),
                   str(sample.trajectory.day))
            assert_verdict_matches(finals[key], offline[key])

    def test_stats_shape(self, world_and_data, fitted):
        _, dataset = world_and_data
        manager = FleetSessionManager(fitted, FleetConfig())
        for ping in dataset_ping_stream(dataset.samples[:2]):
            manager.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                           day=ping.day)
        manager.tick()
        stats = manager.stats()
        assert json.dumps(stats)  # JSON-safe
        assert stats["resident_sessions"] == 2
        assert stats["fleet"]["ticks"] == 1
        assert "feature_cache" in stats

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(max_sessions=0)
        # Refused when the config is built, not at the first ingest
        # (inside a serve worker).
        with pytest.raises(ValueError, match="reorder_capacity"):
            FleetConfig(reorder_capacity=0)
        with pytest.raises(ValueError, match="reorder_capacity"):
            ServeConfig.from_dict({"fleet": {"reorder_capacity": 0}})


# ---------------------------------------------------------------------------
# 5. Reorder buffer / monotonicity sanitization
# ---------------------------------------------------------------------------
class TestReorderBuffer:
    def test_in_order_stream_passes_through(self):
        buffer = ReorderBuffer(capacity=4)
        out = []
        for t in range(10):
            out.extend(buffer.push(1.0, 2.0, float(t)))
        out.extend(buffer.flush())
        assert [fix[2] for fix in out] == [float(t) for t in range(10)]
        assert buffer.stats.reordered == 0
        assert buffer.stats.dropped == 0

    def test_bounded_scramble_recovered_exactly(self):
        import random
        rng = random.Random(5)
        ts = list(range(50))
        scrambled = []
        for start in range(0, 50, 4):
            block = ts[start:start + 4]
            rng.shuffle(block)
            scrambled.extend(block)
        buffer = ReorderBuffer(capacity=8)
        out = []
        for t in scrambled:
            out.extend(buffer.push(0.0, 0.0, float(t)))
        out.extend(buffer.flush())
        assert [fix[2] for fix in out] == [float(t) for t in ts]
        assert buffer.stats.reordered > 0
        assert buffer.stats.dropped == 0

    def test_too_late_ping_dropped_and_counted(self):
        buffer = ReorderBuffer(capacity=2)
        for t in (10.0, 20.0, 30.0, 40.0):
            buffer.push(0.0, 0.0, t)
        assert buffer.push(0.0, 0.0, 5.0) == []  # behind the horizon
        assert buffer.stats.dropped == 1

    def test_state_roundtrip_mid_stream(self):
        buffer = ReorderBuffer(capacity=4)
        for t in (3.0, 1.0, 2.0, 7.0):
            buffer.push(0.0, 0.0, t)
        state = json.loads(json.dumps(buffer.state()))
        resumed = ReorderBuffer.from_state(state)
        assert [f[2] for f in resumed.flush()] == \
               [f[2] for f in buffer.flush()]

    def test_nan_timestamp_dropped_and_counted(self):
        buffer = ReorderBuffer(capacity=4)
        out = []
        for t in (0.0, 2.0, 1.0, 3.0, np.nan, 4.0):
            out.extend(buffer.push(0.0, 0.0, t))
        out.extend(buffer.flush())
        assert [fix[2] for fix in out] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert buffer.stats.dropped == 1    # the NaN timestamp

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ReorderBuffer(capacity=0)
        state = ReorderBuffer(capacity=4).state()
        assert state["policy"] == "reorder"
        state["policy"] = "drop"            # a retired release algorithm
        with pytest.raises(ValueError, match="drop"):
            ReorderBuffer.from_state(state)


# ---------------------------------------------------------------------------
# 6. Verdict plumbing
# ---------------------------------------------------------------------------
class TestVerdicts:
    def test_confidence_tiers(self):
        assert confidence_tier(None) == "none"
        assert confidence_tier(0.9) == "high"
        assert confidence_tier(0.5) == "medium"
        assert confidence_tier(0.1) == "low"
        assert confidence_tier(0.75) == "high"   # inclusive boundary

    def test_detect_many_validates_note_lengths(self, fitted):
        with pytest.raises(ValueError):
            fitted.detect_many([], [["note"]])

    def test_summary_lines(self, world_and_data, fitted):
        _, dataset = world_and_data
        manager = FleetSessionManager(fitted, FleetConfig())
        for ping in dataset_ping_stream(dataset.samples[:1]):
            manager.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                           day=ping.day)
        (verdict,) = manager.flush_all()
        line = verdict.summary()
        assert verdict.truck_id in line
        assert "final" in line
