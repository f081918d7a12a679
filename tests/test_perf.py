"""Tests for the throughput layer: caching, batching, parallelism.

Three contracts are nailed down here:

1. **Batched == per-trajectory.**  ``detect_batch`` /
   ``detect_many`` / ``encode_candidates_batch`` over a
   whole batch return the same answers as per-trajectory computation
   (the oracles in ``tests/oracles.py`` and batch-of-one ``detect``
   calls; ``allclose`` at ``rtol=1e-9``), including degradation-tier
   provenance when detectors are knocked out.
2. **Cache correctness.**  The content-keyed segment cache serves
   repeated featurizations without recomputation, returns identical
   matrices, and invalidates itself when the normalizer refits.
3. **Worker-count independence.**  ``parallel_map`` keeps input order,
   and a fit with ``workers=2`` equals the serial fit bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.data import (DatasetConfig, SyntheticWorld, WorldConfig,
                        generate_dataset)
from repro.detection import DetectorTrainingConfig
from repro.encoding import AutoencoderTrainingConfig
from repro.encoding.autoencoder import prefix_runs
from repro.features import subsample_indices
from repro.model import Trajectory
from repro.perf import LRUCache, effective_workers, parallel_map
from repro.nn import inference_dtype, no_grad
from repro.pipeline import LEAD, LEADConfig

from .oracles import (group_distribution,
                      whole_trajectory_segment_features)


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
    world = SyntheticWorld(WorldConfig(seed=6))
    dataset = generate_dataset(
        DatasetConfig(num_trajectories=12, num_trucks=5, seed=6),
        world=world)
    return world, dataset


@pytest.fixture(scope="module")
def fitted(world_and_data):
    world, dataset = world_and_data
    lead = LEAD(world.pois, tiny_lead_config())
    lead.fit(dataset.samples[:8])
    return lead, dataset


# ---------------------------------------------------------------------------
# 1. Batched inference == per-trajectory inference
# ---------------------------------------------------------------------------
class TestBatchedEquivalence:
    def test_encode_candidates_batch_matches_loop(self, fitted):
        lead, dataset = fitted
        processed = self._processed(lead, dataset)
        with no_grad():
            loop = [lead.autoencoder.encode_trajectory_tensor(
                *lead._segments(p), [c.pair for c in p.candidates]).numpy()
                for p in processed]
        batched = lead.encode_candidates_batch(processed)
        assert len(batched) == len(loop)
        for single, merged in zip(loop, batched):
            assert merged.shape == single.shape
            assert np.allclose(single, merged, rtol=1e-9, atol=0.0)

    def test_detect_many_matches_loop(self, fitted):
        lead, dataset = fitted
        processed = self._processed(lead, dataset)
        loop = [group_distribution(lead, p) for p in processed]
        batched = lead.detect_many(processed)
        for single, merged in zip(loop, batched):
            assert np.allclose(single, merged.distribution, rtol=1e-9,
                               atol=0.0)

    def test_detect_batch_matches_detect(self, fitted):
        lead, dataset = fitted
        trajectories = [s.trajectory for s in dataset.samples[8:]]
        singles = [lead.detect(t) for t in trajectories]
        batched = lead.detect_batch(trajectories)
        assert len(batched) == len(singles)
        for single, merged in zip(singles, batched):
            assert (single is None) == (merged is None)
            if single is None:
                continue
            assert merged.pair == single.pair
            assert merged.provenance == single.provenance
            assert np.allclose(single.distribution, merged.distribution,
                               rtol=1e-9, atol=0.0)

    def test_detect_batch_degraded_provenance(self, world_and_data, fitted):
        """Knocking out a detector degrades batched results exactly like
        serial ones — same tier, same failure notes."""
        world, dataset = world_and_data
        lead, _ = fitted
        crippled = LEAD(world.pois, tiny_lead_config())
        # Share the trained state, then knock out the backward detector.
        crippled.featurizer.normalizer = lead.featurizer.normalizer
        crippled.autoencoder = lead.autoencoder
        crippled.forward_detector = lead.forward_detector
        crippled.backward_detector = None
        crippled._fitted = True
        trajectories = [s.trajectory for s in dataset.samples[8:]]
        singles = [crippled.detect(t) for t in trajectories]
        batched = crippled.detect_batch(trajectories)
        answered = 0
        for single, merged in zip(singles, batched):
            assert (single is None) == (merged is None)
            if single is None:
                continue
            answered += 1
            assert single.provenance.tier == "forward-only"
            assert merged.provenance == single.provenance
            assert any("tier 'both' failed" in note
                       for note in merged.provenance.notes)
            assert merged.pair == single.pair
        assert answered > 0

    def test_detect_batch_handles_hostile_entries(self, fitted):
        """A batch mixing valid and unsalvageable trajectories keeps
        slots aligned: None exactly where detect() says None."""
        lead, dataset = fitted
        good = dataset.samples[8].trajectory
        # Too few points to yield two stay points: detect() returns None.
        bad = type(good)(good.lats[:3], good.lngs[:3], good.ts[:3],
                         truck_id=good.truck_id, day=good.day)
        results = lead.detect_batch([bad, good, bad])
        assert results[0] is None and results[2] is None
        assert results[1] is not None
        assert results[1].pair == lead.detect(good).pair

    def test_empty_batch(self, fitted):
        lead, _ = fitted
        assert lead.detect_batch([]) == []
        assert lead.detect_many([]) == []

    def test_score_indexed_bucketed_matches_padded(self):
        """Length-bucketed BiLSTM scoring == one globally padded pass."""
        from repro.detection.detectors import GroupDetector
        from repro.detection.grouping import forward_index_maps
        from repro.nn import Tensor, no_grad
        rng = np.random.default_rng(3)
        detector = GroupDetector(input_dim=8, hidden_size=8, num_layers=2,
                                 rng=np.random.default_rng(0))
        # Two merged "trajectories" with very different subgroup lengths.
        maps: list[np.ndarray] = []
        counts = []
        offset = 0
        for n in (4, 9):
            maps.extend(m + offset for m in forward_index_maps(n))
            counts.append(n * (n - 1) // 2)
            offset += counts[-1]
        cvecs = Tensor(rng.normal(size=(offset, 8)))
        segments = np.array(counts)
        with no_grad():
            padded = detector.score_indexed(cvecs, maps, segments=segments)
            bucketed = detector.score_indexed(cvecs, maps, segments=segments,
                                              bucket=True)
        assert np.allclose(padded.numpy(), bucketed.numpy(),
                           rtol=1e-9, atol=0.0)

    @staticmethod
    def _processed(lead, dataset):
        processed = [lead.processor.process(s.trajectory)
                     for s in dataset.samples[8:]]
        return [p for p in processed if p is not None]


# ---------------------------------------------------------------------------
# 2. Featurization cache
# ---------------------------------------------------------------------------
class TestSegmentFeatureCache:
    def test_featurize_twice_computes_once(self, fitted):
        lead, dataset = fitted
        processed = lead.processor.process(dataset.samples[8].trajectory)
        assert processed is not None
        lead.feature_cache.clear()
        stats = lead.feature_cache.stats
        base_misses = stats.misses
        first = lead._segments(processed)
        misses_after_first = stats.misses - base_misses
        assert misses_after_first == (len(processed.stay_points)
                                      + len(processed.move_points))
        hits_before = stats.hits
        second = lead._segments(processed)
        assert stats.misses - base_misses == misses_after_first  # no recompute
        assert stats.hits - hits_before == misses_after_first
        for a, b in zip(first[0] + first[1], second[0] + second[1]):
            assert a is b  # literally the cached object

    def test_content_keyed_across_objects(self, fitted):
        """A reloaded trajectory with identical bytes hits the same
        entries: the key is content, not object identity."""
        lead, dataset = fitted
        sample = dataset.samples[8]
        clone = type(sample).from_dict(
            json.loads(json.dumps(sample.to_dict())))
        p1 = lead.processor.process(sample.trajectory)
        p2 = lead.processor.process(clone.trajectory)
        lead.feature_cache.clear()
        lead._segments(p1)
        misses = lead.feature_cache.stats.misses
        lead._segments(p2)
        assert lead.feature_cache.stats.misses == misses  # all hits

    def test_normalizer_refit_invalidates(self, fitted):
        lead, dataset = fitted
        featurizer = lead.featurizer
        before = featurizer.context_fingerprint()
        mean, std = (featurizer.normalizer.mean_.copy(),
                     featurizer.normalizer.std_.copy())
        try:
            featurizer.normalizer.fit(
                np.random.default_rng(0).normal(size=(8, mean.shape[0])))
            assert featurizer.context_fingerprint() != before
        finally:
            featurizer.normalizer.mean_ = mean
            featurizer.normalizer.std_ = std
        assert featurizer.context_fingerprint() == before

    def test_disabled_cache_is_bit_identical(self, fitted):
        """Cold and warm featurization of one trajectory agree bit for
        bit with the uncached computation of each segment."""
        lead, dataset = fitted
        processed = lead.processor.process(dataset.samples[8].trajectory)
        segments = processed.stay_points + processed.move_points
        lead.feature_cache.clear()
        cold_stay, cold_move = lead._segments(processed)
        warm_stay, warm_move = lead._segments(processed)
        for segment, cold, warm in zip(segments, cold_stay + cold_move,
                                       warm_stay + warm_move):
            direct = whole_trajectory_segment_features(lead.featurizer,
                                                       segment)
            assert np.array_equal(cold, direct)
            assert np.array_equal(warm, direct)

    def test_lru_bounds_and_stats(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refresh 'a'
        cache.put("c", 3)               # evicts 'b'
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_cache_pickles_empty(self, fitted):
        import pickle
        lead, _ = fitted
        assert len(lead.feature_cache) > 0
        clone = pickle.loads(pickle.dumps(lead.feature_cache))
        assert len(clone) == 0
        assert clone._lru.maxsize == lead.feature_cache._lru.maxsize

    def test_fit_looks_up_each_training_segment_once(self, world_and_data):
        """One featurization pass feeds both trainers: a fit makes one
        cache lookup per distinct segment of its usable training days."""
        world, dataset = world_and_data
        lead = LEAD(world.pois, tiny_lead_config())
        lead.fit(dataset.samples[:8])
        days = [p for p in map(lead.processor.process_sample,
                               dataset.samples[:8])
                if p is not None and p.label_pair is not None]
        segments = sum(p.num_stay_points + len(p.move_points) for p in days)
        stats = lead.feature_cache.stats
        assert stats.lookups == stats.misses == segments
        assert len(lead.feature_cache) == segments


class TestFeaturizeSegments:
    """The one featurization pass: exact against the whole-trajectory
    oracle, one content key per segment over the rows the encoder
    reads, and no state that outlives the cache clears."""

    @staticmethod
    def _segments(lead, dataset, days=(8, 9, 10)):
        processed = [lead.processor.process(dataset.samples[k].trajectory)
                     for k in days]
        return [seg for p in processed if p is not None
                for seg in (*p.stay_points, *p.move_points)]

    @staticmethod
    def _long_segment(lead, dataset):
        """A segment with more points than the encoder reads."""
        cap = lead.extractor.config.max_segment_len
        segment = max(TestFeaturizeSegments._segments(lead, dataset),
                      key=lambda s: s.num_points)
        assert segment.num_points > cap
        return segment

    @staticmethod
    def _moved(segment, index: int):
        """``segment`` over a copy of its trajectory with point
        ``index`` shifted by about 100 m."""
        tr = segment.trajectory
        lats = tr.lats.copy()
        lats[index] += 1e-3
        return dataclasses.replace(segment, trajectory=Trajectory(
            lats, tr.lngs, tr.ts, truck_id=tr.truck_id, day=tr.day))

    def test_mixed_batch_matches_whole_trajectory_oracle(self, fitted):
        lead, dataset = fitted
        featurizer = lead.featurizer
        segments = self._segments(lead, dataset)
        # Interleave the trajectories and repeat some segments.
        batch = segments[::2] + segments[1::2] + segments[:5]
        oracle = [whole_trajectory_segment_features(featurizer, s)
                  for s in batch]
        lead.feature_cache.clear()
        stats = lead.feature_cache.stats
        cold = featurizer.featurize_segments(batch)
        hits = stats.hits
        warm = featurizer.featurize_segments(batch)
        assert stats.hits - hits == len(batch)
        with inference_dtype("float32"):
            single = featurizer.featurize_segments(batch)
        for want, a, b, c in zip(oracle, cold, warm, single):
            assert a.dtype == b.dtype == np.float64
            assert np.array_equal(a, want) and np.array_equal(b, want)
            assert c.dtype == np.float32
            assert np.array_equal(c, want.astype(np.float32))
            assert not (a.flags.writeable or c.flags.writeable)

    def test_unread_rows_share_one_entry(self, fitted):
        lead, dataset = fitted
        segment = self._long_segment(lead, dataset)
        cap = lead.extractor.config.max_segment_len
        read = set(subsample_indices(segment.start, segment.end, cap))
        unread = next(i for i in range(segment.start, segment.end)
                      if i not in read)
        lead.feature_cache.clear()
        first = lead.featurizer.segment_features(segment)
        misses = lead.feature_cache.stats.misses
        assert lead.featurizer.segment_features(
            self._moved(segment, unread)) is first
        assert lead.feature_cache.stats.misses == misses
        assert len(lead.feature_cache) == 1

    def test_changed_read_row_misses(self, fitted):
        lead, dataset = fitted
        segment = self._long_segment(lead, dataset)
        cap = lead.extractor.config.max_segment_len
        picks = subsample_indices(segment.start, segment.end, cap)
        moved = self._moved(segment, int(picks[len(picks) // 2]))
        lead.feature_cache.clear()
        first = lead.featurizer.segment_features(segment)
        misses = lead.feature_cache.stats.misses
        second = lead.featurizer.segment_features(moved)
        assert lead.feature_cache.stats.misses == misses + 1
        assert not np.array_equal(first, second)
        assert np.array_equal(second, whole_trajectory_segment_features(
            lead.featurizer, moved))

    def test_repeat_in_one_call_is_one_miss_then_hits(self, fitted):
        lead, dataset = fitted
        segment = self._long_segment(lead, dataset)
        clone = dataclasses.replace(segment)   # same content, new object
        lead.feature_cache.clear()
        stats = lead.feature_cache.stats
        hits, misses = stats.hits, stats.misses
        out = lead.featurizer.featurize_segments([segment, clone, segment])
        assert (stats.misses - misses, stats.hits - hits) == (1, 2)
        assert out[0] is out[1] is out[2]

    def test_float32_and_float64_keys_are_disjoint(self, fitted):
        lead, dataset = fitted
        segment = self._long_segment(lead, dataset)
        lead.feature_cache.clear()
        stats = lead.feature_cache.stats
        f64 = lead.featurizer.segment_features(segment)
        misses = stats.misses
        with inference_dtype("float32"):
            f32 = lead.featurizer.segment_features(segment)
        assert stats.misses == misses + 1
        assert lead.featurizer.segment_features(segment) is f64
        assert (f64.dtype, f32.dtype) == (np.float64, np.float32)
        assert lead.feature_cache.dtype_key_counts() == {"float64": 1,
                                                        "float32": 1}

    def test_cleared_caches_give_a_cold_pass(self, fitted):
        """The cache clears a cold benchmark pass makes leave no
        featurization state: the next ``detect_batch`` hits nothing and
        answers as the warm run did."""
        lead, dataset = fitted
        days = [s.trajectory for s in dataset.samples[8:]]
        lead.detect_batch(days)
        warm = lead.detect_batch(days)
        lead.feature_cache.clear()
        lead.extractor.clear_cache()
        lead.featurizer.clear_memos()
        assert len(lead.feature_cache) == 0
        hits = lead.feature_cache.stats.hits
        cold = lead.detect_batch(days)
        assert lead.feature_cache.stats.hits == hits
        assert len(cold) == len(warm)
        for a, b in zip(warm, cold):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.pair == b.pair
                assert np.array_equal(a.distribution, b.distribution)


# ---------------------------------------------------------------------------
# 3. Worker-count independence
# ---------------------------------------------------------------------------
def _square(x: int) -> int:
    return x * x


class TestParallel:
    def test_parallel_map_preserves_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=2) == \
            [x * x for x in items]

    def test_effective_workers(self):
        assert effective_workers(None) == 1
        assert effective_workers(0) == 1
        assert effective_workers(3) == 3
        assert effective_workers(-1) >= 1

    def test_all_cpus_means_the_usable_ones(self, monkeypatch):
        """``workers=-1`` counts the CPUs this process may run on: its
        affinity mask where the platform has one, else every CPU."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert effective_workers(-1) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert effective_workers(-1) == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert effective_workers(-1) == 1

    def test_generate_dataset_worker_count_invariant(self, tmp_path):
        """``workers`` is deprecated: any value warns and returns the
        one shared-stream realization, byte for byte."""
        cfg = DatasetConfig(num_trajectories=6, num_trucks=3, seed=11)
        default = generate_dataset(cfg, world=SyntheticWorld(
            WorldConfig(seed=11)))
        with pytest.warns(DeprecationWarning, match="workers"):
            parallel = generate_dataset(cfg, world=SyntheticWorld(
                WorldConfig(seed=11)), workers=2)
        a = default.save(tmp_path / "default.json.gz").read_bytes()
        b = parallel.save(tmp_path / "workers.json.gz").read_bytes()
        assert a == b

    def test_fit_workers_matches_serial(self, world_and_data, fitted):
        """The parallelizable offline stages feed training identically:
        a model fitted with workers=2 equals the serial one bit for bit,
        autoencoder included."""
        world, dataset = world_and_data
        serial_lead, _ = fitted
        parallel_lead = LEAD(world.pois, tiny_lead_config())
        parallel_lead.fit(dataset.samples[:8], workers=2)
        serial = serial_lead._detector_modules()
        parallel = parallel_lead._detector_modules()
        assert "autoencoder" in serial and serial.keys() == parallel.keys()
        for name, module in serial.items():
            for p, q in zip(module.parameters(),
                            parallel[name].parameters()):
                assert np.array_equal(p.data, q.data), name


# ---------------------------------------------------------------------------
# 4. Phase-2 run/prefix index construction
# ---------------------------------------------------------------------------
def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _check_runs(pairs_lists, stay_counts):
    """Each candidate's run, read at its prefix length, is exactly its
    stay rows ``i..j`` and move rows ``i..j-1`` of its own trajectory."""
    move_counts = [n - 1 for n in stay_counts]
    runs = prefix_runs(pairs_lists, stay_counts, move_counts)
    sp_base = np.cumsum([0] + stay_counts)
    mp_base = np.cumsum([0] + move_counts)
    pairs = [(t, i, j) for t, plist in enumerate(pairs_lists)
             for i, j in plist]
    assert runs.run.shape == runs.length.shape == (len(pairs),)
    for k, (t, i, j) in enumerate(pairs):
        r, length = runs.run[k], runs.length[k]
        assert length == j - i + 1
        assert length <= runs.sp_lengths[r]
        assert runs.sp_index[r, :length].tolist() == \
            list(range(sp_base[t] + i - 1, sp_base[t] + j))
        assert runs.mp_index[r, :length - 1].tolist() == \
            list(range(mp_base[t] + i - 1, mp_base[t] + j - 1))
    width = int(runs.sp_lengths.max())
    assert runs.sp_index.shape == (len(runs.sp_lengths), width)
    assert runs.mp_index.shape == (len(runs.sp_lengths), width - 1)
    cols = np.arange(width)
    assert (runs.sp_index[cols >= runs.sp_lengths[:, None]] == 0).all()
    assert (runs.mp_index[cols[:-1] >= runs.sp_lengths[:, None] - 1]
            == 0).all()  # padded cells point at row 0
    return runs


class TestPrefixRuns:
    def test_two_stay_points(self):
        """n = 2: one candidate, one run of one stay pair and one move."""
        runs = _check_runs([[(1, 2)]], [2])
        assert runs.sp_lengths.tolist() == [2]
        assert runs.mp_index.shape == (1, 1)

    def test_only_adjacent_pairs(self):
        """Every candidate adjacent: one run per start, each of stay
        length 2 and move length 1 — no zero-width move gather."""
        pairs = [(1, 2), (2, 3), (3, 4)]
        runs = _check_runs([pairs], [4])
        assert runs.sp_lengths.tolist() == [2, 2, 2]
        assert runs.mp_index.shape == (3, 1)
        assert runs.run.tolist() == [0, 1, 2]

    def test_ragged_mixed_n_batch(self):
        """Full candidate sets of 3, 8 and 14 stay points plus a partial
        one: n - 1 runs per full trajectory, ordered by trajectory then
        start, each as long as its longest candidate."""
        counts = [3, 8, 14, 6]
        pairs_lists = [_all_pairs(n) for n in counts[:3]]
        pairs_lists.append([(2, 5), (4, 5), (2, 3)])
        runs = _check_runs(pairs_lists, counts)
        full = [n - i + 1 for n in counts[:3] for i in range(1, n)]
        assert runs.sp_lengths.tolist() == full + [4, 2]

    def test_covered_stay_points_feed_only_new_steps(self):
        """With the first 3 of 5 stay points covered, only candidates
        ending at 4 or 5 are read, and each run is fed only the stay
        and move rows past the ones it already ran; a trajectory with
        nothing covered is laid out as before."""
        counts = [5, 4]
        pairs_lists = [_all_pairs(n) for n in counts]
        runs = prefix_runs(pairs_lists, counts, [4, 3], np.array([3, 0]))
        fresh = prefix_runs(pairs_lists[1:], [4], [3])
        ends = [j for plist in pairs_lists for _, j in plist]
        assert runs.new.tolist() == [j > 3 for j in ends[:10]] \
            + [True] * 6
        # Runs of day 0 start at stays 1..4; 1 and 2 ran 3 and 2 stay
        # steps (2 and 1 move steps) already.
        assert runs.sp_done.tolist() == [3, 2, 0, 0, 0, 0, 0]
        assert runs.sp_lengths[:4].tolist() == [2, 2, 3, 2]
        assert runs.mp_lengths[:4].tolist() == [2, 2, 2, 1]
        assert runs.sp_index[0, :2].tolist() == [3, 4]       # stays 4, 5
        assert runs.mp_index[0, :2].tolist() == [2, 3]       # moves 3, 4
        assert runs.sp_index[2, :3].tolist() == [2, 3, 4]    # a new run
        # Day 1 (nothing covered) reads the rows it reads alone, offset
        # by day 0's 5 stays and 4 moves.
        assert runs.sp_lengths[4:].tolist() == fresh.sp_lengths.tolist()
        for r, length in enumerate(fresh.sp_lengths):
            assert (runs.sp_index[4 + r, :length]
                    == fresh.sp_index[r, :length] + 5).all()
            assert (runs.mp_index[4 + r, :length - 1]
                    == fresh.mp_index[r, :length - 1] + 4).all()
        # New candidates only, at their full prefix lengths.
        new_pairs = [(i, j) for i, j in pairs_lists[0] if j > 3]
        assert runs.length[:len(new_pairs)].tolist() == \
            [j - i + 1 for i, j in new_pairs]
