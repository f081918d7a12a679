"""Tests for grouping, label processing, detectors, merging, and training."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.detection import (DetectorTrainingConfig, GroupDetector,
                             IndependentDetector, JointDetectorTrainer,
                             argmax_pair, backward_index_maps,
                             enumerate_pairs, forward_index_maps,
                             index_to_pair, merge_distributions,
                             pair_to_index, smooth_label)
from repro.encoding import EncoderConfig, HierarchicalAutoencoder
from repro.nn import Adam, Tensor, clip_grad_norm, kld_loss

from .test_joint import make_specs, merged_maps

RNG = np.random.default_rng(53)


def candidate_count(n):
    return n * (n - 1) // 2


class TestPairIndexing:
    def test_enumerate_matches_paper_table2(self):
        pairs = enumerate_pairs(5)
        assert pairs[:4] == [(1, 2), (1, 3), (1, 4), (1, 5)]
        assert pairs[4:7] == [(2, 3), (2, 4), (2, 5)]
        assert pairs[-1] == (4, 5)
        assert len(pairs) == 10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 14))
    def test_pair_index_roundtrip(self, n):
        for index, pair in enumerate(enumerate_pairs(n)):
            assert pair_to_index(n, pair) == index
            assert index_to_pair(n, index) == pair

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            pair_to_index(5, (3, 3))
        with pytest.raises(ValueError):
            pair_to_index(5, (0, 2))
        with pytest.raises(ValueError):
            index_to_pair(5, 10)


class TestGroups:
    """Table II groups as index maps over the enumeration order."""

    def test_forward_group_structure(self):
        n = 5
        maps = forward_index_maps(n)
        assert len(maps) == n - 1
        assert [len(m) for m in maps] == [4, 3, 2, 1]
        # g_1 = <(1,2), (1,3), (1,4), (1,5)> — ascending ending index.
        np.testing.assert_array_equal(maps[0], [0, 1, 2, 3])
        assert sum(len(m) for m in maps) == 10

    def test_backward_group_structure(self):
        n = 5
        maps = backward_index_maps(n)
        assert len(maps) == n - 1
        assert [len(m) for m in maps] == [1, 2, 3, 4]
        # ḡ_5 = <(4,5), (3,5), (2,5), (1,5)> — descending starting index.
        expected = [pair_to_index(n, p)
                    for p in [(4, 5), (3, 5), (2, 5), (1, 5)]]
        np.testing.assert_array_equal(maps[-1], expected)

    def test_groups_cover_all_candidates_once(self):
        n = 7
        for builder in (forward_index_maps, backward_index_maps):
            indices = np.sort(np.concatenate(builder(n)))
            np.testing.assert_array_equal(indices,
                                          np.arange(candidate_count(n)))

    def test_subgroup_contents_match_cvecs(self):
        """Each padded row the detector gathers is its subgroup's c-vecs:
        scoring one subgroup's rows alone equals scoring the gathered
        matrix as a one-trajectory group."""
        n = 4
        cvecs = RNG.normal(size=(candidate_count(n), 3))
        detector = GroupDetector(input_dim=3, hidden_size=4, num_layers=1,
                                 rng=np.random.default_rng(0))
        for indices in backward_index_maps(n):
            gathered = detector.score_indexed(Tensor(cvecs), [indices])
            alone = detector.score_indexed(
                Tensor(cvecs[indices]), [np.arange(len(indices))])
            np.testing.assert_array_equal(
                gathered.numpy(), alone.numpy()[np.argsort(indices)])

    def test_validation(self):
        detector = GroupDetector(input_dim=3, hidden_size=4, num_layers=1,
                                 rng=RNG)
        with pytest.raises(IndexError):   # maps address 10 rows, got 5
            detector.score_indexed(Tensor(RNG.normal(size=(5, 3))),
                                   forward_index_maps(5))
        with pytest.raises(ValueError):   # one stay point: no subgroups
            detector.score_indexed(Tensor(RNG.normal(size=(0, 3))),
                                   forward_index_maps(1))


class TestIndexMapProperties:
    """Eq. 10-13 index maps, which every detect call now runs through."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 40))
    def test_maps_partition_candidates(self, n):
        for maps in (forward_index_maps(n), backward_index_maps(n)):
            flat = np.concatenate(maps)
            assert len(flat) == candidate_count(n)
            np.testing.assert_array_equal(np.sort(flat),
                                          np.arange(candidate_count(n)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 40))
    def test_subgroups_follow_the_paper(self, n):
        forward = forward_index_maps(n)
        backward = backward_index_maps(n)
        assert len(forward) == len(backward) == n - 1
        for k, indices in enumerate(forward, start=1):
            # g_k: candidates starting at stay point k, ascending end.
            assert [index_to_pair(n, int(i)) for i in indices] == \
                [(k, j) for j in range(k + 1, n + 1)]
        for k, indices in enumerate(backward, start=2):
            # ḡ_k: candidates ending at stay point k, descending start.
            assert [index_to_pair(n, int(i)) for i in indices] == \
                [(i, k) for i in range(k - 1, 0, -1)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 40))
    def test_pair_index_maps_are_inverse(self, n):
        for pair in enumerate_pairs(n):
            assert index_to_pair(n, pair_to_index(n, pair)) == pair
        for index in range(candidate_count(n)):
            assert pair_to_index(n, index_to_pair(n, index)) == index

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 10_000))
    def test_memoized_maps_survive_rebasing(self, n, offset):
        expected = ([m.copy() for m in forward_index_maps(n)],
                    [m.copy() for m in backward_index_maps(n)])
        for builder in (forward_index_maps, backward_index_maps):
            maps = builder(n)
            assert all(not m.flags.writeable for m in maps)
            with pytest.raises(ValueError):
                maps[0] += offset
            # The inference core's rebasing: fresh arrays, memo intact.
            rebased = [m + offset for m in maps]
            for old, new in zip(maps, rebased):
                np.testing.assert_array_equal(new, old + offset)
        for maps, want in zip((forward_index_maps(n),
                               backward_index_maps(n)), expected):
            for got, ref in zip(maps, want):
                np.testing.assert_array_equal(got, ref)


class TestScoreIndexedBucketing:
    """``bucket`` picks the BiLSTM batches, never the answer."""

    DETECTOR = GroupDetector(input_dim=6, hidden_size=5, num_layers=2,
                             rng=np.random.default_rng(11))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(2, 14), min_size=1, max_size=5),
           st.sampled_from([forward_index_maps, backward_index_maps]),
           st.integers(0, 2**32 - 1))
    @example([2], forward_index_maps, 0)
    @example([2, 9, 2], backward_index_maps, 1)
    def test_bucketed_equals_one_padded_pass(self, ns, builder, seed):
        maps = merged_maps(ns, builder)
        segments = np.array([candidate_count(n) for n in ns])
        cvecs = Tensor(np.random.default_rng(seed).normal(
            size=(segments.sum(), 6)))
        padded = self.DETECTOR.score_indexed(cvecs, maps, segments)
        bucketed = self.DETECTOR.score_indexed(cvecs, maps, segments,
                                               bucket=True)
        np.testing.assert_allclose(bucketed.numpy(), padded.numpy(),
                                   rtol=1e-12, atol=0.0)


class TestLabels:
    def test_smooth_label_sums_to_one(self):
        label = smooth_label(10, 3)
        assert label.sum() == pytest.approx(1.0)
        assert label.argmax() == 3
        assert (label > 0).all()

    def test_epsilon_entries(self):
        label = smooth_label(5, 0, epsilon=1e-4)
        np.testing.assert_allclose(label[1:], np.full(4, 1e-4))
        assert label[0] == pytest.approx(1.0 - 4e-4)

    def test_single_candidate(self):
        label = smooth_label(1, 0)
        np.testing.assert_allclose(label, [1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            smooth_label(5, 5)
        with pytest.raises(ValueError):
            smooth_label(0, 0)
        with pytest.raises(ValueError):
            smooth_label(5, 0, epsilon=0.5)


class TestMerge:
    def test_merge_rescales_to_unit_interval(self):
        merged = merge_distributions(np.array([0.1, 0.5, 0.4]),
                                     np.array([0.2, 0.6, 0.2]))
        assert merged.min() == 0.0
        assert merged.max() == 1.0
        assert merged.argmax() == 1

    def test_merge_single_distribution(self):
        merged = merge_distributions(np.array([0.2, 0.8]))
        np.testing.assert_allclose(merged, [0.0, 1.0])

    def test_merge_constant_distribution(self):
        merged = merge_distributions(np.array([0.5, 0.5]))
        np.testing.assert_allclose(merged, [0.5, 0.5])

    def test_merge_validation(self):
        with pytest.raises(ValueError):
            merge_distributions(np.zeros((2, 2)))

    def test_argmax_pair(self):
        pairs = enumerate_pairs(3)
        assert argmax_pair(np.array([0.1, 0.9, 0.3]), pairs) == (1, 3)
        with pytest.raises(ValueError):
            argmax_pair(np.array([1.0]), pairs)


class TestDetectors:
    def test_flat_softmax_sums_to_one_over_group(self):
        n = 5
        cvecs = RNG.normal(size=(candidate_count(n), 16))
        detector = GroupDetector(input_dim=16, hidden_size=8, num_layers=2,
                                 rng=RNG)
        probs = detector.score_indexed(Tensor(cvecs),
                                       forward_index_maps(n)).numpy()
        assert probs.shape == (candidate_count(n),)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs > 0).all()

    def test_group_detector_backward_group(self):
        n = 4
        cvecs = RNG.normal(size=(candidate_count(n), 16))
        detector = GroupDetector(input_dim=16, hidden_size=8, num_layers=1,
                                 rng=RNG)
        probs = detector.score_indexed(Tensor(cvecs),
                                       backward_index_maps(n)).numpy()
        assert probs.shape == (candidate_count(n),)
        assert probs.sum() == pytest.approx(1.0)
        # The flat softmax never pins a one-element subgroup (ḡ_2) at 1.
        assert probs[backward_index_maps(n)[0]].sum() < 1.0

    def test_group_detector_rejects_wrong_dim(self):
        detector = GroupDetector(input_dim=16, hidden_size=8, num_layers=1,
                                 rng=RNG)
        with pytest.raises(ValueError):
            detector.score_indexed(Tensor(RNG.normal(size=(3, 8))),
                                   forward_index_maps(3))

    def test_independent_detector_range(self):
        detector = IndependentDetector(input_dim=16, rng=RNG)
        probs = detector(RNG.normal(size=(7, 16))).numpy()
        assert probs.shape == (7,)
        assert ((probs > 0) & (probs < 1)).all()

    def test_independent_detector_rejects_wrong_dim(self):
        detector = IndependentDetector(input_dim=16, rng=RNG)
        with pytest.raises(ValueError):
            detector(RNG.normal(size=(3, 8)))


def synthetic_detector_samples(num_samples=40, n=4, dim=16, seed=0):
    """Toy detection problem: the target candidate's c-vec has a marker.

    Returns ``(cvecs, target_index)`` pairs of ``n``-stay-point
    trajectories."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(num_samples):
        count = candidate_count(n)
        cvecs = rng.normal(0.0, 0.3, size=(count, dim))
        target = int(rng.integers(count))
        cvecs[target, :4] += 2.0  # distinctive signature
        samples.append((cvecs, target))
    return samples


def train_pair(forward, backward, samples, epochs=10, batch_size=8):
    """Fit each detector on fixed c-vecs (4 stay points) with its own
    Adam, batches of trajectories offset into one ``score_indexed`` pass;
    returns the two per-epoch mean KLD curves."""
    rng = np.random.default_rng(0)
    optimizers = (Adam(forward.parameters(), lr=3e-3),
                  Adam(backward.parameters(), lr=3e-3))
    curves = ([], [])
    count = candidate_count(4)
    for _ in range(epochs):
        order = rng.permutation(len(samples))
        totals = [0.0, 0.0]
        for start in range(0, len(order), batch_size):
            batch = [samples[int(c)] for c in order[start:start + batch_size]]
            cvecs = Tensor(np.concatenate([c for c, _ in batch], axis=0))
            label = np.concatenate([smooth_label(count, t) for _, t in batch])
            segments = np.full(len(batch), count)
            for d, (detector, builder) in enumerate((
                    (forward, forward_index_maps),
                    (backward, backward_index_maps))):
                maps = merged_maps([4] * len(batch), builder)
                probs = detector.score_indexed(cvecs, maps, segments)
                loss = kld_loss(label, probs) * (1.0 / len(batch))
                totals[d] += loss.item() * len(batch)
                optimizers[d].zero_grad()
                loss.backward()
                clip_grad_norm(optimizers[d].parameters, 5.0)
                optimizers[d].step()
        for d in range(2):
            curves[d].append(totals[d] / len(order))
    return curves


class TestTraining:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorTrainingConfig(epochs=0)

    def test_pair_training_learns_toy_problem(self):
        samples = synthetic_detector_samples()
        rng = np.random.default_rng(1)
        forward = GroupDetector(input_dim=16, hidden_size=16, num_layers=2,
                                rng=rng)
        backward = GroupDetector(input_dim=16, hidden_size=16, num_layers=2,
                                 rng=rng)
        curve_f, curve_b = train_pair(forward, backward, samples)
        assert curve_f[-1] < curve_f[0]
        assert curve_b[-1] < curve_b[0]
        # The trained pair should now solve unseen toy samples.
        test_samples = synthetic_detector_samples(num_samples=10, seed=99)
        hits = 0
        for cvecs, target in test_samples:
            pf = forward.score_indexed(Tensor(cvecs),
                                       forward_index_maps(4)).numpy()
            pb = backward.score_indexed(Tensor(cvecs),
                                        backward_index_maps(4)).numpy()
            if int(np.argmax(merge_distributions(pf, pb))) == target:
                hits += 1
        assert hits >= 7

    def test_independent_training_reduces_loss(self):
        """LEAD-NoGro's MLP trains through the one detector trainer."""
        ae = HierarchicalAutoencoder(EncoderConfig(seed=2))
        detector = IndependentDetector(input_dim=64,
                                       rng=np.random.default_rng(2))
        trainer = JointDetectorTrainer(
            ae, None, None, detector, DetectorTrainingConfig(
                epochs=6, learning_rate=3e-3, batch_size=8, patience=10),
            finetune_encoder=False)
        histories = trainer.fit(make_specs(np.random.default_rng(3),
                                           n_specs=20))
        assert [h.name for h in histories] == ["independent-detector"]
        assert histories[0].final_loss < histories[0].epoch_losses[0]

    def test_fit_rejects_empty(self):
        ae = HierarchicalAutoencoder(EncoderConfig())
        forward = GroupDetector(input_dim=64, hidden_size=4, num_layers=1)
        backward = GroupDetector(input_dim=64, hidden_size=4, num_layers=1)
        with pytest.raises(ValueError):
            JointDetectorTrainer(ae, forward, backward).fit([])
        with pytest.raises(ValueError):
            JointDetectorTrainer(ae, None, None,
                                 IndependentDetector(64)).fit([])
