"""Tests for joint fine-tuning: offset index maps, indexed scoring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection import (DetectorTrainingConfig, GroupDetector,
                             IndependentDetector, JointDetectorTrainer,
                             TrajectorySpec, backward_index_maps,
                             enumerate_pairs, forward_index_maps,
                             pair_to_index)
from repro.encoding import EncoderConfig, HierarchicalAutoencoder
from repro.errors import NumericalInstabilityError
from repro.nn import Parameter, Tensor
from repro.nn.optim import Adam

from .oracles import padded_group_scores

RNG = np.random.default_rng(71)


def candidate_count(n):
    return n * (n - 1) // 2


def merged_maps(ns, builder=forward_index_maps):
    """Several trajectories' index maps offset into one c-vec matrix."""
    maps: list[np.ndarray] = []
    offset = 0
    for n in ns:
        maps.extend(m + offset for m in builder(n))
        offset += candidate_count(n)
    return maps


class TestIndexMaps:
    def test_forward_maps_match_group_builder(self):
        """g_i holds (i, j) for ascending j (Table II forward group)."""
        n = 6
        maps = forward_index_maps(n)
        for i, indices in enumerate(maps, start=1):
            np.testing.assert_array_equal(
                indices, [pair_to_index(n, (i, j))
                          for j in range(i + 1, n + 1)])

    def test_backward_maps_match_group_builder(self):
        """ḡ_j holds (i, j) for descending i (Table II backward group)."""
        n = 6
        maps = backward_index_maps(n)
        for j, indices in enumerate(maps, start=2):
            np.testing.assert_array_equal(
                indices, [pair_to_index(n, (i, j))
                          for i in range(j - 1, 0, -1)])


class TestMergeGroups:
    def test_merge_offsets_indices(self):
        maps = merged_maps([3, 4])             # 3 + 6 candidates
        assert sum(len(m) for m in maps) == 9
        indices = np.sort(np.concatenate(maps))
        np.testing.assert_array_equal(indices, np.arange(9))

    def test_merge_empty_rejected(self):
        detector = GroupDetector(input_dim=4, hidden_size=6, num_layers=1,
                                 rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            detector.score_indexed(Tensor(RNG.normal(size=(3, 4))), [])

    def test_merged_flat_softmax_with_segments_equals_separate(self):
        """Flat softmax with segment boundaries == per-trajectory runs."""
        detector = GroupDetector(input_dim=4, hidden_size=6, num_layers=1,
                                 rng=np.random.default_rng(0))
        cvecs_a = RNG.normal(size=(3, 4))
        cvecs_b = RNG.normal(size=(10, 4))
        all_cvecs = np.concatenate([cvecs_a, cvecs_b], axis=0)
        merged_probs = detector.score_indexed(
            Tensor(all_cvecs), merged_maps([3, 5]),
            segments=np.array([3, 10])).numpy()
        pa = detector.score_indexed(Tensor(cvecs_a),
                                    forward_index_maps(3)).numpy()
        pb = detector.score_indexed(Tensor(cvecs_b),
                                    forward_index_maps(5)).numpy()
        np.testing.assert_allclose(merged_probs, np.concatenate([pa, pb]),
                                   atol=1e-12)
        # And each trajectory's slice is itself a distribution.
        assert merged_probs[:3].sum() == pytest.approx(1.0)
        assert merged_probs[3:].sum() == pytest.approx(1.0)


class TestScoreIndexed:
    def test_matches_forward_on_group(self):
        """The index gather equals the padded subgroup-matrix oracle."""
        n = 5
        cvecs = RNG.normal(size=(candidate_count(n), 8))
        detector = GroupDetector(input_dim=8, hidden_size=6, num_layers=2,
                                 rng=np.random.default_rng(1))
        via_group = padded_group_scores(detector, cvecs,
                                        forward_index_maps(n))
        via_index = detector.score_indexed(
            Tensor(cvecs), forward_index_maps(n)).numpy()
        np.testing.assert_allclose(via_group, via_index, atol=1e-12)

    def test_gradients_flow_to_cvecs(self):
        n = 4
        cvecs = Tensor(RNG.normal(size=(candidate_count(n), 8)),
                       requires_grad=True)
        detector = GroupDetector(input_dim=8, hidden_size=6, num_layers=1,
                                 rng=np.random.default_rng(2))
        probs = detector.score_indexed(cvecs, forward_index_maps(n))
        (probs * probs).sum().backward()
        assert cvecs.grad is not None
        assert np.isfinite(cvecs.grad).all()


class TestAdamWeightDecay:
    def test_decay_shrinks_unused_weights(self):
        p = Parameter(np.full(3, 10.0))
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(3)
        opt.step()
        np.testing.assert_allclose(p.data, np.full(3, 9.5))

    def test_no_decay_by_default(self):
        p = Parameter(np.full(3, 10.0))
        opt = Adam([p], lr=0.1)
        p.grad = np.zeros(3)
        opt.step()
        np.testing.assert_allclose(p.data, np.full(3, 10.0))


def make_specs(featurizer_rng, n_specs=6, n=4, seg_len=5, dim=32):
    """Synthetic TrajectorySpecs whose target candidate has a marker."""
    specs = []
    for _ in range(n_specs):
        stay = [featurizer_rng.normal(0, 0.2, size=(seg_len, dim))
                for _ in range(n)]
        move = [featurizer_rng.normal(0, 0.2, size=(seg_len, dim))
                for _ in range(n - 1)]
        pairs = enumerate_pairs(n)
        target = int(featurizer_rng.integers(len(pairs)))
        i, j = pairs[target]
        stay[i - 1][:, :3] += 1.5   # mark the loading stay
        stay[j - 1][:, 3:6] += 1.5  # mark the unloading stay
        specs.append(TrajectorySpec(stay, move, pairs, n, target))
    return specs


class TestJointTrainer:
    def test_requires_a_detector(self):
        ae = HierarchicalAutoencoder(EncoderConfig())
        with pytest.raises(ValueError):
            JointDetectorTrainer(ae, None, None, None)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrajectorySpec([np.zeros((2, 4))], [], [(1, 2)], 2, 0)
        with pytest.raises(ValueError):
            TrajectorySpec([np.zeros((2, 4))] * 2, [np.zeros((2, 4))],
                           [(1, 2)], 2, 5)

    def test_fit_reduces_loss_and_tunes_encoder(self):
        rng = np.random.default_rng(3)
        ae = HierarchicalAutoencoder(EncoderConfig(seed=3))
        fwd = GroupDetector(64, 16, 1, np.random.default_rng(4))
        bwd = GroupDetector(64, 16, 1, np.random.default_rng(5))
        trainer = JointDetectorTrainer(
            ae, fwd, bwd, config=DetectorTrainingConfig(
                epochs=4, learning_rate=3e-3, batch_size=3, patience=10,
                seed=0),
            finetune_encoder=True)
        before = ae.state_dict()
        specs = make_specs(rng)
        histories = trainer.fit(specs)
        assert len(histories) == 2
        assert histories[0].final_loss < histories[0].epoch_losses[0]
        after = ae.state_dict()
        changed = any(not np.allclose(before[k], after[k]) for k in before)
        assert changed, "encoder weights should move when fine-tuning"

    def test_frozen_encoder_untouched(self):
        rng = np.random.default_rng(6)
        ae = HierarchicalAutoencoder(EncoderConfig(seed=6))
        fwd = GroupDetector(64, 8, 1, np.random.default_rng(7))
        trainer = JointDetectorTrainer(
            ae, fwd, None, config=DetectorTrainingConfig(
                epochs=1, batch_size=3, seed=0),
            finetune_encoder=False)
        before = ae.state_dict()
        trainer.fit(make_specs(rng, n_specs=3))
        after = ae.state_dict()
        assert all(np.allclose(before[k], after[k]) for k in before)

    def test_independent_path(self):
        rng = np.random.default_rng(8)
        ae = HierarchicalAutoencoder(EncoderConfig(seed=8))
        mlp = IndependentDetector(64, np.random.default_rng(9))
        trainer = JointDetectorTrainer(
            ae, None, None, mlp, DetectorTrainingConfig(
                epochs=2, batch_size=3, seed=0))
        histories = trainer.fit(make_specs(rng, n_specs=4))
        assert histories[0].name == "independent-detector"

    def test_fit_rejects_empty(self):
        ae = HierarchicalAutoencoder(EncoderConfig())
        fwd = GroupDetector(64, 8, 1)
        with pytest.raises(ValueError):
            JointDetectorTrainer(ae, fwd, None).fit([])

    def test_nonfinite_loss_raises_before_the_step(self):
        ae = HierarchicalAutoencoder(EncoderConfig(seed=10))
        fwd = GroupDetector(64, 8, 1, np.random.default_rng(11))
        bwd = GroupDetector(64, 8, 1, np.random.default_rng(12))
        trainer = JointDetectorTrainer(
            ae, fwd, bwd, config=DetectorTrainingConfig(
                epochs=2, batch_size=3, seed=0),
            finetune_encoder=True)
        specs = make_specs(np.random.default_rng(13))
        specs[2].stay_segments[1][0, 0] = np.nan
        with pytest.raises(NumericalInstabilityError, match="non-finite"):
            trainer.fit(specs)
        for module in (ae, fwd, bwd):
            assert all(np.isfinite(p.data).all()
                       for p in module.parameters())
