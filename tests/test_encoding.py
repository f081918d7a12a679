"""Tests for the hierarchical autoencoder and its trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (DatasetConfig, SyntheticWorld, WorldConfig,
                        generate_dataset)
from repro.encoding import (AutoencoderTrainer, AutoencoderTrainingConfig,
                            CompressionOperator, DecompressionOperator,
                            EncoderConfig, HierarchicalAutoencoder)
from repro.errors import NumericalInstabilityError
from repro.features import (CandidateFeatures, CandidateFeaturizer,
                            FeatureExtractor, SegmentKind, ZScoreNormalizer)
from repro.nn import Tensor, load_module, no_grad, save_module
from repro.processing import RawTrajectoryProcessor

from .oracles import compress, per_candidate_cvecs, reconstruction_loss

RNG = np.random.default_rng(41)


@pytest.fixture(scope="module")
def pipeline():
    world = SyntheticWorld(WorldConfig(seed=2))
    dataset = generate_dataset(
        DatasetConfig(num_trajectories=5, num_trucks=3, seed=2), world=world)
    processor = RawTrajectoryProcessor()
    processed = [p for p in
                 (processor.process(s.trajectory, s.label) for s in dataset)
                 if p is not None]
    featurizer = CandidateFeaturizer(FeatureExtractor(world.pois),
                                     ZScoreNormalizer())
    featurizer.fit_normalizer([p.cleaned for p in processed])
    return processed, featurizer


class TestOperators:
    def test_compression_operator_shape(self):
        op = CompressionOperator(8, 6, RNG)
        out = op(Tensor(RNG.normal(size=(3, 5, 8))), np.array([5, 2, 4]))
        assert out.shape == (3, 6)
        assert (np.abs(out.numpy()) <= 1.0).all()  # tanh range

    def test_compression_operator_no_attention(self):
        op = CompressionOperator(8, 6, RNG, use_attention=False)
        out = op(Tensor(RNG.normal(size=(2, 4, 8))))
        assert out.shape == (2, 6)
        assert not hasattr(op, "attention")

    def test_decompression_operator_shape(self):
        op = DecompressionOperator(6, 5, 8, RNG)
        out = op(Tensor(RNG.normal(size=(3, 6))), steps=7)
        assert out.shape == (3, 7, 8)
        assert (np.abs(out.numpy()) <= 1.0).all()

    def test_padding_invariance_of_compression(self):
        op = CompressionOperator(4, 6, np.random.default_rng(0))
        x = RNG.normal(size=(1, 3, 4))
        padded = np.concatenate([x, np.full((1, 2, 4), 9.0)], axis=1)
        a = op(Tensor(x), np.array([3])).numpy()
        b = op(Tensor(padded), np.array([3])).numpy()
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestHierarchicalAutoencoder:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(hidden_size=0)

    def test_cvec_dim(self):
        assert EncoderConfig().cvec_dim == 64

    def test_compress_shape(self, pipeline):
        processed, featurizer = pipeline
        model = HierarchicalAutoencoder(EncoderConfig())
        features = featurizer.featurize(processed[0].candidates[0])
        assert compress(model, features).shape == (1, 64)

    def test_reconstruction_loss_finite_and_positive(self, pipeline):
        processed, featurizer = pipeline
        model = HierarchicalAutoencoder(EncoderConfig())
        features = featurizer.featurize(processed[0].candidates[0])
        loss = model.reconstruction_loss_batch([features])
        assert np.isfinite(loss.item())
        assert loss.item() > 0

    def test_batch_loss_of_one_matches_per_candidate_oracle(self, pipeline):
        processed, featurizer = pipeline
        for config in (EncoderConfig(), EncoderConfig(hierarchical=False)):
            model = HierarchicalAutoencoder(config)
            for candidate in processed[0].candidates[:3]:
                features = featurizer.featurize(candidate)
                with no_grad():
                    np.testing.assert_allclose(
                        model.reconstruction_loss_batch([features]).item(),
                        reconstruction_loss(model, features).item(),
                        rtol=1e-9, atol=0.0)

    def test_gradients_reach_all_parameters(self, pipeline):
        processed, featurizer = pipeline
        model = HierarchicalAutoencoder(EncoderConfig())
        features = featurizer.featurize(processed[0].candidates[1])
        model.reconstruction_loss_batch([features]).backward()
        missing = [name for name, p in model.named_parameters()
                   if p.grad is None]
        assert missing == []

    def test_encode_trajectory_matches_single(self, pipeline):
        processed, featurizer = pipeline
        model = HierarchicalAutoencoder(EncoderConfig())
        p0 = processed[0]
        stay_segments = [featurizer.segment_features(sp)
                         for sp in p0.stay_points]
        move_segments = [featurizer.segment_features(mp)
                         for mp in p0.move_points]
        pairs = [c.pair for c in p0.candidates]
        batch = model.encode_trajectories(
            [stay_segments], [move_segments], [pairs])[0]
        assert batch.shape == (p0.num_candidates, 64)
        single = per_candidate_cvecs(model, stay_segments, move_segments,
                                     pairs)
        np.testing.assert_allclose(batch, single, atol=1e-9)

    def test_encode_rejects_empty_pairs(self):
        model = HierarchicalAutoencoder(EncoderConfig())
        with pytest.raises(ValueError):
            model.encode_trajectories([[]], [[]], [[]])

    @pytest.mark.parametrize("pairs", [[(2, 2)], [(2, 1)], [(0, 2)],
                                       [(1, 4)]])
    def test_encode_rejects_malformed_pairs(self, pairs):
        model = HierarchicalAutoencoder(EncoderConfig(feature_dim=4))
        stays = [np.ones((2, 4))] * 3
        moves = [np.ones((2, 4))] * 2
        with pytest.raises(ValueError):
            model.encode_trajectories([stays], [moves], [pairs])

    def test_nohie_variant(self, pipeline):
        processed, featurizer = pipeline
        model = HierarchicalAutoencoder(EncoderConfig(hierarchical=False))
        features = featurizer.featurize(processed[0].candidates[0])
        assert compress(model, features).shape == (1, 64)
        loss = model.reconstruction_loss_batch([features])
        assert np.isfinite(loss.item())
        p0 = processed[0]
        stay_segments = [featurizer.segment_features(sp)
                         for sp in p0.stay_points]
        move_segments = [featurizer.segment_features(mp)
                         for mp in p0.move_points]
        pairs = [c.pair for c in p0.candidates]
        batch = model.encode_trajectories(
            [stay_segments], [move_segments], [pairs])[0]
        assert batch.shape == (p0.num_candidates, 64)

    def test_nosel_variant(self, pipeline):
        processed, featurizer = pipeline
        model = HierarchicalAutoencoder(EncoderConfig(use_attention=False))
        features = featurizer.featurize(processed[0].candidates[0])
        assert compress(model, features).shape == (1, 64)

    def test_serialization_roundtrip(self, pipeline, tmp_path):
        processed, featurizer = pipeline
        a = HierarchicalAutoencoder(EncoderConfig(seed=1))
        b = HierarchicalAutoencoder(EncoderConfig(seed=2))
        save_module(a, tmp_path / "ae.npz")
        load_module(b, tmp_path / "ae.npz")
        features = featurizer.featurize(processed[0].candidates[0])
        with no_grad():
            np.testing.assert_allclose(compress(a, features).numpy(),
                                       compress(b, features).numpy())


class TestTrainer:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoencoderTrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            AutoencoderTrainingConfig(learning_rate=0)

    def test_training_reduces_loss(self, pipeline):
        processed, featurizer = pipeline
        samples = featurizer.featurize_all(processed[0].candidates)
        model = HierarchicalAutoencoder(EncoderConfig(seed=3))
        trainer = AutoencoderTrainer(model, AutoencoderTrainingConfig(
            epochs=5, learning_rate=3e-3, batch_size=4, patience=5))
        history = trainer.fit(samples)
        assert history.num_epochs >= 2
        assert history.final_loss < history.epoch_losses[0]
        assert not model.training  # back in eval mode

    def test_fit_rejects_empty(self):
        model = HierarchicalAutoencoder(EncoderConfig())
        with pytest.raises(ValueError):
            AutoencoderTrainer(model).fit([])

    def test_nonfinite_loss_raises_before_the_step(self):
        rng = np.random.default_rng(12)
        samples = []
        for _ in range(12):
            segments = tuple(rng.normal(size=(int(rng.integers(2, 6)), 32))
                             for _ in range(3))
            samples.append(CandidateFeatures(
                pair=(1, 2), segments=segments,
                kinds=(SegmentKind.STAY, SegmentKind.MOVE,
                       SegmentKind.STAY)))
        samples[5].segments[1][0, 4] = np.nan
        model = HierarchicalAutoencoder(EncoderConfig(seed=12))
        trainer = AutoencoderTrainer(model, AutoencoderTrainingConfig(
            epochs=3, batch_size=4, seed=0))
        with pytest.raises(NumericalInstabilityError, match="non-finite"):
            trainer.fit(samples)
        assert all(np.isfinite(p.data).all() for p in model.parameters())
