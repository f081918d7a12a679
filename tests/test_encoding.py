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
from repro.features import (CandidateFeaturizer, FeatureExtractor,
                            ZScoreNormalizer)
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


def _day(featurizer, processed):
    """One day's stay and move segment matrices."""
    matrices = featurizer.featurize_segments(processed.stay_points
                                             + processed.move_points)
    n = processed.num_stay_points
    return matrices[:n], matrices[n:]


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
        stays, moves = _day(featurizer, processed[0])
        pair = processed[0].candidates[0].pair
        assert compress(model, stays, moves, pair).shape == (1, 64)

    def test_reconstruction_loss_finite_and_positive(self, pipeline):
        processed, featurizer = pipeline
        model = HierarchicalAutoencoder(EncoderConfig())
        stays, moves = _day(featurizer, processed[0])
        loss = model.reconstruction_loss_batch(
            [stays], [moves], [[processed[0].candidates[0].pair]])
        assert np.isfinite(loss.item())
        assert loss.item() > 0

    def test_batch_loss_of_one_matches_per_candidate_oracle(self, pipeline):
        processed, featurizer = pipeline
        for config in (EncoderConfig(), EncoderConfig(hierarchical=False)):
            model = HierarchicalAutoencoder(config)
            stays, moves = _day(featurizer, processed[0])
            for candidate in processed[0].candidates[:3]:
                with no_grad():
                    np.testing.assert_allclose(
                        model.reconstruction_loss_batch(
                            [stays], [moves], [[candidate.pair]]).item(),
                        reconstruction_loss(model, stays, moves,
                                            candidate.pair).item(),
                        rtol=1e-9, atol=0.0)

    def test_batch_loss_is_point_weighted_mean_of_oracle(self, pipeline):
        """A batch over two days, candidates interleaved, is the mean of
        the per-candidate losses weighted by each one's point count."""
        processed, featurizer = pipeline
        days = [_day(featurizer, p) for p in processed[:2]]
        picks = [(1, processed[1].candidates[-1].pair),
                 (0, processed[0].candidates[0].pair),
                 (1, processed[1].candidates[0].pair),
                 (0, processed[0].candidates[-1].pair)]
        for config in (EncoderConfig(), EncoderConfig(hierarchical=False)):
            model = HierarchicalAutoencoder(config)
            with no_grad():
                batch = model.reconstruction_loss_batch(
                    [days[d][0] for d, _ in picks],
                    [days[d][1] for d, _ in picks],
                    [[pair] for _, pair in picks]).item()
                losses = [reconstruction_loss(model, *days[d], pair).item()
                          for d, pair in picks]
            points = [sum(len(s) for s in days[d][0][i - 1:j])
                      + sum(len(m) for m in days[d][1][i - 1:j - 1])
                      for d, (i, j) in picks]
            np.testing.assert_allclose(batch, np.average(losses,
                                                         weights=points),
                                       rtol=1e-9, atol=0.0)

    def test_gradients_reach_all_parameters(self, pipeline):
        processed, featurizer = pipeline
        model = HierarchicalAutoencoder(EncoderConfig())
        stays, moves = _day(featurizer, processed[0])
        model.reconstruction_loss_batch(
            [stays], [moves], [[processed[0].candidates[1].pair]]).backward()
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
        stays, moves = _day(featurizer, processed[0])
        pair = processed[0].candidates[0].pair
        assert compress(model, stays, moves, pair).shape == (1, 64)
        loss = model.reconstruction_loss_batch([stays], [moves], [[pair]])
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
        stays, moves = _day(featurizer, processed[0])
        pair = processed[0].candidates[0].pair
        assert compress(model, stays, moves, pair).shape == (1, 64)

    def test_serialization_roundtrip(self, pipeline, tmp_path):
        processed, featurizer = pipeline
        a = HierarchicalAutoencoder(EncoderConfig(seed=1))
        b = HierarchicalAutoencoder(EncoderConfig(seed=2))
        save_module(a, tmp_path / "ae.npz")
        load_module(b, tmp_path / "ae.npz")
        day = _day(featurizer, processed[0])
        pair = processed[0].candidates[0].pair
        with no_grad():
            np.testing.assert_allclose(compress(a, *day, pair).numpy(),
                                       compress(b, *day, pair).numpy())


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


class TestEncodingStates:
    """Encoding from the state an earlier call left equals encoding the
    grown trajectories afresh, for LEAD and the NoSel/NoHie variants."""

    @pytest.mark.parametrize("variant", [{}, {"use_attention": False},
                                         {"hierarchical": False}],
                             ids=["lead", "nosel", "nohie"])
    def test_growing_trajectories_match_fresh_encoding(self, pipeline,
                                                       variant):
        processed, featurizer = pipeline
        model = HierarchicalAutoencoder(EncoderConfig(**variant))
        days = [_day(featurizer, p) for p in processed[:3]]
        sizes = [len(stays) for stays, _ in days]
        assert min(sizes) >= 4
        # Day 0 grows 2 -> 3 -> n, day 1 starts fresh at 3 and then
        # grows to n, day 2 reaches n at once and then gains nothing.
        steps = [[2, 3, sizes[0]], [None, 3, sizes[1]],
                 [None, sizes[2], sizes[2]]]
        states = [None, None, None]
        for step in range(3):
            live = [t for t in range(3) if steps[t][step] is not None]
            counts = [steps[t][step] for t in live]
            covered = [0 if states[t] is None else states[t].stays
                       for t in live]
            batch = [states[t] for t in live]
            got = model.encode_trajectories(
                [days[t][0][c:n] for t, c, n in zip(live, covered, counts)],
                [days[t][1][max(c - 1, 0):n - 1]
                 for t, c, n in zip(live, covered, counts)],
                [_pairs(n) for n in counts], batch)
            for t, state in zip(live, batch):
                states[t] = state
            for t, n, cvecs in zip(live, counts, got):
                want = model.encode_trajectories(
                    [days[t][0][:n]], [days[t][1][:n - 1]], [_pairs(n)])[0]
                assert states[t].stays == n
                np.testing.assert_allclose(cvecs, want, rtol=1e-9,
                                           atol=1e-15)

    def test_state_needs_every_candidate(self, pipeline):
        processed, featurizer = pipeline
        model = HierarchicalAutoencoder(EncoderConfig())
        stays, moves = _day(featurizer, processed[0])
        with pytest.raises(ValueError, match="all its candidates"):
            model.encode_trajectories([stays[:3]], [moves[:2]],
                                      [[(1, 2), (1, 3)]], [None])


class TestTrainer:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoencoderTrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            AutoencoderTrainingConfig(learning_rate=0)

    def test_training_reduces_loss(self, pipeline):
        processed, featurizer = pipeline
        stays, moves = _day(featurizer, processed[0])
        samples = [(0, c.pair) for c in processed[0].candidates]
        model = HierarchicalAutoencoder(EncoderConfig(seed=3))
        trainer = AutoencoderTrainer(model, AutoencoderTrainingConfig(
            epochs=5, learning_rate=3e-3, batch_size=4, patience=5))
        history = trainer.fit([stays], [moves], samples)
        assert history.num_epochs >= 2
        assert history.final_loss < history.epoch_losses[0]
        assert not model.training  # back in eval mode

    def test_fit_rejects_empty(self):
        model = HierarchicalAutoencoder(EncoderConfig())
        with pytest.raises(ValueError):
            AutoencoderTrainer(model).fit([], [], [])

    def test_nonfinite_loss_raises_before_the_step(self):
        rng = np.random.default_rng(12)
        days = [[rng.normal(size=(int(rng.integers(2, 6)), 32))
                 for _ in range(3)] for _ in range(12)]
        days[5][1][0, 4] = np.nan
        model = HierarchicalAutoencoder(EncoderConfig(seed=12))
        trainer = AutoencoderTrainer(model, AutoencoderTrainingConfig(
            epochs=3, batch_size=4, seed=0))
        with pytest.raises(NumericalInstabilityError, match="non-finite"):
            trainer.fit([day[0::2] for day in days],
                        [day[1::2] for day in days],
                        [(d, (1, 2)) for d in range(len(days))])
        assert all(np.isfinite(p.data).all() for p in model.parameters())
