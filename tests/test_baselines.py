"""Tests for the SP-R, SP-GRU, and SP-LSTM baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (SPNNDetector, SPNNTrainingConfig, SPRDetector,
                             StayPointClassifier, WhiteList, greedy_selection)
from repro.data import (DatasetConfig, SyntheticWorld, WorldConfig,
                        generate_dataset)
from repro.errors import NumericalInstabilityError
from repro.features import (CandidateFeaturizer, FeatureExtractor,
                            ZScoreNormalizer)
from repro.model import LoadedLabel, TimeInterval
from repro.nn import Tensor
from repro.processing import RawTrajectoryProcessor


@pytest.fixture(scope="module")
def world_and_processed():
    world = SyntheticWorld(WorldConfig(seed=4))
    dataset = generate_dataset(
        DatasetConfig(num_trajectories=8, num_trucks=4, seed=4), world=world)
    processor = RawTrajectoryProcessor()
    processed = []
    for sample in dataset:
        result = processor.process(sample.trajectory, sample.label)
        if result is not None and result.label_pair is not None:
            processed.append((result, sample.label))
    featurizer = CandidateFeaturizer(FeatureExtractor(world.pois),
                                     ZScoreNormalizer())
    featurizer.fit_normalizer([p.cleaned for p, _ in processed])
    return world, processed, featurizer


class TestGreedySelection:
    def test_two_lu_stays(self):
        assert greedy_selection(5, [False, True, False, True, False]) == (2, 4)

    def test_many_lu_stays_uses_first_and_last(self):
        assert greedy_selection(4, [True, True, True, True]) == (1, 4)

    def test_default_fallback_zero_flags(self):
        assert greedy_selection(6, [False] * 6) == (1, 6)

    def test_default_fallback_one_flag(self):
        assert greedy_selection(6, [False, True] + [False] * 4) == (1, 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            greedy_selection(1, [True])
        with pytest.raises(ValueError):
            greedy_selection(3, [True])


class TestWhiteList:
    def make_label(self, lat1, lng1, lat2, lng2):
        return LoadedLabel(TimeInterval(0, 10), TimeInterval(20, 30),
                           lat1, lng1, lat2, lng2)

    def test_add_and_match(self):
        wl = WhiteList()
        wl.add_label(self.make_label(32.0, 120.9, 32.1, 121.0))
        assert len(wl) == 2
        assert wl.matches(32.0005, 120.9, radius_m=500.0)
        assert not wl.matches(32.05, 120.9, radius_m=500.0)

    def test_empty_matches_nothing(self):
        assert not WhiteList().matches(32.0, 120.9, 500.0)


class TestSPR:
    def test_radius_validation(self):
        with pytest.raises(ValueError):
            SPRDetector(search_radius_m=0)

    def test_fit_and_detect(self, world_and_processed):
        _, processed, _ = world_and_processed
        detector = SPRDetector()
        detector.fit(processed)
        assert len(detector.white_list) == 2 * len(processed)
        for result, _ in processed[:3]:
            pair = detector.detect(result)
            assert 1 <= pair[0] < pair[1] <= result.num_stay_points

    def test_detect_with_empty_white_list_uses_default(self,
                                                       world_and_processed):
        _, processed, _ = world_and_processed
        detector = SPRDetector()
        result = processed[0][0]
        assert detector.detect(result) == (1, result.num_stay_points)

    def test_training_trajectories_often_hit(self, world_and_processed):
        """On its own training data SP-R should match many endpoints."""
        _, processed, _ = world_and_processed
        detector = SPRDetector()
        detector.fit(processed)
        hits = sum(detector.detect(p) == p.label_pair for p, _ in processed)
        assert hits >= len(processed) // 3


class TestStayPointClassifier:
    def test_unknown_cell_rejected(self):
        with pytest.raises(ValueError):
            StayPointClassifier(cell="transformer")

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_forward_shape_and_range(self, cell):
        classifier = StayPointClassifier(cell=cell, input_dim=8,
                                         hidden_size=16)
        rng = np.random.default_rng(0)
        probs = classifier(Tensor(rng.normal(size=(5, 7, 8))),
                           np.array([7, 3, 1, 5, 2]))
        assert probs.shape == (5,)
        assert ((probs.numpy() > 0) & (probs.numpy() < 1)).all()


class TestSPNN:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SPNNTrainingConfig(epochs=0)

    def test_fit_rejects_empty(self, world_and_processed):
        _, _, featurizer = world_and_processed
        detector = SPNNDetector("gru", featurizer)
        with pytest.raises(ValueError):
            detector.fit([])

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_fit_reduces_loss_and_detects(self, world_and_processed, cell):
        _, processed, featurizer = world_and_processed
        training = [(p, p.label_pair) for p, _ in processed]
        detector = SPNNDetector(
            cell, featurizer,
            SPNNTrainingConfig(epochs=4, learning_rate=3e-3, seed=1))
        history = detector.fit(training)
        assert history.final_loss < history.epoch_losses[0]
        pair = detector.detect(processed[0][0])
        assert 1 <= pair[0] < pair[1] <= processed[0][0].num_stay_points

    def test_nonfinite_loss_raises_before_the_step(self, world_and_processed,
                                                   monkeypatch):
        _, processed, featurizer = world_and_processed
        clean = featurizer.featurize_segments

        def poisoned(segments):
            matrices = [m.copy() for m in clean(segments)]
            for matrix in matrices:
                matrix[0, 0] = np.nan
            return matrices

        monkeypatch.setattr(featurizer, "featurize_segments", poisoned)
        detector = SPNNDetector("gru", featurizer,
                                SPNNTrainingConfig(epochs=2, seed=0))
        before = {k: v.copy()
                  for k, v in detector.classifier.state_dict().items()}
        with pytest.raises(NumericalInstabilityError, match="non-finite"):
            detector.fit([(p, p.label_pair) for p, _ in processed])
        for key, value in detector.classifier.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    def test_fit_featurizes_once_like_per_stay_point(self,
                                                     world_and_processed,
                                                     monkeypatch):
        """``fit`` featurizes every training stay point in one call, and
        that call's matrices equal one call per stay point."""
        _, processed, featurizer = world_and_processed
        training = [(p, p.label_pair) for p, _ in processed]
        stay_points = [sp for p, _ in training for sp in p.stay_points]
        clean = featurizer.featurize_segments
        calls = []

        def spy(segments):
            calls.append(list(segments))
            return clean(segments)

        monkeypatch.setattr(featurizer, "featurize_segments", spy)
        SPNNDetector("gru", featurizer,
                     SPNNTrainingConfig(epochs=1, seed=0)).fit(training)
        monkeypatch.undo()
        assert len(calls) == 1
        assert [id(sp) for sp in calls[0]] == [id(sp) for sp in stay_points]
        featurizer.cache.clear()
        together = featurizer.featurize_segments(stay_points)
        featurizer.cache.clear()
        for stay_point, matrix in zip(stay_points, together):
            assert np.array_equal(matrix,
                                  featurizer.segment_features(stay_point))

    def test_classify_stay_point_probability(self, world_and_processed):
        _, processed, featurizer = world_and_processed
        detector = SPNNDetector("lstm", featurizer,
                                SPNNTrainingConfig(epochs=1, seed=0))
        detector.fit([(p, p.label_pair) for p, _ in processed[:2]])
        prob = detector.classify_stay_point(processed[0][0].stay_points[0])
        assert 0.0 < prob < 1.0
