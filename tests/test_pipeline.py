"""Integration tests for the LEAD pipeline facade and its variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (DatasetConfig, LabeledSample, SyntheticWorld,
                        WorldConfig, generate_dataset)
from repro.detection import DetectorTrainingConfig
from repro.encoding import AutoencoderTrainingConfig
from repro.experiments import get_experiment_config
from repro.model import Trajectory
from repro.pipeline import (LEAD, LEADConfig, VARIANT_NAMES, variant_config)
from repro.processing import RawTrajectoryProcessor


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
def tiny_world_and_data():
    world = SyntheticWorld(WorldConfig(seed=6))
    dataset = generate_dataset(
        DatasetConfig(num_trajectories=10, num_trucks=5, seed=6),
        world=world)
    return world, dataset


@pytest.fixture(scope="module")
def fitted_lead(tiny_world_and_data):
    world, dataset = tiny_world_and_data
    lead = LEAD(world.pois, tiny_lead_config())
    report = lead.fit(dataset.samples[:8])
    return lead, report


class TestConfig:
    def test_variant_names_cover_paper(self):
        assert set(VARIANT_NAMES) == {
            "LEAD", "LEAD-NoPoi", "LEAD-NoSel", "LEAD-NoHie", "LEAD-NoGro",
            "LEAD-NoFor", "LEAD-NoBac"}

    def test_variant_config_switches(self):
        base = LEADConfig()
        assert not variant_config("LEAD-NoPoi", base).feature.use_poi
        assert not variant_config("LEAD-NoSel", base).encoder.use_attention
        assert not variant_config("LEAD-NoHie", base).encoder.hierarchical
        assert not variant_config("LEAD-NoGro", base).use_grouping
        assert not variant_config("LEAD-NoFor", base).use_forward
        assert not variant_config("LEAD-NoBac", base).use_backward
        assert variant_config("LEAD", base) is base

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            variant_config("LEAD-NoLSTM")

    def test_both_directions_required(self):
        with pytest.raises(ValueError):
            LEADConfig(use_forward=False, use_backward=False)

    def test_processor_uses_paper_thresholds(self):
        processor = LEADConfig().build_processor()
        assert processor.noise_filter.max_speed_kmh == 130.0
        assert processor.extractor.max_distance_m == 500.0
        assert processor.extractor.min_duration_s == 15 * 60.0


class TestFitDetect:
    def test_fit_report(self, fitted_lead):
        _, report = fitted_lead
        assert report.num_trajectories_used >= 6
        assert report.autoencoder_history.num_epochs >= 1
        assert {h.name for h in report.detector_histories} == {
            "forward-detector", "backward-detector"}

    def test_detect_returns_valid_candidate(self, fitted_lead,
                                            tiny_world_and_data):
        lead, _ = fitted_lead
        _, dataset = tiny_world_and_data
        result = lead.detect(dataset[9].trajectory)
        assert result is not None
        n = result.processed.num_stay_points
        assert 1 <= result.pair[0] < result.pair[1] <= n
        assert result.distribution.shape == (result.processed.num_candidates,)
        assert result.candidate.pair == result.pair

    def test_distribution_in_unit_interval(self, fitted_lead,
                                           tiny_world_and_data):
        lead, _ = fitted_lead
        _, dataset = tiny_world_and_data
        result = lead.detect(dataset[8].trajectory)
        assert result.distribution.min() >= 0.0
        assert result.distribution.max() <= 1.0

    def test_direction_restriction(self, fitted_lead, tiny_world_and_data):
        lead, _ = fitted_lead
        _, dataset = tiny_world_and_data
        processed = lead.processor.process(dataset[9].trajectory)
        both, fwd, bwd = (lead.detect_processed(processed, d).distribution
                          for d in ("both", "forward", "backward"))
        assert both.shape == fwd.shape == bwd.shape
        # Forward-only and backward-only generally differ.
        assert not np.allclose(fwd, bwd)

    def test_invalid_direction_rejected(self, fitted_lead,
                                        tiny_world_and_data):
        lead, _ = fitted_lead
        _, dataset = tiny_world_and_data
        processed = lead.processor.process(dataset[9].trajectory)
        with pytest.raises(ValueError):
            lead.detect_processed(processed, "sideways")

    def test_unfitted_detect_raises(self, tiny_world_and_data):
        world, dataset = tiny_world_and_data
        lead = LEAD(world.pois, tiny_lead_config())
        with pytest.raises(RuntimeError):
            lead.detect(dataset[0].trajectory)

    def test_fit_requires_usable_data(self, tiny_world_and_data):
        world, _ = tiny_world_and_data
        lead = LEAD(world.pois, tiny_lead_config())
        with pytest.raises(ValueError):
            lead.fit([])


def _process_unsanitized(processor, sample):
    """``RawTrajectoryProcessor.process_sample`` without its
    ``sanitize_trajectory``."""
    return processor.process(sample.trajectory, sample.label)


def _parameters(lead: LEAD) -> list[np.ndarray]:
    return [p.data for module in lead._detector_modules().values()
            for p in module.parameters()]


class TestFitSanitizes:
    """``fit`` takes ``detect``'s front door: ``sanitize_trajectory``."""

    @pytest.fixture(scope="class")
    def tiny_scale(self):
        config = get_experiment_config("tiny")
        world = SyntheticWorld(config.dataset.world)
        return world, config, generate_dataset(config.dataset, world=world)

    def test_nonfinite_fix_does_not_poison_the_model(self, tiny_scale):
        world, config, dataset = tiny_scale
        samples = list(dataset.samples)
        day = samples[0]
        lats = day.trajectory.lats.copy()
        lats[len(lats) // 2] = np.nan
        samples[0] = LabeledSample(
            Trajectory(lats, day.trajectory.lngs, day.trajectory.ts,
                       truck_id=day.trajectory.truck_id,
                       day=day.trajectory.day), day.label)
        lead = LEAD(world.pois, config.lead)
        report = lead.fit(samples)
        assert np.isfinite(report.autoencoder_history.epoch_losses).all()
        assert all(np.isfinite(p).all() for p in _parameters(lead))

    def test_clean_days_train_bit_identically(self, tiny_scale,
                                              monkeypatch):
        world, config, dataset = tiny_scale
        sanitized = LEAD(world.pois, config.lead)
        sanitized.fit(dataset.samples)
        monkeypatch.setattr(RawTrajectoryProcessor, "process_sample",
                            _process_unsanitized)
        unsanitized = LEAD(world.pois, config.lead)
        unsanitized.fit(dataset.samples)
        for a, b in zip(_parameters(sanitized), _parameters(unsanitized),
                        strict=True):
            assert np.array_equal(a, b)


class TestPersistence:
    def test_save_load_detection_identical(self, fitted_lead,
                                           tiny_world_and_data, tmp_path):
        lead, _ = fitted_lead
        world, dataset = tiny_world_and_data
        lead.save(tmp_path / "model")
        clone = LEAD(world.pois, tiny_lead_config())
        clone.load(tmp_path / "model")
        original = lead.detect(dataset[9].trajectory)
        restored = clone.detect(dataset[9].trajectory)
        assert original.pair == restored.pair
        np.testing.assert_allclose(original.distribution,
                                   restored.distribution)

    def test_save_requires_fitted(self, tiny_world_and_data, tmp_path):
        world, _ = tiny_world_and_data
        lead = LEAD(world.pois, tiny_lead_config())
        with pytest.raises(RuntimeError):
            lead.save(tmp_path / "nope")


class TestVariants:
    def test_nogro_uses_mlp(self, tiny_world_and_data):
        world, dataset = tiny_world_and_data
        lead = LEAD(world.pois, tiny_lead_config(use_grouping=False))
        assert lead.independent_detector is not None
        assert lead.forward_detector is None
        lead.fit(dataset.samples[:6])
        result = lead.detect(dataset[9].trajectory)
        assert result is not None

    def test_nogro_fit_detectors_only(self, fitted_lead,
                                      tiny_world_and_data):
        lead, _ = fitted_lead
        world, dataset = tiny_world_and_data
        from repro.features import ZScoreNormalizer
        nogro = LEAD(world.pois, tiny_lead_config(use_grouping=False))
        nogro.featurizer.normalizer = ZScoreNormalizer.from_dict(
            lead.featurizer.normalizer.to_dict())
        nogro.autoencoder.load_state_dict(lead.autoencoder.state_dict())
        report = nogro.fit_detectors_only(dataset.samples[:6])
        assert report.detector_histories[0].name == "independent-detector"
        assert nogro.detect(dataset[9].trajectory) is not None

    def test_fit_detectors_only_requires_normalizer(self,
                                                    tiny_world_and_data):
        world, dataset = tiny_world_and_data
        lead = LEAD(world.pois, tiny_lead_config())
        with pytest.raises(RuntimeError):
            lead.fit_detectors_only(dataset.samples[:4])

    def test_nofor_nobac_single_direction(self, tiny_world_and_data):
        world, dataset = tiny_world_and_data
        nofor = LEAD(world.pois, tiny_lead_config(use_forward=False))
        assert nofor.forward_detector is None
        assert nofor.backward_detector is not None
        report = nofor.fit(dataset.samples[:6])
        assert [h.name for h in report.detector_histories] == [
            "backward-detector"]
        assert nofor.detect(dataset[9].trajectory) is not None

    def test_nopoi_features_zeroed(self, tiny_world_and_data):
        world, dataset = tiny_world_and_data
        config = variant_config("LEAD-NoPoi", tiny_lead_config())
        lead = LEAD(world.pois, config)
        processed = lead.processor.process(dataset[0].trajectory)
        features = lead.extractor.trajectory_features(processed.cleaned)
        assert features[:, 3:].sum() == 0.0
