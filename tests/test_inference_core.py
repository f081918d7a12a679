"""One inference core behind every LEAD detection entry point.

* A batch of one is bit-identical to the Group-based single-trajectory
  oracle (``tests/oracles.py``) in every direction; multi-trajectory
  batches, which shape-bucket, match it at ``rtol=1e-9``.
* ``detect(t)`` and ``detect_batch([t])[0]`` agree exactly — pair,
  provenance (tier, notes, ``compute_dtype``) and distribution — for a
  healthy model, a detector dropped by ``load(strict=False)``, a forced
  non-finite tier and a failed float32 parity gate.
* Bucketing is decided from the batch size alone.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.data import (DatasetConfig, SyntheticWorld, WorldConfig,
                        generate_dataset)
from repro.detection import (DetectorTrainingConfig, GroupDetector,
                             backward_index_maps, forward_index_maps)
from repro.detection.grouping import (_backward_index_maps,
                                      _forward_index_maps)
from repro.encoding import AutoencoderTrainingConfig, HierarchicalAutoencoder
from repro.pipeline import LEAD, LEADConfig

from .oracles import group_distribution
from .test_resilience import flip_byte
from .test_robustness import inject_nonfinite


def tiny_config(**overrides) -> LEADConfig:
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
    lead = LEAD(world.pois, tiny_config())
    lead.fit(dataset.samples[:8])
    return lead


@pytest.fixture(scope="module")
def processed(fitted, world_and_data):
    _, dataset = world_and_data
    out = [fitted.processor.process(s.trajectory) for s in dataset.samples]
    out = [p for p in out if p is not None]
    assert len(out) >= 8
    return out


def _sharing(source: LEAD, world, **overrides) -> LEAD:
    """A fitted LEAD with ``source``'s weights under another config."""
    lead = LEAD(world.pois, tiny_config(**overrides))
    lead.featurizer.normalizer = source.featurizer.normalizer
    lead.autoencoder = source.autoencoder
    if lead.independent_detector is None:
        lead.forward_detector = source.forward_detector
        lead.backward_detector = source.backward_detector
    lead._fitted = True
    return lead


def _assert_same_answer(single, batched) -> None:
    assert (single is None) == (batched is None)
    if single is None:
        return
    assert batched.pair == single.pair
    assert batched.provenance == single.provenance
    assert np.array_equal(batched.distribution, single.distribution)


class TestGroupOracle:
    @pytest.mark.parametrize("direction", ["both", "forward", "backward"])
    def test_batch_of_one_is_bitwise(self, fitted, processed, direction):
        for item in processed:
            got = fitted.predict_distribution_batch(
                [item], direction=direction)[0]
            assert np.array_equal(
                got, group_distribution(fitted, item, direction))

    def test_whole_batch_matches(self, fitted, processed):
        batched = fitted.predict_distribution_batch(processed)
        for item, got in zip(processed, batched):
            np.testing.assert_allclose(
                got, group_distribution(fitted, item), rtol=1e-9, atol=0.0)

    def test_independent_detector_batch_of_one_is_bitwise(
            self, fitted, processed, world_and_data):
        world, _ = world_and_data
        nogro = _sharing(fitted, world, use_grouping=False)
        for item in processed:
            assert np.array_equal(
                nogro.predict_distribution_batch([item])[0],
                group_distribution(nogro, item))

    def test_nohie_batch_of_one_is_bitwise(self, fitted, processed,
                                           world_and_data):
        world, _ = world_and_data
        flat = _sharing(fitted, world)
        flat.autoencoder = HierarchicalAutoencoder(
            dataclasses.replace(flat.config.encoder, hierarchical=False))
        for item in processed[:4]:
            assert np.array_equal(
                flat.predict_distribution_batch([item])[0],
                group_distribution(flat, item))


    def test_core_leaves_memoized_maps_intact(self, fitted, processed):
        fitted.predict_distribution_batch(processed)
        for n in {p.num_stay_points for p in processed}:
            for memo, build in ((forward_index_maps, _forward_index_maps),
                                (backward_index_maps, _backward_index_maps)):
                for got, want in zip(memo(n), build(n)):
                    assert not got.flags.writeable
                    np.testing.assert_array_equal(got, want)


class TestDetectIsBatchOfOne:
    def test_healthy_and_sanitized(self, fitted, world_and_data):
        _, dataset = world_and_data
        rng = np.random.default_rng(5)
        trajectories = [s.trajectory for s in dataset.samples]
        trajectories.append(inject_nonfinite(trajectories[8], count=5,
                                             rng=rng))
        for trajectory in trajectories:
            _assert_same_answer(fitted.detect(trajectory),
                                fitted.detect_batch([trajectory])[0])

    def test_lenient_load_dropped_detector(self, fitted, world_and_data,
                                           tmp_path):
        world, dataset = world_and_data
        fitted.save(tmp_path / "model")
        flip_byte(tmp_path / "model" / "forward.npz")
        lead = LEAD(world.pois, tiny_config()).load(tmp_path / "model",
                                                    strict=False)
        assert lead.forward_detector is None
        for sample in dataset.samples[8:]:
            single = lead.detect(sample.trajectory)
            _assert_same_answer(single,
                                lead.detect_batch([sample.trajectory])[0])
            if single is not None:
                assert single.provenance.tier == "backward-only"

    def test_forced_non_finite_tier(self, fitted, world_and_data):
        world, dataset = world_and_data
        lead = _sharing(fitted, world)
        broken = copy.deepcopy(fitted.forward_detector)
        assert isinstance(broken, GroupDetector)
        broken.score.bias.data[:] = np.nan
        lead.forward_detector = broken
        answered = 0
        for sample in dataset.samples[8:]:
            single = lead.detect(sample.trajectory)
            _assert_same_answer(single,
                                lead.detect_batch([sample.trajectory])[0])
            if single is not None:
                answered += 1
                assert single.provenance.tier == "backward-only"
                assert any("non-finite" in note
                           for note in single.provenance.notes)
        assert answered

    def test_failed_parity_gate(self, fitted, world_and_data):
        world, dataset = world_and_data
        for sample in dataset.samples[8:]:
            # Fresh instances: the first call of each gates lazily on
            # the same one-trajectory calibration slice.
            via_detect = _sharing(fitted, world, inference_dtype="float32",
                                  precision_margin=1e-12)
            via_batch = _sharing(fitted, world, inference_dtype="float32",
                                 precision_margin=1e-12)
            single = via_detect.detect(sample.trajectory)
            _assert_same_answer(
                single, via_batch.detect_batch([sample.trajectory])[0])
            if single is not None:
                assert single.provenance.compute_dtype == "float64"
                assert any("fell back to float64" in note
                           for note in single.provenance.notes)


class TestBucketingRule:
    def test_bucketing_follows_batch_size(self, fitted, processed,
                                          monkeypatch):
        seen: list[tuple[str, bool]] = []
        encode = HierarchicalAutoencoder.encode_trajectories
        score = GroupDetector.score_indexed

        def spy_encode(self, *args, bucket):
            seen.append(("encode", bucket))
            return encode(self, *args, bucket=bucket)

        def spy_score(self, *args, bucket=False, **kwargs):
            seen.append(("score", bucket))
            return score(self, *args, bucket=bucket, **kwargs)

        monkeypatch.setattr(HierarchicalAutoencoder, "encode_trajectories",
                            spy_encode)
        monkeypatch.setattr(GroupDetector, "score_indexed", spy_score)
        fitted.predict_distribution_batch(processed[:1])
        assert seen == [("encode", False), ("score", False),
                        ("score", False)]
        seen.clear()
        fitted.predict_distribution_batch(processed[:3])
        assert seen == [("encode", True), ("score", True), ("score", True)]
