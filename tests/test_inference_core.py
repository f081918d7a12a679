"""One inference core behind every LEAD detection entry point.

* A batch of one is bit-identical to the padded-subgroup single-trajectory
  oracle (``tests/oracles.py``) in every direction; multi-trajectory
  batches match it at ``rtol=1e-9``.
* ``detect(t)`` and ``detect_batch([t])[0]`` agree exactly — pair,
  provenance (tier, notes, ``compute_dtype``) and distribution — for a
  healthy model, a detector dropped after load, a forced non-finite
  tier and a failed float32 parity gate.
* Detector bucketing is decided from the batch size alone.
* Phase 2 runs once per (trajectory, start stay point) and matches the
  per-candidate encoder oracle, in float64 and in the float32 tier.
* The end task holds: a ``tiny`` model fitted on 60 days finds the
  loaded pair well above chance on held-out days, with the same
  verdicts as the per-candidate encoder.
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
from repro.encoding import (AutoencoderTrainingConfig, CompressionOperator,
                            EncoderConfig, HierarchicalAutoencoder)
from repro.experiments import get_experiment_config
from repro.nn import fused, inference_dtype
from repro.pipeline import LEAD, LEADConfig

from .oracles import group_distribution, per_candidate_cvecs
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
            got = fitted.detect_processed(item, direction).distribution
            assert np.array_equal(
                got, group_distribution(fitted, item, direction))

    def test_whole_batch_matches(self, fitted, processed):
        batched = fitted.detect_many(processed)
        for item, got in zip(processed, batched):
            np.testing.assert_allclose(
                got.distribution, group_distribution(fitted, item),
                rtol=1e-9, atol=0.0)

    def test_independent_detector_batch_of_one_is_bitwise(
            self, fitted, processed, world_and_data):
        world, _ = world_and_data
        nogro = _sharing(fitted, world, use_grouping=False)
        for item in processed:
            assert np.array_equal(
                nogro.detect_processed(item).distribution,
                group_distribution(nogro, item))

    def test_nohie_batch_of_one_is_bitwise(self, fitted, processed,
                                           world_and_data):
        world, _ = world_and_data
        flat = _sharing(fitted, world)
        flat.autoencoder = HierarchicalAutoencoder(
            dataclasses.replace(flat.config.encoder, hierarchical=False))
        for item in processed[:4]:
            assert np.array_equal(
                flat.detect_processed(item).distribution,
                group_distribution(flat, item))


    def test_core_leaves_memoized_maps_intact(self, fitted, processed):
        fitted.detect_many(processed)
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

    def test_dropped_detector(self, fitted, world_and_data, tmp_path):
        world, dataset = world_and_data
        fitted.save(tmp_path / "model")
        lead = LEAD(world.pois, tiny_config()).load(tmp_path / "model")
        lead.forward_detector = None
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
        seen: list[tuple[bool, bool]] = []
        score = GroupDetector.score_indexed

        def spy_score(self, *args, bucket=False, partner=None, **kwargs):
            seen.append((bucket, partner is not None))
            return score(self, *args, bucket=bucket, partner=partner,
                         **kwargs)

        monkeypatch.setattr(GroupDetector, "score_indexed", spy_score)
        fitted.detect_many(processed[:1])
        assert seen == [(False, True)]     # both groups in one call
        seen.clear()
        fitted.detect_many(processed[:3])
        assert seen == [(True, True)]


def _segments_and_pairs(lead, processed):
    segments = [lead._segments(p) for p in processed]
    return ([stay for stay, _ in segments], [move for _, move in segments],
            [[c.pair for c in p.candidates] for p in processed])


#: Per-element tolerance of the prefix path against the per-candidate
#: oracle: float summation order only (the float32 tier rounds at
#: ~6e-8, so it cannot be held to the float64 budget).
_ORACLE_TOL = {"float64": dict(rtol=1e-9, atol=0.0),
               "float32": dict(rtol=1e-5, atol=1e-6)}


class TestPrefixPhase2:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("attention", [True, False],
                             ids=["attention", "nosel"])
    def test_matches_per_candidate_oracle(self, fitted, processed,
                                          attention, dtype):
        model = fitted.autoencoder
        if not attention:
            model = HierarchicalAutoencoder(dataclasses.replace(
                fitted.config.encoder, use_attention=False))
        stays, moves, pairs = _segments_and_pairs(fitted, processed)
        with inference_dtype(dtype):
            got = model.encode_trajectories(stays, moves, pairs)
            for stay, move, plist, cvecs in zip(stays, moves, pairs, got):
                want = per_candidate_cvecs(model, stay, move, plist)
                assert cvecs.dtype == want.dtype == np.dtype(dtype)
                np.testing.assert_allclose(cvecs, want, **_ORACLE_TOL[dtype])

    def test_float32_tier_reads_weight_views(self, fitted, processed,
                                             monkeypatch):
        requested: dict[int, set] = {}
        real = fused.weight_view

        def spy(tensor, dtype=None):
            requested.setdefault(id(tensor), set()).add(np.dtype(dtype))
            return real(tensor, dtype)

        monkeypatch.setattr(fused, "weight_view", spy)
        stays, moves, pairs = _segments_and_pairs(fitted, processed[:2])
        with inference_dtype("float32"):
            fitted.autoencoder.encode_trajectories(stays, moves, pairs)
        for op in (fitted.autoencoder.comp_sp2, fitted.autoencoder.comp_mp2):
            for name, param in op.named_parameters():
                assert requested.get(id(param)) == {np.dtype(np.float32)}, \
                    name

    def test_phase2_rows_are_one_per_start_stay_point(self, monkeypatch):
        """Phase 2 is one stacked LSTM pass whose stay and move slices
        each get sum(n_t - 1) rows, inference and fine-tuning alike;
        per-candidate phase 2 would be sum(n_t(n_t-1)/2).
        """
        rows: list[list[int]] = []
        real = CompressionOperator.prefixes_together

        def spy(operators, runs, *args):
            rows.append([x.shape[0] for x in runs])
            return real(operators, runs, *args)

        monkeypatch.setattr(CompressionOperator, "prefixes_together",
                            staticmethod(spy))
        rng = np.random.default_rng(4)
        counts = (3, 8, 14)
        stays = [[rng.normal(size=(int(rng.integers(1, 5)), 4))
                  for _ in range(n)] for n in counts]
        moves = [[rng.normal(size=(int(rng.integers(1, 5)), 4))
                  for _ in range(n - 1)] for n in counts]
        pairs = [[(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
                 for n in counts]
        model = HierarchicalAutoencoder(
            EncoderConfig(feature_dim=4, hidden_size=4))
        model.encode_trajectories(stays, moves, pairs)
        assert rows == [[sum(n - 1 for n in counts)] * 2]
        rows.clear()
        model.encode_trajectory_tensor(stays[2], moves[2], pairs[2]).sum() \
            .backward()
        assert rows == [[counts[2] - 1] * 2]


@pytest.fixture(scope="module")
def end_task():
    """``tiny`` LEAD fitted on 60 days; 30 held-out days of a new seed."""
    world = SyntheticWorld(WorldConfig(seed=7))
    train, held = (generate_dataset(DatasetConfig(
        num_trajectories=days, num_trucks=days // 3, seed=seed,
        world=world.config), world=world).samples
        for days, seed in ((60, 1), (30, 2)))
    lead = LEAD(world.pois, get_experiment_config("tiny").lead)
    lead.fit(train)
    results = lead.detect_batch([s.trajectory for s in held])
    return lead, held, results


class TestEndTask:
    def test_accuracy_at_least_twice_chance(self, end_task):
        _, held, results = end_task
        hits = chance = labelled = 0
        for sample, result in zip(held, results):
            if result is None:
                continue
            pair = sample.label.to_ordinal_pair(result.processed.stay_points)
            if pair is None:
                continue
            labelled += 1
            hits += result.pair == pair
            chance += 1.0 / result.processed.num_candidates
        assert labelled >= 20
        assert hits >= 2.0 * chance

    def test_verdicts_match_per_candidate_oracle(self, end_task):
        lead, _, results = end_task
        answered = [r for r in results if r is not None]
        assert len(answered) >= 20
        for result in answered:
            assert result.provenance.tier == "both"
            oracle = group_distribution(lead, result.processed,
                                        per_candidate=True)
            assert result.processed.candidates[
                int(np.argmax(oracle))].pair == result.pair

    def test_float32_agrees_with_float64_on_every_day(self, end_task):
        """The parity gate checks a calibration slice; float32 inference
        must hold the verdict and the margin on the whole held-out set."""
        lead, _, results = end_task
        processed = [r.processed for r in results if r is not None]
        assert len(processed) >= 20
        with inference_dtype("float64"):
            reference = lead._predict_many(processed)
        with inference_dtype("float32"):
            candidate = lead._predict_many(processed)
        divergence = 0.0
        for item, ref, got in zip(processed, reference, candidate):
            assert item.candidates[int(np.argmax(got))].pair == \
                item.candidates[int(np.argmax(ref))].pair
            divergence = max(divergence, float(np.abs(ref - got).max()))
        assert divergence <= lead.config.precision_margin
