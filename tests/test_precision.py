"""Precision-tiered inference: dtype contexts, weight views, parity gates.

Covers the contracts of :mod:`repro.nn.precision` and their wiring
through the LEAD facade:

* a ``float64`` context is byte-identical to the pre-precision code,
  on both the fused kernels and the per-step tape oracle;
* float32 and float64 inference agree on verdicts for simulated fleets;
* cached weight views are invalidated by both parameter mutation paths
  (in-place optimizer steps, ``load_state_dict`` rebinds);
* the segment feature cache keeps per-dtype key spaces disjoint;
* detection provenance records the compute dtype, and a failing parity
  gate demotes to float64 with a degradation-style note;
* the precision context is thread-local;
* serialization persists float64 master weights regardless of the
  active context, and unknown recorded dtype policies are rejected.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (DatasetConfig, SyntheticWorld, WorldConfig,
                        generate_dataset)
from repro.detection import DetectorTrainingConfig
from repro.encoding import AutoencoderTrainingConfig
from repro.errors import ArtifactCorruptedError
from repro.io import write_manifest
from repro.nn import (Adam, Linear, Tensor, active_dtype,
                      active_dtype_name, clear_weight_views, inference_dtype,
                      no_grad, weight_view, weight_view_stats)
from repro.perf.cache import SegmentFeatureCache, segment_key
from repro.pipeline import LEAD, LEADConfig

from .oracles import tape_path


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
    world = SyntheticWorld(WorldConfig(seed=11))
    dataset = generate_dataset(
        DatasetConfig(num_trajectories=14, num_trucks=5, seed=11),
        world=world)
    return world, dataset


@pytest.fixture(scope="module")
def fitted(world_and_data):
    world, dataset = world_and_data
    lead = LEAD(world.pois, tiny_config())
    lead.fit(dataset.samples[:8])
    return lead, [s.trajectory for s in dataset.samples[8:]]


class TestContext:
    def test_default_is_float64(self):
        assert active_dtype_name() == "float64"
        assert active_dtype() == np.float64

    def test_context_sets_and_restores(self):
        with inference_dtype("float32"):
            assert active_dtype_name() == "float32"
            assert active_dtype() == np.float32
            with inference_dtype("float64"):
                assert active_dtype_name() == "float64"
            assert active_dtype_name() == "float32"
        assert active_dtype_name() == "float64"

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="unknown inference dtype"):
            with inference_dtype("bfloat16"):
                pass

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with inference_dtype("float32"):
                raise RuntimeError("boom")
        assert active_dtype_name() == "float64"

    def test_thread_isolation(self):
        """A float32 context in one thread is invisible to another."""
        inside = threading.Event()
        release = threading.Event()
        seen: dict[str, str] = {}

        def holder():
            with inference_dtype("float32"):
                seen["holder"] = active_dtype_name()
                inside.set()
                release.wait(timeout=10.0)

        def observer():
            inside.wait(timeout=10.0)
            seen["observer"] = active_dtype_name()
            release.set()

        threads = [threading.Thread(target=holder),
                   threading.Thread(target=observer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert seen == {"holder": "float32", "observer": "float64"}


class TestWeightViews:
    def test_float64_request_returns_backing_array(self):
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        assert weight_view(p, np.dtype(np.float64)) is p.data

    def test_view_is_cached_and_readonly(self):
        clear_weight_views()
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        view = weight_view(p, np.dtype(np.float32))
        assert view.dtype == np.float32
        assert not view.flags.writeable
        again = weight_view(p, np.dtype(np.float32))
        assert again is view
        stats = weight_view_stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_optimizer_step_invalidates(self):
        """In-place Adam updates must not serve stale casts."""
        layer = Linear(3, 2, np.random.default_rng(0))
        stale = weight_view(layer.weight, np.dtype(np.float32))
        optimizer = Adam(layer.parameters(), lr=0.5)
        layer.weight.grad = np.ones_like(layer.weight.data)
        layer.bias.grad = np.ones_like(layer.bias.data)
        optimizer.step()
        fresh = weight_view(layer.weight, np.dtype(np.float32))
        assert fresh is not stale
        np.testing.assert_array_equal(
            fresh, layer.weight.data.astype(np.float32))

    def test_load_state_dict_invalidates(self):
        source = Linear(3, 2, np.random.default_rng(1))
        target = Linear(3, 2, np.random.default_rng(2))
        stale = weight_view(target.weight, np.dtype(np.float32))
        target.load_state_dict(source.state_dict())
        fresh = weight_view(target.weight, np.dtype(np.float32))
        assert fresh is not stale
        np.testing.assert_array_equal(
            fresh, source.weight.data.astype(np.float32))

    def test_thread_safety_under_eviction(self, monkeypatch):
        """Concurrent lookups with a tiny LRU never corrupt the cache.

        Regression: get/move_to_end/popitem used to interleave without a
        lock, so one thread could evict a key between another thread's
        get() and move_to_end(), raising KeyError.
        """
        from repro.nn import precision
        clear_weight_views()
        monkeypatch.setattr(precision, "_VIEW_CACHE_MAX", 8)
        params = [Tensor(np.full((4, 4), float(i)), requires_grad=True)
                  for i in range(32)]
        errors: list[Exception] = []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    p = params[int(rng.integers(len(params)))]
                    view = weight_view(p, np.dtype(np.float32))
                    assert view.dtype == np.float32
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        clear_weight_views()


class TestFloat64BitIdentity:
    """An explicit float64 context is the pre-precision code, exactly."""

    def test_linear_fused_vs_tape(self):
        layer = Linear(4, 3, np.random.default_rng(3))
        x = Tensor(np.random.default_rng(4).normal(size=(5, 4)))
        with no_grad():
            fused_out = layer(x).numpy()
            with tape_path():
                tape_out = layer(x).numpy()
            with inference_dtype("float64"):
                context_out = layer(x).numpy()
        np.testing.assert_array_equal(fused_out, tape_out)
        np.testing.assert_array_equal(fused_out, context_out)

    def test_detect_matches_under_explicit_float64(self, fitted):
        lead, trajectories = fitted
        baseline = lead.detect(trajectories[0])
        with inference_dtype("float64"):
            inside = lead.detect(trajectories[0])
        assert baseline.pair == inside.pair
        np.testing.assert_array_equal(baseline.distribution,
                                      inside.distribution)
        assert baseline.provenance.compute_dtype == "float64"


class TestTrainingStaysFloat64:
    """float32 inputs never leak reduced precision into training."""

    def test_float32_input_coerced_while_grads_live(self):
        x32 = np.ones((2, 3), dtype=np.float32)
        assert Tensor(x32).data.dtype == np.float64
        with inference_dtype("float32"):
            # Gradients are still enabled: the float32 context must not
            # downgrade training inputs.
            assert Tensor(x32).data.dtype == np.float64
            with no_grad():
                assert Tensor(x32).data.dtype == np.float32
        with no_grad():
            # No float32 context: no-grad alone does not opt in.
            assert Tensor(x32).data.dtype == np.float64

    def test_float32_operand_coerced_in_training_ops(self):
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        x32 = np.ones((2, 3), dtype=np.float32)
        out = Tensor(x32) @ w
        assert out.data.dtype == np.float64
        out.sum().backward()
        assert w.grad is not None and w.grad.dtype == np.float64


class TestVerdictAgreement:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_fleet_verdicts_agree(self, fitted, seed):
        """float32 and float64 argmax verdicts agree on simulated fleets."""
        lead, _ = fitted
        world = SyntheticWorld(WorldConfig(seed=seed))
        dataset = generate_dataset(
            DatasetConfig(num_trajectories=3, num_trucks=2, seed=seed),
            world=world)
        processed = []
        for sample in dataset.samples:
            item = lead.processor.process(sample.trajectory)
            if item is not None:
                processed.append(item)
        if not processed:
            return
        with inference_dtype("float64"):
            reference = lead._predict_many(processed)
        with inference_dtype("float32"):
            candidate = lead._predict_many(processed)
        for ref, got in zip(reference, candidate):
            assert int(np.argmax(ref)) == int(np.argmax(got))
            assert float(np.abs(ref - got).max()) < 1e-3


class TestCacheDtypeIsolation:
    def test_disjoint_key_spaces(self, fitted):
        lead, trajectories = fitted
        assert lead.feature_cache is not None
        lead.feature_cache.clear()
        processed = lead.processor.process(trajectories[0])
        segment = next(iter(processed.candidates[0].segments()))
        f64 = lead.featurizer.segment_features(segment)
        assert f64.dtype == np.float64
        with inference_dtype("float32"):
            f32 = lead.featurizer.segment_features(segment)
        assert f32.dtype == np.float32
        counts = lead.feature_cache.dtype_key_counts()
        assert counts.get("float64", 0) >= 1
        assert counts.get("float32", 0) >= 1
        np.testing.assert_allclose(f32, f64.astype(np.float32))

    def test_cache_never_serves_across_dtypes(self):
        cache = SegmentFeatureCache(maxsize=16)

        class FakeSegment:
            start, end = 0, 3

        segment = FakeSegment()
        rows = np.arange(12.0).reshape(4, 3)
        key64 = segment_key(segment, rows, b"ctx", "float64")
        key32 = segment_key(segment, rows, b"ctx", "float32")
        value64 = np.zeros((2, 2))
        cache.put(key64, value64)
        assert cache.get(key32) is None
        assert cache.get(key64) is value64
        cache.put(key32, value64.astype(np.float32))
        assert cache.dtype_key_counts() == {"float64": 1, "float32": 1}


class TestPolicyAndProvenance:
    def test_float32_policy_records_dtype(self, world_and_data, fitted):
        world, dataset = world_and_data
        _, trajectories = fitted
        lead = LEAD(world.pois, tiny_config(inference_dtype="float32"))
        lead.fit(dataset.samples[:8])
        results = [r for r in lead.detect_batch(trajectories)
                   if r is not None]
        assert results
        report = lead.parity_report
        assert report is not None and report["passed"]
        for result in results:
            assert result.provenance.compute_dtype == "float32"
        # Strict eval paths stay at the ambient (float64) dtype.
        processed = lead.processor.process(trajectories[0])
        strict = lead.detect_processed(processed)
        assert strict.provenance.compute_dtype == "float64"

    def test_failed_gate_falls_back_with_note(self, world_and_data, fitted):
        world, dataset = world_and_data
        _, trajectories = fitted
        # A margin below float32 resolution forces the divergence check
        # to fail, exercising the demotion path end to end.
        lead = LEAD(world.pois, tiny_config(inference_dtype="float32",
                                            precision_margin=1e-12))
        lead.fit(dataset.samples[:8])
        results = [r for r in lead.detect_batch(trajectories)
                   if r is not None]
        assert results
        assert lead.parity_report is not None
        assert not lead.parity_report["passed"]
        for result in results:
            assert result.provenance.compute_dtype == "float64"
            assert any("fell back to float64" in note
                       for note in result.provenance.notes)

    def test_float64_policy_never_gates(self, fitted):
        lead, trajectories = fitted
        result = lead.detect(trajectories[0])
        assert result.provenance.compute_dtype == "float64"
        assert not any("precision" in note
                       for note in result.provenance.notes)

    def test_invalid_policy_rejected(self):
        for policy in ("float16", "auto"):
            with pytest.raises(ValueError, match="inference_dtype"):
                tiny_config(inference_dtype=policy)

    def test_gate_degrades_when_detector_missing(self, world_and_data,
                                                 fitted, tmp_path):
        """A degraded model must not crash the lazy parity gate.

        Regression: with a float32 policy and a detector missing after
        load, the gate's batched forward raised DetectorUnavailableError
        out of ``detect`` instead of pinning float64 and letting the
        tier chain answer.
        """
        world, _ = world_and_data
        lead, trajectories = fitted
        directory = lead.save(tmp_path / "model")
        degraded = LEAD(world.pois, tiny_config(inference_dtype="float32"))
        degraded.load(directory)
        degraded.forward_detector = None
        result = degraded.detect(trajectories[0])
        assert result is not None
        assert result.provenance.compute_dtype == "float64"
        assert result.provenance.tier in ("backward-only", "heuristic")
        assert any("parity gate could not run" in note
                   for note in result.provenance.notes)
        report = degraded.parity_report
        assert report is not None and not report["passed"]
        assert "error" in report

    def test_weight_swap_resets_committed_gate(self, world_and_data,
                                               fitted, tmp_path):
        """fit()/load() invalidate a previously committed precision
        decision, so stale parity passes never survive a weight swap."""
        world, _ = world_and_data
        lead, trajectories = fitted
        directory = lead.save(tmp_path / "model")
        fresh = LEAD(world.pois, tiny_config(inference_dtype="float32"))
        fresh.load(directory)
        assert fresh.parity_report is None
        result = fresh.detect(trajectories[0])
        assert result is not None
        assert fresh.parity_report is not None  # lazy gate committed
        if fresh.parity_report["passed"]:
            # Committed from a single-trajectory slice: the thin
            # calibration is flagged in the provenance.
            assert any("small calibration" in note
                       for note in result.provenance.notes)
        fresh.load(directory)
        assert fresh.parity_report is None
        assert fresh._effective_dtype is None


class TestSerialization:
    def test_masters_stay_float64_under_float32_context(self, fitted,
                                                        tmp_path):
        lead, _ = fitted
        with inference_dtype("float32"):
            lead.save(tmp_path / "model")
        for name, module in lead._detector_modules().items():
            for key, value in module.state_dict().items():
                assert value.dtype == np.float64, (name, key)
        with np.load(tmp_path / "model" / "autoencoder.npz") as archive:
            assert all(archive[name].dtype == np.float64
                       for name in archive.files)

    def test_roundtrip_bit_identical_regardless_of_context(
            self, world_and_data, fitted, tmp_path):
        world, _ = world_and_data
        lead, trajectories = fitted
        baseline = lead.detect(trajectories[0])
        with inference_dtype("float32"):
            lead.save(tmp_path / "model")
        fresh = LEAD(world.pois, tiny_config())
        with inference_dtype("float32"):
            fresh.load(tmp_path / "model")
        restored = fresh.detect(trajectories[0])
        assert restored.pair == baseline.pair
        np.testing.assert_array_equal(restored.distribution,
                                      baseline.distribution)

    def test_manifest_records_policy(self, world_and_data, tmp_path):
        world, dataset = world_and_data
        lead = LEAD(world.pois, tiny_config(inference_dtype="float32"))
        lead.fit(dataset.samples[:8])
        lead.save(tmp_path / "model")
        import json
        manifest = json.loads(
            (tmp_path / "model" / "manifest.json").read_text())
        assert manifest["meta"]["dtype_policy"] == "float32"

    def test_unknown_recorded_policy_rejected(self, world_and_data, fitted,
                                              tmp_path):
        world, _ = world_and_data
        lead, _ = fitted
        directory = lead.save(tmp_path / "model")
        files = [p.name for p in directory.iterdir()
                 if p.name != "manifest.json"]
        for policy in ("bfloat16", "auto"):
            write_manifest(directory, files, kind="lead-model",
                           meta={"dtype_policy": policy})
            fresh = LEAD(world.pois, tiny_config())
            with pytest.raises(ArtifactCorruptedError,
                               match="unknown recorded dtype policy"):
                fresh.load(directory)

    def test_load_runs_gate_on_calibration(self, world_and_data, fitted,
                                           tmp_path):
        world, _ = world_and_data
        lead, trajectories = fitted
        directory = lead.save(tmp_path / "model")
        fresh = LEAD(world.pois, tiny_config(inference_dtype="float32"))
        calibration = [p for p in (fresh.processor.process(t)
                                   for t in trajectories)
                       if p is not None]
        fresh.load(directory, calibration=calibration)
        assert fresh.parity_report is not None
        assert fresh.parity_report["num_calibration"] == len(calibration)
