"""Resilience tests: atomic I/O, checkpoints, kill-and-resume, degradation.

The fault model exercised here, in increasing severity:

* torn / flipped-byte / truncated artifact files (disk or copy damage);
* a training process killed between epochs (OOM killer, preemption);
* hostile online input (NaN coordinates, out-of-order fixes);
* missing components at inference time (a detector file deleted).

Each fault must surface as a typed error or a provenance-tagged
degraded answer — never a raw ``zipfile``/``json`` traceback and never
a silent wrong result.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data import (DatasetConfig, SyntheticWorld, WorldConfig,
                        generate_dataset)
from repro.detection import DetectorTrainingConfig
from repro.encoding import AutoencoderTrainingConfig
from repro.errors import (ArtifactCorruptedError, CheckpointCorruptedError,
                          NotFittedError)
from repro.io import (atomic_write_json, load_checked_json, load_checked_npz,
                      verify_manifest, write_manifest)
from repro.model import Trajectory
from repro.nn import (Adam, CheckpointManager, EarlyStopping, Linear, Tensor,
                      TrainingHistory, load_module, module_path, mse_loss,
                      save_module)
from repro.pipeline import LEAD, LEADConfig

from .test_robustness import inject_nonfinite

METERS_PER_DEG = 111_000.0


# ----------------------------------------------------------------------
# Shared fixtures
# ----------------------------------------------------------------------
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
    lead.fit(dataset.samples[:8])
    return lead, dataset


def flip_byte(path, offset: int = None) -> None:
    """Corrupt one byte of a file in place (simulated bit rot)."""
    data = bytearray(path.read_bytes())
    i = len(data) // 2 if offset is None else offset
    data[i] ^= 0xFF
    path.write_bytes(bytes(data))


# ----------------------------------------------------------------------
# Atomic I/O and checksummed loads
# ----------------------------------------------------------------------
class TestAtomicIO:
    def test_json_round_trip_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"answer": 42})
        assert load_checked_json(path) == {"answer": 42}
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"version": 1})
        atomic_write_json(path, {"version": 2})
        assert load_checked_json(path) == {"version": 2}

    def test_truncated_json_is_typed_corruption(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"long": list(range(100))})
        path.write_bytes(path.read_bytes()[:10])  # torn write elsewhere
        with pytest.raises(ArtifactCorruptedError) as excinfo:
            load_checked_json(path)
        assert excinfo.value.path == path

    def test_flipped_byte_in_npz_is_typed_corruption(self, tmp_path):
        path = tmp_path / "weights.npz"
        module = Linear(4, 3)
        save_module(module, path)
        flip_byte(path)
        with pytest.raises(ArtifactCorruptedError):
            load_checked_npz(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checked_json(tmp_path / "nope.json")


class TestManifest:
    def _directory(self, tmp_path):
        atomic_write_json(tmp_path / "a.json", {"x": 1})
        (tmp_path / "b.bin").write_bytes(b"\x00" * 64)
        write_manifest(tmp_path, ["a.json", "b.bin"], kind="test-artifacts")
        return tmp_path

    def test_verify_accepts_intact_directory(self, tmp_path):
        manifest = verify_manifest(self._directory(tmp_path))
        assert set(manifest.files) == {"a.json", "b.bin"}
        assert manifest.kind == "test-artifacts"

    def test_verify_names_the_damaged_file(self, tmp_path):
        directory = self._directory(tmp_path)
        flip_byte(directory / "b.bin")
        with pytest.raises(ArtifactCorruptedError) as excinfo:
            verify_manifest(directory)
        assert "b.bin" in str(excinfo.value)

    def test_verify_detects_deleted_file(self, tmp_path):
        directory = self._directory(tmp_path)
        (directory / "a.json").unlink()
        with pytest.raises(ArtifactCorruptedError):
            verify_manifest(directory)

    def test_absent_manifest_is_legacy_unless_required(self, tmp_path):
        assert verify_manifest(tmp_path) is None
        with pytest.raises(ArtifactCorruptedError):
            verify_manifest(tmp_path, required=True)


class TestModuleSerialization:
    def test_save_returns_the_real_path(self, tmp_path):
        module = Linear(4, 3)
        written = save_module(module, tmp_path / "weights")  # no suffix
        assert written == module_path(tmp_path / "weights")
        assert written.exists()

    def test_load_accepts_suffixless_path(self, tmp_path):
        module = Linear(4, 3)
        save_module(module, tmp_path / "weights")
        clone = Linear(4, 3)
        load_module(clone, tmp_path / "weights")
        for key, value in module.state_dict().items():
            np.testing.assert_array_equal(clone.state_dict()[key], value)

    def test_missing_file_names_both_candidates(self, tmp_path):
        with pytest.raises(FileNotFoundError) as excinfo:
            load_module(Linear(4, 3), tmp_path / "weights")
        message = str(excinfo.value)
        assert "weights" in message and "weights.npz" in message

    def test_mismatched_module_is_typed_corruption(self, tmp_path):
        save_module(Linear(4, 3), tmp_path / "weights.npz")
        with pytest.raises(ArtifactCorruptedError):
            load_module(Linear(5, 3), tmp_path / "weights.npz")


# ----------------------------------------------------------------------
# Checkpoint manager
# ----------------------------------------------------------------------
class TestCheckpointManager:
    def _populated(self, tmp_path):
        rng = np.random.default_rng(3)
        module = Linear(4, 3, rng=rng)
        optimizer = Adam(module.parameters(), lr=1e-3)
        # Take a real step so the optimizer has moment buffers.
        loss = mse_loss(module(Tensor(np.ones((2, 4)))), np.zeros((2, 3)))
        loss.backward()
        optimizer.step()
        stopper = EarlyStopping(patience=2)
        stopper.update(1.0)
        stopper.update(2.0)
        history = TrainingHistory("unit", [1.0, 2.0])
        manager = CheckpointManager(tmp_path, "unit")
        manager.save(epoch=1, modules={"linear": module},
                     optimizer=optimizer, rng=rng, stopper=stopper,
                     histories=[history])
        return manager, module, optimizer, rng, stopper

    def test_round_trip_restores_everything(self, tmp_path):
        manager, module, optimizer, rng, stopper = self._populated(tmp_path)
        state = manager.load()
        assert state.epoch == 1 and state.next_epoch == 2
        assert state.histories[0].epoch_losses == [1.0, 2.0]

        clone = Linear(4, 3)
        clone_opt = Adam(clone.parameters(), lr=1e-3)
        clone_rng = np.random.default_rng(999)
        clone_stop = EarlyStopping(patience=2)
        resume_epoch = manager.restore(state, modules={"linear": clone},
                                       optimizer=clone_opt, rng=clone_rng,
                                       stopper=clone_stop)
        assert resume_epoch == 2
        for key, value in module.state_dict().items():
            np.testing.assert_array_equal(clone.state_dict()[key], value)
        # RNG streams must continue identically after restore.
        np.testing.assert_array_equal(clone_rng.integers(0, 100, 16),
                                      rng.integers(0, 100, 16))
        assert clone_stop.state_dict() == stopper.state_dict()

    def test_empty_slot_loads_none(self, tmp_path):
        assert CheckpointManager(tmp_path, "empty").load() is None

    def test_flipped_byte_fails_checksum(self, tmp_path):
        manager, *_ = self._populated(tmp_path)
        flip_byte(manager.arrays_path)
        with pytest.raises(CheckpointCorruptedError) as excinfo:
            manager.load()
        assert "checksum mismatch" in excinfo.value.reason

    def test_truncated_metadata_is_corrupt(self, tmp_path):
        manager, *_ = self._populated(tmp_path)
        manager.meta_path.write_text("{\"epoch\":")
        with pytest.raises(CheckpointCorruptedError):
            manager.load()

    @pytest.mark.parametrize("key", ["optimizer_scalars", "rng_state",
                                     "stopper"])
    def test_metadata_without_training_state_is_corrupt(self, tmp_path,
                                                         key):
        manager, *_ = self._populated(tmp_path)
        meta = load_checked_json(manager.meta_path)
        meta[key] = None
        atomic_write_json(manager.meta_path, meta)
        with pytest.raises(CheckpointCorruptedError, match="not a checkpoint"):
            manager.load()

    def test_restore_into_wrong_module_is_corrupt(self, tmp_path):
        manager, *_ = self._populated(tmp_path)
        state = manager.load()
        wrong = Linear(7, 3)
        with pytest.raises(CheckpointCorruptedError):
            manager.restore(state, modules={"linear": wrong},
                            optimizer=Adam(wrong.parameters()),
                            rng=np.random.default_rng(0),
                            stopper=EarlyStopping())

    def test_clear_removes_both_files(self, tmp_path):
        manager, *_ = self._populated(tmp_path)
        manager.clear()
        assert not manager.arrays_path.exists()
        assert not manager.meta_path.exists()


# ----------------------------------------------------------------------
# Kill-and-resume equivalence (the headline acceptance criterion)
# ----------------------------------------------------------------------
class SimulatedCrash(RuntimeError):
    """Stands in for SIGKILL: raised *after* a checkpoint save completes."""


def make_crashing_manager(crash_after: int):
    """A CheckpointManager that dies after ``crash_after`` total saves.

    The counter is shared across instances, so the crash can land inside
    either the autoencoder loop or the detector loop.
    """
    counter = {"saves": 0}

    class CrashingCheckpointManager(CheckpointManager):
        def save(self, **kwargs):
            super().save(**kwargs)
            counter["saves"] += 1
            if counter["saves"] >= crash_after:
                raise SimulatedCrash(
                    f"killed after {counter['saves']} checkpoint saves")

    return CrashingCheckpointManager


class TestKillAndResume:
    @pytest.mark.parametrize("crash_after", [1, 3])
    def test_resumed_fit_is_bit_for_bit_identical(self, tmp_path,
                                                  monkeypatch, crash_after,
                                                  tiny_world_and_data):
        """Kill training after N epoch saves; resuming must reproduce the
        uninterrupted run exactly — weights, histories, and detections.

        With 2 + 2 epochs, ``crash_after=1`` dies inside the autoencoder
        loop and ``crash_after=3`` inside the detector loop.
        """
        world, dataset = tiny_world_and_data
        samples = dataset.samples[:8]
        config = tiny_lead_config(
            encoder_training=AutoencoderTrainingConfig(
                epochs=2, max_samples_per_epoch=30, batch_size=8, seed=0),
            detector_training=DetectorTrainingConfig(
                epochs=2, batch_size=4, seed=0))

        # Reference: one uninterrupted run.
        reference = LEAD(world.pois, config)
        ref_report = reference.fit(samples,
                                   checkpoint_dir=tmp_path / "ref")

        # Interrupted run: crash mid-fit, then re-invoke the same command.
        import repro.pipeline.lead as lead_module
        monkeypatch.setattr(lead_module, "CheckpointManager",
                            make_crashing_manager(crash_after))
        crashed = LEAD(world.pois, config)
        with pytest.raises(SimulatedCrash):
            crashed.fit(samples, checkpoint_dir=tmp_path / "run")
        monkeypatch.undo()

        resumed = LEAD(world.pois, config)
        resumed_report = resumed.fit(samples,
                                     checkpoint_dir=tmp_path / "run")

        # Bit-for-bit identical weights across every trained module.
        for name, module in reference._detector_modules().items():
            twin = resumed._detector_modules()[name]
            for key, value in module.state_dict().items():
                np.testing.assert_array_equal(
                    twin.state_dict()[key], value,
                    err_msg=f"{name}/{key} diverged after resume")

        # Identical loss trajectories (epochs before AND after the kill).
        assert (resumed_report.autoencoder_history.epoch_losses
                == ref_report.autoencoder_history.epoch_losses)
        for ref_h, res_h in zip(ref_report.detector_histories,
                                resumed_report.detector_histories):
            assert res_h.epoch_losses == ref_h.epoch_losses

        # Identical answers on unseen data.
        holdout = dataset.samples[8].trajectory
        ref_result = reference.detect(holdout)
        res_result = resumed.detect(holdout)
        assert (ref_result is None) == (res_result is None)
        if ref_result is not None:
            assert res_result.pair == ref_result.pair
            np.testing.assert_array_equal(res_result.distribution,
                                          ref_result.distribution)

        # Completed fits clear their slots: nothing left to resume from.
        for name in ("autoencoder", "detectors"):
            assert not CheckpointManager(tmp_path / "run", name).exists()


# ----------------------------------------------------------------------
# Model persistence: corruption and lenient degradation
# ----------------------------------------------------------------------
class TestModelArtifacts:
    @pytest.fixture()
    def saved_model(self, tmp_path, fitted_lead):
        lead, _ = fitted_lead
        directory = tmp_path / "model"
        lead.save(directory)
        return directory

    def _fresh(self, fitted_lead) -> LEAD:
        lead, _ = fitted_lead
        return LEAD(lead.extractor.pois, tiny_lead_config())

    def test_save_writes_verified_manifest(self, saved_model):
        manifest = verify_manifest(saved_model, required=True)
        assert manifest.kind == "lead-model"
        assert {"autoencoder.npz", "forward.npz", "backward.npz",
                "state.json"} <= set(manifest.files)

    def test_flipped_byte_fails_strict_load(self, saved_model, fitted_lead):
        flip_byte(saved_model / "forward.npz")
        with pytest.raises(ArtifactCorruptedError):
            self._fresh(fitted_lead).load(saved_model)

    def test_deleted_detector_fails_strict_load(self, saved_model,
                                                fitted_lead):
        (saved_model / "forward.npz").unlink()
        with pytest.raises(ArtifactCorruptedError):
            self._fresh(fitted_lead).load(saved_model)

    def test_corrupted_normalizer_is_typed(self, saved_model, fitted_lead):
        manifest = verify_manifest(saved_model, required=True)
        atomic_write_json(saved_model / "state.json", {"normalizer": "junk"})
        # Re-sign the manifest so the normalizer parse itself is reached.
        write_manifest(saved_model, list(manifest.files), kind=manifest.kind,
                       meta=manifest.meta)
        with pytest.raises(ArtifactCorruptedError, match="normalizer"):
            self._fresh(fitted_lead).load(saved_model)


# ----------------------------------------------------------------------
# Graceful degradation of online detection
# ----------------------------------------------------------------------
class TestGracefulDegradation:
    def test_unfitted_detect_is_api_misuse(self, tiny_world_and_data):
        world, dataset = tiny_world_and_data
        lead = LEAD(world.pois, tiny_lead_config())
        with pytest.raises(NotFittedError):
            lead.detect(dataset.samples[0].trajectory)
        assert issubclass(NotFittedError, RuntimeError)  # legacy contract

    def test_clean_input_is_full_confidence(self, fitted_lead):
        lead, dataset = fitted_lead
        result = lead.detect(dataset.samples[8].trajectory)
        assert result is not None
        assert result.provenance.tier == "both"
        assert not result.provenance.degraded
        assert not result.provenance.sanitized

    def test_nan_fixes_are_sanitized_not_fatal(self, fitted_lead):
        lead, dataset = fitted_lead
        rng = np.random.default_rng(4)
        corrupted = inject_nonfinite(dataset.samples[8].trajectory,
                                     count=5, rng=rng)
        result = lead.detect(corrupted)
        assert result is not None
        assert result.provenance.sanitized
        assert any("non-finite" in note for note in result.provenance.notes)

    def test_all_nan_trajectory_returns_none(self, fitted_lead):
        lead, dataset = fitted_lead
        trajectory = dataset.samples[8].trajectory
        n = len(trajectory)
        hopeless = Trajectory(np.full(n, np.nan), np.full(n, np.nan),
                              trajectory.ts)
        assert lead.detect(hopeless) is None

    def _one_detector_down(self, fitted_lead, name: str):
        lead, _ = fitted_lead
        saved = getattr(lead, f"{name}_detector")
        setattr(lead, f"{name}_detector", None)
        return lead, saved

    @pytest.mark.parametrize("down,tier", [("forward", "backward-only"),
                                           ("backward", "forward-only")])
    def test_single_detector_tiers(self, fitted_lead, down, tier):
        lead, saved = self._one_detector_down(fitted_lead, down)
        try:
            result = lead.detect(fitted_lead[1].samples[8].trajectory)
            assert result is not None
            assert result.provenance.tier == tier
            assert result.provenance.degraded
            assert any("failed" in note for note in result.provenance.notes)
        finally:
            setattr(lead, f"{down}_detector", saved)

    def test_terminal_heuristic_tier(self, fitted_lead):
        lead, dataset = fitted_lead
        fwd, bwd = lead.forward_detector, lead.backward_detector
        lead.forward_detector = lead.backward_detector = None
        try:
            result = lead.detect(dataset.samples[8].trajectory)
            assert result is not None
            assert result.provenance.tier == "heuristic"
            assert result.pair == (1, result.processed.num_stay_points)
            # Every neural tier left a note on its way down.
            assert len(result.provenance.notes) == 3
        finally:
            lead.forward_detector, lead.backward_detector = fwd, bwd

    def test_strict_path_still_raises(self, fitted_lead):
        """The evaluation entry point must NOT silently degrade."""
        lead, dataset = fitted_lead
        processed = lead.processor.process(dataset.samples[8].trajectory)
        fwd = lead.forward_detector
        lead.forward_detector = None
        try:
            with pytest.raises(ValueError):  # DetectorUnavailableError
                lead.detect_processed(processed, "forward")
        finally:
            lead.forward_detector = fwd


class TestDetectNeverRaises:
    """Property: a fitted ``detect`` tolerates arbitrary hostile input."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(gaps=st.lists(st.floats(1.0, 900.0), min_size=2, max_size=40),
           seed=st.integers(0, 2**31 - 1),
           corrupt=st.floats(0.0, 0.6))
    def test_detect_returns_result_or_none(self, fitted_lead, gaps, seed,
                                           corrupt):
        lead, _ = fitted_lead
        rng = np.random.default_rng(seed)
        ts = np.concatenate([[0.0], np.cumsum(gaps)])
        lats = 31.9 + rng.normal(0, 2000 / METERS_PER_DEG, size=ts.size)
        lngs = 120.8 + rng.normal(0, 2000 / METERS_PER_DEG, size=ts.size)
        bad = int(corrupt * ts.size)
        if bad:
            idx = rng.choice(ts.size, size=bad, replace=False)
            lats[idx] = rng.choice([np.nan, np.inf, -np.inf, 1e6], size=bad)
        result = lead.detect(Trajectory(lats, lngs, ts))
        if result is not None:
            i, j = result.pair
            assert 1 <= i < j <= result.processed.num_stay_points
            assert np.isfinite(result.distribution).all()
            assert result.provenance.tier in {
                "both", "forward-only", "backward-only", "independent",
                "sp-r", "heuristic"}
