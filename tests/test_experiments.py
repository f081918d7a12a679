"""Tests for the experiment harness and artifact cache (tiny scale)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ArtifactCorruptedError
from repro.experiments import Experiment, get_experiment_config


@pytest.fixture(scope="module")
def tiny_experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    import os
    os.environ["REPRO_ARTIFACTS"] = str(root)
    try:
        yield Experiment(get_experiment_config("tiny"))
    finally:
        os.environ.pop("REPRO_ARTIFACTS", None)


class TestConfig:
    def test_scales_exist(self):
        for scale in ("tiny", "small", "default"):
            config = get_experiment_config(scale)
            assert config.name == scale

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            get_experiment_config("galactic")

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert get_experiment_config().name == "small"


class TestExperiment:
    def test_dataset_cached_and_deterministic(self, tiny_experiment):
        first = tiny_experiment.dataset
        path = tiny_experiment.cache / "dataset.json.gz"
        assert path.exists()
        again = Experiment(get_experiment_config("tiny"))
        np.testing.assert_allclose(first[0].trajectory.lats,
                                   again.dataset[0].trajectory.lats)

    def test_splits_are_truck_disjoint(self, tiny_experiment):
        train, val, test = tiny_experiment.splits
        assert not (set(train.truck_ids) & set(test.truck_ids))
        assert len(train) + len(val) + len(test) == len(
            tiny_experiment.dataset)

    def test_lead_trained_and_cached(self, tiny_experiment):
        lead = tiny_experiment.lead_variant("LEAD")
        directory = tiny_experiment.cache / "lead" / "LEAD"
        assert (directory / "state.json").exists()
        assert (directory / "autoencoder_history.json").exists()
        # A fresh Experiment must load, not retrain.
        again = Experiment(get_experiment_config("tiny"))
        reloaded = again.lead_variant("LEAD")
        test_set = tiny_experiment.test_set()
        if test_set:
            p = test_set[0][0]
            assert lead.detect_processed(p).pair == \
                reloaded.detect_processed(p).pair

    def test_nofor_nobac_share_lead(self, tiny_experiment):
        lead = tiny_experiment.lead_variant("LEAD")
        assert tiny_experiment.lead_variant("LEAD-NoFor") is lead
        assert tiny_experiment.lead_variant("LEAD-NoBac") is lead

    def test_records_cached(self, tiny_experiment):
        records = tiny_experiment.method_records("SP-R")
        path = tiny_experiment.cache / "records" / "SP-R.json"
        assert path.exists()
        again = tiny_experiment.method_records("SP-R")
        assert [r.detected_pair for r in records] == \
            [r.detected_pair for r in again]

    def test_table3_methods(self, tiny_experiment):
        table = tiny_experiment.table3()
        assert set(table) == {"SP-R", "SP-GRU", "SP-LSTM", "LEAD"}
        assert all(table.values())

    def test_fig9_and_fig10_series(self, tiny_experiment):
        fig9 = tiny_experiment.fig9()
        assert set(fig9) == {"HA in LEAD", "HA in LEAD-NoSel",
                             "HA in LEAD-NoHie"}
        assert all(len(curve) >= 1 for curve in fig9.values())
        fig10 = tiny_experiment.fig10()
        assert set(fig10) == {"forward-detector", "backward-detector"}

    def test_table4_methods(self, tiny_experiment):
        table = tiny_experiment.table4()
        assert set(table) == {"LEAD", "LEAD-NoPoi", "LEAD-NoSel",
                              "LEAD-NoHie", "LEAD-NoGro", "LEAD-NoFor",
                              "LEAD-NoBac"}


class TestCorruptionPolicy:
    """Damaged cache artifacts: loud by default, self-healing on request.

    Runs last in this module — it corrupts the shared cache and then
    heals it, so earlier cached-artifact tests see a pristine state.
    """

    @staticmethod
    def _flip_byte(path):
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_corrupt_weights_raise_then_retrain(self, tiny_experiment):
        tiny_experiment.lead_variant("LEAD")  # ensure trained + cached
        self._flip_byte(
            tiny_experiment.cache / "lead" / "LEAD" / "autoencoder.npz")
        strict = Experiment(get_experiment_config("tiny"))
        with pytest.raises(ArtifactCorruptedError):
            strict.lead_variant("LEAD")
        healing = Experiment(get_experiment_config("tiny"),
                             retrain_if_corrupt=True)
        healed = healing.lead_variant("LEAD")
        test_set = tiny_experiment.test_set()
        if test_set:
            assert healed.detect_processed(test_set[0][0]).pair
        # The cache is valid again: a fresh strict Experiment just loads.
        Experiment(get_experiment_config("tiny")).lead_variant("LEAD")

    def test_corrupt_sp_gru_weights_raise_then_retrain(self,
                                                      tiny_experiment):
        """SP-GRU's cached weights follow LEAD's rule, not a silent
        rewrite."""
        tiny_experiment.sp_nn("gru")  # ensure trained + cached
        path = tiny_experiment.cache / "baselines" / "sp_gru.npz"
        self._flip_byte(path)
        strict = Experiment(get_experiment_config("tiny"))
        with pytest.raises(ArtifactCorruptedError) as excinfo:
            strict.sp_nn("gru")
        assert excinfo.value.path.name == "sp_gru.npz"
        healing = Experiment(get_experiment_config("tiny"),
                             retrain_if_corrupt=True)
        healing.sp_nn("gru")
        # The cache is valid again: a fresh strict Experiment just loads.
        Experiment(get_experiment_config("tiny")).sp_nn("gru")

    def test_corrupt_records_are_regenerated(self, tiny_experiment):
        first = tiny_experiment.method_records("SP-R")
        path = tiny_experiment.cache / "records" / "SP-R.json"
        path.write_text("{definitely not json")
        again = tiny_experiment.method_records("SP-R")
        assert [r.detected_pair for r in again] == \
            [r.detected_pair for r in first]
