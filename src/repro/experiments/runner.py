"""Experiment runner: trains, caches, and evaluates every method.

Each function is idempotent — it loads cached artifacts when present and
trains/evaluates otherwise.  The benchmark files under ``benchmarks/`` are
thin wrappers over these functions.

Variant economics on one CPU core (see DESIGN.md):

* LEAD-NoFor / LEAD-NoBac need no training of their own — the paper trains
  the two detectors *separately*, so dropping one at inference time is the
  exact ablation;
* LEAD-NoGro reuses LEAD's normalizer and autoencoder and trains only the
  per-candidate MLP;
* LEAD-NoPoi / LEAD-NoSel / LEAD-NoHie are trained end to end.
"""

from __future__ import annotations

import shutil

from ..baselines import SPNNDetector, SPNNTrainingConfig, SPRDetector
from ..data import HCTDataset, SyntheticWorld, generate_dataset
from ..errors import ArtifactCorruptedError
from ..supervise import RetryPolicy
from ..eval import DetectionRecord, evaluate_detector, prepare_test_set
from ..features import ZScoreNormalizer
from ..nn import TrainingHistory, load_module, save_module
from ..pipeline import LEAD, variant_config
from ..processing import ProcessedTrajectory
from .artifacts import (load_histories, load_records, save_histories,
                        save_records)
from .config import ExperimentConfig, get_experiment_config

__all__ = ["Experiment", "get_experiment_config"]

#: Variants that require no extra training (see module docstring).
_INFERENCE_VARIANTS = {"LEAD-NoFor": "backward", "LEAD-NoBac": "forward"}


class Experiment:
    """Owns a world, a dataset split, and the artifact cache for a scale."""

    def __init__(self, config: ExperimentConfig | None = None,
                 retrain_if_corrupt: bool = False) -> None:
        self.config = config or get_experiment_config()
        #: Default policy when a cached artifact fails integrity checks:
        #: raise (False) or discard-and-retrain (True).
        self.retrain_if_corrupt = retrain_if_corrupt
        #: Transient-IO retry for every cached-artifact read (flaky NFS,
        #: interrupted syscalls); corruption is NOT retried — a bad hash
        #: is deterministic, so it surfaces immediately.
        self.io_retry = RetryPolicy(max_attempts=3, backoff_base_s=0.05)
        self.cache = self.config.cache_dir
        self.cache.mkdir(parents=True, exist_ok=True)
        self.world = SyntheticWorld(self.config.dataset.world)
        self._dataset: HCTDataset | None = None
        self._splits: tuple[HCTDataset, HCTDataset, HCTDataset] | None = None
        self._leads: dict[str, LEAD] = {}
        self._test_sets: dict[str, list] = {}

    # ------------------------------------------------------------------
    # Dataset
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> HCTDataset:
        if self._dataset is None:
            path = self.cache / "dataset.json.gz"
            if path.exists():
                try:
                    self._dataset = self.io_retry.call(HCTDataset.load,
                                                       path)
                except (OSError, ValueError, KeyError, EOFError) as exc:
                    raise ArtifactCorruptedError(
                        path, f"cached dataset unreadable: {exc}; delete "
                        "it to regenerate") from exc
            else:
                self._dataset = generate_dataset(self.config.dataset,
                                                 world=self.world)
                self._dataset.save(path)
        return self._dataset

    @property
    def splits(self) -> tuple[HCTDataset, HCTDataset, HCTDataset]:
        if self._splits is None:
            self._splits = self.dataset.split_by_truck((8, 1, 1),
                                                       seed=self.config.seed)
        return self._splits

    # ------------------------------------------------------------------
    # LEAD variants
    # ------------------------------------------------------------------
    def lead_variant(self, name: str = "LEAD", verbose: bool = False,
                     retrain_if_corrupt: bool | None = None) -> LEAD:
        """A trained LEAD variant, loading cached weights when available.

        Cached weights are checksum-verified; a damaged artifact raises
        :class:`ArtifactCorruptedError` naming the broken file, or — with
        ``retrain_if_corrupt`` — is discarded and retrained.  Training
        itself checkpoints every epoch under ``<cache>/checkpoints/``,
        so a crashed run retrains only the epochs it never finished.
        """
        if retrain_if_corrupt is None:
            retrain_if_corrupt = self.retrain_if_corrupt
        if name in _INFERENCE_VARIANTS:
            return self.lead_variant("LEAD", verbose=verbose,
                                     retrain_if_corrupt=retrain_if_corrupt)
        if name in self._leads:
            return self._leads[name]
        cfg = variant_config(name, self.config.lead)
        model = LEAD(self.world.pois, cfg)
        directory = self.cache / "lead" / name
        if (directory / "state.json").exists():
            try:
                self.io_retry.call(model.load, directory)
            except (ArtifactCorruptedError, FileNotFoundError):
                if not retrain_if_corrupt:
                    raise
                shutil.rmtree(directory, ignore_errors=True)
                model = LEAD(self.world.pois, cfg)  # discard partial
            else:
                self._leads[name] = model
                return model
        checkpoint_dir = self.cache / "checkpoints" / name
        train, _, _ = self.splits
        if name == "LEAD-NoGro":
            self._seed_nogro_from_lead(model, verbose)
            report = model.fit_detectors_only(train.samples, verbose=verbose,
                                              checkpoint_dir=checkpoint_dir)
        else:
            report = model.fit(train.samples, verbose=verbose,
                               checkpoint_dir=checkpoint_dir)
        model.save(directory)
        save_histories(directory / "autoencoder_history.json",
                       [report.autoencoder_history])
        save_histories(directory / "detector_histories.json",
                       report.detector_histories)
        self._leads[name] = model
        return model

    def _seed_nogro_from_lead(self, model: LEAD, verbose: bool) -> None:
        """Copy LEAD's normalizer + autoencoder into the NoGro variant."""
        base = self.lead_variant("LEAD", verbose=verbose)
        model.featurizer.normalizer = ZScoreNormalizer.from_dict(
            base.featurizer.normalizer.to_dict())
        model.autoencoder.load_state_dict(base.autoencoder.state_dict())

    def variant_histories(self, name: str, which: str
                          ) -> list[TrainingHistory]:
        """Cached training-loss histories of a trained variant.

        ``which`` is ``"autoencoder"`` or ``"detector"``.
        """
        self.lead_variant(name)  # ensure trained
        real_name = "LEAD" if name in _INFERENCE_VARIANTS else name
        path = self.cache / "lead" / real_name / f"{which}_histories.json"
        if which == "autoencoder":
            path = self.cache / "lead" / real_name / "autoencoder_history.json"
        return load_histories(path)

    # ------------------------------------------------------------------
    # Baselines
    # ------------------------------------------------------------------
    def baseline_training_pairs(self) -> list[tuple[ProcessedTrajectory,
                                                    tuple[int, int]]]:
        lead = self.lead_variant("LEAD")
        train, _, _ = self.splits
        return prepare_test_set(train.samples, lead.processor)

    def sp_r(self) -> SPRDetector:
        """The white-list baseline (cheap; rebuilt per run from labels)."""
        detector = SPRDetector()
        train, _, _ = self.splits
        lead = self.lead_variant("LEAD")
        pairs = []
        for sample in train.samples:
            processed = lead.processor.process_sample(sample)
            if processed is not None:
                pairs.append((processed, sample.label))
        detector.fit(pairs)
        return detector

    def sp_nn(self, cell: str, verbose: bool = False) -> SPNNDetector:
        """A trained SP-GRU or SP-LSTM baseline (cached weights).

        Cached weights follow :meth:`lead_variant`'s rule: a damaged
        file raises :class:`ArtifactCorruptedError` naming it, or — with
        ``retrain_if_corrupt`` — is discarded and retrained.
        """
        lead = self.lead_variant("LEAD")
        detector = SPNNDetector(
            cell, lead.featurizer,
            SPNNTrainingConfig(epochs=self.config.sp_nn_epochs,
                               seed=self.config.seed))
        path = self.cache / "baselines" / f"sp_{cell}.npz"
        if path.exists():
            try:
                self.io_retry.call(load_module, detector.classifier, path)
            except ArtifactCorruptedError:
                if not self.retrain_if_corrupt:
                    raise
                path.unlink(missing_ok=True)  # retrain below
            else:
                return detector
        history = detector.fit(self.baseline_training_pairs(),
                               verbose=verbose)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_module(detector.classifier, path)
        save_histories(path.with_suffix(".history.json"), [history])
        return detector

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def test_set(self) -> list[tuple[ProcessedTrajectory, tuple[int, int]]]:
        """The processed, labelled test set (validation + test trucks)."""
        key = "test"
        if key not in self._test_sets:
            lead = self.lead_variant("LEAD")
            _, val, test = self.splits
            self._test_sets[key] = prepare_test_set(
                list(val) + list(test), lead.processor)
        return self._test_sets[key]

    def method_records(self, method: str,
                       verbose: bool = False) -> list[DetectionRecord]:
        """Evaluation records of one method on the test set (cached)."""
        path = self.cache / "records" / f"{method}.json"
        if path.exists():
            try:
                return self.io_retry.call(load_records, path)
            except ArtifactCorruptedError:
                # Records are cheap to regenerate relative to training;
                # discard the damaged cache entry and re-evaluate.
                path.unlink(missing_ok=True)
        detect = self._detect_fn(method, verbose)
        records = evaluate_detector(detect, self.test_set())
        save_records(path, records)
        return records

    def _detect_fn(self, method: str, verbose: bool):
        if method == "SP-R":
            detector = self.sp_r()
            return detector.detect
        if method == "SP-GRU":
            return self.sp_nn("gru", verbose=verbose).detect
        if method == "SP-LSTM":
            return self.sp_nn("lstm", verbose=verbose).detect
        if method in _INFERENCE_VARIANTS:
            lead = self.lead_variant("LEAD", verbose=verbose)
            direction = _INFERENCE_VARIANTS[method]
            return lambda p: lead.detect_processed(p, direction).pair
        lead = self.lead_variant(method, verbose=verbose)
        return lambda p: lead.detect_processed(p).pair

    # ------------------------------------------------------------------
    # Paper artifacts
    # ------------------------------------------------------------------
    def table3(self, verbose: bool = False) -> dict[str, list[DetectionRecord]]:
        """Table III: baselines vs LEAD, accuracy by stay-point bucket."""
        return {m: self.method_records(m, verbose)
                for m in ("SP-R", "SP-GRU", "SP-LSTM", "LEAD")}

    def table4(self, verbose: bool = False) -> dict[str, list[DetectionRecord]]:
        """Table IV: LEAD vs its six ablation variants."""
        methods = ("LEAD-NoPoi", "LEAD-NoSel", "LEAD-NoHie", "LEAD-NoGro",
                   "LEAD-NoFor", "LEAD-NoBac", "LEAD")
        return {m: self.method_records(m, verbose) for m in methods}

    def fig8(self, verbose: bool = False) -> dict[str, list[DetectionRecord]]:
        """Fig. 8: inference time by bucket — same records as Table III."""
        return self.table3(verbose)

    def fig9(self, verbose: bool = False) -> dict[str, list[float]]:
        """Fig. 9: autoencoder MSE curves for LEAD / NoSel / NoHie."""
        out = {}
        for name in ("LEAD", "LEAD-NoSel", "LEAD-NoHie"):
            self.lead_variant(name, verbose=verbose)
            history = self.variant_histories(name, "autoencoder")[0]
            out[f"HA in {name}"] = history.epoch_losses
        return out

    def fig10(self, verbose: bool = False) -> dict[str, list[float]]:
        """Fig. 10: forward/backward detector KLD curves."""
        self.lead_variant("LEAD", verbose=verbose)
        histories = self.variant_histories("LEAD", "detector")
        return {h.name: h.epoch_losses for h in histories}
