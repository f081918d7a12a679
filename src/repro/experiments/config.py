"""Experiment scales and the artifact cache location.

Every benchmark regenerates a table/figure from trained artifacts; training
is expensive on one CPU core, so artifacts are cached on disk, keyed by the
experiment scale.  The scale is selected with the ``REPRO_SCALE``
environment variable:

* ``default`` — the reported configuration (tens of minutes to train).
* ``small``   — minutes; orderings usually hold but noisier.
* ``tiny``    — seconds; for smoke tests only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from ..data import DatasetConfig, SimulatorConfig, WorldConfig
from ..detection import DetectorTrainingConfig
from ..encoding import AutoencoderTrainingConfig
from ..pipeline import LEADConfig

__all__ = ["ExperimentConfig", "get_experiment_config", "artifact_root"]


def artifact_root() -> Path:
    """Directory holding cached datasets, weights, and records."""
    override = os.environ.get("REPRO_ARTIFACTS")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / ".artifacts"


@dataclass
class ExperimentConfig:
    """Everything a full experiment needs, at one scale."""

    name: str
    dataset: DatasetConfig
    lead: LEADConfig
    sp_nn_epochs: int = 10
    seed: int = 7

    @property
    def cache_dir(self) -> Path:
        return artifact_root() / self.name


def _default_scale() -> ExperimentConfig:
    dataset = DatasetConfig(num_trajectories=420, num_trucks=185, seed=7,
                            world=WorldConfig(seed=7),
                            sim=SimulatorConfig())
    lead = LEADConfig(
        encoder_training=AutoencoderTrainingConfig(
            epochs=5, learning_rate=3e-3, batch_size=16, patience=3,
            max_samples_per_epoch=1200, seed=7),
        detector_training=DetectorTrainingConfig(
            epochs=16, learning_rate=3e-3, batch_size=8, patience=4, seed=7),
        max_autoencoder_samples=None,
        seed=7)
    return ExperimentConfig("default", dataset, lead, sp_nn_epochs=10)


def _small_scale() -> ExperimentConfig:
    dataset = DatasetConfig(num_trajectories=110, num_trucks=48, seed=7,
                            world=WorldConfig(seed=7),
                            sim=SimulatorConfig())
    lead = LEADConfig(
        encoder_training=AutoencoderTrainingConfig(
            epochs=6, learning_rate=3e-3, batch_size=16, patience=3,
            max_samples_per_epoch=600, seed=7),
        detector_training=DetectorTrainingConfig(
            epochs=14, learning_rate=3e-3, batch_size=8, patience=5, seed=7),
        max_autoencoder_samples=None,
        seed=7)
    return ExperimentConfig("small", dataset, lead, sp_nn_epochs=6)


def _tiny_scale() -> ExperimentConfig:
    dataset = DatasetConfig(num_trajectories=18, num_trucks=8, seed=7,
                            world=WorldConfig(seed=7),
                            sim=SimulatorConfig())
    lead = LEADConfig(
        encoder_training=AutoencoderTrainingConfig(
            epochs=2, learning_rate=3e-3, batch_size=8, patience=3,
            max_samples_per_epoch=40, seed=7),
        detector_training=DetectorTrainingConfig(
            epochs=2, learning_rate=3e-3, batch_size=4, patience=4, seed=7),
        max_autoencoder_samples=80,
        seed=7)
    return ExperimentConfig("tiny", dataset, lead, sp_nn_epochs=2)


_SCALES = {
    "default": _default_scale,
    "small": _small_scale,
    "tiny": _tiny_scale,
}


def get_experiment_config(scale: str | None = None) -> ExperimentConfig:
    """The experiment configuration for a scale (env: ``REPRO_SCALE``)."""
    scale = scale or os.environ.get("REPRO_SCALE", "default")
    try:
        return _SCALES[scale]()
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(_SCALES)}") from None
