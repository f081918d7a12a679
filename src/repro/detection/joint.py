"""Joint fine-tuning of the compressor and the detectors.

The paper freezes the compressor after self-supervised training and trains
the detectors on fixed c-vecs — feasible at its data/GPU scale (4,774
training trajectories, ~143k candidate f-seqs).  At this repository's
CPU scale the reconstruction pretext alone cannot make the 64-dim c-vec
discriminative enough, so after the same self-supervised pretraining we
continue to backpropagate the detectors' KLD losses *through the
compressor* (standard pretrain-then-fine-tune).  Every architectural
component and loss of the paper is unchanged; only the freeze is lifted.
See DESIGN.md §2 for the substitution record.  The epochs run through
the shared loop :func:`repro.nn.train_epochs`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..encoding import HierarchicalAutoencoder
from ..nn import (Adam, CheckpointManager, TrainingHistory, bce_loss,
                  concat, kld_loss, train_epochs)
from .detectors import GroupDetector, IndependentDetector, score_groups
from .labels import smooth_label
from .trainer import DetectorTrainingConfig

__all__ = ["TrajectorySpec", "JointDetectorTrainer"]


@dataclass(frozen=True)
class TrajectorySpec:
    """One training trajectory in segment form (encoder inputs + label)."""

    stay_segments: list[np.ndarray]
    move_segments: list[np.ndarray]
    pairs: list[tuple[int, int]]
    num_stay_points: int
    target_index: int

    def __post_init__(self) -> None:
        n = self.num_stay_points
        if len(self.stay_segments) != n or len(self.move_segments) != n - 1:
            raise ValueError("segment counts do not match stay point count")
        if len(self.pairs) != n * (n - 1) // 2:
            raise ValueError("pair count does not match stay point count")
        if not 0 <= self.target_index < len(self.pairs):
            raise ValueError("target index out of range")


class JointDetectorTrainer:
    """Trains detectors (and optionally the compressor) end to end.

    The only detector trainer: ``finetune_encoder=False`` keeps the
    compressor frozen (the paper's protocol), and ``independent`` trains
    the LEAD-NoGro MLP with per-candidate binary cross entropy.
    """

    def __init__(self, autoencoder: HierarchicalAutoencoder,
                 forward: GroupDetector | None,
                 backward: GroupDetector | None,
                 independent: IndependentDetector | None = None,
                 config: DetectorTrainingConfig | None = None,
                 finetune_encoder: bool = True) -> None:
        if independent is None and forward is None and backward is None:
            raise ValueError("no detector to train")
        self.autoencoder = autoencoder
        self.forward = forward
        self.backward = backward
        self.independent = independent
        self.config = config or DetectorTrainingConfig()
        self.finetune_encoder = finetune_encoder

    def _parameters(self):
        params = []
        for module in (self.forward, self.backward, self.independent):
            if module is not None:
                params.extend(module.parameters())
        if self.finetune_encoder:
            params.extend(self.autoencoder.parameters())
        return params

    def _checkpoint_modules(self):
        """Named live modules, as stored in a training checkpoint."""
        named = {"autoencoder": self.autoencoder, "forward": self.forward,
                 "backward": self.backward, "independent": self.independent}
        return {name: module for name, module in named.items()
                if module is not None}

    def fit(self, specs: list[TrajectorySpec],
            verbose: bool = False,
            checkpoint: CheckpointManager | None = None
            ) -> list[TrainingHistory]:
        """Train; returns per-detector loss histories (paper Fig. 10).

        With ``checkpoint``, every epoch persists the detectors (and the
        fine-tuned compressor), Adam moments, RNG, early stopping, and
        the loss histories, so a killed ``fit()`` resumes deterministically
        at the next epoch.
        """
        if not specs:
            raise ValueError("no training samples")
        cfg = self.config

        def batch_loss(chosen: np.ndarray):
            batch = [specs[int(c)] for c in chosen]
            losses = self._batch_losses(batch)
            total_loss = losses[0]
            for extra in losses[1:]:
                total_loss = total_loss + extra
            return (total_loss * (1.0 / len(batch)),
                    [loss.item() for loss in losses], len(batch))

        return train_epochs(
            name="joint", modules=self._checkpoint_modules(),
            optimizer=Adam(self._parameters(), lr=cfg.learning_rate,
                           weight_decay=cfg.weight_decay),
            histories=self._make_histories(), batch_loss=batch_loss,
            num_samples=len(specs), epochs=cfg.epochs,
            batch_size=cfg.batch_size, patience=cfg.patience,
            seed=cfg.seed, max_grad_norm=cfg.max_grad_norm,
            checkpoint=checkpoint, verbose=verbose)

    def _make_histories(self) -> list[TrainingHistory]:
        if self.independent is not None:
            return [TrainingHistory(name="independent-detector")]
        histories = []
        if self.forward is not None:
            histories.append(TrainingHistory(name="forward-detector"))
        if self.backward is not None:
            histories.append(TrainingHistory(name="backward-detector"))
        return histories

    # ------------------------------------------------------------------
    def _batch_losses(self, batch: list[TrajectorySpec]):
        """Per-detector summed losses over one mini-batch."""
        cvec_tensors = [
            self.autoencoder.encode_trajectory_tensor(
                spec.stay_segments, spec.move_segments, spec.pairs)
            for spec in batch]
        all_cvecs = concat(cvec_tensors, axis=0)
        if self.independent is not None:
            target = np.zeros(all_cvecs.shape[0])
            offset = 0
            for spec in batch:
                target[offset + spec.target_index] = 1.0
                offset += len(spec.pairs)
            probs = self.independent(all_cvecs)
            return [bce_loss(probs, target) * len(batch)]
        label = np.concatenate([
            smooth_label(len(spec.pairs), spec.target_index,
                         self.config.epsilon)
            for spec in batch])
        segments = np.array([len(spec.pairs) for spec in batch])
        forward, backward = score_groups(
            self.forward, self.backward, all_cvecs,
            [spec.num_stay_points for spec in batch], segments)
        return [kld_loss(label, probs) for probs in (forward, backward)
                if probs is not None]
