"""Joint fine-tuning of the compressor and the detectors.

The paper freezes the compressor after self-supervised training and trains
the detectors on fixed c-vecs — feasible at its data/GPU scale (4,774
training trajectories, ~143k candidate f-seqs).  At this repository's
CPU scale the reconstruction pretext alone cannot make the 64-dim c-vec
discriminative enough, so after the same self-supervised pretraining we
continue to backpropagate the detectors' KLD losses *through the
compressor* (standard pretrain-then-fine-tune).  Every architectural
component and loss of the paper is unchanged; only the freeze is lifted.
See DESIGN.md §2 for the substitution record.

A non-finite batch loss raises :class:`~repro.errors.NumericalInstabilityError`
before ``backward``, so NaN never reaches the weights.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..encoding import HierarchicalAutoencoder
from ..errors import NumericalInstabilityError
from ..nn import (Adam, CheckpointManager, EarlyStopping, TrainingHistory,
                  bce_loss, clip_grad_norm, concat, kld_loss)
from ..obs.core import active_obs
from .detectors import GroupDetector, IndependentDetector
from .grouping import backward_index_maps, forward_index_maps
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
        rng = np.random.default_rng(cfg.seed)
        optimizer = Adam(self._parameters(), lr=cfg.learning_rate,
                         weight_decay=cfg.weight_decay)
        stopper = EarlyStopping(patience=cfg.patience)
        histories = self._make_histories()
        start_epoch = 0
        if checkpoint is not None:
            state = checkpoint.load()
            if state is not None:
                start_epoch = checkpoint.restore(
                    state, modules=self._checkpoint_modules(),
                    optimizer=optimizer, rng=rng, stopper=stopper)
                if len(state.histories) == len(histories):
                    histories = state.histories
        modules = [m for m in (self.autoencoder, self.forward, self.backward,
                               self.independent) if m is not None]
        for module in modules:
            module.train()
        for epoch in range(start_epoch, cfg.epochs):
            if stopper.should_stop:
                break
            epoch_start = time.perf_counter()
            steps = 0
            order = rng.permutation(len(specs))
            totals = np.zeros(len(histories))
            for start in range(0, len(order), cfg.batch_size):
                batch = [specs[int(c)]
                         for c in order[start:start + cfg.batch_size]]
                losses = self._batch_losses(batch)
                total_loss = losses[0]
                for extra in losses[1:]:
                    total_loss = total_loss + extra
                if not math.isfinite(total_loss.item()):
                    raise NumericalInstabilityError(
                        f"non-finite detector loss in epoch {epoch}; "
                        "check the training features for NaN/Inf")
                optimizer.zero_grad()
                (total_loss * (1.0 / len(batch))).backward()
                clip_grad_norm(optimizer.parameters, cfg.max_grad_norm)
                optimizer.step()
                for d, loss in enumerate(losses):
                    totals[d] += loss.item()
                steps += 1
            for d, history in enumerate(histories):
                history.record(totals[d] / len(order))
            self._publish_epoch(epoch, histories, steps,
                                time.perf_counter() - epoch_start)
            if verbose:
                rendered = ", ".join(
                    f"{h.name}={h.final_loss:.4f}" for h in histories)
                print(f"[joint] epoch {epoch}: {rendered}")
            should_stop = stopper.update(float(totals.sum()) / len(order))
            if checkpoint is not None:
                checkpoint.save(epoch=epoch,
                                modules=self._checkpoint_modules(),
                                optimizer=optimizer, rng=rng,
                                stopper=stopper, histories=list(histories))
            if should_stop:
                break
        for module in modules:
            module.eval()
        if checkpoint is not None:
            checkpoint.clear()
        return histories

    @staticmethod
    def _publish_epoch(epoch: int, histories: list[TrainingHistory],
                       steps: int, elapsed_s: float) -> None:
        """Per-epoch, per-detector training gauges when telemetry is on."""
        ob = active_obs()
        if ob is None:
            return
        for history in histories:
            labels = {"model": "joint", "detector": history.name}
            ob.registry.gauge("train_epoch",
                              help="Last completed epoch index.",
                              labels=labels).set(epoch)
            ob.registry.gauge(
                "train_epoch_loss",
                help="Mean loss of the last completed epoch.",
                labels=labels).set(history.final_loss)
        if elapsed_s > 0.0:
            ob.registry.gauge(
                "train_steps_per_second",
                help="Optimizer steps per second over the last epoch.",
                labels={"model": "joint"}).set(steps / elapsed_s)

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
        losses = []
        for detector, map_builder in ((self.forward, forward_index_maps),
                                      (self.backward, backward_index_maps)):
            if detector is None:
                continue
            index_maps = []
            offset = 0
            for spec in batch:
                for indices in map_builder(spec.num_stay_points):
                    index_maps.append(indices + offset)
                offset += len(spec.pairs)
            segments = np.array([len(spec.pairs) for spec in batch])
            probs = detector.score_indexed(all_cvecs, index_maps,
                                           segments=segments)
            losses.append(kld_loss(label, probs))
        return losses
