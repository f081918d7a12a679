"""Self-supervised training of the hierarchical autoencoder (paper §IV-B).

All f-seqs derived from the historical raw trajectories are shuffled each
epoch and the MSE reconstruction loss is minimized with Adam and early
stopping.  The paper trains with batch size 1 and averages gradients over
B = 64 consecutive samples; on one CPU core we compute the mathematically
equivalent mean loss over a padded mini-batch instead, which replaces
hundreds of small matmuls per update with a few large ones.  Each
epoch's shuffled order is stably sorted by candidate size so batches
group similarly-sized candidates, which cuts wasted padded timesteps.
A non-finite batch loss raises :class:`~repro.errors.NumericalInstabilityError`
before it can reach the weights.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..configbase import ConfigMixin
from ..errors import NumericalInstabilityError
from ..features import CandidateFeatures
from ..nn import (Adam, CheckpointManager, EarlyStopping, TrainingHistory,
                  clip_grad_norm)
from ..obs.core import active_obs
from .autoencoder import HierarchicalAutoencoder

__all__ = ["AutoencoderTrainer", "AutoencoderTrainingConfig"]


@dataclass
class AutoencoderTrainingConfig(ConfigMixin):
    """Training-loop knobs."""

    epochs: int = 12
    learning_rate: float = 3e-3
    batch_size: int = 16           # candidates per optimizer step
    patience: int = 3
    max_samples_per_epoch: int | None = None
    max_grad_norm: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


class AutoencoderTrainer:
    """Fits a :class:`HierarchicalAutoencoder` on candidate f-seqs."""

    def __init__(self, model: HierarchicalAutoencoder,
                 config: AutoencoderTrainingConfig | None = None) -> None:
        self.model = model
        self.config = config or AutoencoderTrainingConfig()

    def fit(self, samples: list[CandidateFeatures],
            verbose: bool = False,
            checkpoint: CheckpointManager | None = None) -> TrainingHistory:
        """Train on (shuffled) candidate feature sequences.

        Returns the per-epoch loss history (used for the paper's Fig. 9).

        When ``checkpoint`` is given, the full training state (weights,
        Adam moments, RNG, early-stopping counters, history) is saved
        after every epoch, and a previously saved state is restored
        first — a killed ``fit()`` resumes at the next epoch and ends
        bit-for-bit identical to an uninterrupted run.
        """
        if not samples:
            raise ValueError("no training samples")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        optimizer = Adam(self.model.parameters(), lr=cfg.learning_rate)
        stopper = EarlyStopping(patience=cfg.patience)
        history = TrainingHistory(name="hierarchical-autoencoder")
        start_epoch = 0
        if checkpoint is not None:
            state = checkpoint.load()
            if state is not None:
                start_epoch = checkpoint.restore(
                    state, modules={"model": self.model},
                    optimizer=optimizer, rng=rng, stopper=stopper)
                if state.histories:
                    history = state.histories[0]
        # (segment count, longest segment): the segment count is
        # monotone in the stay count driving the phase-2 sequence
        # length; the longest segment drives the phase-1 padded width.
        size_keys = np.array(
            [(len(s.segments), max(len(seg) for seg in s.segments))
             for s in samples])
        self.model.train()
        self._run_epochs(samples, cfg, rng, optimizer, stopper, history,
                         start_epoch, size_keys, verbose, checkpoint)
        self.model.eval()
        if checkpoint is not None:
            checkpoint.clear()
        return history

    def _run_epochs(self, samples, cfg, rng, optimizer, stopper, history,
                    start_epoch, size_keys, verbose, checkpoint) -> None:
        for epoch in range(start_epoch, cfg.epochs):
            if stopper.should_stop:
                break
            epoch_start = time.perf_counter()
            order = rng.permutation(len(samples))
            if cfg.max_samples_per_epoch is not None:
                order = order[:cfg.max_samples_per_epoch]
            if len(order) > cfg.batch_size:
                # Stable sort of the *shuffled* order: batches group
                # similarly-sized samples while ties keep this epoch's
                # random order, so epochs still differ.
                keys = size_keys[order]
                order = order[np.lexsort((keys[:, 1], keys[:, 0]))]
            total = 0.0
            batches = 0
            for start in range(0, len(order), cfg.batch_size):
                chosen = order[start:start + cfg.batch_size]
                batch = [samples[int(c)] for c in chosen]
                loss = self.model.reconstruction_loss_batch(batch)
                if not math.isfinite(loss.item()):
                    raise NumericalInstabilityError(
                        f"non-finite reconstruction loss in epoch {epoch}; "
                        "check the training features for NaN/Inf")
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(optimizer.parameters, cfg.max_grad_norm)
                optimizer.step()
                total += loss.item()
                batches += 1
            epoch_loss = total / batches
            history.record(epoch_loss)
            self._publish_epoch(epoch, epoch_loss, batches,
                                time.perf_counter() - epoch_start)
            if verbose:
                print(f"[autoencoder] epoch {epoch}: mse={epoch_loss:.5f}")
            should_stop = stopper.update(epoch_loss)
            if checkpoint is not None:
                checkpoint.save(epoch=epoch,
                                modules={"model": self.model},
                                optimizer=optimizer, rng=rng,
                                stopper=stopper, histories=[history])
            if should_stop:
                break

    @staticmethod
    def _publish_epoch(epoch: int, loss: float, steps: int,
                       elapsed_s: float) -> None:
        """Per-epoch training gauges when telemetry is active."""
        ob = active_obs()
        if ob is None:
            return
        labels = {"model": "autoencoder"}
        ob.registry.gauge("train_epoch", help="Last completed epoch index.",
                          labels=labels).set(epoch)
        ob.registry.gauge("train_epoch_loss",
                          help="Mean loss of the last completed epoch.",
                          labels=labels).set(loss)
        if elapsed_s > 0.0:
            ob.registry.gauge(
                "train_steps_per_second",
                help="Optimizer steps per second over the last epoch.",
                labels=labels).set(steps / elapsed_s)
