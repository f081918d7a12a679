"""Self-supervised training of the hierarchical autoencoder (paper §IV-B).

All f-seqs derived from the historical raw trajectories are shuffled each
epoch and the MSE reconstruction loss is minimized with Adam and early
stopping, through the shared loop :func:`repro.nn.train_epochs`.  A
mini-batch's mean loss replaces hundreds of small matmuls per update
with a few large ones.  Each epoch's shuffled order is stably sorted by
candidate size so batches group similarly-sized candidates, which cuts
wasted padded timesteps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from ..configbase import ConfigMixin
from ..nn import Adam, CheckpointManager, TrainingHistory, train_epochs
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

    def fit(self, stay_lists: list[list[np.ndarray]],
            move_lists: list[list[np.ndarray]],
            samples: Sequence[tuple[int, tuple[int, int]]],
            verbose: bool = False,
            checkpoint: CheckpointManager | None = None) -> TrainingHistory:
        """Train on candidate feature sequences.

        ``stay_lists[d]`` / ``move_lists[d]`` are day ``d``'s featurized
        stay and move segments (the layout of
        :meth:`HierarchicalAutoencoder.encode_trajectories`), and sample
        ``(d, (i, j))`` is candidate ``(i, j)`` of day ``d``.

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
        # (segment count, longest segment): the segment count is
        # monotone in the stay count driving the phase-2 sequence
        # length; the longest segment drives the phase-1 padded width.
        size_keys = np.array(
            [(2 * (j - i) + 1,
              max(map(len, chain(stay_lists[d][i - 1:j],
                                 move_lists[d][i - 1:j - 1]))))
             for d, (i, j) in samples])

        def epoch_order(rng: np.random.Generator) -> np.ndarray:
            order = rng.permutation(len(samples))
            if cfg.max_samples_per_epoch is not None:
                order = order[:cfg.max_samples_per_epoch]
            if len(order) > cfg.batch_size:
                # Stable sort of the *shuffled* order: batches group
                # similarly-sized samples while ties keep this epoch's
                # random order, so epochs still differ.
                keys = size_keys[order]
                order = order[np.lexsort((keys[:, 1], keys[:, 0]))]
            return order

        def batch_loss(chosen: np.ndarray):
            batch = [samples[int(c)] for c in chosen]
            loss = self.model.reconstruction_loss_batch(
                [stay_lists[d] for d, _ in batch],
                [move_lists[d] for d, _ in batch],
                [[pair] for _, pair in batch])
            return loss, (loss.item(),), 1

        histories = train_epochs(
            name="autoencoder", modules={"model": self.model},
            optimizer=Adam(self.model.parameters(), lr=cfg.learning_rate),
            histories=[TrainingHistory(name="hierarchical-autoencoder")],
            batch_loss=batch_loss, num_samples=len(samples),
            epochs=cfg.epochs, batch_size=cfg.batch_size,
            patience=cfg.patience, seed=cfg.seed,
            max_grad_norm=cfg.max_grad_norm, checkpoint=checkpoint,
            verbose=verbose, epoch_order=epoch_order)
        return histories[0]
