"""SP-GRU and SP-LSTM: recurrent stay-point classifiers (paper §VI-A).

A GRU or LSTM with 128 hidden units reads the feature sequence of one stay
point; the last hidden state feeds a 1-unit sigmoid layer that scores the
stay point as l/u vs ordinary.  The greedy strategy then picks the loading
and unloading stay points.

Classification at inference runs one stay point at a time, as the paper
describes ("they need to classify all stay points before they return the
loaded trajectory") — this sequential behaviour is what Fig. 8 measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import CandidateFeaturizer, FEATURE_DIM
from ..model import StayPoint
from ..nn import (Adam, GRU, Linear, LSTM, Module, Tensor, TrainingHistory,
                  bce_loss, no_grad, train_epochs)
from ..nn.padding import pad_sequences
from ..processing import ProcessedTrajectory
from .base import greedy_selection

__all__ = ["StayPointClassifier", "SPNNDetector", "SPNNTrainingConfig"]


class StayPointClassifier(Module):
    """Recurrent binary classifier over stay-point feature sequences."""

    def __init__(self, cell: str = "lstm", input_dim: int = FEATURE_DIM,
                 hidden_size: int = 128, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        if cell == "lstm":
            self.rnn = LSTM(input_dim, hidden_size, rng)
        elif cell == "gru":
            self.rnn = GRU(input_dim, hidden_size, rng)
        else:
            raise ValueError(f"unknown cell type: {cell!r}")
        self.cell = cell
        self.head = Linear(hidden_size, 1, rng)

    def forward(self, x: Tensor, lengths: np.ndarray | None = None) -> Tensor:
        """Probabilities of shape ``(B,)`` that each stay point is l/u."""
        if self.cell == "lstm":
            _, (last_hidden, _) = self.rnn(x, lengths)
        else:
            _, last_hidden = self.rnn(x, lengths)
        return self.head(last_hidden).sigmoid().reshape(-1)


@dataclass
class SPNNTrainingConfig:
    epochs: int = 10
    learning_rate: float = 1e-3
    batch_size: int = 64
    patience: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.learning_rate <= 0 or self.batch_size < 1:
            raise ValueError("invalid training configuration")


class SPNNDetector:
    """The complete SP-GRU / SP-LSTM baseline."""

    def __init__(self, cell: str, featurizer: CandidateFeaturizer,
                 config: SPNNTrainingConfig | None = None,
                 threshold: float = 0.5, seed: int = 0) -> None:
        self.classifier = StayPointClassifier(cell=cell, seed=seed)
        self.featurizer = featurizer
        self.config = config or SPNNTrainingConfig()
        self.threshold = threshold

    # ------------------------------------------------------------------
    def fit(self, training: list[tuple[ProcessedTrajectory,
                                       tuple[int, int]]],
            verbose: bool = False) -> TrainingHistory:
        """Train on processed trajectories with (i', j') ordinal labels.

        Every training stay point is featurized in one pass.
        """
        stay_points = [sp for processed, _ in training
                       for sp in processed.stay_points]
        if not stay_points:
            raise ValueError("no training stay points")
        sequences = self.featurizer.featurize_segments(stay_points)
        targets_arr = np.asarray([1.0 if sp.ordinal in pair else 0.0
                                  for processed, pair in training
                                  for sp in processed.stay_points])
        cfg = self.config

        def batch_loss(chosen: np.ndarray):
            batch, lengths = pad_sequences(
                [sequences[int(c)] for c in chosen])
            probs = self.classifier(Tensor(batch), lengths)
            loss = bce_loss(probs, targets_arr[chosen])
            return loss, (loss.item(),), 1

        histories = train_epochs(
            name=f"sp-{self.classifier.cell}",
            modules={"classifier": self.classifier},
            optimizer=Adam(self.classifier.parameters(),
                           lr=cfg.learning_rate),
            histories=[TrainingHistory(name=f"sp-{self.classifier.cell}")],
            batch_loss=batch_loss, num_samples=len(sequences),
            epochs=cfg.epochs, batch_size=cfg.batch_size,
            patience=cfg.patience, seed=cfg.seed, max_grad_norm=None,
            checkpoint=None, verbose=verbose)
        return histories[0]

    # ------------------------------------------------------------------
    def classify_stay_point(self, stay_point: StayPoint) -> float:
        """Probability that one stay point is an l/u stay point."""
        features = self.featurizer.segment_features(stay_point)
        with no_grad():
            prob = self.classifier(Tensor(features[None, :, :]))
        return float(prob.numpy()[0])

    def detect(self, processed: ProcessedTrajectory) -> tuple[int, int]:
        """Detected (i', j') pair; classifies stay points one at a time."""
        flags = [self.classify_stay_point(sp) >= self.threshold
                 for sp in processed.stay_points]
        return greedy_selection(processed.num_stay_points, flags)
