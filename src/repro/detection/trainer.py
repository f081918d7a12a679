"""Training of the forward and backward detectors (paper §V-B workflow).

The two detectors are trained *separately* (their own optimizers), each
minimizing the KLD between its output distribution and the smoothed label,
with gradient accumulation over B consecutive raw trajectories and early
stopping.  The per-epoch KLD curves regenerate the paper's Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..configbase import ConfigMixin
from ..nn import (Adam, EarlyStopping, Tensor, TrainingHistory, bce_loss,
                  clip_grad_norm, kld_loss)
from .detectors import GroupDetector, IndependentDetector
from .grouping import build_backward_group, build_forward_group, merge_groups
from .labels import DEFAULT_EPSILON, smooth_label

__all__ = ["DetectorSample", "DetectorTrainingConfig", "DetectorTrainer",
           "IndependentDetectorTrainer"]


@dataclass(frozen=True)
class DetectorSample:
    """One training sample: the encoded candidates of a raw trajectory."""

    cvecs: np.ndarray            # (N, D) in enumeration order
    num_stay_points: int
    target_index: int            # flat index of the loaded candidate

    def __post_init__(self) -> None:
        expected = self.num_stay_points * (self.num_stay_points - 1) // 2
        if len(self.cvecs) != expected:
            raise ValueError(
                f"{self.num_stay_points} stay points imply {expected} "
                f"candidates, got {len(self.cvecs)}")
        if not 0 <= self.target_index < expected:
            raise ValueError("target index out of range")


@dataclass
class DetectorTrainingConfig(ConfigMixin):
    """Training-loop knobs.

    The paper trains with batch size 1 and averages gradients over B = 64
    consecutive trajectories; here a mini-batch merges several
    trajectories' groups into one padded detector forward (mathematically
    the same averaged update, far cheaper on one CPU core), and the batch
    size is smaller because the synthetic training set has far fewer raw
    trajectories per epoch than the paper's 4,774.
    """

    epochs: int = 15
    learning_rate: float = 2e-3
    batch_size: int = 8          # raw trajectories per optimizer step
    patience: int = 3
    epsilon: float = DEFAULT_EPSILON
    max_grad_norm: float = 5.0
    weight_decay: float = 1e-4   # decoupled L2, curbs site memorization
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.learning_rate <= 0 or self.batch_size < 1:
            raise ValueError("invalid training configuration")


def _stack_cvecs(batch: list["DetectorSample"]) -> tuple[np.ndarray,
                                                         np.ndarray]:
    """Concatenate a batch's c-vecs; returns (matrix, per-sample counts)."""
    return (np.concatenate([s.cvecs for s in batch], axis=0),
            np.array([len(s.cvecs) for s in batch]))


class DetectorTrainer:
    """Trains a (forward, backward) detector pair."""

    def __init__(self, forward: GroupDetector, backward: GroupDetector,
                 config: DetectorTrainingConfig | None = None) -> None:
        self.forward = forward
        self.backward = backward
        self.config = config or DetectorTrainingConfig()

    def fit(self, samples: list[DetectorSample], verbose: bool = False
            ) -> tuple[TrainingHistory, TrainingHistory]:
        """Train both detectors; returns their KLD loss histories."""
        if not samples:
            raise ValueError("no training samples")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        optimizers = (Adam(self.forward.parameters(), lr=cfg.learning_rate),
                      Adam(self.backward.parameters(), lr=cfg.learning_rate))
        stoppers = (EarlyStopping(patience=cfg.patience),
                    EarlyStopping(patience=cfg.patience))
        histories = (TrainingHistory(name="forward-detector"),
                     TrainingHistory(name="backward-detector"))
        done = [False, False]
        self.forward.train()
        self.backward.train()
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(samples))
            totals = [0.0, 0.0]
            for start in range(0, len(order), cfg.batch_size):
                batch = [samples[int(c)]
                         for c in order[start:start + cfg.batch_size]]
                label = np.concatenate([
                    smooth_label(len(s.cvecs), s.target_index,
                                 cfg.epsilon)
                    for s in batch])
                for d, (detector, optimizer, builder) in enumerate((
                        (self.forward, optimizers[0],
                         build_forward_group),
                        (self.backward, optimizers[1],
                         build_backward_group))):
                    if done[d]:
                        continue
                    merged = merge_groups([
                        builder(s.cvecs, s.num_stay_points)
                        for s in batch])
                    batch_cvecs, _ = _stack_cvecs(batch)
                    probs = detector.score_indexed(
                        Tensor(batch_cvecs), list(merged.index_maps),
                        segments=np.array([len(s.cvecs)
                                           for s in batch]))
                    loss = kld_loss(label, probs) * (1.0 / len(batch))
                    totals[d] += loss.item() * len(batch)
                    optimizer.zero_grad()
                    loss.backward()
                    clip_grad_norm(optimizer.parameters,
                                   cfg.max_grad_norm)
                    optimizer.step()
            for d in range(2):
                if done[d]:
                    continue
                epoch_loss = totals[d] / len(order)
                histories[d].record(epoch_loss)
                if verbose:
                    print(f"[{histories[d].name}] epoch {epoch}: "
                          f"kld={epoch_loss:.4f}")
                if stoppers[d].update(epoch_loss):
                    done[d] = True
            if all(done):
                break
        self.forward.eval()
        self.backward.eval()
        return histories


class IndependentDetectorTrainer:
    """Trains the LEAD-NoGro MLP with per-candidate binary cross entropy."""

    def __init__(self, detector: IndependentDetector,
                 config: DetectorTrainingConfig | None = None) -> None:
        self.detector = detector
        self.config = config or DetectorTrainingConfig()

    def fit(self, samples: list[DetectorSample], verbose: bool = False
            ) -> TrainingHistory:
        if not samples:
            raise ValueError("no training samples")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        optimizer = Adam(self.detector.parameters(), lr=cfg.learning_rate)
        stopper = EarlyStopping(patience=cfg.patience)
        history = TrainingHistory(name="independent-detector")
        self.detector.train()
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(samples))
            total = 0.0
            batches = 0
            for start in range(0, len(order), cfg.batch_size):
                batch = [samples[int(c)]
                         for c in order[start:start + cfg.batch_size]]
                cvecs = np.concatenate([s.cvecs for s in batch], axis=0)
                target = np.zeros(len(cvecs))
                offset = 0
                for s in batch:
                    target[offset + s.target_index] = 1.0
                    offset += len(s.cvecs)
                probs = self.detector(Tensor(cvecs))
                loss = bce_loss(probs, target)
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(optimizer.parameters, cfg.max_grad_norm)
                optimizer.step()
                total += loss.item()
                batches += 1
            epoch_loss = total / batches
            history.record(epoch_loss)
            if verbose:
                print(f"[no-gro] epoch {epoch}: bce={epoch_loss:.4f}")
            if stopper.update(epoch_loss):
                break
        self.detector.eval()
        return history
