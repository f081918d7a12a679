"""Training-loop knobs of the detectors (paper §V-B workflow).

The detectors minimize the KLD between their output distributions and the
smoothed label, with gradient accumulation over B consecutive raw
trajectories and early stopping; :class:`~.joint.JointDetectorTrainer`
runs that loop.  The per-epoch KLD curves regenerate the paper's Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..configbase import ConfigMixin
from .labels import DEFAULT_EPSILON

__all__ = ["DetectorTrainingConfig"]


@dataclass
class DetectorTrainingConfig(ConfigMixin):
    """Training-loop knobs.

    The paper trains with batch size 1 and averages gradients over B = 64
    consecutive trajectories; here a mini-batch offsets several
    trajectories' index maps into one ``score_indexed`` pass per detector
    (mathematically the same averaged update, far cheaper on one CPU
    core), and the batch size is smaller because the synthetic training
    set has far fewer raw trajectories per epoch than the paper's 4,774.
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
