"""The one training loop: epochs, early stopping, histories, checkpoints.

The paper trains both LEAD components and the SP-GRU/SP-LSTM baselines
the same way (§IV-B, §V-B, §VI-A): shuffled epochs, Adam and early
stopping.  :func:`train_epochs` is that protocol, and every trainer in
the package runs through it.  A trainer supplies only its modules, its
optimizer and a batch loss; the loop owns the seeded epoch order,
mini-batching, the finite-loss guard, the optimizer step, the histories,
early stopping, checkpoints and the per-epoch telemetry.

The paper trains with batch size 1 and averages gradients over B = 64
consecutive samples; on one CPU core each trainer computes the
mathematically equivalent mean loss over a padded mini-batch instead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..errors import NumericalInstabilityError
from ..obs.core import active_obs
from .module import Module
from .optim import Optimizer, clip_grad_norm
from .tensor import Tensor

if TYPE_CHECKING:
    from .checkpoint import CheckpointManager

__all__ = ["EarlyStopping", "TrainingHistory", "train_epochs"]

#: A batch loss maps the chosen sample indices to the objective to
#: backpropagate, one float per history, and the batch's weight in the
#: epoch mean.
BatchLoss = Callable[[np.ndarray], tuple[Tensor, Sequence[float], int]]


class EarlyStopping:
    """Stop training when a monitored loss stops improving (§VI-A, [18])."""

    def __init__(self, patience: int = 3, min_delta: float = 0.0) -> None:
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.min_delta = float(min_delta)
        self.best: float | None = None
        self.best_epoch: int | None = None
        self._bad_epochs = 0
        self._epoch = -1

    def update(self, loss: float) -> bool:
        """Record an epoch loss; return True when training should stop."""
        self._epoch += 1
        if self.best is None or loss < self.best - self.min_delta:
            self.best = loss
            self.best_epoch = self._epoch
            self._bad_epochs = 0
        else:
            self._bad_epochs += 1
        return self.should_stop

    @property
    def should_stop(self) -> bool:
        """Whether the stop condition has already been reached."""
        return self._bad_epochs >= self.patience

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """JSON-safe snapshot for checkpoint/resume."""
        return {"patience": self.patience, "min_delta": self.min_delta,
                "best": self.best, "best_epoch": self.best_epoch,
                "bad_epochs": self._bad_epochs, "epoch": self._epoch}

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore a snapshot captured by :meth:`state_dict`."""
        self.patience = int(state["patience"])
        self.min_delta = float(state["min_delta"])
        best = state["best"]
        self.best = None if best is None else float(best)
        best_epoch = state["best_epoch"]
        self.best_epoch = None if best_epoch is None else int(best_epoch)
        self._bad_epochs = int(state["bad_epochs"])
        self._epoch = int(state["epoch"])


@dataclass
class TrainingHistory:
    """Per-epoch loss record, used to regenerate the paper's Figs. 9-10."""

    name: str
    epoch_losses: list[float] = field(default_factory=list)

    def record(self, loss: float) -> None:
        self.epoch_losses.append(float(loss))

    @property
    def num_epochs(self) -> int:
        return len(self.epoch_losses)

    @property
    def final_loss(self) -> float:
        if not self.epoch_losses:
            raise ValueError("no epochs recorded")
        return self.epoch_losses[-1]

    @property
    def best_epoch(self) -> int:
        return int(min(range(len(self.epoch_losses)),
                       key=self.epoch_losses.__getitem__))

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "epoch_losses": list(self.epoch_losses)}

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "TrainingHistory":
        return cls(name=str(payload["name"]),
                   epoch_losses=[float(x) for x in payload["epoch_losses"]])


def train_epochs(*, name: str, modules: dict[str, Module],
                 optimizer: Optimizer, histories: list[TrainingHistory],
                 batch_loss: BatchLoss, num_samples: int, epochs: int,
                 batch_size: int, patience: int, seed: int,
                 max_grad_norm: float | None,
                 checkpoint: CheckpointManager | None, verbose: bool,
                 epoch_order: Callable[[np.random.Generator], np.ndarray]
                 | None = None) -> list[TrainingHistory]:
    """Train ``modules`` for up to ``epochs`` epochs; return the histories.

    Each epoch draws its sample order from a generator seeded with
    ``seed`` (``rng.permutation(num_samples)``, or ``epoch_order(rng)``)
    and steps once per ``batch_size`` slice of it.  History ``d`` records
    the weighted mean of the batches' ``d``-th loss component, and early
    stopping watches the sum of those means.

    A non-finite objective raises
    :class:`~repro.errors.NumericalInstabilityError` before ``backward``,
    so NaN never reaches the weights.

    With ``checkpoint``, the full training state (``modules``, optimizer
    moments, RNG, early-stopping counters, histories) is saved after
    every epoch and a saved state is restored first: a killed fit
    resumes at the next epoch and ends bit-for-bit identical to an
    uninterrupted run.  A completed fit clears the slot.
    """
    rng = np.random.default_rng(seed)
    stopper = EarlyStopping(patience=patience)
    start_epoch = 0
    if checkpoint is not None:
        state = checkpoint.load()
        if state is not None:
            start_epoch = checkpoint.restore(
                state, modules=modules, optimizer=optimizer, rng=rng,
                stopper=stopper)
            if len(state.histories) == len(histories):
                histories = state.histories
    for module in modules.values():
        module.train()
    for epoch in range(start_epoch, epochs):
        if stopper.should_stop:
            break
        epoch_start = time.perf_counter()
        order = (rng.permutation(num_samples) if epoch_order is None
                 else epoch_order(rng))
        totals = np.zeros(len(histories))
        weight = 0
        steps = 0
        for start in range(0, len(order), batch_size):
            objective, components, batch_weight = batch_loss(
                order[start:start + batch_size])
            if not math.isfinite(objective.item()):
                raise NumericalInstabilityError(
                    f"non-finite {name} loss in epoch {epoch}; "
                    "check the training features for NaN/Inf")
            optimizer.zero_grad()
            objective.backward()
            if max_grad_norm is not None:
                clip_grad_norm(optimizer.parameters, max_grad_norm)
            optimizer.step()
            for d, component in enumerate(components):
                totals[d] += component
            weight += batch_weight
            steps += 1
        for d, history in enumerate(histories):
            history.record(totals[d] / weight)
        _publish_epoch(name, epoch, histories, steps,
                       time.perf_counter() - epoch_start)
        if verbose:
            rendered = ", ".join(
                f"{h.name}={h.final_loss:.5f}" for h in histories)
            print(f"[{name}] epoch {epoch}: {rendered}")
        should_stop = stopper.update(float(totals.sum()) / weight)
        if checkpoint is not None:
            checkpoint.save(epoch=epoch, modules=modules,
                            optimizer=optimizer, rng=rng, stopper=stopper,
                            histories=list(histories))
        if should_stop:
            break
    for module in modules.values():
        module.eval()
    if checkpoint is not None:
        checkpoint.clear()
    return histories


def _publish_epoch(name: str, epoch: int, histories: list[TrainingHistory],
                   steps: int, elapsed_s: float) -> None:
    """Per-epoch training gauges when telemetry is active.

    One label rule for every trainer: ``train_epoch`` and
    ``train_epoch_loss`` carry ``{model, history}``,
    ``train_steps_per_second`` carries ``{model}``.
    """
    ob = active_obs()
    if ob is None:
        return
    for history in histories:
        labels = {"model": name, "history": history.name}
        ob.registry.gauge("train_epoch", help="Last completed epoch index.",
                          labels=labels).set(epoch)
        ob.registry.gauge("train_epoch_loss",
                          help="Mean loss of the last completed epoch.",
                          labels=labels).set(history.final_loss)
    if elapsed_s > 0.0:
        ob.registry.gauge(
            "train_steps_per_second",
            help="Optimizer steps per second over the last epoch.",
            labels={"model": name}).set(steps / elapsed_s)
