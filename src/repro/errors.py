"""Typed exception taxonomy for the whole reproduction.

Every anticipated failure mode of the system has a dedicated exception
class, so callers can distinguish "the artifact on disk is damaged"
from "the model was never trained" from "this trajectory is garbage"
without parsing message strings.  Where an ad-hoc built-in exception was
raised historically (``RuntimeError`` for unfitted models,
``ValueError`` for bad inputs), the typed replacement *also* subclasses
that built-in, so existing ``except``/``pytest.raises`` sites keep
working while new code can catch the precise type.

Hierarchy::

    ReproError
    ├── ArtifactCorruptedError        (checksum/parse failures on disk)
    │   └── CheckpointCorruptedError  (damaged training checkpoint)
    ├── NotFittedError                (also RuntimeError)
    ├── InvalidTrajectoryError        (also ValueError)
    ├── DetectorUnavailableError      (also ValueError)
    ├── NumericalInstabilityError     (also ArithmeticError)
    └── TaskFailedError               (a parallel_map task failed)
"""

from __future__ import annotations

from pathlib import Path

__all__ = [
    "ReproError",
    "ArtifactCorruptedError",
    "CheckpointCorruptedError",
    "NotFittedError",
    "InvalidTrajectoryError",
    "DetectorUnavailableError",
    "NumericalInstabilityError",
    "TaskFailedError",
]


class ReproError(Exception):
    """Base class of every typed error raised by this package."""


class ArtifactCorruptedError(ReproError):
    """An on-disk artifact failed integrity checking or parsing.

    Raised instead of the underlying ``zipfile``/``json``/``numpy``
    exception so callers see *which* file is damaged and *why*, and can
    decide to retrain/regenerate rather than crash.
    """

    def __init__(self, path: str | Path, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"artifact {self.path} is corrupted: {reason}")


class CheckpointCorruptedError(ArtifactCorruptedError):
    """A training checkpoint is unreadable; training restarts from zero."""


class NotFittedError(ReproError, RuntimeError):
    """A model was used before ``fit()`` (or a successful ``load()``)."""


class InvalidTrajectoryError(ReproError, ValueError):
    """A trajectory violates the input contract beyond repair.

    Examples: all coordinates non-finite, fewer than two usable fixes,
    latitude/longitude outside the valid range everywhere.
    """


class DetectorUnavailableError(ReproError, ValueError):
    """The requested detector (direction) is absent or failed to answer."""


class NumericalInstabilityError(ReproError, ArithmeticError):
    """Training or inference produced NaN/Inf beyond tolerated limits."""


class TaskFailedError(ReproError):
    """A ``parallel_map`` task failed beyond recovery.

    Raised identically by the serial and the worker-pool execution
    paths, with the failing item's position attached, so callers can
    report or skip the exact input that broke regardless of how the map
    was scheduled.  The original exception is chained as ``__cause__``.
    """

    def __init__(self, index: int, message: str) -> None:
        self.index = int(index)
        super().__init__(f"task {self.index} failed: {message}")
