"""Epoch-level checkpoint/resume for the training loops.

A checkpoint captures everything a trainer needs to continue *exactly*
where a killed process stopped:

* the parameters of every module being trained,
* the optimizer's moment buffers and step count,
* the numpy ``Generator`` bit-state (so future shuffles replay),
* the :class:`EarlyStopping` counters,
* the per-epoch loss histories recorded so far.

Two files per checkpoint, both written atomically (arrays last so the
metadata never points at missing arrays):

* ``<name>.npz``  — all arrays (``module/<mod>/<param>``,
  ``optim/<slot>/<i>`` keys);
* ``<name>.json`` — epoch counter, RNG state, stopper state, histories,
  optimizer scalars, and the SHA-256 of the ``.npz``.

A resumed ``fit()`` replays the remaining epochs bit-for-bit identically
to an uninterrupted run (verified in ``tests/test_resilience.py``).

Every save and load touches the disk once: a failed write or read
surfaces as-is (the atomic writes never leave a half-written slot
behind), and a damaged slot raises :class:`CheckpointCorruptedError`
naming the file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ArtifactCorruptedError, CheckpointCorruptedError
from ..io import (atomic_savez, atomic_write_json, load_checked_json,
                  load_checked_npz, sha256_file)
from .module import Module
from .optim import Optimizer
from .training import EarlyStopping, TrainingHistory

__all__ = ["CheckpointManager", "CheckpointState"]

_SCHEMA = 1


@dataclass
class CheckpointState:
    """A parsed checkpoint, ready to be pushed back into a trainer."""

    epoch: int                                # last *completed* epoch
    module_states: dict[str, dict[str, np.ndarray]]
    optimizer_state: dict[str, object]
    rng_state: dict[str, object]
    stopper_state: dict[str, object]
    histories: list[TrainingHistory]

    @property
    def next_epoch(self) -> int:
        return self.epoch + 1


class CheckpointManager:
    """Owns one named checkpoint slot inside a directory.

    ``save`` overwrites the slot after each epoch; only the latest
    completed epoch is kept (resume never needs more).  A damaged slot
    raises :class:`CheckpointCorruptedError`.
    """

    def __init__(self, directory: str | Path,
                 name: str = "checkpoint") -> None:
        self.directory = Path(directory)
        self.name = name

    # ------------------------------------------------------------------
    @property
    def arrays_path(self) -> Path:
        return self.directory / f"{self.name}.npz"

    @property
    def meta_path(self) -> Path:
        return self.directory / f"{self.name}.json"

    def exists(self) -> bool:
        return self.meta_path.exists()

    def clear(self) -> None:
        """Delete the slot (called after a fit completes)."""
        self.arrays_path.unlink(missing_ok=True)
        self.meta_path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(self, *, epoch: int, modules: dict[str, Module],
             optimizer: Optimizer, rng: np.random.Generator,
             stopper: EarlyStopping,
             histories: list[TrainingHistory]) -> None:
        """Persist the state reached after completing ``epoch``."""
        self.directory.mkdir(parents=True, exist_ok=True)
        arrays: dict[str, np.ndarray] = {}
        for mod_name, module in modules.items():
            for key, value in module.state_dict().items():
                arrays[f"module/{mod_name}/{key}"] = value
        optimizer_state = optimizer.state_dict()
        for slot, values in optimizer_state["arrays"].items():
            for i, value in enumerate(values):
                arrays[f"optim/{slot}/{i:04d}"] = value
        atomic_savez(self.arrays_path, **arrays)
        meta = {
            "schema": _SCHEMA,
            "name": self.name,
            "epoch": int(epoch),
            "modules": sorted(modules),
            "optimizer_scalars": dict(optimizer_state["scalars"]),
            "rng_state": _to_jsonable(rng.bit_generator.state),
            "stopper": stopper.state_dict(),
            "histories": [h.to_dict() for h in histories],
            "arrays_sha256": sha256_file(self.arrays_path),
        }
        atomic_write_json(self.meta_path, meta)

    # ------------------------------------------------------------------
    # Load / restore
    # ------------------------------------------------------------------
    def load(self) -> CheckpointState | None:
        """Parse the slot; ``None`` when it is empty."""
        if not self.exists():
            return None
        try:
            meta = load_checked_json(self.meta_path)
        except CheckpointCorruptedError:
            raise
        except ArtifactCorruptedError as exc:
            raise CheckpointCorruptedError(self.meta_path,
                                           exc.reason) from exc
        if not isinstance(meta, dict) or "epoch" not in meta or any(
                not isinstance(meta.get(key), dict)
                for key in ("optimizer_scalars", "rng_state", "stopper")):
            raise CheckpointCorruptedError(
                self.meta_path, "metadata is not a checkpoint object")
        if int(meta.get("schema", -1)) > _SCHEMA:
            raise CheckpointCorruptedError(
                self.meta_path,
                f"schema {meta.get('schema')} is newer than {_SCHEMA}")
        if not self.arrays_path.exists():
            raise CheckpointCorruptedError(self.arrays_path,
                                           "array file missing")
        digest = sha256_file(self.arrays_path)
        if meta.get("arrays_sha256") != digest:
            raise CheckpointCorruptedError(
                self.arrays_path,
                f"checksum mismatch: metadata says "
                f"{meta.get('arrays_sha256')}, file hashes to {digest}")
        try:
            arrays = load_checked_npz(self.arrays_path)
        except Exception as exc:  # damaged despite matching digest
            raise CheckpointCorruptedError(self.arrays_path,
                                           str(exc)) from exc
        module_states: dict[str, dict[str, np.ndarray]] = {}
        optim_arrays: dict[str, list[tuple[int, np.ndarray]]] = {}
        for key, value in arrays.items():
            kind, _, rest = key.partition("/")
            if kind == "module":
                mod_name, _, param = rest.partition("/")
                module_states.setdefault(mod_name, {})[param] = value
            elif kind == "optim":
                slot, _, index = rest.partition("/")
                optim_arrays.setdefault(slot, []).append((int(index), value))
        return CheckpointState(
            epoch=int(meta["epoch"]),
            module_states=module_states,
            optimizer_state={
                "scalars": meta["optimizer_scalars"],
                "arrays": {slot: [v for _, v in sorted(vals)]
                           for slot, vals in optim_arrays.items()}},
            rng_state=meta["rng_state"],
            stopper_state=meta["stopper"],
            histories=[TrainingHistory.from_dict(h)
                       for h in meta.get("histories", [])])

    def restore(self, state: CheckpointState, *,
                modules: dict[str, Module], optimizer: Optimizer,
                rng: np.random.Generator, stopper: EarlyStopping) -> int:
        """Push a parsed checkpoint back into live objects.

        Returns the epoch index training should continue from.
        """
        for mod_name, module in modules.items():
            saved = state.module_states.get(mod_name)
            if saved is None:
                raise CheckpointCorruptedError(
                    self.arrays_path,
                    f"module {mod_name!r} missing from checkpoint")
            try:
                module.load_state_dict(saved)
            except (KeyError, ValueError) as exc:
                raise CheckpointCorruptedError(
                    self.arrays_path,
                    f"module {mod_name!r} does not match: {exc}") from exc
        try:
            optimizer.load_state_dict(state.optimizer_state)
        except ValueError as exc:
            raise CheckpointCorruptedError(
                self.arrays_path,
                f"optimizer state does not match: {exc}") from exc
        _restore_rng_state(rng, state.rng_state, self.meta_path)
        stopper.load_state_dict(state.stopper_state)
        return state.next_epoch


# ----------------------------------------------------------------------
# RNG state (numpy Generator <-> JSON)
# ----------------------------------------------------------------------
def _to_jsonable(value: object) -> object:
    if isinstance(value, dict):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _from_jsonable(value: object) -> object:
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"],
                              dtype=value.get("dtype", "uint64"))
        return {k: _from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    return value


def _restore_rng_state(rng: np.random.Generator,
                       state: dict[str, object], source: Path) -> None:
    try:
        rng.bit_generator.state = _from_jsonable(state)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorruptedError(
            source, f"invalid RNG state: {exc}") from exc
