"""Dataset container, generation, splitting, and persistence (DESIGN.md S10).

The paper's dataset — 5,968 labelled raw trajectories from 2,734 trucks over
two months, split 8:1:1 with *disjoint trucks* between training and
validation/test — is proprietary; :func:`generate_dataset` produces a
synthetic drop-in with the same structure.
"""

from __future__ import annotations

import gzip
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..io import atomic_write_bytes
from ..model import LoadedLabel, Trajectory
from .simulator import SimulatorConfig, TruckDaySimulator, make_fleet
from .world import SyntheticWorld, WorldConfig

__all__ = ["LabeledSample", "HCTDataset", "DatasetConfig", "generate_dataset"]


@dataclass(frozen=True)
class LabeledSample:
    """A raw trajectory with its ground-truth loaded-trajectory label."""

    trajectory: Trajectory
    label: LoadedLabel

    def to_dict(self) -> dict[str, object]:
        return {"trajectory": self.trajectory.to_dict(),
                "label": self.label.to_dict()}

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "LabeledSample":
        return cls(trajectory=Trajectory.from_dict(payload["trajectory"]),
                   label=LoadedLabel.from_dict(payload["label"]))


class HCTDataset:
    """An ordered collection of labelled samples."""

    def __init__(self, samples: Sequence[LabeledSample] = ()) -> None:
        self.samples = list(samples)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[LabeledSample]:
        return iter(self.samples)

    def __getitem__(self, index: int) -> LabeledSample:
        return self.samples[index]

    def add(self, sample: LabeledSample) -> None:
        self.samples.append(sample)

    @property
    def truck_ids(self) -> list[str]:
        """Distinct truck ids, in first-appearance order."""
        seen: dict[str, None] = {}
        for sample in self.samples:
            seen.setdefault(sample.trajectory.truck_id, None)
        return list(seen)

    # ------------------------------------------------------------------
    def split_by_truck(self, ratios: tuple[float, float, float] = (8, 1, 1),
                       seed: int = 0
                       ) -> tuple["HCTDataset", "HCTDataset", "HCTDataset"]:
        """Train/val/test split with truck-disjoint partitions (paper §VI-A).

        Trucks (not trajectories) are partitioned, so no truck in the
        validation or test set appears in training.
        """
        if len(ratios) != 3 or any(r < 0 for r in ratios) or sum(ratios) == 0:
            raise ValueError(f"invalid split ratios: {ratios}")
        rng = np.random.default_rng(seed)
        trucks = self.truck_ids
        order = rng.permutation(len(trucks))
        total = float(sum(ratios))
        n_train = int(round(len(trucks) * ratios[0] / total))
        n_val = int(round(len(trucks) * ratios[1] / total))
        train_ids = {trucks[i] for i in order[:n_train]}
        val_ids = {trucks[i] for i in order[n_train:n_train + n_val]}
        splits = (HCTDataset(), HCTDataset(), HCTDataset())
        for sample in self.samples:
            tid = sample.trajectory.truck_id
            if tid in train_ids:
                splits[0].add(sample)
            elif tid in val_ids:
                splits[1].add(sample)
            else:
                splits[2].add(sample)
        return splits

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Persist as gzipped JSON, atomically and reproducibly: the
        gzip header carries no timestamp or file name, so the same
        samples always write the same bytes."""
        payload = {"samples": [s.to_dict() for s in self.samples]}
        data = gzip.compress(json.dumps(payload).encode("utf-8"), mtime=0)
        return atomic_write_bytes(path, data)

    @classmethod
    def load(cls, path: str | Path) -> "HCTDataset":
        with gzip.open(Path(path), "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
        return cls([LabeledSample.from_dict(s) for s in payload["samples"]])

    def summary(self) -> dict[str, float]:
        lengths = [len(s.trajectory) for s in self.samples]
        return {
            "num_samples": len(self.samples),
            "num_trucks": len(self.truck_ids),
            "mean_points": float(np.mean(lengths)) if lengths else 0.0,
            "max_points": float(np.max(lengths)) if lengths else 0.0,
        }


@dataclass
class DatasetConfig:
    """End-to-end synthetic dataset generation parameters."""

    num_trajectories: int = 600
    num_trucks: int = 260
    seed: int = 7
    start_day: str = "2020-09-01"
    world: WorldConfig = field(default_factory=WorldConfig)
    sim: SimulatorConfig = field(default_factory=SimulatorConfig)

    def __post_init__(self) -> None:
        if self.num_trajectories < 1 or self.num_trucks < 1:
            raise ValueError("need at least one trajectory and truck")
        if self.num_trucks > self.num_trajectories:
            self.num_trucks = self.num_trajectories


def generate_dataset(config: DatasetConfig | None = None,
                     world: SyntheticWorld | None = None,
                     workers: int | None = None) -> HCTDataset:
    """Generate a labelled synthetic dataset.

    Trajectories are assigned to trucks round-robin so every truck has at
    least one day; a truck with several days reuses its company's site pool
    (as real fleets do).  One generator seeded by ``config.seed`` threads
    through every simulation in order, so the same config always yields
    the same dataset.

    ``workers`` is deprecated and ignored: any value other than ``None``
    warns and returns the same dataset (DESIGN.md §15).
    """
    if workers is not None:
        warnings.warn(
            "generate_dataset(workers=...) is deprecated and ignored; "
            "every call returns the one seeded realization",
            DeprecationWarning, stacklevel=2)
    config = config or DatasetConfig()
    rng = np.random.default_rng(config.seed)
    world = world or SyntheticWorld(config.world)
    fleet = make_fleet(world, config.num_trucks, rng)
    simulator = TruckDaySimulator(world, config.sim)
    dataset = HCTDataset()
    day_counter: dict[str, int] = {}
    for i in range(config.num_trajectories):
        truck = fleet[i % len(fleet)]
        day_index = day_counter.get(truck.truck_id, 0)
        day_counter[truck.truck_id] = day_index + 1
        day = f"{config.start_day}+{day_index}"
        for attempt in range(8):
            try:
                trajectory, label = simulator.simulate(truck, day, rng)
                dataset.add(LabeledSample(trajectory, label))
                break
            except RuntimeError:
                if attempt == 7:
                    raise
    return dataset
