"""Seeded load generators for the end-to-end benchmark.

Every workload is a pure function of ``(name, seed, trucks)``: the same
arguments always give the same truck-days, labels and ping feed.  The
system under test never sees the seed, only the generated inputs.

A workload has a fixed fleet (``Workload.trucks``, ``DAYS_PER_TRUCK``
days each) that one timed pass drives through, so every metric is per
pass over the same input; a run repeats passes for its ``--seconds``
and reports their medians.  The fleets are small enough that a pass
takes about a second (three on ``stream-live`` and ``serve-eod``), so
one slow pass does not move a median.

Trajectory sizes come from ``SimulatorConfig(bucket_probs=...)``.  The
simulator's default planning buckets reproduce the paper's stay-point
shares (Table III) after extraction.  Instead of drawing a bucket per
day, the generator gives every planned stay count its exact share of
the trucks (uniform within a bucket), so the amount of work in a run
varies little from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.api import (DatasetConfig, Ping, SyntheticWorld, WorldConfig,
                       dataset_ping_stream, generate_dataset)
from repro.data import SimulatorConfig
from repro.model import LoadedLabel, Trajectory
from repro.perf.parallel import parallel_map
from repro.stream.replay import scramble_stream

__all__ = ["WORKLOADS", "Workload", "Inputs", "Day", "generate",
           "WORLD_SEED", "TRAIN_DAYS", "TRAIN_SEED", "DAYS_PER_TRUCK",
           "WINDOW_S", "SCRAMBLE_WINDOW", "CHUNK"]

#: The synthetic city every workload and the model share.
WORLD_SEED = 7
#: The model is fitted on this many truck-days (data seed ``TRAIN_SEED``).
TRAIN_DAYS = 60
TRAIN_SEED = 1
#: Every generated truck drives this many consecutive days.
DAYS_PER_TRUCK = 3
#: Simulated length of one ingest window (a tick on ``stream-live``).
WINDOW_S = 600.0
#: Each truck's pings arrive shuffled within blocks of this many pings;
#: the default reorder buffer (16) restores the order exactly.
SCRAMBLE_WINDOW = 4
#: Raw trajectories per ``LEAD.detect_batch`` call on the audits.
CHUNK = 32
#: Generator processes (the benchmark host has 2 cores).
GEN_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what it feeds, how, and why."""

    name: str
    #: ``audit`` (batch ``detect_batch``), ``live`` (per-ping ingest with
    #: ticks), ``eod`` (per-ping ingest, end-of-day flush) or ``serve``
    #: (sharded ``FleetService``).
    driver: str
    #: Planned stay-point buckets ``(lo, hi, share)``; ``None`` = the
    #: simulator's default, which lands on the paper's shares.
    buckets: tuple[tuple[int, int, float], ...] | None
    #: Trucks in the fleet one timed pass drives through.
    trucks: int
    #: Workloads with the same ``feed`` and ``trucks`` get identical
    #: inputs.
    feed: str
    why: str


# The audits' fleets give whole ``CHUNK``-day batches.  The eod fleet
# is small because serve-eod, the slowest workload, still needs several
# passes per run: on 2 cores a serve-eod pass over twice the trucks
# took 2.3 times as long (5.4 s against 2.4 s).
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("audit-long", "audit", ((12, 15, 1.0),), 64, "audit-long",
             "long days (~78 candidates each): encoding and scoring "
             "dominate, so encoder and scorer changes show here"),
    Workload("audit-short", "audit", ((3, 5, 1.0),), 256, "audit-short",
             "short days (~7 candidates each): processing, features and "
             "per-chunk pipeline glue take the largest share"),
    Workload("stream-live", "live", None, 10, "live",
             "per-ping ingest with a tick every 10 simulated minutes: "
             "the operator's refresh loop over a warm feature cache"),
    Workload("stream-eod", "eod", None, 45, "eod",
             "per-ping ingest, flush at day end: the single-process "
             "baseline of serve-eod, where ingest work shows"),
    Workload("serve-eod", "serve", None, 45, "eod",
             "the stream-eod feed through a 2-shard FleetService: "
             "routing, pickling, queueing and the array ingest lane"),
)}


@dataclass(frozen=True)
class Day:
    """One generated truck-day and its ground truth."""

    truck_id: str
    day: str
    trajectory: Trajectory
    label: LoadedLabel


@dataclass
class Inputs:
    """Everything a workload run feeds the system."""

    days: list[Day]
    #: Interleaved, per-truck scrambled ping feed (``None`` on audits).
    feed: list[Ping] | None = None
    #: ``(start, stop, ends_day)`` slices of ``feed``, one per window.
    windows: list[tuple[int, int, bool]] | None = None

    @property
    def pings(self) -> int:
        return sum(len(d.trajectory) for d in self.days)


def _data_seed(seed: int, feed: str, part: int) -> int:
    """A dataset seed derived from the run seed, the feed and a part."""
    key = [seed, part] + [ord(c) for c in feed]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _split(total: int, shares: list[float]) -> list[int]:
    """Largest-remainder split of ``total`` by ``shares``."""
    raw = [total * s for s in shares]
    counts = [int(r) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: (counts[i] - raw[i], i))
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return counts


def _simulate(world: SyntheticWorld, task: tuple[int, int, int]) -> list:
    """The labelled days of ``trucks`` trucks planning ``stays`` stays."""
    stays, trucks, seed = task
    config = DatasetConfig(
        num_trajectories=trucks * DAYS_PER_TRUCK, num_trucks=trucks,
        seed=seed, world=world.config,
        sim=SimulatorConfig(bucket_probs=((stays, stays, 1.0),)))
    return generate_dataset(config, world=world).samples


def generate(name: str, seed: int, trucks: int,
             world: SyntheticWorld | None = None) -> Inputs:
    """The seeded inputs of workload ``name`` with ``trucks`` trucks."""
    workload = WORKLOADS[name]
    world = world or SyntheticWorld(WorldConfig(seed=WORLD_SEED))
    buckets = workload.buckets or SimulatorConfig().bucket_probs
    shares = [(k, p / (hi - lo + 1)) for lo, hi, p in buckets
              for k in range(lo, hi + 1)]
    # Longest days first, so the generator processes finish together.
    tasks = sorted(((k, n, _data_seed(seed, workload.feed, k))
                    for (k, _), n in zip(shares, _split(
                        trucks, [s for _, s in shares])) if n),
                   reverse=True)
    days: list[Day] = []
    for (stays, _, _), samples in zip(tasks, parallel_map(
            partial(_simulate, world), tasks, workers=GEN_WORKERS)):
        for sample in samples:
            # Each stay count is simulated as its own fleet; the prefix
            # keeps truck ids distinct across them.
            raw = sample.trajectory
            truck_id = f"k{stays:02d}.{raw.truck_id}"
            days.append(Day(truck_id, raw.day,
                            Trajectory(raw.lats, raw.lngs, raw.ts,
                                       truck_id=truck_id, day=raw.day),
                            sample.label))
    if workload.driver == "audit":
        # An audit reads the archive in no particular order.
        order = np.random.default_rng(_data_seed(seed, workload.feed, 0))
        return Inputs([days[i] for i in order.permutation(len(days))])
    ordered = dataset_ping_stream([d.trajectory for d in days])
    feed = scramble_stream(ordered, window=SCRAMBLE_WINDOW,
                           seed=_data_seed(seed, workload.feed, 0))
    return Inputs(days, feed, _windows(ordered))


def _windows(ordered: list[Ping]) -> list[tuple[int, int, bool]]:
    """Window slices over the in-order feed (the scramble keeps slots)."""
    keys = [(p.day, int(p.t // WINDOW_S)) for p in ordered]
    bounds = [0] + [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]]
    bounds.append(len(keys))
    return [(a, b, b == len(keys) or ordered[b].day != ordered[a].day)
            for a, b in zip(bounds[:-1], bounds[1:])]
