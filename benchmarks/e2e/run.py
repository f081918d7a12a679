"""End-to-end benchmark: raw pings in, final loaded-pair verdicts out.

One command builds the model, generates a seeded workload, drives it
through the public API, checks every verdict and prints each metric as
``name value unit``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 0 only when every correctness gate passed.  From the repository
root::

    python3 benchmarks/e2e/run.py --workload audit-long --seed 11
    python3 benchmarks/e2e/run.py --workload stream-live --trace 1

``--trace 0`` (the default) times the workload with tracing off and
reports the end-to-end metrics.  ``--trace 1`` drives the workload in
pairs of passes, without and with the layer wrappers of ``trace.py``,
reports the per-layer metrics of the traced passes and writes their
spans to ``--trace-out``.  Passes over the workload's fixed fleet repeat
until ``--seconds`` have gone by; ``--size smoke`` shrinks every fleet
to 1/20.  Every reported time is scaled to a reference host speed (see
``hostspeed.py``) and printed raw beside.  See README.md for the
workloads, metrics and gates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    # Benchmark the checkout's own source, never an installed copy.
    sys.exit(f"run.py: no source tree at {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.api import (LEAD, DatasetConfig, FleetConfig,  # noqa: E402
                       FleetService, FleetSessionManager, Observability,
                       ServeConfig, SyntheticWorld, WorldConfig,
                       generate_dataset, observe)
from repro.experiments import get_experiment_config  # noqa: E402

import hostspeed  # noqa: E402
import trace as layer_trace  # noqa: E402
import workloads as wl  # noqa: E402

#: Serial ``LEAD.detect`` cross-check sample on the audits.
GATE_SAMPLE = 16
#: Model builds per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Fewest timed passes in an untraced run: a median needs three.
MIN_PASSES = 3
#: Telemetry on/off pairs behind ``obs.overhead_pct``.
OBS_PAIRS = 10
RTOL = 1e-9
#: The end-task floor (accuracy above chance) needs this many days.
MIN_ACCURACY_DAYS = 30
SIZES = {"full": 1.0, "smoke": 0.05}
DEFAULT_SECONDS = 15


@dataclass(frozen=True)
class Verdict:
    """One final verdict, reduced to what the gates and metrics need."""

    pair: tuple[int, int] | None
    tier: str | None
    candidates: int
    distribution: np.ndarray | None = None


@dataclass
class Outcome:
    """What one timed pass over a workload produced."""

    #: Raw wall time of the pass, without the reference loops.
    wall_s: float
    latencies_s: list[float]
    verdicts: dict[tuple[str, str], Verdict]
    #: Host speed over the pass (``hostspeed.HostSpeed.take``).
    speed: float = 1.0
    #: Labelled ``(i', j')`` per day, where the label maps onto the
    #: extracted stay points (filled by the audit driver or the gate).
    labels: dict[tuple[str, str], tuple[int, int] | None] = \
        field(default_factory=dict)
    cache_hits: int = 0
    cache_lookups: int = 0
    quarantined: int = 0
    rejected_pings: int = 0
    rejected_days: set = field(default_factory=set)
    restarts: int = 0
    service_start_s: float = 0.0
    child_rss_mb: float = 0.0
    redetected: int = 0
    useful_redetects: int = 0

    @property
    def truck_days_per_s(self) -> float:
        """Final verdicts per second at the reference host speed."""
        return len(self.verdicts) / (self.wall_s * self.speed)

    def latency_ms(self, percent: float) -> float:
        """A latency percentile at the reference host speed."""
        return float(np.percentile(self.latencies_s, percent)) \
            * self.speed * 1e3


# -- the system under test ------------------------------------------------------
def training_days(world: SyntheticWorld) -> list:
    """The labelled days the model is fitted on (load-generator work)."""
    return generate_dataset(DatasetConfig(
        num_trajectories=wl.TRAIN_DAYS, num_trucks=wl.TRAIN_DAYS // 3,
        seed=wl.TRAIN_SEED, world=world.config), world=world).samples


def build_model(world: SyntheticWorld, train: list) -> tuple[LEAD, float]:
    """One timed set-up: build the tiny-scale model and fit it.

    Fitting is deterministic, so every build gives the same weights.
    """
    config = get_experiment_config("tiny").lead
    start = time.perf_counter()
    lead = LEAD(world.pois, config)
    lead.fit(train)
    return lead, time.perf_counter() - start


def _clear_caches(lead: LEAD) -> None:
    if lead.feature_cache is not None:
        lead.feature_cache.clear()
    lead.extractor.clear_cache()
    lead.featurizer.clear_memos()


def _cache_counts(lead: LEAD) -> tuple[int, int]:
    stats = lead.feature_cache.stats
    return stats.hits, stats.lookups


def _final(verdict) -> Verdict:
    tier = verdict.provenance.tier if verdict.provenance is not None else None
    return Verdict(verdict.pair, tier, verdict.num_candidates,
                   verdict.distribution)


# -- drivers (closed loops: the next call waits for the previous one) -----------
# Each driver samples the host speed between its timed calls.
def drive_audit(lead: LEAD, inputs: wl.Inputs, keep: set,
                host: hostspeed.HostSpeed) -> Outcome:
    """``detect_batch`` over chunks of raw trajectories, cache cold."""
    _clear_caches(lead)
    hits, lookups = _cache_counts(lead)
    out = Outcome(0.0, [], {})
    days = inputs.days
    for start in range(0, len(days), wl.CHUNK):
        chunk = days[start:start + wl.CHUNK]
        t0 = time.perf_counter()
        results = lead.detect_batch([d.trajectory for d in chunk])
        out.latencies_s.append(time.perf_counter() - t0)
        host.sample()
        for day, result in zip(chunk, results):
            key = (day.truck_id, day.day)
            if result is None:
                out.verdicts[key] = Verdict(None, None, 0)
                out.labels[key] = None
                continue
            out.verdicts[key] = Verdict(
                result.pair, result.provenance.tier,
                result.processed.num_candidates,
                result.distribution if key in keep else None)
            out.labels[key] = day.label.to_ordinal_pair(
                result.processed.stay_points)
    # Label bookkeeping between chunks is the benchmark's, not LEAD's.
    out.wall_s = sum(out.latencies_s)
    out.cache_hits = _cache_counts(lead)[0] - hits
    out.cache_lookups = _cache_counts(lead)[1] - lookups
    return out


def drive_stream(lead: LEAD, inputs: wl.Inputs, live: bool,
                 host: hostspeed.HostSpeed, tracer=None) -> Outcome:
    """Per-ping ``ingest``; ``tick`` per window when ``live``; flush per day."""
    _clear_caches(lead)
    hits, lookups = _cache_counts(lead)
    manager = FleetSessionManager(lead, FleetConfig())
    ingest = manager.ingest
    feed = inputs.feed
    finals, latencies, ticks = [], [], []
    start = host.clock()
    for a, b, ends_day in inputs.windows:
        t0 = time.perf_counter()
        with (nullcontext() if tracer is None
              else tracer.span("stream.ingest", "stream.ingest")):
            for p in feed[a:b]:
                ingest(p.truck_id, p.lat, p.lng, p.t, day=p.day)
        if live:
            t1 = time.perf_counter()
            ticks.append(manager.tick())
            latencies.append(time.perf_counter() - t1)
        else:
            latencies.append(time.perf_counter() - t0)
        if ends_day:
            finals.extend(manager.flush_all())
        host.sample()
    wall = host.clock() - start
    out = Outcome(wall, latencies,
                  {(v.truck_id, v.day): _final(v) for v in finals})
    out.cache_hits = _cache_counts(lead)[0] - hits
    out.cache_lookups = _cache_counts(lead)[1] - lookups
    out.quarantined = manager.stats()["fleet"]["sessions_quarantined"]
    _count_redetects(out, ticks)
    return out


def _count_redetects(out: Outcome, ticks: list) -> None:
    """Re-detections per tick, and those that saw a new stay point.

    A tick re-detects every session whose version moved; the verdict
    only changes when a stay point closed, so the rest is wasted work.
    """
    seen: dict[tuple[str, str], int] = {}
    for index, verdicts in enumerate(ticks, start=1):
        for v in verdicts:
            if v.tick != index or v.pair is None:
                continue            # served from the previous verdict
            key = (v.truck_id, v.day)
            out.redetected += 1
            if seen.get(key) != v.num_stay_points:
                out.useful_redetects += 1
            seen[key] = v.num_stay_points


def drive_serve(lead: LEAD, inputs: wl.Inputs, host: hostspeed.HostSpeed,
                tracer=None) -> Outcome:
    """The same feed through a 2-shard ``FleetService``.

    Each 10-minute window is submitted and acknowledged (``wait``)
    before the next; ``drain`` at each day end returns the finals.  The
    workers are idle while the host speed is sampled.
    """
    _clear_caches(lead)
    hits, lookups = _cache_counts(lead)   # workers fork with these counts
    t0 = time.perf_counter()
    service = FleetService(lead, config=ServeConfig(num_shards=2))
    start_s = time.perf_counter() - t0
    feed = inputs.feed
    finals, latencies = [], []
    rejected, rejected_days = 0, set()
    try:
        start = host.clock()
        for a, b, ends_day in inputs.windows:
            t0 = time.perf_counter()
            result = service.submit(feed[a:b])
            service.wait()
            latencies.append(time.perf_counter() - t0)
            rejected += result.rejected
            rejected_days.update(p[:2] for p in result.rejected_pings)
            if ends_day:
                finals.extend(service.drain())
            host.sample()
        wall = host.clock() - start
        stats = service.stats()
    finally:
        service.close()
    out = Outcome(wall, latencies,
                  {(v.truck_id, v.day): _final(v) for v in finals},
                  rejected_pings=rejected, rejected_days=rejected_days,
                  service_start_s=start_s,
                  restarts=stats["frontend"]["restarts"])
    for shard in stats["shards"].values():
        fleet = shard["fleet"]
        cache = fleet["feature_cache"]
        out.cache_hits += cache["hits"] - hits
        out.cache_lookups += cache["hits"] + cache["misses"] - lookups
        out.quarantined += fleet["fleet"]["sessions_quarantined"]
        spans = fleet.pop(layer_trace.WORKER_KEY, None)
        if tracer is not None and spans is not None:
            tracer.absorb(spans)
    out.child_rss_mb = _rss_mb(resource.RUSAGE_CHILDREN)
    return out


def drive(name: str, lead: LEAD, inputs: wl.Inputs, keep: set,
          host: hostspeed.HostSpeed, tracer=None) -> Outcome:
    driver = wl.WORKLOADS[name].driver
    if driver == "audit":
        return drive_audit(lead, inputs, keep, host)
    if driver == "serve":
        return drive_serve(lead, inputs, host, tracer)
    return drive_stream(lead, inputs, driver == "live", host, tracer)


def timed_pass(host: hostspeed.HostSpeed, drive_pass) -> Outcome:
    """One pass of ``drive_pass()``, with the host speed over it."""
    out = drive_pass()
    out.speed = host.take()
    return out


# -- correctness gates ----------------------------------------------------------
def _mismatch(key, verdict: Verdict, result) -> str | None:
    """Why a verdict differs from a reference ``DetectionResult``."""
    if result is None:
        return None if verdict.pair is None else \
            f"{key}: verdict {verdict.pair} where the reference abstains"
    if verdict.pair != result.pair:
        return f"{key}: pair {verdict.pair} != reference {result.pair}"
    if verdict.tier != result.provenance.tier:
        return (f"{key}: tier {verdict.tier} != reference "
                f"{result.provenance.tier}")
    if verdict.distribution is None or not np.allclose(
            verdict.distribution, result.distribution, rtol=RTOL, atol=0.0):
        return f"{key}: distribution not allclose (rtol={RTOL:g})"
    return None


def gate_serial(lead: LEAD, out: Outcome, sample: list[wl.Day]) -> list[str]:
    """Audits: ``detect_batch`` verdicts equal serial ``LEAD.detect``."""
    problems = []
    for day in sample:
        key = (day.truck_id, day.day)
        if key in out.verdicts:      # a missing one fails gate_coverage
            problem = _mismatch(key, out.verdicts[key],
                                lead.detect(day.trajectory))
            if problem:
                problems.append(problem)
    return problems


def gate_offline(lead: LEAD, inputs: wl.Inputs, out: Outcome) -> list[str]:
    """Feeds: every final verdict equals offline ``detect_batch``.

    Also records each day's labelled pair for the accuracy metric.
    """
    problems = []
    days = inputs.days
    for start in range(0, len(days), wl.CHUNK):
        chunk = days[start:start + wl.CHUNK]
        for day, result in zip(chunk, lead.detect_batch(
                [d.trajectory for d in chunk])):
            key = (day.truck_id, day.day)
            verdict = out.verdicts.get(key)
            if verdict is None:
                continue             # reported by gate_coverage
            problem = _mismatch(key, verdict, result)
            if problem:
                problems.append(problem)
            out.labels[key] = (None if result is None else
                               day.label.to_ordinal_pair(
                                   result.processed.stay_points))
    return problems


def gate_coverage(inputs: wl.Inputs, out: Outcome) -> list[str]:
    """Exactly one final verdict per generated truck-day."""
    expected = {(d.truck_id, d.day) for d in inputs.days}
    got = set(out.verdicts)
    problems = [f"{k}: no final verdict" for k in sorted(expected - got)]
    problems += [f"{k}: verdict for an unknown day"
                 for k in sorted(got - expected)]
    return problems


def digest(out: Outcome) -> str:
    """SHA-256 over the sorted ``(truck, day, pair, tier)`` tuples."""
    rows = sorted((k[0], k[1], list(v.pair) if v.pair else None, v.tier)
                  for k, v in out.verdicts.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def failed_days(out: Outcome) -> set:
    """Days with no verdict, a verdict below tier ``both``, or a
    rejected ping (quarantined sessions end with no verdict)."""
    bad = {k for k, v in out.verdicts.items()
           if v.pair is None or v.tier != "both"}
    return bad | set(out.rejected_days)


def accuracy(out: Outcome) -> tuple[float, float]:
    """Share of labelled days whose final pair is the loaded pair, and
    the share a uniform guess over each day's candidates would get."""
    labelled = [(k, p) for k, p in out.labels.items() if p is not None]
    if not labelled:
        return 0.0, 0.0
    hits = sum(out.verdicts[k].pair == p for k, p in labelled)
    chance = sum(1.0 / out.verdicts[k].candidates for k, _ in labelled)
    return hits / len(labelled), chance / len(labelled)


# -- metrics --------------------------------------------------------------------
def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _quantiles(values: list[float]) -> tuple[float, float]:
    """``(median, IQR)`` with ``statistics.quantiles`` (exclusive)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q3 - q1


def obs_overhead(lead: LEAD, chunk: list[wl.Day]) -> tuple[float, float]:
    """Telemetry cost on one ``audit-long`` chunk, in percent.

    ``OBS_PAIRS`` on/off pairs, alternating which side runs first,
    caches cleared before each run; returns the median and IQR of the
    per-pair overheads, unclamped.
    """
    trajectories = [d.trajectory for d in chunk]
    overheads = []
    for i in range(OBS_PAIRS):
        walls = {}
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            _clear_caches(lead)
            with observe(Observability(seed=0)) if on else nullcontext():
                t0 = time.perf_counter()
                lead.detect_batch(trajectories)
                walls[on] = time.perf_counter() - t0
        overheads.append((walls[True] / walls[False] - 1.0) * 100.0)
    return _quantiles(overheads)


def environment() -> dict[str, object]:
    """Recorded with every result; threads are left as the user set them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"cpu_count": os.cpu_count(),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "unset"),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    info: dict[str, tuple[object, str]]
    problems: list[str]
    digest: str


def _median(values) -> float:
    return float(statistics.median(values))


def _e2e_metrics(outs: list[Outcome],
                 fits: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Medians over the set-ups and the timed passes, at the reference
    host speed; the raw medians go to the information lines."""
    metrics = {
        "setup_s": (_median(s * k for s, k in fits) + _median(
            o.service_start_s * o.speed for o in outs), "s"),
        "truck_days_per_s": (_median(o.truck_days_per_s for o in outs),
                             "truck-days/s"),
        "latency_p50_ms": (_median(o.latency_ms(50) for o in outs), "ms"),
        "peak_rss_mb": (_rss_mb(resource.RUSAGE_SELF), "MB")}
    raw = {
        "host_speed": (_median(o.speed for o in outs), "ratio"),
        "setup_speed": (_median(k for _, k in fits), "ratio"),
        "raw.setup_s": (_median(s for s, _ in fits) + _median(
            o.service_start_s for o in outs), "s"),
        "raw.truck_days_per_s": (_median(len(o.verdicts) / o.wall_s
                                         for o in outs), "truck-days/s"),
        "raw.latency_p50_ms": (_median(np.percentile(o.latencies_s, 50)
                                       for o in outs) * 1e3, "ms")}
    return metrics, raw


def _layer_metrics(tracer, traced: list[Outcome], obs: tuple[float, float],
                   trace_pct: float) -> tuple[dict, dict]:
    """The per-layer metrics every workload reports, plus the layers
    that exist only on some workloads (printed for information).

    Times and calls are per traced pass: the spans of all of them,
    divided by their number, with times at the reference host speed.
    """
    wall = sum(o.wall_s for o in traced)
    table = tracer.layer_table(wall)
    n = len(traced)
    speed = _median(o.speed for o in traced)

    def self_s(prefix: str) -> float:
        return speed * sum(
            row["self_s"] for layer, row in table.items()
            if layer == prefix or layer.startswith(prefix + ".")) / n

    encoding = table.get("encoding", {"count": 0, "busy_s": 0.0})
    metrics = {
        "processing.self_s": (self_s("processing"), "s"),
        "features.self_s": (self_s("features"), "s"),
        "features.segments": (table.get("features", {}).get("calls", 0) / n,
                              "count"),
        "features.cache_hit_ratio": (
            sum(o.cache_hits for o in traced)
            / max(1, sum(o.cache_lookups for o in traced)), "share"),
        "encoding.self_s": (self_s("encoding"), "s"),
        "encoding.candidates_per_s": (
            encoding["count"] / (encoding["busy_s"] * speed)
            if encoding["busy_s"] else 0.0, "candidates/s"),
        "detection.score.self_s": (self_s("detection.score"), "s"),
        "detection.merge.self_s": (self_s("detection.merge"), "s"),
        "pipeline.self_s": (self_s("pipeline"), "s"),
        "pipeline.coverage": (tracer.coverage(wall), "share"),
        "obs.overhead_pct": (obs[0], "%"),
        "obs.overhead_iqr_pct": (obs[1], "%"),
        "trace.overhead_pct": (trace_pct, "%"),
    }
    detected = [v.candidates for v in traced[0].verdicts.values() if v.pair]
    info: dict[str, tuple[object, str]] = {
        "processing.candidates_per_day": (
            sum(detected) / max(1, len(detected)), "count")}
    for layer, row in table.items():
        info[f"{layer}.self_s"] = (speed * row["self_s"] / n, "s")
        info[f"{layer}.busy_s"] = (speed * row["busy_s"] / n, "s")
        info[f"{layer}.calls"] = (row["calls"] / n, "count")
    info["host_speed"] = (speed, "ratio")
    return metrics, info


def run(name: str, seed: int = 11, seconds: float = DEFAULT_SECONDS,
        trace: bool = False, scale: float = 1.0,
        trace_out: Path | None = None,
        model: tuple[LEAD, float] | None = None) -> Result:
    """Run one workload end to end and check it.

    ``model`` reuses an already fitted ``(lead, fit_seconds)`` pair
    (the smoke test shares one across workloads) instead of building
    ``SETUPS`` models.
    """
    workload = wl.WORKLOADS[name]
    world = SyntheticWorld(WorldConfig(seed=wl.WORLD_SEED))
    train = training_days(world) if model is None else None
    t0 = time.perf_counter()
    inputs = wl.generate(name, seed,
                         max(1, round(workload.trucks * scale)), world)
    gen_s = time.perf_counter() - t0
    sample_idx = np.random.default_rng(seed).choice(
        len(inputs.days), size=min(GATE_SAMPLE, len(inputs.days)),
        replace=False)
    sample = [inputs.days[i] for i in sorted(sample_idx)]
    keep = {(d.truck_id, d.day) for d in sample}

    host = hostspeed.HostSpeed()
    host.take()                   # opens the first timed period

    def setup() -> LEAD:
        lead, fit_s = model or build_model(world, train)
        fits.append((fit_s, host.take()))
        return lead

    def timed(traced: bool = False) -> Outcome:
        return timed_pass(host, lambda: drive(
            name, lead, inputs, keep, host, tracer if traced else None))

    fits: list[tuple[float, float]] = []
    outs: list[Outcome] = []
    traced_outs: list[Outcome] = []
    tracer = None
    if trace:
        lead = setup()
        # Untraced and traced passes in pairs, alternating which runs
        # first; the per-layer numbers are per traced pass.
        tracer = layer_trace.Tracer()
        deadline = time.perf_counter() + seconds * scale
        i = 0
        while not outs or time.perf_counter() < deadline:
            for traced in ((True, False) if (seed + i) % 2 else
                           (False, True)):
                with tracer if traced else nullcontext():
                    done = timed(traced)
                (traced_outs if traced else outs).append(done)
            i += 1
    else:
        for _ in range(SETUPS):
            lead = None           # free the last model and its caches
            lead = setup()
        deadline = time.perf_counter() + seconds * scale
        while len(outs) < MIN_PASSES or time.perf_counter() < deadline:
            outs.append(timed())
    out = outs[0]

    problems = gate_coverage(inputs, out)
    if workload.driver == "audit":
        problems += gate_serial(lead, out, sample)
    else:
        problems += gate_offline(lead, inputs, out)
    result_digest = digest(out)
    if any(digest(o) != result_digest for o in outs[1:] + traced_outs):
        problems.append("passes disagree on the verdict digest")
    hit_share, chance = accuracy(out)
    if len(inputs.days) >= MIN_ACCURACY_DAYS and hit_share <= chance:
        problems.append(f"accuracy {hit_share:.3f} is no better than "
                        f"chance ({chance:.3f})")
    failed = set().union(*(failed_days(o) for o in outs + traced_outs))
    info: dict[str, tuple[object, str]] = {
        "gen_s": (gen_s, "s"), "days": (len(inputs.days), "count"),
        "pings": (inputs.pings, "count"), "passes": (len(outs), "count"),
        "pass_walls_s": (",".join(f"{o.wall_s:.4f}" for o in outs), "s"),
        "pass_speeds": (",".join(f"{o.speed:.4f}" for o in outs), "ratio"),
        "latency_samples": (len(out.latencies_s), "count"),
        # Too few samples beyond it on the audits; reported, not bounded.
        "latency_p95_ms": (_median(o.latency_ms(95) for o in outs), "ms"),
        "accuracy": (hit_share, "share"),
        "accuracy_chance": (chance, "share"),
        "failed_share": (len(failed) / len(inputs.days), "share"),
        "quarantined_sessions": (out.quarantined, "count"),
    }
    if workload.driver == "live":
        info["stream.redetect_useful_ratio"] = (
            out.useful_redetects / max(1, out.redetected), "share")
    if workload.driver == "serve":
        info.update({"serve.rejected_pings": (out.rejected_pings, "count"),
                     "serve.restarts": (out.restarts, "count"),
                     "serve.child_peak_rss_mb": (out.child_rss_mb, "MB")})

    if trace:
        obs = obs_overhead(lead, wl.generate(
            "audit-long", seed, max(2, round(wl.CHUNK / wl.DAYS_PER_TRUCK
                                             * scale)), world).days[:wl.CHUNK])
        traced_wall = sum(o.wall_s for o in traced_outs)
        trace_pct = (_median(o.truck_days_per_s for o in outs)
                     / _median(o.truck_days_per_s for o in traced_outs)
                     - 1.0) * 100.0
        metrics, layer_info = _layer_metrics(tracer, traced_outs, obs,
                                             trace_pct)
        info.update(layer_info)
        info["traced_passes"] = (len(traced_outs), "count")
        info["traced_wall_s"] = (traced_wall, "s")
        if workload.driver == "serve":
            serial = _median(timed_pass(host, lambda: drive_stream(
                lead, inputs, False, host)).truck_days_per_s for _ in outs)
            info["serve.scaling_vs_stream"] = (
                _median(o.truck_days_per_s for o in outs) / serial, "ratio")
            info["stream-eod.truck_days_per_s"] = (serial, "truck-days/s")
        path = trace_out or HERE / "out" / f"trace-{name}.json"
        tracer.dump(path, traced_wall,
                    {"workload": name, "seed": seed, "digest": result_digest,
                     "traced_passes": len(traced_outs)})
        info["trace_file"] = (str(path), "path")
    else:
        metrics, raw = _e2e_metrics(outs, fits)
        info.update(raw)
        info["setup_samples"] = (len(fits), "count")
    return Result(correct=not problems, attempted=len(inputs.days),
                  failed=len(failed), metrics=metrics, info=info,
                  problems=problems, digest=result_digest)


# -- command line ---------------------------------------------------------------
def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def emit(name: str, seed: int, result: Result, env: dict) -> None:
    """Print every line; the JSON summary goes last."""
    samples = (f" n={result.info['latency_samples'][0]}"
               f"x{result.info['passes'][0]}")
    print(f"workload {name} seed={seed}")
    for key, value in env.items():
        print(f"env.{key} {value}")
    for key, (value, unit) in [*result.info.items(),
                               *result.metrics.items()]:
        suffix = samples if key.startswith("latency_p") else ""
        print(f"{key} {_fmt(value)} {unit}{suffix}")
    print(f"digest {result.digest} sha256")
    for problem in result.problems[:20]:
        print(f"GATE FAILED: {problem}")
    if len(result.problems) > 20:
        print(f"GATE FAILED: ... {len(result.problems) - 20} more")
    print(f"correct {result.correct}")
    print(json.dumps({
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result.metrics.items()}}), flush=True)


def record(name: str, args, result: Result, env: dict) -> dict:
    """The JSON record ``--out`` writes and ``compare.py`` reads."""
    return {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "size": args.size, "trace": bool(args.trace),
            "unix_time": time.time(), "environment": env,
            "correct": result.correct, "attempted": result.attempted,
            "failed": result.failed, "digest": result.digest,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in result.metrics.items()},
            "info": {k: {"value": v, "unit": u}
                     for k, (v, u) in result.info.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed passes over the workload's fixed fleet "
                             "repeat until this many seconds have gone by")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="span file of a traced run (default: "
                             "benchmarks/e2e/out/trace-WORKLOAD.json)")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full result record here")
    args = parser.parse_args(argv)
    env = environment()
    result = run(args.workload, seed=args.seed, seconds=args.seconds,
                 trace=bool(args.trace), scale=SIZES[args.size],
                 trace_out=args.trace_out)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record(args.workload, args, result,
                                              env)))
    emit(args.workload, args.seed, result, env)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
