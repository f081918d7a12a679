"""Perf benchmark harness behind ``repro bench``.

Measures, at a named experiment scale:

* featurization wall-clock, cold cache vs warm cache;
* preprocessing front-end throughput — stay-point extraction, noise
  filtering, and bulk POI counting through the vectorized lanes (their
  equivalence with the per-fix rule loops is pinned by the test suite);
* encoding throughput (trajectories/sec), a loop of batch-of-one calls
  vs one batched cross-trajectory pass;
* detection throughput, a loop of batch-of-one
  :meth:`LEAD.detect_processed` calls vs one
  :meth:`LEAD.detect_processed_batch` call;
* batch-of-one vs whole-batch equivalence — a single pass against the
  shape-bucketed one (``allclose`` at ``rtol=1e-9`` over the full test
  set, plus the observed max abs deviation);
* autoencoder training throughput (optimizer steps/sec) of the default
  trainer configuration on the scale's own featurized candidates;
* wall-clock of a full tiny-scale offline ``fit`` (always tiny,
  whatever the bench scale — it is the trend line, not a rate).

The result dictionary is written to ``BENCH_lead.json`` so every future
change has a perf trajectory to compare against;
:func:`compare_to_baseline` implements the CI regression gate (fail when
throughput falls more than ``max_regression``× below a committed
baseline — machine-to-machine noise is real, order-of-magnitude cliffs
are not).
"""

from __future__ import annotations

import gc
import os
import platform
import time
from typing import Callable

import numpy as np

from ..nn.precision import inference_dtype as nn_inference_dtype

__all__ = ["run_bench", "run_stream_bench", "compare_to_baseline",
           "format_bench_table", "format_stream_bench_table",
           "GATED_METRICS", "STREAM_GATED_METRICS",
           "TELEMETRY_OVERHEAD_BUDGET_PCT"]

#: Metrics covered by the CI gate.  All are higher-is-better throughput
#: ratios gated against the committed baseline, except
#: ``telemetry_overhead_pct``, which is gated on an absolute <= 5%
#: budget (see :func:`compare_to_baseline`).
GATED_METRICS = ("encode_single_tps", "encode_batch_tps",
                 "encode_batch_f32_tps", "detect_single_tps",
                 "detect_batch_tps", "detect_batch_f32_tps",
                 "train_steps_fused_sps", "preprocess_extract_tps",
                 "preprocess_filter_tps", "preprocess_poi_pps",
                 "telemetry_overhead_pct")

#: Allowed slowdown (percent) of batched detection when telemetry is on.
TELEMETRY_OVERHEAD_BUDGET_PCT = 5.0

#: Streaming throughput metrics (higher is better) gated by
#: ``benchmarks/bench_stream.py`` against its committed baseline.
STREAM_GATED_METRICS = ("stream_ingest_pps", "stream_ingest_batch_pps",
                        "stream_tick_sps", "stream_flush_sps",
                        "serve_ingest_pps")

#: Candidates used for the training throughput measurement (keeps the
#: default-scale bench to a few seconds; tiny scales have fewer anyway).
_TRAIN_BENCH_CANDIDATES = 256


def _blas_vendor() -> str:
    """Best-effort BLAS vendor/version out of numpy's build metadata.

    Bench numbers are only comparable across machines when the GEMM
    backend is the same; recording the vendor next to the numbers makes
    an OpenBLAS-vs-MKL (or netlib fallback) delta diagnosable from the
    JSON alone.
    """
    try:
        info = np.show_config(mode="dicts")
        blas = (info.get("Build Dependencies") or {}).get("blas") or {}
        name = blas.get("name") or "unknown"
        version = blas.get("version")
        return f"{name} {version}" if version else str(name)
    except Exception:
        return "unknown"


def _environment() -> dict:
    """The reproducibility block stamped into every bench payload."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_vendor(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _best_time(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()`` (min, the
    standard noise-robust estimator for CPU microbenchmarks).  Garbage
    collection is paused around each timed run so collection pauses
    triggered by *earlier* bench sections can't leak into this one."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best


def _clear_feature_caches(lead) -> None:
    if lead.feature_cache is not None:
        lead.feature_cache.clear()
    lead.extractor.clear_cache()
    lead.featurizer.clear_memos()


def _preprocess_metrics(lead, processed, repeats: int) -> dict:
    """Vectorized front-end throughput: extraction and noise-filter
    trajectories/sec, and bulk POI counting points/sec."""
    raw = [item.raw for item in processed]
    cleaned = [item.cleaned for item in processed]
    noise_filter = lead.processor.noise_filter
    extractor = lead.processor.extractor
    pois = lead.extractor.pois
    radius = lead.extractor.config.poi_radius_m
    n = len(processed)
    points = int(sum(len(t) for t in cleaned))
    return {
        "preprocess_extract_tps": n / _best_time(
            lambda: [extractor.extract(t) for t in cleaned], repeats),
        "preprocess_filter_tps": n / _best_time(
            lambda: [noise_filter.filter(t) for t in raw], repeats),
        "preprocess_poi_pps": points / _best_time(
            lambda: [pois.count_categories_batch(t.lats, t.lngs,
                                                 radius_m=radius)
                     for t in cleaned], repeats),
    }


def run_bench(scale: str | None = None, repeats: int = 3,
              train_wall: bool = True, verbose: bool = False) -> dict:
    """Run the full benchmark suite at one experiment scale.

    Uses the same cached artifacts as the tables/benchmarks harness
    (training the model first if the scale has never been run), so a
    bench run after a ``repro tables`` run measures pure inference.
    """
    from ..experiments import Experiment, get_experiment_config
    config = get_experiment_config(scale)
    experiment = Experiment(config, retrain_if_corrupt=True)
    lead = experiment.lead_variant("LEAD", verbose=verbose)
    test_set = experiment.test_set()
    processed = [p for p, _ in test_set]
    if not processed:
        raise ValueError(f"scale {config.name!r} has an empty test set")
    n = len(processed)
    metrics: dict[str, float] = {}

    # -- featurization: cold vs warm cache ---------------------------------
    def featurize_all() -> None:
        for item in processed:
            lead._segments(item)

    _clear_feature_caches(lead)
    start = time.perf_counter()
    featurize_all()
    metrics["featurize_cold_s"] = time.perf_counter() - start
    metrics["featurize_warm_s"] = _best_time(featurize_all, repeats)
    metrics["featurize_cache_speedup"] = (
        metrics["featurize_cold_s"] / max(metrics["featurize_warm_s"], 1e-12))

    # -- preprocessing front-end ------------------------------------------
    metrics.update(_preprocess_metrics(lead, processed, repeats))

    # -- encoding throughput ----------------------------------------------
    single_s = _best_time(
        lambda: [lead.encode_candidates_batch([item]) for item in processed],
        repeats)
    batch_s = _best_time(
        lambda: lead.encode_candidates_batch(processed), repeats)
    metrics["encode_single_tps"] = n / single_s
    metrics["encode_batch_tps"] = n / batch_s
    metrics["encode_batch_speedup"] = single_s / batch_s

    # -- detection throughput ---------------------------------------------
    single_s = _best_time(
        lambda: [lead.detect_processed(item) for item in processed], repeats)
    batch_s = _best_time(
        lambda: lead.detect_processed_batch(processed), repeats)
    metrics["detect_single_tps"] = n / single_s
    metrics["detect_batch_tps"] = n / batch_s
    metrics["detect_batch_speedup"] = single_s / batch_s

    # -- telemetry overhead -------------------------------------------------
    # The same batched detection with the observability subsystem active
    # (spans + per-stage histograms recorded).  The gate budget is an
    # *absolute* 5% slowdown, checked in compare_to_baseline — telemetry
    # must stay near-free even when someone turns it on.
    from ..obs import Observability, observe
    with observe(Observability(seed=0)):
        telemetry_s = _best_time(
            lambda: lead.detect_processed_batch(processed), repeats)
    metrics["telemetry_overhead_pct"] = max(
        0.0, (telemetry_s / batch_s - 1.0) * 100.0)

    # -- float32 hot path ---------------------------------------------------
    # The same batched entry points under an active float32 inference
    # context; the *_f32_speedup ratios are against the float64 batched
    # numbers above (same warm caches, same batch shapes).
    with nn_inference_dtype("float32"):
        encode_f32_s = _best_time(
            lambda: lead.encode_candidates_batch(processed), repeats)
        detect_f32_s = _best_time(
            lambda: lead.detect_processed_batch(processed), repeats)
    metrics["encode_batch_f32_tps"] = n / encode_f32_s
    metrics["encode_batch_f32_speedup"] = (
        metrics["encode_batch_f32_tps"] / metrics["encode_batch_tps"])
    metrics["detect_batch_f32_tps"] = n / detect_f32_s
    metrics["detect_batch_f32_speedup"] = (
        metrics["detect_batch_f32_tps"] / metrics["detect_batch_tps"])

    # -- float32 parity gate ------------------------------------------------
    parity = lead.run_parity_gate(processed)
    precision_parity = {
        "verdict_agreement": parity["verdict_agreement"],
        "max_abs_divergence": parity["max_abs_divergence"],
        "margin": parity["margin"],
        "num_calibration": parity["num_calibration"],
        "passed": parity["passed"],
    }

    # -- batch-of-one == whole batch ---------------------------------------
    singles = [lead.predict_distribution_batch([item])[0]
               for item in processed]
    batched = lead.predict_distribution_batch(processed)
    max_diff = max(float(np.abs(a - b).max())
                   for a, b in zip(singles, batched))
    equivalence = {
        "rtol": 1e-9,
        "allclose": bool(all(np.allclose(a, b, rtol=1e-9, atol=0.0)
                             for a, b in zip(singles, batched))),
        "max_abs_diff": max_diff,
    }

    # -- training throughput ------------------------------------------------
    metrics.update(_training_metrics(lead, processed, repeats))

    # -- tiny-scale train wall-clock --------------------------------------
    if train_wall:
        metrics["train_tiny_wall_s"] = _tiny_train_wall(verbose)

    cache_stats = (lead.feature_cache.stats.as_dict()
                   if lead.feature_cache is not None else None)
    if lead.feature_cache is not None:
        cache_stats["dtype_keys"] = lead.feature_cache.dtype_key_counts()
    return {
        "schema": 1,
        "scale": config.name,
        "generated_unix": time.time(),
        "environment": _environment(),
        "num_test_trajectories": n,
        "num_candidates": int(sum(p.num_candidates for p in processed)),
        "metrics": metrics,
        "equivalence": equivalence,
        "precision_parity": precision_parity,
        "feature_cache": cache_stats,
    }


def _training_metrics(lead, processed, repeats: int,
                      max_candidates: int = _TRAIN_BENCH_CANDIDATES) -> dict:
    """Autoencoder training steps/sec of the default trainer config.

    Each run trains a freshly initialized model (same seed) on the same
    candidates for one epoch at the default batch size; the best of at
    least five runs is reported.
    """
    from ..encoding import (AutoencoderTrainer, AutoencoderTrainingConfig,
                            HierarchicalAutoencoder)
    samples = []
    for item in processed:
        samples.extend(lead.featurizer.featurize_all(item.candidates))
        if len(samples) >= max_candidates:
            break
    samples = samples[:max_candidates]
    if not samples:
        return {}
    cfg = AutoencoderTrainingConfig(epochs=1, seed=0)
    steps = int(np.ceil(len(samples) / cfg.batch_size))

    def timed_fit() -> float:
        """Wall-clock of ``fit`` alone (model init excluded)."""
        model = HierarchicalAutoencoder(lead.config.encoder)
        trainer = AutoencoderTrainer(model, cfg)
        start = time.perf_counter()
        trainer.fit(samples)
        return time.perf_counter() - start

    # Training runs are short, so a higher repeat floor is affordable
    # and tames the noise of shared CI machines.
    timed_fit()  # warm-up (allocator, BLAS threads)
    wall = min(timed_fit() for _ in range(max(repeats, 5)))
    return {"train_bench_candidates": len(samples),
            "train_bench_steps": steps,
            "train_epoch_fused_s": wall,
            "train_steps_fused_sps": steps / wall}


def _tiny_train_wall(verbose: bool) -> float:
    """Wall-clock of a fresh tiny-scale offline stage (data gen excluded)."""
    from ..data import SyntheticWorld, generate_dataset
    from ..experiments import get_experiment_config
    from ..pipeline import LEAD
    config = get_experiment_config("tiny")
    world = SyntheticWorld(config.dataset.world)
    dataset = generate_dataset(config.dataset, world=world)
    train, _, _ = dataset.split_by_truck((8, 1, 1), seed=config.seed)
    model = LEAD(world.pois, config.lead)
    start = time.perf_counter()
    model.fit(train.samples, verbose=verbose)
    return time.perf_counter() - start


def compare_to_baseline(current: dict, baseline: dict,
                        max_regression: float = 2.0,
                        metrics: tuple[str, ...] = GATED_METRICS
                        ) -> list[str]:
    """CI regression gate: list of human-readable failures (empty = pass).

    A gated throughput metric fails when it drops more than
    ``max_regression``× below the committed baseline.  Scales must
    match — comparing tiny CI numbers against a default-scale baseline
    would gate on noise.  A baseline missing a metric never fails (new
    metrics phase in without flag days).  ``metrics`` selects the gated
    set: :data:`GATED_METRICS` for the offline bench,
    :data:`STREAM_GATED_METRICS` for the streaming bench.
    """
    if max_regression < 1.0:
        raise ValueError("max_regression must be >= 1.0")
    failures: list[str] = []
    if current.get("scale") != baseline.get("scale"):
        failures.append(
            f"scale mismatch: bench ran at {current.get('scale')!r} but "
            f"baseline is {baseline.get('scale')!r}")
        return failures
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    if "telemetry_overhead_pct" in metrics:
        overhead = cur_metrics.get("telemetry_overhead_pct")
        if overhead is not None and overhead > TELEMETRY_OVERHEAD_BUDGET_PCT:
            failures.append(
                f"telemetry_overhead_pct: telemetry slows batched "
                f"detection by {overhead:.2f}% (budget "
                f"{TELEMETRY_OVERHEAD_BUDGET_PCT:g}%)")
    for key in metrics:
        if key == "telemetry_overhead_pct":
            continue     # absolute budget above, not a baseline ratio
        base = base_metrics.get(key)
        cur = cur_metrics.get(key)
        if base is None or cur is None:
            continue
        floor = base / max_regression
        if cur < floor:
            if key.startswith("train_"):
                unit = "steps/s"
            elif key.startswith("stream_ingest"):
                unit = "pings/s"
            elif key.startswith("stream_"):
                unit = "sessions/s"
            elif key.endswith("_pps"):
                unit = "points/s"
            else:
                unit = "traj/s"
            failures.append(
                f"{key}: {cur:.2f} {unit} is more than "
                f"{max_regression:g}x below the baseline {base:.2f} "
                f"(floor {floor:.2f})")
    if not current.get("equivalence", {}).get("allclose", False):
        failures.append(
            "batched detection no longer matches batch-of-one results "
            f"(max abs diff "
            f"{current.get('equivalence', {}).get('max_abs_diff')})")
    parity = current.get("precision_parity")
    if parity is not None:
        if parity.get("verdict_agreement") != 1.0:
            failures.append(
                "float32 inference verdicts diverged from float64 "
                f"(agreement {parity.get('verdict_agreement')}, must be 1.0)")
        if not parity.get("passed", False):
            failures.append(
                "float32 parity gate failed (max abs divergence "
                f"{parity.get('max_abs_divergence')} vs margin "
                f"{parity.get('margin')})")
    return failures


def run_stream_bench(scale: str | None = None, repeats: int = 3,
                     num_ticks: int = 8, serve_shards: int = 4,
                     verbose: bool = False) -> dict:
    """Benchmark the online detection layer at one experiment scale.

    Reuses the cached offline artifacts, replays the scale's test set as
    an interleaved fleet ping feed, and measures

    * raw ingest throughput (pings/sec through sanitize → reorder →
      noise filter → stay-point scanner, no detector attached);
    * sharded serve ingest throughput: the same feed submitted through a
      ``serve_shards``-worker :class:`~repro.serve.FleetService`
      (``serve_ingest_pps``; the CI gate expects >= 2x the
      single-process number at 4 shards);
    * per-tick detection latency (mean and p95 over ``num_ticks`` ticks
      spread across the feed) and tick throughput in sessions/sec;
    * flush throughput (final verdicts/sec over the whole fleet);
    * suffix-refeaturization evidence: per-tick feature-cache misses on
      the longest trajectory — late ticks must not miss more than early
      ones, because closed segments keep hitting the slice-keyed cache
      (this is what makes amortized per-ping cost sublinear in the
      trajectory length);
    * streamed-vs-offline equivalence: every final verdict must carry
      the same candidate pair as offline ``LEAD.detect`` with an
      ``allclose`` distribution at ``rtol=1e-9``.
    """
    from ..experiments import Experiment, get_experiment_config
    from ..stream import FleetConfig, FleetSessionManager, \
        dataset_ping_stream
    config = get_experiment_config(scale)
    experiment = Experiment(config, retrain_if_corrupt=True)
    lead = experiment.lead_variant("LEAD", verbose=verbose)
    raw = [p.raw for p, _ in experiment.test_set()]
    if not raw:
        raise ValueError(f"scale {config.name!r} has an empty test set")
    pings = dataset_ping_stream(raw)
    n_sessions = len(raw)
    metrics: dict[str, float] = {}

    # -- ingest throughput (no detector) -----------------------------------
    # Per-ping ingest only sanitizes and reorders; the noise filter and
    # the stay-point scanner run when a session drains.  The closing
    # flush_all() drains every session, so that work stays inside the
    # timing and the number covers the whole front-end.
    def replay_ingest() -> None:
        manager = FleetSessionManager(None, FleetConfig(
            max_sessions=n_sessions + 1))
        for ping in pings:
            manager.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                           day=ping.day)
        manager.flush_all()
    metrics["stream_ingest_pps"] = (
        len(pings) / _best_time(replay_ingest, repeats))

    # -- bulk ingest throughput (array-at-a-time session lane) --------------
    def replay_ingest_batch() -> None:
        from ..stream import TruckSession
        for trajectory in raw:
            session = TruckSession(str(trajectory.truck_id),
                                   str(trajectory.day))
            session.ingest_batch(trajectory.lats, trajectory.lngs,
                                 trajectory.ts)
            session.finalize()
    metrics["stream_ingest_batch_pps"] = (
        len(pings) / _best_time(replay_ingest_batch, repeats))

    # -- sharded serve ingest throughput (no detector) ----------------------
    # Same ingest work as replay_ingest, spread over ``serve_shards``
    # worker processes by repro.serve.  A huge high-water mark keeps
    # admission control out of the timing and the clock covers only
    # submit -> wait() on an already-started fleet (steady-state
    # capacity; worker fork/teardown is cold-start, not throughput —
    # each repeat still gets a fresh service so sessions never carry
    # over).  The gate: at 4 shards this must stay >= 2x the
    # single-process stream_ingest_pps number.
    def replay_serve() -> float:
        from ..serve import FleetService, ServeConfig
        serve_config = ServeConfig(
            num_shards=serve_shards, queue_high_water=1 << 20,
            fleet=FleetConfig(max_sessions=n_sessions + 1))
        # One submit per replay, mirroring replay_ingest_batch's full
        # day per session: both batch lanes see the same chunk sizes.
        with FleetService(None, config=serve_config) as service:
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                service.submit(pings)
                service.wait()
                return time.perf_counter() - t0
            finally:
                gc.enable()
    metrics["serve_ingest_pps"] = (
        len(pings) / min(replay_serve() for _ in range(max(1, repeats))))
    metrics["serve_shards"] = float(serve_shards)
    metrics["serve_scaling"] = (
        metrics["serve_ingest_pps"] / metrics["stream_ingest_pps"])

    # -- tick latency / throughput -----------------------------------------
    _clear_feature_caches(lead)
    manager = FleetSessionManager(lead, FleetConfig(
        max_sessions=n_sessions + 1))
    chunk = max(1, len(pings) // num_ticks)
    tick_walls: list[float] = []
    tick_verdicts = 0
    for start in range(0, len(pings), chunk):
        for ping in pings[start:start + chunk]:
            manager.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                           day=ping.day)
        t0 = time.perf_counter()
        tick_verdicts += len(manager.tick())
        tick_walls.append(time.perf_counter() - t0)
    metrics["stream_tick_mean_s"] = float(np.mean(tick_walls))
    metrics["stream_tick_p95_s"] = float(np.percentile(tick_walls, 95))
    metrics["stream_tick_sps"] = tick_verdicts / sum(tick_walls)

    # -- flush throughput ---------------------------------------------------
    t0 = time.perf_counter()
    finals = manager.flush_all()
    metrics["stream_flush_sps"] = len(finals) / (time.perf_counter() - t0)
    cache_stats = (lead.feature_cache.stats.as_dict()
                   if lead.feature_cache is not None else None)
    if lead.feature_cache is not None:
        cache_stats["dtype_keys"] = lead.feature_cache.dtype_key_counts()

    # -- suffix-only refeaturization on the longest trajectory --------------
    sublinear = None
    if lead.feature_cache is not None:
        longest = max(raw, key=len)
        lead.feature_cache.clear()
        solo = FleetSessionManager(lead, FleetConfig())
        step = max(1, len(longest) // 10)
        miss_per_tick: list[int] = []
        for i, (lat, lng, t) in enumerate(zip(longest.lats, longest.lngs,
                                              longest.ts)):
            solo.ingest(str(longest.truck_id), float(lat), float(lng),
                        float(t), day=str(longest.day))
            if (i + 1) % step == 0:
                before = lead.feature_cache.stats.misses
                solo.tick()
                miss_per_tick.append(
                    lead.feature_cache.stats.misses - before)
        solo.flush_all()
        busy = [m for m in miss_per_tick if m]
        sublinear = {
            "trajectory_pings": len(longest),
            "misses_per_tick": miss_per_tick,
            "hit_rate": lead.feature_cache.stats.hit_rate,
            # Late ticks re-featurize no more than early ones: the
            # closed prefix is served from the slice-keyed cache.
            "suffix_only": bool(not busy or busy[-1] <= max(busy[0], 4)),
        }

    # -- streamed == offline -----------------------------------------------
    by_key = {(v.truck_id, v.day): v for v in finals}
    max_diff, allclose, compared = 0.0, True, 0
    for trajectory in raw:
        offline = lead.detect(trajectory)
        verdict = by_key[(str(trajectory.truck_id), str(trajectory.day))]
        if offline is None:
            allclose &= verdict.pair is None
            continue
        compared += 1
        if (verdict.pair != offline.pair
                or not np.allclose(verdict.distribution,
                                   offline.distribution,
                                   rtol=1e-9, atol=0.0)):
            allclose = False
            continue
        max_diff = max(max_diff, float(np.abs(
            verdict.distribution - offline.distribution).max()))
    equivalence = {"rtol": 1e-9, "allclose": bool(allclose),
                   "max_abs_diff": max_diff,
                   "trajectories_compared": compared}

    return {
        "schema": 1,
        "kind": "stream",
        "scale": config.name,
        "generated_unix": time.time(),
        "environment": _environment(),
        "num_sessions": n_sessions,
        "num_pings": len(pings),
        "num_ticks": len(tick_walls),
        "metrics": metrics,
        "equivalence": equivalence,
        "sublinear": sublinear,
        "feature_cache": cache_stats,
    }


def format_stream_bench_table(payload: dict) -> str:
    """Render a streaming bench payload as a readable table."""
    metrics = payload["metrics"]
    lines = [
        f"scale={payload['scale']}  sessions={payload['num_sessions']}  "
        f"pings={payload['num_pings']}  ticks={payload['num_ticks']}",
        f"  ingest            {metrics['stream_ingest_pps']:10.0f} pings/s",
        f"  ingest (bulk)     "
        f"{metrics.get('stream_ingest_batch_pps', 0.0):10.0f} pings/s",
        f"  ingest (served)   "
        f"{metrics.get('serve_ingest_pps', 0.0):10.0f} pings/s"
        f"  ({metrics.get('serve_shards', 0.0):.0f} shards, "
        f"{metrics.get('serve_scaling', 0.0):.1f}x)",
        f"  tick (mean)       {metrics['stream_tick_mean_s'] * 1e3:10.2f} ms",
        f"  tick (p95)        {metrics['stream_tick_p95_s'] * 1e3:10.2f} ms",
        f"  tick throughput   {metrics['stream_tick_sps']:10.1f} sessions/s",
        f"  flush             {metrics['stream_flush_sps']:10.1f} sessions/s",
    ]
    sublinear = payload.get("sublinear")
    if sublinear:
        lines.append(
            f"  refeaturization   suffix_only={sublinear['suffix_only']}  "
            f"cache_hit_rate={sublinear['hit_rate']:.2f}")
    return "\n".join(lines)


def format_bench_table(payload: dict) -> str:
    """Render a bench payload as the README's throughput table."""
    metrics = payload["metrics"]
    rows = [
        ("encode (batch-of-one loop)",
         f"{metrics['encode_single_tps']:8.2f} traj/s", ""),
        ("encode (batched)",
         f"{metrics['encode_batch_tps']:8.2f} traj/s",
         f"{metrics['encode_batch_speedup']:.1f}x"),
        ("detect (batch-of-one loop)",
         f"{metrics['detect_single_tps']:8.2f} traj/s", ""),
        ("detect (batched)",
         f"{metrics['detect_batch_tps']:8.2f} traj/s",
         f"{metrics['detect_batch_speedup']:.1f}x"),
        ("featurize (cold cache)",
         f"{metrics['featurize_cold_s']:8.3f} s", ""),
        ("featurize (warm cache)",
         f"{metrics['featurize_warm_s']:8.3f} s",
         f"{metrics['featurize_cache_speedup']:.0f}x"),
    ]
    if "encode_batch_f32_tps" in metrics:
        rows.insert(2, ("encode (batched, float32)",
                        f"{metrics['encode_batch_f32_tps']:8.2f} traj/s",
                        f"{metrics['encode_batch_f32_speedup']:.1f}x"))
        rows.insert(5, ("detect (batched, float32)",
                        f"{metrics['detect_batch_f32_tps']:8.2f} traj/s",
                        f"{metrics['detect_batch_f32_speedup']:.1f}x"))
    if "telemetry_overhead_pct" in metrics:
        rows.append(("telemetry overhead (detect)",
                     f"{metrics['telemetry_overhead_pct']:8.2f} %", ""))
    if "preprocess_extract_tps" in metrics:
        rows.append(("stay points (chunked scan)",
                     f"{metrics['preprocess_extract_tps']:8.2f} traj/s", ""))
        rows.append(("noise filter (bulk pass)",
                     f"{metrics['preprocess_filter_tps']:8.2f} traj/s", ""))
        rows.append(("POI counts (CSR grid batch)",
                     f"{metrics['preprocess_poi_pps']:8.0f} pts/s", ""))
    if "train_steps_fused_sps" in metrics:
        rows.append(("train (autoencoder)",
                     f"{metrics['train_steps_fused_sps']:8.2f} steps/s", ""))
    if "train_tiny_wall_s" in metrics:
        rows.append(("offline fit (tiny scale)",
                     f"{metrics['train_tiny_wall_s']:8.2f} s", ""))
    lines = [f"scale={payload['scale']}  "
             f"trajectories={payload['num_test_trajectories']}  "
             f"candidates={payload['num_candidates']}"]
    lines.append(f"{'stage':<30} {'rate':>16} {'speedup':>8}")
    for name, rate, speedup in rows:
        lines.append(f"{name:<30} {rate:>16} {speedup:>8}")
    eq = payload["equivalence"]
    lines.append(f"batched == batch-of-one: allclose(rtol={eq['rtol']:g}) -> "
                 f"{eq['allclose']} (max abs diff {eq['max_abs_diff']:.3g})")
    parity = payload.get("precision_parity")
    if parity:
        lines.append(
            f"float32 parity gate: agreement="
            f"{parity['verdict_agreement']:.3f}  max divergence="
            f"{parity['max_abs_divergence']:.3g} (margin "
            f"{parity['margin']:g})  passed={parity['passed']}")
    return "\n".join(lines)
