"""Tests for the observability subsystem (:mod:`repro.obs`).

Covers the four contracts the subsystem makes:

* instruments are thread-safe and exact under concurrent hammering;
* span identity is deterministic under a seed and survives the
  ``parallel_map`` fan-out with correct nesting;
* telemetry off is a no-op — detection results and cache counters are
  bit-identical with and without an active bundle;
* the JSONL sink is crash-safe: a torn flush leaves a recoverable
  complete-line prefix, and the exposition renderers are golden-stable.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.chaos import ChaosEngine, FaultSpec
from repro.data import (DatasetConfig, SyntheticWorld, WorldConfig,
                        generate_dataset)
from repro.detection import DetectorTrainingConfig
from repro.encoding import AutoencoderTrainingConfig
from repro.obs import (EventLog, MetricsRegistry, Observability,
                       active_obs, flatten, obs_event, obs_span, observe,
                       read_jsonl, render_prometheus, render_span_tree,
                       render_table)
from repro.obs.core import _NULL_SPAN
from repro.nn import Module
from repro.obs.trace import Tracer
from repro.perf import SegmentFeatureCache, parallel_map
from repro.pipeline import LEAD, LEADConfig
from repro.serve import FleetService, ServeConfig
from repro.stream import FleetConfig, FleetSessionManager, dataset_ping_stream


# ---------------------------------------------------------------------------
# metrics


class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", help="h")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        gauge = registry.gauge("loss")
        gauge.set(2.5)
        gauge.dec(0.5)
        assert gauge.value == 2.0
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        snap = hist.snapshot()
        assert snap["buckets"] == {"0.1": 1, "1": 2, "+Inf": 3}
        assert snap["count"] == 3

    def test_get_or_create_is_stable_and_label_keyed(self):
        registry = MetricsRegistry()
        a = registry.counter("c", labels={"cache": "x"})
        b = registry.counter("c", labels={"cache": "x"})
        c = registry.counter("c", labels={"cache": "y"})
        assert a is b
        assert a is not c
        assert a.key == 'c{cache="x"}'

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("m")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_thread_hammer_is_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total")
        hist = registry.histogram("hammer_lat", buckets=(0.5,))
        threads, per_thread = 8, 2000

        def worker() -> None:
            for _ in range(per_thread):
                counter.inc()
                hist.observe(0.1)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert counter.value == threads * per_thread
        assert hist.count == threads * per_thread
        assert hist.snapshot()["buckets"]["0.5"] == threads * per_thread


# ---------------------------------------------------------------------------
# tracing


def _strip_timing(spans: list[dict]) -> list[dict]:
    return [{k: v for k, v in span.items()
             if k not in ("start_s", "duration_s")} for span in spans]


class TestTracer:
    def _run_tree(self, tracer: Tracer) -> None:
        with tracer.span("root", depth=0):
            with tracer.span("child"):
                pass
            with tracer.span("child"):   # same name, distinct child key
                pass

    def test_ids_deterministic_across_runs(self):
        a, b = Tracer(seed=7), Tracer(seed=7)
        self._run_tree(a)
        self._run_tree(b)
        assert _strip_timing(a.finished) == _strip_timing(b.finished)
        other = Tracer(seed=8)
        self._run_tree(other)
        assert (_strip_timing(other.finished)
                != _strip_timing(a.finished))

    def test_nesting_and_sibling_keys(self):
        tracer = Tracer(seed=0)
        self._run_tree(tracer)
        spans = tracer.finished
        root = next(s for s in spans if s["name"] == "root")
        children = [s for s in spans if s["name"] == "child"]
        assert root["parent_id"] is None
        assert all(c["parent_id"] == root["span_id"] for c in children)
        assert len({c["span_id"] for c in children}) == 2
        assert all(c["trace_id"] == root["trace_id"] for c in children)

    def test_attach_parents_remote_work(self):
        tracer = Tracer(seed=0)
        box: dict = {}
        with tracer.span("root") as root:
            context = root.context

            def remote() -> None:
                with tracer.attach(context, child_key=3):
                    with tracer.span("task"):
                        pass
                box["done"] = True

            thread = threading.Thread(target=remote)
            thread.start()
            thread.join()
        assert box["done"]
        task = next(s for s in tracer.finished if s["name"] == "task")
        assert task["parent_id"] == context.span_id
        assert task["trace_id"] == context.trace_id

    def test_bounded_spans_count_drops(self):
        tracer = Tracer(seed=0, max_spans=2)
        for _ in range(4):
            with tracer.span("s"):
                pass
        assert len(tracer.finished) == 2
        assert tracer.dropped == 2


# ---------------------------------------------------------------------------
# events and the ambient context


class TestEvents:
    def test_emit_sets_seq_and_deterministic_id(self):
        log = EventLog()
        event = log.emit("fleet.spill_failed", truck_id="t-1",
                         reason="disk full")
        assert event["id"] == "e000000"
        assert event["fields"]["truck_id"] == "t-1"
        assert log.emit("x")["id"] == "e000001"

    def test_bounded_log_counts_drops(self):
        log = EventLog(maxlen=2)
        for i in range(5):
            log.emit("e", i=i)
        assert len(log) == 2
        assert log.dropped == 3
        assert [e["seq"] for e in log.events] == [3, 4]

    def test_read_jsonl_missing_file_is_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "nope.jsonl") == []


class TestAmbientContext:
    def test_off_by_default(self):
        assert active_obs() is None
        assert obs_event("anything", x=1) is None
        # The no-op span is a single shared, re-enterable object.
        assert obs_span("detect") is _NULL_SPAN
        assert obs_span("other") is _NULL_SPAN
        with obs_span("detect"):
            pass

    def test_observe_scopes_and_restores(self):
        ob = Observability(seed=1)
        with observe(ob):
            assert active_obs() is ob
            event = obs_event("detection.degraded", tier="heuristic")
            assert event is not None and event["name"] == \
                "detection.degraded"
            with obs_span("stage", items=2):
                pass
        assert active_obs() is None
        assert len(ob.events) == 1
        assert ob.tracer.finished[0]["attrs"] == {"items": 2}

    def test_name_field_does_not_collide(self):
        # Call sites emit fields literally called "name"; the event /
        # span name parameter is positional-only so this must work.
        with observe(Observability()) as ob:
            obs_event("breaker.transition", name="spill", to_state="open")
            with obs_span("s", name="attr-name"):
                pass
        assert ob.events.events[0]["fields"]["name"] == "spill"
        assert ob.tracer.finished[0]["attrs"]["name"] == "attr-name"


# ---------------------------------------------------------------------------
# parallel_map propagation


def _square(x: int) -> int:
    return x * x


class TestParallelPropagation:
    def test_serial_map_nests_task_spans(self):
        def run() -> list[dict]:
            ob = Observability(seed=3)
            with observe(ob):
                assert parallel_map(_square, range(4)) == [0, 1, 4, 9]
            return ob.tracer.finished

        spans = run()
        root = next(s for s in spans if s["name"] == "parallel.map")
        tasks = [s for s in spans if s["name"] == "parallel.task"]
        assert root["attrs"] == {"tasks": 4, "workers": 1}
        assert len(tasks) == 4
        assert all(t["parent_id"] == root["span_id"] for t in tasks)
        assert sorted(t["attrs"]["index"] for t in tasks) == [0, 1, 2, 3]
        # Task ids are pinned by index, so a rerun is byte-identical.
        assert _strip_timing(run()) == _strip_timing(spans)

    def test_pool_map_results_unchanged(self):
        with observe(Observability(seed=3)):
            assert parallel_map(_square, range(6), workers=2) \
                == [0, 1, 4, 9, 16, 25]


# ---------------------------------------------------------------------------
# no-op-mode bit-identity on the real pipeline


@pytest.fixture(scope="module")
def obs_fitted_lead():
    world = SyntheticWorld(WorldConfig(seed=6))
    dataset = generate_dataset(
        DatasetConfig(num_trajectories=8, num_trucks=4, seed=6),
        world=world)
    lead = LEAD(world.pois, LEADConfig(
        encoder_training=AutoencoderTrainingConfig(
            epochs=1, max_samples_per_epoch=30, batch_size=8, seed=0),
        detector_training=DetectorTrainingConfig(
            epochs=1, batch_size=4, seed=0),
        max_autoencoder_samples=40, seed=0))
    lead.fit(dataset.samples[:6])
    return lead, dataset


class TestNoOpBitIdentity:
    def test_detect_identical_off_and_on(self, obs_fitted_lead):
        lead, dataset = obs_fitted_lead
        trajectory = dataset.samples[0].trajectory
        off_a = lead.detect(trajectory)
        off_b = lead.detect(trajectory)
        assert off_a.pair == off_b.pair
        assert np.array_equal(off_a.distribution, off_b.distribution)
        assert off_a.provenance.notes == off_b.provenance.notes

        with observe(Observability(seed=0)):
            on = lead.detect(trajectory)
        assert on.pair == off_a.pair
        assert np.array_equal(on.distribution, off_a.distribution)

    def test_detect_batch_identical_off_and_on(self, obs_fitted_lead):
        lead, dataset = obs_fitted_lead
        trajectories = [s.trajectory for s in dataset.samples[:4]]
        off = lead.detect_batch(trajectories)
        with observe(Observability(seed=0)):
            on = lead.detect_batch(trajectories)
        for a, b in zip(off, on):
            if a is None:
                assert b is None
                continue
            assert a.pair == b.pair
            assert np.array_equal(a.distribution, b.distribution)

    def test_detect_records_stage_spans_and_verdict_counter(
            self, obs_fitted_lead):
        lead, dataset = obs_fitted_lead
        ob = Observability(seed=0)
        with observe(ob):
            lead.detect(dataset.samples[0].trajectory)
        names = {s["name"] for s in ob.tracer.finished}
        assert {"detect", "detect.sanitize", "detect.extract",
                "detect.featurize", "detect.encode", "detect.score",
                "detect.merge"} <= names
        counters = ob.registry.snapshot()["counters"]
        assert sum(v for k, v in counters.items()
                   if k.startswith("detect_verdicts_total")) == 1

    def test_cache_stats_payload_is_byte_compatible(self, obs_fitted_lead):
        lead, _ = obs_fitted_lead
        stats = lead.feature_cache.stats.as_dict()
        assert set(stats) == {"hits", "misses", "evictions", "hit_rate"}
        assert isinstance(stats["hits"], int)
        assert isinstance(stats["hit_rate"], float)
        live = SegmentFeatureCache(maxsize=4)
        live.stats.record_hit()
        assert json.dumps(live.stats.as_dict()) == (
            '{"hits": 1, "misses": 0, "evictions": 0, "hit_rate": 1.0}')


def _autoencoder_fit():
    from repro.encoding import (AutoencoderTrainer, EncoderConfig,
                                HierarchicalAutoencoder)
    rng = np.random.default_rng(3)
    days = [[rng.normal(size=(int(rng.integers(2, 5)), 32))
             for _ in range(3)] for _ in range(6)]
    model = HierarchicalAutoencoder(EncoderConfig(seed=3))
    AutoencoderTrainer(model, AutoencoderTrainingConfig(
        epochs=2, batch_size=4, seed=0)).fit(
        [day[0::2] for day in days], [day[1::2] for day in days],
        [(d, (1, 2)) for d in range(len(days))])
    return model, {"hierarchical-autoencoder"}


def _joint_fit():
    from repro.detection import GroupDetector, JointDetectorTrainer
    from repro.encoding import EncoderConfig, HierarchicalAutoencoder

    from .test_joint import make_specs
    ae = HierarchicalAutoencoder(EncoderConfig(seed=4))
    fwd = GroupDetector(64, 8, 1, np.random.default_rng(5))
    bwd = GroupDetector(64, 8, 1, np.random.default_rng(6))
    JointDetectorTrainer(ae, fwd, bwd, config=DetectorTrainingConfig(
        epochs=2, batch_size=3, seed=0)).fit(
        make_specs(np.random.default_rng(7), n_specs=4))
    model = Module()
    model.ae, model.fwd, model.bwd = ae, fwd, bwd
    return model, {"forward-detector", "backward-detector"}


def _sp_gru_fit():
    from types import SimpleNamespace

    from repro.baselines import SPNNDetector, SPNNTrainingConfig
    rng = np.random.default_rng(8)
    features = {}

    def featurize_segments(stay_points):
        return [features.setdefault(
            id(stay_point), rng.normal(size=(int(rng.integers(2, 5)), 32)))
            for stay_point in stay_points]

    days = [(SimpleNamespace(stay_points=[SimpleNamespace(ordinal=k)
                                          for k in (1, 2, 3)]), (1, 3))
            for _ in range(4)]
    detector = SPNNDetector(
        "gru", SimpleNamespace(featurize_segments=featurize_segments),
        SPNNTrainingConfig(epochs=2, batch_size=4, seed=0))
    detector.fit(days)
    return detector.classifier, {"sp-gru"}


_TRAINER_FITS = {"autoencoder": _autoencoder_fit, "joint": _joint_fit,
                 "sp-gru": _sp_gru_fit}


class TestTrainingTelemetry:
    """Every trainer runs the shared loop, so every fit publishes the
    same three gauges under one label rule (DESIGN §14)."""

    @pytest.mark.parametrize("model", sorted(_TRAINER_FITS))
    def test_fit_publishes_epoch_gauges(self, model):
        ob = Observability(seed=0)
        with observe(ob):
            _, histories = _TRAINER_FITS[model]()
        gauges = ob.registry.snapshot()["gauges"]
        for history in histories:
            labels = f'{{history="{history}",model="{model}"}}'
            assert gauges["train_epoch" + labels] == 1
            assert np.isfinite(gauges["train_epoch_loss" + labels])
        assert gauges[f'train_steps_per_second{{model="{model}"}}'] > 0

    @pytest.mark.parametrize("model", sorted(_TRAINER_FITS))
    def test_telemetry_does_not_change_the_weights(self, model):
        off, _ = _TRAINER_FITS[model]()
        with observe(Observability(seed=0)):
            on, _ = _TRAINER_FITS[model]()
        off_state, on_state = off.state_dict(), on.state_dict()
        assert off_state and off_state.keys() == on_state.keys()
        for key, value in off_state.items():
            assert np.array_equal(value, on_state[key])


def _without_feature_cache(stats: dict) -> dict:
    """Fleet stats minus the detector's shared, cumulative cache counts."""
    return {k: v for k, v in stats.items() if k != "feature_cache"}


def _fleet_replay(lead, pings, directory) -> dict:
    manager = FleetSessionManager(lead, FleetConfig(
        max_sessions=2, checkpoint_dir=directory))
    for index, ping in enumerate(pings):
        manager.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                       day=ping.day)
        if index % 400 == 399:
            manager.tick()
    manager.flush_all()
    return _without_feature_cache(manager.stats())


def _inline_service_run(lead, pings) -> dict:
    config = ServeConfig(num_shards=2, backend="inline")
    with FleetService(lead, config=config) as service:
        for start in range(0, len(pings), 400):
            service.submit(pings[start:start + 400])
            service.tick()
        service.drain()
        stats = service.stats()
    for shard in stats["shards"].values():
        shard["fleet"] = _without_feature_cache(shard["fleet"])
    return stats


class TestTelemetryKeepsNoCounts:
    """Counts live on their owners; telemetry only adds what it alone
    measures (span timings), so it neither changes ``stats()`` nor
    mirrors those counts into gauges."""

    @staticmethod
    def _assert_timings_only(ob: Observability) -> None:
        snapshot = ob.registry.snapshot()
        assert {"fleet_tick_seconds", "fleet_flush_seconds"} \
            <= set(snapshot["histograms"])
        assert not [key for key in snapshot["gauges"]
                    if key.startswith(("fleet_", "serve_"))]

    def test_fleet_replay_stats_unchanged(self, obs_fitted_lead, tmp_path):
        lead, dataset = obs_fitted_lead
        pings = dataset_ping_stream(dataset.samples)
        off = _fleet_replay(lead, pings, tmp_path / "off")
        ob = Observability(seed=0)
        with observe(ob):
            on = _fleet_replay(lead, pings, tmp_path / "on")
        assert on == off
        assert off["io_retry"]["calls"] > 0
        self._assert_timings_only(ob)

    def test_inline_service_stats_unchanged(self, obs_fitted_lead):
        lead, dataset = obs_fitted_lead
        pings = dataset_ping_stream(dataset.samples)
        off = _inline_service_run(lead, pings)
        ob = Observability(seed=0)
        with observe(ob):
            on = _inline_service_run(lead, pings)
        assert on == off
        assert off["frontend"]["accepted_pings"] == len(pings)
        self._assert_timings_only(ob)


# ---------------------------------------------------------------------------
# crash-safe JSONL sink


def _populated_bundle() -> Observability:
    ob = Observability(seed=5)
    with observe(ob):
        obs_event("fleet.spill_failed", truck_id="t-9", reason="disk")
        with obs_span("detect"):
            with obs_span("detect.encode", candidates=3):
                pass
        ob.registry.counter("c_total").inc(2)
    return ob


class TestFlushAndTornWrites:
    def test_flush_round_trips(self, tmp_path):
        ob = _populated_bundle()
        path = tmp_path / "telemetry.jsonl"
        ob.flush(path)
        records = read_jsonl(path)
        assert records == ob.to_records()
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "meta" and kinds[-1] == "metrics"

    def test_torn_write_fuzz_recovers_prefix(self, tmp_path):
        ob = _populated_bundle()
        path = tmp_path / "telemetry.jsonl"
        full = ob.to_records()
        size = len("\n".join(json.dumps(r, sort_keys=True)
                             for r in full) + "\n")
        # Sweep the torn-write cut over the whole byte range: whatever
        # prefix lands on disk, the reader recovers only complete lines
        # and they match the intended stream.
        for cut in range(0, size + 1, max(1, size // 23)):
            spec = FaultSpec(site="io.write", kind="torn", param=cut)
            with ChaosEngine(seed=0, specs=[spec]):
                with pytest.raises(OSError):
                    ob.flush(path)
            recovered = read_jsonl(path)
            assert recovered == full[:len(recovered)]
            path.unlink(missing_ok=True)

    def test_failed_write_leaves_previous_flush(self, tmp_path):
        ob = _populated_bundle()
        path = tmp_path / "telemetry.jsonl"
        ob.flush(path)
        spec = FaultSpec(site="io.write", kind="fail")
        with ChaosEngine(seed=0, specs=[spec]):
            with pytest.raises(OSError):
                ob.flush(path)
        assert read_jsonl(path) == ob.to_records()


# ---------------------------------------------------------------------------
# exporters


class TestExposition:
    def _golden_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("cache_hits_total", help="Cache hits.",
                         labels={"cache": "segment"}).inc(3)
        registry.gauge("fleet_resident_sessions").set(2)
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        return registry

    def test_prometheus_golden(self):
        text = render_prometheus(self._golden_registry())
        assert text == (
            '# HELP cache_hits_total Cache hits.\n'
            '# TYPE cache_hits_total counter\n'
            'cache_hits_total{cache="segment"} 3\n'
            '# TYPE fleet_resident_sessions gauge\n'
            'fleet_resident_sessions 2\n'
            '# TYPE lat_seconds histogram\n'
            'lat_seconds_bucket{le="0.1"} 1\n'
            'lat_seconds_bucket{le="1"} 2\n'
            'lat_seconds_bucket{le="+Inf"} 2\n'
            'lat_seconds_sum 0.55\n'
            'lat_seconds_count 2\n')

    def test_flatten_and_table(self):
        payload = {"fleet": {"evictions": 2, "keys": ["a", "b"]},
                   "ok": True}
        assert flatten(payload) == {"fleet.evictions": 2,
                                    "fleet.keys": "a,b", "ok": True}
        table = render_table(payload, title="stats")
        lines = table.splitlines()
        assert lines[0] == "stats"
        assert lines[2] == "fleet.evictions  2"
        # Aligned: every value starts at the same column.
        assert lines[3].startswith("fleet.keys       a,b")

    def test_span_tree_golden(self):
        spans = [
            {"seq": 0, "span_id": "aa", "parent_id": None,
             "name": "detect", "duration_s": 0.01, "attrs": {}},
            {"seq": 1, "span_id": "bb", "parent_id": "aa",
             "name": "detect.encode", "duration_s": 0.002,
             "attrs": {"candidates": 3}},
            {"seq": 2, "span_id": "cc", "parent_id": "zz",   # orphan
             "name": "stray", "duration_s": 0.001, "attrs": {}},
        ]
        assert render_span_tree(spans) == (
            "detect (aa) 10.00ms\n"
            "  detect.encode (bb) 2.00ms  [candidates=3]\n"
            "stray (cc) 1.00ms\n")


# ---------------------------------------------------------------------------
# CLI integration


class TestObsCli:
    def test_obs_subcommand_renders_flushed_trace(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "t.jsonl"
        _populated_bundle().flush(path)
        assert main(["obs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry schema v1" in out
        assert "detect.encode" in out
        assert "e000000  fleet.spill_failed" in out
        assert 'counters.c_total' in out

    def test_obs_subcommand_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        from repro.cli import main
        assert main(["obs", str(path)]) == 1
