"""Serve-layer tests: sharded convergence, routing purity, backpressure,
restart-under-fire, the uniform config surface, the ``repro.api``
covenant, and the keyword-only arguments of the legacy entrypoints."""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import signal
import socket
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.chaos import ChaosEngine, FaultSpec
from repro.data import (DatasetConfig, SyntheticWorld, WorldConfig,
                        generate_dataset)
from repro.detection import DetectorTrainingConfig
from repro.encoding import AutoencoderTrainingConfig
from repro.obs import Observability, observe
from repro.pipeline import LEAD, LEADConfig
from repro.serve import (FleetService, ServeConfig, ServeError, shard_for)
from repro.serve import service as serve_service
from repro.serve import worker as serve_worker
from repro.stream import (FleetConfig, FleetSessionManager,
                          dataset_ping_stream)
from repro.supervise import Quarantine, RetryPolicy


def tiny_lead_config(**overrides) -> LEADConfig:
    base = dict(
        encoder_training=AutoencoderTrainingConfig(
            epochs=1, max_samples_per_epoch=30, batch_size=8, seed=0),
        detector_training=DetectorTrainingConfig(
            epochs=1, batch_size=4, seed=0),
        max_autoencoder_samples=40,
        seed=0)
    base.update(overrides)
    return LEADConfig(**base)


@pytest.fixture(scope="module")
def world_and_data():
    world = SyntheticWorld(WorldConfig(seed=13))
    dataset = generate_dataset(
        DatasetConfig(num_trajectories=50, num_trucks=20, seed=13),
        world=world)
    return world, dataset


@pytest.fixture(scope="module")
def fitted(world_and_data):
    world, dataset = world_and_data
    lead = LEAD(world.pois, tiny_lead_config())
    lead.fit(dataset.samples[:8])
    return lead


@pytest.fixture(scope="module")
def pings(world_and_data):
    _, dataset = world_and_data
    return dataset_ping_stream(dataset.samples)


@pytest.fixture(scope="module")
def serial_verdicts(fitted, pings):
    """Reference final verdicts from a serial single-manager replay."""
    manager = FleetSessionManager(fitted, FleetConfig())
    for ping in pings:
        manager.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                       day=ping.day)
    return {(v.truck_id, v.day): v for v in manager.flush_all()}


def assert_same_verdict(sharded, serial) -> None:
    """The serve-layer convergence predicate: same pair, same
    confidence, same provenance tier, allclose distribution."""
    assert sharded.pair == serial.pair
    assert sharded.confidence == serial.confidence
    if serial.distribution is None:
        assert sharded.distribution is None
    else:
        assert np.allclose(sharded.distribution, serial.distribution,
                           rtol=1e-9, atol=0.0)
    if serial.provenance is not None:
        assert sharded.provenance.tier == serial.provenance.tier
        assert sharded.provenance.notes == serial.provenance.notes


def drain_service(service, pings, *, batch=500, ticks=True) -> dict:
    index = 0
    for start in range(0, len(pings), batch):
        result = service.submit(pings[start:start + batch])
        while result.rejected:
            service.wait()
            result = service.submit(result.rejected_pings)
        index += 1
        if ticks and index % 10 == 0:
            service.tick()
    return {(v.truck_id, v.day): v for v in service.drain()}


# ---------------------------------------------------------------------------
# 1. Sharded == serial convergence (the tentpole contract)
# ---------------------------------------------------------------------------
class TestShardedConvergence:
    def test_process_backend_matches_serial(self, fitted, pings,
                                            serial_verdicts):
        config = ServeConfig(num_shards=4)
        with FleetService(fitted, config=config) as service:
            sharded = drain_service(service, pings)
        assert set(sharded) == set(serial_verdicts)
        assert len(sharded) == 50
        for key, serial in serial_verdicts.items():
            assert_same_verdict(sharded[key], serial)

    def test_inline_backend_matches_serial(self, fitted, pings,
                                           serial_verdicts):
        config = ServeConfig(num_shards=3, backend="inline")
        with FleetService(fitted, config=config) as service:
            sharded = drain_service(service, pings)
        assert set(sharded) == set(serial_verdicts)
        for key, serial in serial_verdicts.items():
            assert_same_verdict(sharded[key], serial)

    def test_worker_kill_converges(self, fitted, pings, serial_verdicts,
                                   tmp_path):
        """Chaos kills + an explicit midpoint SIGKILL: the shard restarts
        from its barrier snapshot, replays its journal, and still
        converges verdict for verdict."""
        config = ServeConfig(num_shards=4, checkpoint_dir=tmp_path,
                             checkpoint_every=8)
        specs = [FaultSpec(site="serve.worker", kind="kill", rate=0.1,
                           max_fires=2)]
        with FleetService(fitted, config=config) as service:
            with ChaosEngine(seed=7, specs=specs):
                batches = [pings[i:i + 500]
                           for i in range(0, len(pings), 500)]
                for i, batch in enumerate(batches):
                    if i == len(batches) // 2:
                        assert service.kill_worker(shard=1)
                    result = service.submit(batch)
                    while result.rejected:
                        service.wait()
                        result = service.submit(result.rejected_pings)
                sharded = {(v.truck_id, v.day): v
                           for v in service.drain()}
            stats = service.stats()
        assert stats["frontend"]["restarts"] >= 1
        assert set(sharded) == set(serial_verdicts)
        for key, serial in serial_verdicts.items():
            assert_same_verdict(sharded[key], serial)

    def test_worker_dying_before_send_gets_batch_once(self, fitted, pings,
                                                      serial_verdicts):
        """A SIGKILL lands after submit's pump read the socket but before
        the send: the refused send restarts the shard, the journal replay
        delivers the batch, and the frontend must not send it again."""
        def submit_all(service, chunk):
            for start in range(0, len(chunk), 500):
                result = service.submit(chunk[start:start + 500])
                while result.rejected:
                    service.wait()
                    result = service.submit(result.rejected_pings)
            service.wait()

        half = len(pings) // 2
        with FleetService(fitted, config=ServeConfig(num_shards=4)) \
                as service:
            submit_all(service, pings[:half])
            worker = service._shards[1].process
            assert service.kill_worker(shard=1)
            worker.join(timeout=10.0)
            assert not worker.is_alive()
            # Submit's pump still reads nothing (no EOF) from it, once.
            channel = service._shards[1].channel
            real_recv = channel.recv

            def recv(timeout=None):
                channel.recv = real_recv
                return None
            channel.recv = recv
            with observe(Observability()) as ob:
                submit_all(service, pings[half:])
            stats = service.stats()
            sharded = {(v.truck_id, v.day): v for v in service.drain()}
        assert restart_reasons(ob) == ["worker died before send"]
        assert stats["frontend"]["restarts"] == 1
        ingested = sum(shard["fleet"]["sessions"]["pings_ingested"]
                       for shard in stats["shards"].values())
        assert ingested == len(pings)
        assert set(sharded) == set(serial_verdicts)
        for key, serial in serial_verdicts.items():
            assert_same_verdict(sharded[key], serial)

    def test_process_exits_after_killing_a_busy_worker(self):
        """A worker killed right after a batch larger than its socket's
        buffer was written to it is restarted once, and the interpreter
        then exits instead of waiting on anything the dead worker held."""
        script = textwrap.dedent("""
            from repro.chaos import ChaosEngine, FaultSpec
            from repro.serve import FleetService, ServeConfig

            pings = [("T1", "d0", 32.0 + 1e-5 * i, 121.0, float(i))
                     for i in range(20000)]
            kill = [FaultSpec(site="serve.worker", kind="kill",
                              rate=1.0, max_fires=1)]
            config = ServeConfig(num_shards=1)
            with FleetService(None, config=config) as service:
                with ChaosEngine(seed=0, specs=kill):
                    service.submit(pings)
                service.wait()
                print(service.stats()["frontend"]["restarts"])
        """)
        done = subprocess.run([sys.executable, "-c", script],
                              env=_source_env(), capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"

    def test_workers_exit_when_the_frontend_is_killed(self, tmp_path):
        """A SIGKILLed frontend takes its workers with it: each closed
        every frontend end it inherited, so it reads EOF and exits
        instead of waiting for commands (and holding the frontend's
        output open) for ever."""
        pid_file, err_file = tmp_path / "pids", tmp_path / "stderr"
        script = textwrap.dedent(f"""
            import os
            import signal
            from repro.serve import FleetService, ServeConfig

            service = FleetService(None, config=ServeConfig(num_shards=2))
            service.submit([("T1", "d0", 32.0, 121.0, 0.0)])
            service.wait()
            with open({str(pid_file)!r}, "w") as out:
                out.write(" ".join(str(shard.process.pid)
                                   for shard in service._shards))
            os.kill(os.getpid(), signal.SIGKILL)
        """)
        with open(err_file, "w") as err:
            done = subprocess.run([sys.executable, "-c", script],
                                  env=_source_env(), timeout=60,
                                  stdout=subprocess.DEVNULL, stderr=err)
        assert done.returncode == -signal.SIGKILL, err_file.read_text()
        pids = [int(pid) for pid in pid_file.read_text().split()]
        assert len(pids) == 2
        try:
            deadline = time.monotonic() + 10.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)

    def test_hostile_feed_matches_serial_per_ping_replay(self, fitted,
                                                         pings):
        """Invalid, duplicate, displaced and too-late pings take the
        same path through a process shard as through serial per-ping
        ingest: same verdicts and notes, same drop and reorder counts."""
        feed = hostile_feed(pings)
        manager = FleetSessionManager(fitted, FleetConfig())
        for truck_id, day, lat, lng, t in feed:
            manager.ingest(truck_id, lat, lng, t, day=day)
        serial = {(v.truck_id, v.day): v for v in manager.flush_all()}
        expected = manager.stats()["sessions"]
        assert expected["pings_dropped_invalid"] > 0
        assert expected["pings_dropped_late"] > 0
        assert expected["pings_reordered"] > 0
        assert any(v.provenance is not None and v.provenance.notes
                   for v in serial.values())

        with FleetService(fitted, config=ServeConfig(num_shards=2)) \
                as service:
            sharded = drain_service(service, feed)
            stats = service.stats()
        assert set(sharded) == set(serial)
        for key, want in serial.items():
            assert_same_verdict(sharded[key], want)
        for counter in ("pings_dropped_invalid", "pings_dropped_late",
                        "pings_reordered"):
            got = sum(shard["fleet"]["sessions"][counter]
                      for shard in stats["shards"].values())
            assert got == expected[counter], counter


def _source_env() -> dict:
    """The environment for a subprocess importing this tree's ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _running(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie nobody reaped does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def restart_reasons(ob) -> list[str]:
    """The ``reason`` of every shard restart ``ob`` recorded, in order."""
    return [event["fields"]["reason"] for event in ob.events.events
            if event["name"] == "serve.shard_restart"]


def hostile_feed(pings) -> list[tuple]:
    """``pings`` as ``(truck_id, day, lat, lng, t)`` tuples with hostile
    fixes spliced into every truck-day, in place: a NaN latitude, an
    out-of-range latitude and longitude, a duplicate of the previous
    fix, a copy of the day's first fix (far beyond the reorder horizon)
    and a fix displaced half a second back (reordered, recovered)."""
    history: dict[tuple, list] = {}
    feed = []
    for ping in pings:
        row = (ping.truck_id, ping.day, ping.lat, ping.lng, ping.t)
        rows = history.setdefault(row[:2], [])
        k = len(rows)
        if k == 10:
            feed.append((*row[:2], float("nan"), ping.lng, ping.t))
        elif k == 20:
            feed.append((*row[:2], 95.0, ping.lng, ping.t))
        elif k == 30:
            feed.append((*row[:2], ping.lat, -181.0, ping.t))
        elif k == 40:
            feed.append(rows[-1])
        elif k == 50:
            feed.append(rows[0])
        feed.append(row)
        if k == 60:
            feed.append((*row[:2], ping.lat, ping.lng, ping.t - 0.5))
        rows.append(row)
    return feed


# ---------------------------------------------------------------------------
# 2. Routing is a pure function of the truck id
# ---------------------------------------------------------------------------
class TestRouting:
    @settings(max_examples=200, deadline=None)
    @given(truck_id=st.text(min_size=1, max_size=40),
           num_shards=st.integers(min_value=1, max_value=64))
    def test_routing_is_pure_and_bounded(self, truck_id, num_shards):
        first = shard_for(truck_id, num_shards)
        assert 0 <= first < num_shards
        assert shard_for(truck_id, num_shards) == first

    def test_routing_is_stable_across_processes(self):
        # blake2b is keyless and seed-free, so these pins hold on any
        # machine, any PYTHONHASHSEED — restart safety depends on it.
        assert [shard_for(f"T{i:03d}", 4) for i in range(6)] \
            == [0, 2, 2, 0, 0, 2]

    def test_routing_spreads_trucks(self):
        shards = {shard_for(f"truck-{i:04d}", 4) for i in range(200)}
        assert shards == {0, 1, 2, 3}

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard_for("t", 0)


# ---------------------------------------------------------------------------
# 3. Admission control (backpressure, not buffering)
# ---------------------------------------------------------------------------
class TestBackpressure:
    def test_overloaded_shard_rejects_then_recovers(self, pings):
        config = ServeConfig(num_shards=1, queue_high_water=1,
                             response_timeout_s=30.0)
        spec = FaultSpec(site="serve.worker", kind="hang", rate=1.0,
                         max_fires=1, param=0.6)
        feed = pings[:600]
        with FleetService(None, config=config) as service:
            with ChaosEngine(seed=3, specs=[spec]):
                first = service.submit(feed[:200])     # worker hangs
                assert first.accepted == 200
                second = service.submit(feed[200:400])
                assert second.rejected == 200
                assert second.accepted == 0
                assert any("backpressure" in r for r in second.reasons)
                service.wait()
                retry = service.submit(second.rejected_pings)
                assert retry.rejected == 0
                service.wait()   # high water 1: drain before the next batch
                third = service.submit(feed[400:])
                assert third.rejected == 0
            service.wait()
            stats = service.stats()
        assert stats["frontend"]["rejected_pings"] == 200
        assert stats["frontend"]["submitted_pings"] == 800
        assert stats["frontend"]["accepted_pings"] == 600

    def test_rejected_pings_resubmit_preserves_per_truck_order(self):
        config = ServeConfig(num_shards=1, backend="inline")
        rows = [("T1", "d", 1.0 + i * 1e-4, 2.0, float(i))
                for i in range(10)]
        with FleetService(None, config=config) as service:
            result = service.submit(rows)
            assert result.rejected == 0   # inline never backpressures
            stats = service.stats()
        fleet = stats["shards"]["0"]["fleet"]
        assert fleet["sessions"]["pings_ingested"] == 10


class TestHungWorker:
    """A worker that stops answering is restarted after
    ``response_timeout_s``, whether the frontend waits for its reply or
    for room on its socket."""

    HANG = FaultSpec(site="serve.worker", kind="hang", rate=1.0,
                     max_fires=1, param=20.0)

    def test_wait_restarts_a_hung_worker(self, fitted, pings,
                                         serial_verdicts):
        config = ServeConfig(num_shards=1, response_timeout_s=1.0)
        with FleetService(fitted, config=config) as service:
            with observe(Observability()) as ob:
                with ChaosEngine(seed=3, specs=[self.HANG]):
                    assert service.submit(pings[:500]).accepted == 500
                start = time.monotonic()
                service.wait()
                waited = time.monotonic() - start
            TestDrainBarrier._submit(service, pings[500:])
            service.wait()
            stats = service.stats()
            sharded = {(v.truck_id, v.day): v for v in service.drain()}
        assert 1.0 <= waited < 6.0
        assert restart_reasons(ob) == ["worker hung (response timeout)"]
        assert stats["frontend"]["restarts"] == 1
        assert stats["shards"]["0"]["fleet"]["sessions"][
            "pings_ingested"] == len(pings)
        assert set(sharded) == set(serial_verdicts)
        for key, serial in serial_verdicts.items():
            assert_same_verdict(sharded[key], serial)

    def test_send_to_a_hung_worker_gives_up(self):
        """Batches far past the socket's buffer, under a high water mark
        that admits them all: the send that finds the hung worker's
        socket full gives up after the timeout instead of blocking."""
        size, count = 5000, 12
        batches = [[("T1", "d0", 32.0 + 1e-6 * i, 121.0, float(i))
                    for i in range(k * size, (k + 1) * size)]
                   for k in range(count)]
        config = ServeConfig(num_shards=1, response_timeout_s=1.0,
                             queue_high_water=1000)
        took = []
        with FleetService(None, config=config) as service:
            with observe(Observability()) as ob:
                with ChaosEngine(seed=3, specs=[self.HANG]):
                    for batch in batches:
                        start = time.monotonic()
                        assert service.submit(batch).accepted == size
                        took.append(time.monotonic() - start)
            service.wait()
            stats = service.stats()
        assert restart_reasons(ob) == ["worker hung (send timeout)"]
        assert 1.0 <= max(took) < 6.0
        assert stats["frontend"]["restarts"] == 1
        assert stats["shards"]["0"]["fleet"]["sessions"][
            "pings_ingested"] == size * count


def _blas_threads():
    """numpy's bundled OpenBLAS ``get_num_threads``; skips without it."""
    try:
        from numpy._core import _multiarray_umath as core
        return ctypes.CDLL(core.__file__).scipy_openblas_get_num_threads64_
    except (ImportError, OSError, AttributeError):
        pytest.skip("numpy does not bundle scipy-openblas")


def _report_worker_threads(channel) -> None:
    """Run a shard worker's entry point to EOF; send its threads."""
    ours, theirs = socket.socketpair()
    serve_worker.worker_main(0, None, FleetConfig(),
                             serve_worker.SocketChannel(theirs, (ours,)))
    channel.send(_blas_threads()())


class TestWorkerBlasPin:
    """Shard workers run BLAS on one thread; nothing else is pinned."""

    def test_forked_worker_runs_on_one_thread(self):
        _blas_threads()
        ctx = mp.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_report_worker_threads, args=(sender,))
        child.start()
        try:
            assert receiver.poll(30.0)
            assert receiver.recv() == 1
        finally:
            child.join(timeout=10.0)
        assert child.exitcode == 0

    def test_frontend_keeps_its_own_threads(self):
        threads = _blas_threads()
        before = threads()
        with FleetService(None, config=ServeConfig(num_shards=2)) \
                as service:
            service.submit([("T1", "d", 1.0, 2.0, 0.0)])
            service.wait()
        assert threads() == before

    def test_missing_setter_serves_and_says_so_once(self, monkeypatch):
        monkeypatch.setattr(serve_worker, "_openblas_thread_setter",
                            lambda: None)
        rows = [(f"T{i}", "d", 1.0 + j * 1e-4, 2.0, float(j))
                for i in range(4) for j in range(5)]
        with observe(Observability()) as ob:
            with FleetService(None, config=ServeConfig(num_shards=2)) \
                    as service:
                assert service.submit(rows).accepted == len(rows)
                service.wait()
                stats = service.stats()
        ingested = sum(shard["fleet"]["sessions"]["pings_ingested"]
                       for shard in stats["shards"].values())
        assert ingested == len(rows)
        names = [event["name"] for event in ob.events.events]
        assert names.count("serve.blas_unpinned") == 1


class TestShardStats:
    def test_each_shard_tallies_its_own_io_retry(self, tmp_path):
        """Shards share one FleetConfig, not one retry tally: only the
        shard that spills reports IO calls."""
        spilling = [f"T{i:03d}" for i in range(20)
                    if shard_for(f"T{i:03d}", 2) == 0][:2]
        quiet = next(f"T{i:03d}" for i in range(20)
                     if shard_for(f"T{i:03d}", 2) == 1)
        config = ServeConfig(num_shards=2, backend="inline",
                             checkpoint_dir=tmp_path,
                             checkpoint_every=1000,
                             fleet=FleetConfig(max_sessions=1))

        def rows(truck):
            return [(truck, "d", 1.0 + i * 1e-4, 2.0, float(i))
                    for i in range(5)]

        with FleetService(None, config=config) as service:
            for truck in (*spilling, quiet):
                service.submit(rows(truck))
            stats = service.stats()
        calls = {index: shard["fleet"]["io_retry"]["calls"]
                 for index, shard in stats["shards"].items()}
        assert calls == {"0": 1, "1": 0}

    def test_each_shard_keeps_its_own_dead_letters(self, tmp_path):
        """Shards share one FleetConfig, not one quarantine directory:
        the same key quarantined on two shards leaves two entries."""
        config = ServeConfig(num_shards=2, backend="inline",
                             fleet=FleetConfig(quarantine_dir=tmp_path))
        with FleetService(None, config=config) as service:
            for shard in service._shards:
                shard.manager.quarantine.record(
                    "T1|d", "tick-detect",
                    RuntimeError(f"shard {shard.index}"))
        assert [[entry.error for entry in Quarantine.load(
                    tmp_path / f"shard-{index}").entries]
                for index in range(2)] == [["shard 0"], ["shard 1"]]


class TestDrainBarrier:
    """An acknowledged drain truncates its shard's journal, so a service
    without a checkpoint dir does not keep every batch it was sent."""

    @staticmethod
    def _submit(service, pings):
        for start in range(0, len(pings), 500):
            result = service.submit(pings[start:start + 500])
            while result.rejected:
                service.wait()
                result = service.submit(result.rejected_pings)

    @pytest.mark.parametrize("checkpointed", [False, True],
                             ids=["journal-only", "checkpoint-dir"])
    def test_recovery_after_a_drain_replays_only_the_next_day(
            self, fitted, world_and_data, tmp_path, checkpointed):
        _, dataset = world_and_data
        day1 = dataset_ping_stream(dataset.samples[:25])
        day2 = dataset_ping_stream(dataset.samples[25:])
        serial = FleetSessionManager(fitted, FleetConfig())
        for ping in day2:
            serial.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                          day=ping.day)
        reference = {(v.truck_id, v.day): v for v in serial.flush_all()}
        # No barrier falls due: only the drains truncate the journals.
        config = ServeConfig(
            num_shards=2, checkpoint_every=10_000,
            checkpoint_dir=tmp_path if checkpointed else None)
        with FleetService(fitted, config=config) as service:
            self._submit(service, day1)
            service.drain()
            after_day1 = service.stats()
            half = len(day2) // 2
            self._submit(service, day2[:half])
            assert service.kill_worker(shard=1)
            self._submit(service, day2[half:])
            verdicts = {(v.truck_id, v.day): v for v in service.drain()}
            after_day2 = service.stats()
        for stats in (after_day1, after_day2):
            assert [shard["journal_entries"]
                    for shard in stats["shards"].values()] == [0, 0]
        assert after_day2["frontend"]["restarts"] >= 1
        assert set(verdicts) == set(reference)
        for key, expected in reference.items():
            assert_same_verdict(verdicts[key], expected)


class TestShardBreaker:
    """A shard's breaker counts consecutive worker deaths, and a shard it
    degraded to an inline worker probes its way back to a process."""

    def test_acknowledged_replies_reset_the_breaker(self):
        """Three deaths far apart, each after windows acknowledged by
        ``submit`` + ``wait``, are not three consecutive failures."""
        rows = [(f"T{i}", "d", 1.0 + j * 1e-4, 2.0, float(j))
                for j in range(40) for i in range(3)]
        windows = [rows[k:k + 6] for k in range(0, len(rows), 6)]
        with FleetService(None, config=ServeConfig(num_shards=1)) \
                as service:
            shard = service._shards[0]
            for round_ in range(4):
                if round_:
                    worker = shard.process
                    assert service.kill_worker(shard=0)
                    worker.join(timeout=10.0)
                for window in windows[5 * round_:5 * round_ + 5]:
                    assert service.submit(window).rejected == 0
                    service.wait()
            stats = service.stats()
        assert stats["frontend"]["restarts"] == 3
        assert stats["frontend"]["degraded_shards"] == 0
        assert stats["shards"]["0"]["mode"] == "process"
        breaker = stats["shards"]["0"]["breaker"]
        assert breaker["state"] == "closed"
        assert breaker["trips"] == 0
        assert breaker["successes"] > 0
        assert stats["shards"]["0"]["fleet"]["sessions"][
            "pings_ingested"] == len(rows)

    def test_degraded_shard_probes_back_to_a_worker(
            self, fitted, pings, serial_verdicts, monkeypatch):
        """Workers that die at start trip the breaker; the degraded
        shard's probe, ``SHARD_BREAKER_COOLDOWN`` commands later,
        restarts it into a live worker and the first ack closes it."""
        cooldown = serve_service.SHARD_BREAKER_COOLDOWN
        size = -(-len(pings) // (cooldown + 4))
        chunks = [pings[i:i + size] for i in range(0, len(pings), size)]
        with FleetService(fitted, config=ServeConfig(num_shards=1)) \
                as service:
            shard = service._shards[0]
            service.submit(chunks[0])
            service.wait()
            with monkeypatch.context() as patch:
                patch.setattr(serve_service, "worker_main",
                              lambda *args: None)
                worker = shard.process
                assert service.kill_worker(shard=0)
                worker.join(timeout=10.0)
                service.tick()
            assert shard.mode == "inline"
            assert shard.breaker.state == "open"
            for chunk in chunks[1:cooldown]:
                assert service.submit(chunk).rejected == 0
            assert shard.mode == "inline"
            service.submit(chunks[cooldown])
            assert shard.mode == "process"
            assert shard.process.is_alive()
            assert shard.breaker.probes == 1
            service.wait()
            assert shard.breaker.state == "closed"
            for chunk in chunks[cooldown + 1:]:
                service.submit(chunk)
            sharded = {(v.truck_id, v.day): v for v in service.drain()}
            stats = service.stats()
        assert stats["frontend"]["restarts"] == 4
        assert stats["frontend"]["degraded_shards"] == 1
        assert stats["shards"]["0"]["breaker"]["trips"] == 1
        assert set(sharded) == set(serial_verdicts)
        for key, serial in serial_verdicts.items():
            assert_same_verdict(sharded[key], serial)

    @pytest.mark.parametrize("kind", ["kill", "crash"])
    def test_inline_worker_chaos_restarts_and_converges(
            self, fitted, pings, serial_verdicts, tmp_path, kind):
        """A drawn ``serve.worker`` fault kills an inline worker before
        the batch; barrier + journal replay recover it like a process."""
        config = ServeConfig(num_shards=3, backend="inline",
                             checkpoint_dir=tmp_path, checkpoint_every=8)
        specs = [FaultSpec(site="serve.worker", kind=kind, rate=0.1,
                           max_fires=2)]
        with FleetService(fitted, config=config) as service:
            with ChaosEngine(seed=7, specs=specs):
                sharded = drain_service(service, pings)
            stats = service.stats()
        assert stats["frontend"]["restarts"] >= 1
        assert stats["frontend"]["barriers"] >= 1
        assert {shard["mode"] for shard in stats["shards"].values()} \
            == {"inline"}
        assert set(sharded) == set(serial_verdicts)
        for key, serial in serial_verdicts.items():
            assert_same_verdict(sharded[key], serial)


# ---------------------------------------------------------------------------
# 4. Uniform config surface (from_dict / to_dict, unknown keys fail)
# ---------------------------------------------------------------------------
#: Config keys that left the surface, as (config class, path of the
#: nested section, key).
_RETIRED_KEYS = [
    (LEADConfig, (), "subgroup_softmax"),
    (LEADConfig, (), "feature_cache_size"),
    (LEADConfig, ("feature",), "trajectory_cache_size"),
    (LEADConfig, ("encoder_training",), "bucket_batches"),
    *((ServeConfig, ("fleet",), key) for key in (
        "reorder_policy", "high_confidence", "medium_confidence",
        "detect_attempts", "detector_breaker_failures",
        "detector_breaker_cooldown", "spill_breaker_failures",
        "spill_breaker_cooldown")),
    (ServeConfig, (), "shard_breaker_failures"),
    (ServeConfig, (), "shard_breaker_cooldown"),
    (RetryPolicy, (), "timeout_s"),
]


class TestConfigSurface:
    def test_serve_config_round_trips(self):
        config = ServeConfig(num_shards=7, queue_high_water=9,
                             checkpoint_dir="/tmp/x", checkpoint_every=3,
                             fleet=FleetConfig(max_sessions=5))
        clone = ServeConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.fleet.max_sessions == 5

    def test_lead_config_round_trips(self):
        config = tiny_lead_config(detector_hidden=32)
        clone = LEADConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.encoder_training.epochs == 1

    @pytest.mark.parametrize("cls", [ServeConfig, LEADConfig,
                                     FleetConfig])
    def test_unknown_keys_fail_loudly(self, cls):
        with pytest.raises(ValueError, match="not_a_knob"):
            cls.from_dict({"not_a_knob": 1})

    @pytest.mark.parametrize("cls, path, key", _RETIRED_KEYS,
                             ids=[key for _, _, key in _RETIRED_KEYS])
    def test_retired_key_fails(self, cls, path, key):
        """Retired knobs (the literal per-subgroup Eq. 10 mode, the
        engineering knobs that became constants, and ``timeout_s``,
        whose only reader left): a saved config that still sets one is
        refused by name, not silently ignored."""
        data = (tiny_lead_config() if cls is LEADConfig else cls()).to_dict()
        section = data
        for name in path:
            section = section[name]
        section[key] = 1
        with pytest.raises(ValueError, match=key):
            cls.from_dict(data)

    def test_nested_unknown_key_fails(self):
        with pytest.raises(ValueError, match="bogus"):
            ServeConfig.from_dict({"fleet": {"bogus": 2}})

    def test_serve_config_validates(self):
        with pytest.raises(ValueError):
            ServeConfig(num_shards=0)
        with pytest.raises(ValueError):
            ServeConfig(backend="threads")


# ---------------------------------------------------------------------------
# 5. The repro.api covenant
# ---------------------------------------------------------------------------
class TestApiFacade:
    def test_root_forwards_every_covenant_name(self):
        import repro
        import repro.api
        for name in repro.api.__all__:
            assert getattr(repro, name) is getattr(repro.api, name), name

    def test_non_covenant_names_do_not_resolve(self):
        import repro
        assert repro.TruckSession is not None
        for name in ("Trajectory", "SPRDetector", "parallel_map"):
            with pytest.raises(AttributeError):
                getattr(repro, name)

    def test_dir_lists_the_covenant(self):
        import repro
        import repro.api
        assert dir(repro) == sorted(set(repro.api.__all__) | {"__version__"})

    def test_unknown_name_raises_attribute_error(self):
        import repro
        with pytest.raises(AttributeError):
            repro.definitely_not_a_name


# ---------------------------------------------------------------------------
# 6. Keyword-only covenant (the expired positional shims are gone)
# ---------------------------------------------------------------------------
class TestEntrypointShims:
    def test_serve_apis_are_keyword_only(self):
        config = ServeConfig(num_shards=1, backend="inline")
        with FleetService(None, config=config) as service:
            with pytest.raises(TypeError):
                service.flush("T1", "day")     # day must be keyword
            with pytest.raises(TypeError):
                service.kill_worker(0)         # shard must be keyword

    def test_fleet_flush_positional_day_warns(self):
        """The warning shim expired: the positional form now raises."""
        manager = FleetSessionManager(None, FleetConfig())
        manager.ingest("T1", 1.0, 2.0, 0.0, "d0")
        with pytest.raises(TypeError):
            manager.flush("T1", "d0")
        assert manager.flush("T1", day="d0").final

    def test_load_positional_strict_warns(self, world_and_data, fitted,
                                          tmp_path):
        """The warning shim expired: the positional form now raises, and
        so does the retired ``strict`` keyword (load is always strict)."""
        world, _ = world_and_data
        fitted.save(tmp_path / "model")
        with pytest.raises(TypeError):
            LEAD(world.pois, tiny_lead_config()).load(tmp_path / "model",
                                                      True)
        with pytest.raises(TypeError):
            LEAD(world.pois, tiny_lead_config()).load(tmp_path / "model",
                                                      strict=True)
        lead = LEAD(world.pois, tiny_lead_config()).load(tmp_path / "model")
        assert lead.detect_many([]) == []

    def test_closed_service_rejects_calls(self):
        service = FleetService(None, config=ServeConfig(
            num_shards=1, backend="inline"))
        service.close()
        with pytest.raises(ServeError):
            service.submit([])
