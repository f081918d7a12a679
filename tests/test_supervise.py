"""Tests for the supervision layer (``repro.supervise``) and its wiring.

Covers the three primitives — deterministic retries, the circuit
breaker state machine, and the quarantine dead-letter store — then the
places they are wired in: ``parallel_map`` (identical
``TaskFailedError`` semantics on every execution path, serial
fallback), ``CheckpointManager`` fault surfacing, and
the fleet's failure isolation (spill degradation, restore degradation,
poison-session quarantine).
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.chaos import ChaosEngine, FaultSpec, InjectedFault
from repro.errors import ReproError, TaskFailedError
from repro.nn import CheckpointManager, Linear
from repro.perf import parallel_map
from repro.stream import FleetConfig, FleetSessionManager
from repro.stream.fleet import SPILL_BREAKER_COOLDOWN, SPILL_BREAKER_FAILURES
from repro.supervise import (CircuitBreaker, Quarantine, QuarantineEntry,
                             RetryPolicy)
from repro.supervise.retry import BACKOFF_FACTOR, MAX_BACKOFF_S

from .helpers import fresh_training_state


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.0)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3
        assert policy.counters.retries == 2

    def test_reraises_original_exception_after_exhaustion(self):
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)

        def always():
            raise PermissionError("nope")

        # The *original* exception type survives, so existing
        # ``except OSError`` call sites keep working.
        with pytest.raises(PermissionError, match="nope"):
            policy.call(always)
        assert policy.counters.exhausted == 1

    def test_non_retryable_raises_immediately(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=0.0)
        attempts = []

        def wrong_type():
            attempts.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            policy.call(wrong_type)
        assert len(attempts) == 1

    def test_backoff_schedule_is_deterministic_and_bounded(self):
        base_s = 0.3 * MAX_BACKOFF_S
        policy = RetryPolicy(max_attempts=5, backoff_base_s=base_s,
                             jitter=0.1)
        first = policy.delays(key=3)
        assert first == policy.delays(key=3)          # replayable
        assert first != policy.delays(key=4)          # per-site streams
        assert len(first) == 4
        for delay in first:
            assert delay <= MAX_BACKOFF_S * 1.1 + 1e-12
        # Jitter stays within +-10% of the capped exponential base.
        bases = [min(base_s * BACKOFF_FACTOR ** k, MAX_BACKOFF_S)
                 for k in range(4)]
        assert bases[-1] == MAX_BACKOFF_S             # the cap is reached
        for i, base in enumerate(bases):
            assert base * 0.9 <= first[i] <= base * 1.1

    def test_sleeps_follow_the_published_schedule(self):
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.05)
        slept = []

        def failing():
            raise OSError("x")

        with pytest.raises(OSError):
            policy.call(failing, key=7, sleep=slept.append)
        assert slept == policy.delays(key=7)


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker("dep", failure_threshold=3, cooldown=100)
        for _ in range(2):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.stats()["rejections"] == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=10)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=3)
        assert breaker.allow()
        breaker.record_failure()                 # trips open
        assert not breaker.allow()               # still cooling
        assert not breaker.allow()
        assert breaker.allow()                   # cooldown elapsed: probe
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=2)
        breaker.allow()
        breaker.record_failure()
        breaker.allow()                          # tick 2
        assert breaker.allow()                   # probe admitted
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()


# ---------------------------------------------------------------------------
# Quarantine
# ---------------------------------------------------------------------------
class TestQuarantine:
    def test_record_and_lookup(self):
        store = Quarantine()
        store.record("truck-1|d0", "tick-detect", ValueError("bad"),
                     attempts=2, metadata={"tick": 3})
        store.record("truck-2|d0", "restore", OSError("disk"))
        store.record("truck-1|d0", "flush-detect", ValueError("again"))
        assert len(store) == 3
        assert "truck-1|d0" in store
        assert store.get("truck-1|d0").stage == "flush-detect"  # latest
        assert store.get("missing") is None
        summary = store.summary()
        assert summary["entries"] == 3
        assert summary["by_stage"] == {"tick-detect": 1, "restore": 1,
                                       "flush-detect": 1}

    def test_persists_and_reloads(self, tmp_path):
        store = Quarantine(tmp_path / "q")
        store.record("truck-9|d1", "tick-detect", RuntimeError("boom"),
                     metadata={"state": {"truck_id": "truck-9"}})
        reloaded = Quarantine.load(tmp_path / "q")
        assert reloaded.keys() == ["truck-9|d1"]
        entry = reloaded.get("truck-9|d1")
        assert entry.error_type == "RuntimeError"
        assert entry.metadata["state"] == {"truck_id": "truck-9"}

    def test_restarted_store_numbers_after_persisted_entries(self,
                                                            tmp_path):
        """A store reopened on its directory continues the numbering, so
        the same key quarantined again does not overwrite the earlier
        dead letter."""
        Quarantine(tmp_path / "q").record("truck-1|d0", "tick-detect",
                                          RuntimeError("first"))
        entry = Quarantine(tmp_path / "q").record(
            "truck-1|d0", "flush-detect", RuntimeError("second"))
        assert entry.seq == 1
        reloaded = Quarantine.load(tmp_path / "q")
        assert [(e.seq, e.stage) for e in reloaded.entries] == [
            (0, "tick-detect"), (1, "flush-detect")]
        assert reloaded.record("truck-2|d0", "restore",
                               OSError("disk")).seq == 2

    def test_entry_roundtrip(self):
        entry = QuarantineEntry(seq=4, key="k", stage="s",
                                error_type="OSError", error="x",
                                attempts=3, metadata={"a": 1})
        assert QuarantineEntry.from_dict(entry.to_dict()) == entry


# ---------------------------------------------------------------------------
# parallel_map failure semantics
# ---------------------------------------------------------------------------
def _square(x: int) -> int:
    return x * x


def _fails_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("three is right out")
    return x * x


_PARENT_PID = os.getpid()


def _fails_in_workers(x: int) -> int:
    """Raises in a pool worker only, so the serial rerun succeeds."""
    if os.getpid() != _PARENT_PID:
        raise ValueError("worker-only failure")
    return x * x


class TestParallelSupervision:
    def test_serial_and_pool_raise_identical_errors(self):
        """Satellite: both paths surface TaskFailedError with the index."""
        for workers in (None, 2):
            with pytest.raises(TaskFailedError) as excinfo:
                parallel_map(_fails_on_three, range(6), workers=workers)
            assert excinfo.value.index == 3
            assert isinstance(excinfo.value, ReproError)
            assert isinstance(excinfo.value.__cause__, ValueError)

    def test_serial_fallbacks_keep_verify(self, monkeypatch):
        """Both serial reruns return the serial results: a task that
        raised only in a pool worker, and a pool that cannot start."""
        assert parallel_map(_fails_in_workers, range(4), workers=2) \
            == [0, 1, 4, 9]

        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise OSError("no semaphores")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        assert parallel_map(_square, range(4), workers=2) == [0, 1, 4, 9]
        with pytest.raises(TaskFailedError) as excinfo:
            parallel_map(_fails_on_three, range(6), workers=2)
        assert excinfo.value.index == 3


# ---------------------------------------------------------------------------
# CheckpointManager supervision
# ---------------------------------------------------------------------------
def _make_module() -> Linear:
    return Linear(3, 2, rng=np.random.default_rng(0))


class TestCheckpointSupervision:
    def test_unretried_save_surfaces_injected_fault(self, tmp_path):
        manager = CheckpointManager(tmp_path)   # saves are never retried
        module = _make_module()
        with ChaosEngine(1, [FaultSpec("io.write", "fail", rate=1.0)]):
            with pytest.raises(InjectedFault):
                manager.save(epoch=0, modules={"m": module},
                             **fresh_training_state(module))


# ---------------------------------------------------------------------------
# Fleet failure isolation
# ---------------------------------------------------------------------------
def _feed(manager: FleetSessionManager, truck: str, n: int = 5,
          t0: float = 0.0) -> None:
    for i in range(n):
        manager.ingest(truck, 32.0 + 0.001 * i, 120.9, t0 + 30.0 * i,
                       day="d0")


class TestFleetIsolation:
    def test_spill_failure_keeps_session_resident(self, tmp_path):
        """Satellite: a failing spill degrades, it does not poison ingest."""
        config = FleetConfig(
            max_sessions=1, checkpoint_dir=tmp_path / "ckpt",
            io_retry=RetryPolicy(max_attempts=1, backoff_base_s=0.0))
        manager = FleetSessionManager(None, config)
        _feed(manager, "truck-a")
        with ChaosEngine(0, [FaultSpec("io.write", "fail", rate=1.0)]):
            with pytest.warns(RuntimeWarning, match="keeping it resident"):
                _feed(manager, "truck-b")       # evicts truck-a: fails
        assert manager.counters.spill_failures >= 1
        assert manager.counters.sessions_evicted == 0
        assert len(manager) == 2                # over budget, but intact
        # Both sessions still flush to real verdicts.
        finals = manager.flush_all()
        assert {v.truck_id for v in finals} == {"truck-a", "truck-b"}

    def test_spill_breaker_stops_hammering_dead_disk(self, tmp_path):
        config = FleetConfig(
            max_sessions=1, checkpoint_dir=tmp_path / "ckpt",
            io_retry=RetryPolicy(max_attempts=1, backoff_base_s=0.0))
        manager = FleetSessionManager(None, config)
        # Enough feeds to trip the breaker and try again inside its
        # cooldown, too few to reach the probe after it.
        feeds = SPILL_BREAKER_FAILURES + 3
        assert feeds < SPILL_BREAKER_FAILURES + SPILL_BREAKER_COOLDOWN
        with ChaosEngine(0, [FaultSpec("io.write", "fail", rate=1.0)]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for i in range(feeds):
                    _feed(manager, f"truck-{i}")
        assert manager.spill_breaker.state == "open"
        assert manager.counters.spill_skipped_breaker >= 1
        # Failures stop accumulating once the breaker opens.
        assert manager.counters.spill_failures == SPILL_BREAKER_FAILURES == 3

    def test_unreadable_spill_degrades_to_fresh_session(self, tmp_path):
        config = FleetConfig(max_sessions=1,
                             checkpoint_dir=tmp_path / "ckpt")
        manager = FleetSessionManager(None, config)
        _feed(manager, "truck-a")
        _feed(manager, "truck-b")               # truck-a spilled
        path = manager._checkpoint_path(("truck-a", "d0"))
        path.write_text("{ not json")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            session = manager.session("truck-a", "d0")
        assert session.counters.pings_ingested == 0          # fresh
        assert manager.counters.restore_failures == 1
        entry = manager.quarantine.get("truck-a|d0")
        assert entry is not None and entry.stage == "restore"

    def test_poison_session_is_quarantined_not_fatal(self):
        manager = FleetSessionManager(None, FleetConfig())
        _feed(manager, "truck-good")
        _feed(manager, "truck-bad", t0=10.0)
        poison = [FaultSpec("fleet.snapshot", "fail",
                            keys={"truck-bad|d0"})]
        with ChaosEngine(0, poison):
            verdicts = manager.tick()           # must not raise
        assert len(verdicts) == 2
        assert manager.counters.sessions_quarantined == 1
        entry = manager.quarantine.get("truck-bad|d0")
        assert entry.stage == "tick-detect"
        assert entry.error_type == "InjectedFault"
        # Replay metadata reconstructs the captured session.
        from repro.stream import TruckSession
        rebuilt = TruckSession.from_state(entry.metadata["state"])
        assert rebuilt.truck_id == "truck-bad"
        assert rebuilt.counters.pings_ingested == 5
        # The healthy truck is untouched and still resident.
        assert ("truck-good", "d0") in manager._sessions

    def test_flush_quarantines_poison_and_flushes_the_rest(self):
        manager = FleetSessionManager(None, FleetConfig())
        for truck in ("t1", "t2", "t3"):
            _feed(manager, truck)
        with ChaosEngine(0, [FaultSpec("fleet.snapshot", "fail",
                                       keys={"t2|d0"})]):
            finals = manager.flush_all()        # must not raise
        assert len(finals) == 3
        assert manager.counters.sessions_flushed == 2
        assert manager.counters.sessions_quarantined == 1
        assert manager.quarantine.get("t2|d0").stage == "flush-detect"
        assert len(manager) == 0

    def test_managers_on_one_config_tally_io_retry_apart(self, tmp_path):
        config = FleetConfig(max_sessions=1,
                             checkpoint_dir=tmp_path / "ckpt")
        spilling = FleetSessionManager(None, config)
        quiet = FleetSessionManager(None, config)
        _feed(spilling, "truck-a")
        _feed(spilling, "truck-b")              # spills truck-a
        _feed(spilling, "truck-a", t0=500.0)    # restores a, spills b
        _feed(quiet, "truck-c")
        assert spilling.stats()["io_retry"]["calls"] == 3
        assert quiet.stats()["io_retry"]["calls"] == 0
        assert config.io_retry.counters.calls == 0

    def test_stats_exposes_supervision_state(self):
        manager = FleetSessionManager(None, FleetConfig())
        stats = manager.stats()
        assert stats["quarantine"]["entries"] == 0
        assert stats["breakers"]["detector"]["state"] == "closed"
        assert stats["breakers"]["session_spill"]["state"] == "closed"
        assert "retries" in stats["io_retry"]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(os.system(f"python -m pytest -x -q {__file__}"))
