"""Tests for the deterministic chaos harness (``repro.chaos``).

Three layers:

1. the engine itself — seeded decisions, replayable ledger, spec
   filtering (rate / keys / max_fires), the installed-hook protocol;
2. crash consistency under torn writes — every byte-boundary prefix of
   a checkpoint or session spill either loads back bit-exact or raises
   a typed corruption error / degrades to a counted fresh session;
   garbage never comes back as data;
3. the fleet chaos soak — 50 truck-days under scrambled + corrupted
   pings, flaky IO, failed detector passes and one permanently poisoned
   session: healthy verdicts converge to the fault-free run, the
   poison lands in quarantine with replayable state, and the same seed
   reproduces the same fault ledger twice.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.chaos import (ChaosEngine, FaultSpec, InjectedFault,
                         active_engine, chaos_point, chaos_ping_stream,
                         inject, run_chaos_soak)
from repro.errors import CheckpointCorruptedError
from repro.io import atomic_write_bytes
from repro.nn import CheckpointManager, Linear
from repro.stream import FleetConfig, FleetSessionManager

from .helpers import fresh_training_state


# ---------------------------------------------------------------------------
# Engine mechanics
# ---------------------------------------------------------------------------
class TestChaosEngine:
    def test_no_engine_no_faults(self):
        assert active_engine() is None
        assert chaos_point("io.write", key="x") is None

    def test_rate_zero_never_fires_rate_one_always(self):
        with ChaosEngine(0, [FaultSpec("a.b", "fail", rate=0.0)]):
            assert all(chaos_point("a.b") is None for _ in range(50))
        with ChaosEngine(0, [FaultSpec("a.b", "fail", rate=1.0)]):
            assert all(chaos_point("a.b") is not None for _ in range(50))

    def test_key_filter(self):
        spec = FaultSpec("site", "fail", keys={"victim"})
        with ChaosEngine(0, [spec]):
            assert chaos_point("site", key="bystander") is None
            assert chaos_point("site", key="victim") is not None

    def test_max_fires(self):
        with ChaosEngine(0, [FaultSpec("s", "fail", max_fires=2)]):
            fires = [chaos_point("s") is not None for _ in range(5)]
        assert fires == [True, True, False, False, False]

    def test_ledger_replays_bit_identically(self):
        specs = [FaultSpec("s.one", "fail", rate=0.4),
                 FaultSpec("s.two", "torn", rate=0.2)]

        def run():
            with ChaosEngine(123, specs) as engine:
                for i in range(200):
                    chaos_point("s.one", key=str(i % 7))
                    chaos_point("s.two", key=str(i % 3))
                return engine.ledger

        first, second = run(), run()
        assert first == second
        assert len(first) > 0
        with ChaosEngine(124, specs) as engine:
            for i in range(200):
                chaos_point("s.one", key=str(i % 7))
                chaos_point("s.two", key=str(i % 3))
            assert engine.ledger != first

    def test_nested_install_rejected(self):
        with ChaosEngine(0, []):
            with pytest.raises(RuntimeError):
                ChaosEngine(1, []).__enter__()
        assert active_engine() is None

    def test_inject_decorator(self):
        @inject(0, [FaultSpec("deco.site", "fail", rate=1.0)])
        def probed():
            return chaos_point("deco.site")

        assert probed() is not None
        assert chaos_point("deco.site") is None   # uninstalled after

    def test_torn_write_leaves_exact_prefix(self, tmp_path):
        data = bytes(range(200))
        target = tmp_path / "f.bin"
        spec = FaultSpec("io.write", "torn", param=57, max_fires=1)
        with ChaosEngine(0, [spec]):
            with pytest.raises(InjectedFault):
                atomic_write_bytes(target, data)
        assert target.read_bytes() == data[:57]
        # The same call after the fault budget completes atomically.
        with ChaosEngine(0, [spec]):
            pass
        atomic_write_bytes(target, data)
        assert target.read_bytes() == data


# ---------------------------------------------------------------------------
# Stream fault injection
# ---------------------------------------------------------------------------
class TestChaosPingStream:
    def _pings(self, n=40):
        from repro.stream.replay import Ping
        return [Ping("t1", "d0", 32.0 + 0.001 * i, 120.9, 30.0 * i)
                for i in range(n)]

    def test_identity_without_engine(self):
        pings = self._pings()
        assert chaos_ping_stream(pings) == pings

    def test_faults_are_additive_and_deterministic(self):
        pings = self._pings()
        specs = [FaultSpec("stream.ping", "corrupt", rate=0.2),
                 FaultSpec("stream.ping", "duplicate", rate=0.2),
                 FaultSpec("stream.ping", "skew", rate=0.2)]
        with ChaosEngine(5, specs):
            first = chaos_ping_stream(pings, reorder_capacity=8)
        with ChaosEngine(5, specs):
            second = chaos_ping_stream(pings, reorder_capacity=8)
        assert first == second                    # deterministic
        assert len(first) > len(pings)            # something injected
        # Every real ping survives, in order: faults only ever add.
        it = iter(first)
        assert all(p in it for p in pings)

    def test_skew_respects_reorder_horizon(self):
        pings = self._pings(n=10)
        with ChaosEngine(1, [FaultSpec("stream.ping", "skew", rate=1.0)]):
            out = chaos_ping_stream(pings, reorder_capacity=16)
        # Never more than reorder_capacity pings seen: no skew injected.
        assert out == pings


# ---------------------------------------------------------------------------
# Crash-consistency fuzz: torn writes at every byte boundary
# ---------------------------------------------------------------------------
class TestTornWriteFuzz:
    def test_checkpoint_never_loads_garbage(self, tmp_path):
        """Sweep the torn-write cut over every byte of the array file.

        Protocol per cut ``k``: restore a known-good checkpoint, then
        crash a re-save mid-write so the array file holds exactly the
        first ``k`` bytes of the *new* payload while the metadata still
        describes the old one.  ``load`` must either return a checkpoint
        bit-identical to a fully-written one or raise
        :class:`CheckpointCorruptedError` — never parse the torn bytes.
        """
        rng = np.random.default_rng(0)
        module = Linear(2, 2, rng=rng)
        manager = CheckpointManager(tmp_path)
        training = fresh_training_state(module)
        manager.save(epoch=1, modules={"m": module}, **training)
        good_npz = manager.arrays_path.read_bytes()
        good_meta = manager.meta_path.read_bytes()
        good_state = manager.load()
        npz_name = manager.arrays_path.name
        outcomes = {"loaded": 0, "rejected": 0}
        for cut in range(len(good_npz) + 1):
            manager.arrays_path.write_bytes(good_npz)
            manager.meta_path.write_bytes(good_meta)
            spec = FaultSpec("io.write", "torn", keys={npz_name},
                             param=cut, max_fires=1)
            with ChaosEngine(0, [spec]):
                with pytest.raises(InjectedFault):
                    manager.save(epoch=2, modules={"m": module}, **training)
            try:
                state = manager.load()
            except CheckpointCorruptedError:
                outcomes["rejected"] += 1
                continue
            outcomes["loaded"] += 1
            # Loadable implies bit-exact agreement with the good slot.
            assert state.epoch == good_state.epoch
            for name, arrays in good_state.module_states.items():
                for key, value in arrays.items():
                    np.testing.assert_array_equal(
                        state.module_states[name][key], value)
        # The sweep must actually exercise the rejection path; a full
        # (cut == size) write may legitimately load when the re-saved
        # bytes match the metadata's digest.
        assert outcomes["rejected"] >= len(good_npz) - 1

    def test_torn_metadata_never_parses_as_checkpoint(self, tmp_path):
        """Same sweep over the JSON metadata file."""
        module = Linear(2, 1, rng=np.random.default_rng(1))
        manager = CheckpointManager(tmp_path)
        training = fresh_training_state(module)
        manager.save(epoch=3, modules={"m": module}, **training)
        meta_size = len(manager.meta_path.read_bytes())
        meta_name = manager.meta_path.name
        loaded = 0
        for cut in range(meta_size + 1):
            spec = FaultSpec("io.write", "torn", keys={meta_name},
                             param=cut, max_fires=1)
            with ChaosEngine(0, [spec]):
                with pytest.raises(InjectedFault):
                    manager.save(epoch=3, modules={"m": module}, **training)
            try:
                state = manager.load()
            except CheckpointCorruptedError:
                continue
            loaded += 1
            assert state.epoch == 3
        # Only a complete JSON document can load; at most the full-size
        # cut (and trivially-empty never) parses.
        assert loaded <= 1

    def test_session_spill_restores_bit_exact_or_degrades(self, tmp_path):
        """Sweep every torn prefix of a session spill file.

        A new manager pointed at the damaged directory must either
        restore the session bit-exact (full prefix) or open a fresh
        session with the corruption counted and quarantined — never
        resurrect a half-written state.
        """
        checkpoint_dir = tmp_path / "spills"

        def build_manager():
            return FleetSessionManager(None, FleetConfig(
                max_sessions=1, checkpoint_dir=checkpoint_dir))

        manager = build_manager()
        for i in range(6):
            manager.ingest("truck-a", 32.0 + 0.001 * i, 120.9, 30.0 * i,
                           day="d0")
        manager.ingest("truck-b", 32.5, 120.5, 1.0, day="d0")  # spills a
        key = ("truck-a", "d0")
        path = manager._checkpoint_path(key)
        good = path.read_bytes()
        good_state = manager.session("truck-a", "d0").state()
        restored, degraded = 0, 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for cut in range(len(good) + 1):
                path.write_bytes(good[:cut])
                fresh = build_manager()
                session = fresh.session("truck-a", "d0")
                if fresh.counters.sessions_restored:
                    restored += 1
                    assert session.state() == good_state    # bit-exact
                else:
                    degraded += 1
                    assert fresh.counters.restore_failures == 1
                    assert "truck-a|d0" in fresh.quarantine
                    assert session.counters.pings_ingested == 0
        assert restored == 1          # only the complete file
        assert degraded == len(good)  # every torn prefix


# ---------------------------------------------------------------------------
# The fleet chaos soak (50 truck-days)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def soak_world():
    from repro.chaos.soak import _tiny_detector, build_soak_fleet_data
    world, dataset = build_soak_fleet_data()
    detector = _tiny_detector(world, dataset.samples)
    return dataset.samples, detector


@pytest.fixture(scope="module")
def soak_reports(soak_world):
    samples, detector = soak_world
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        first = run_chaos_soak(seed=7, samples=samples, detector=detector)
        second = run_chaos_soak(seed=7, samples=samples, detector=detector)
    return first, second


class TestChaosSoak:
    def test_healthy_trucks_converge(self, soak_reports):
        report, _ = soak_reports
        healthy = report["healthy"]
        assert healthy["mismatched"] == []
        assert healthy["matched"] == healthy["total"] == 49
        assert report["truck_days"] == 50

    def test_faults_actually_fired(self, soak_reports):
        report, _ = soak_reports
        sites = {f["site"] for f in report["ledger"]}
        assert {"stream.ping", "io.write", "io.read",
                "fleet.snapshot"} <= sites
        assert report["pings"]["injected"] > 0

    def test_poison_is_quarantined_with_replayable_state(self,
                                                         soak_reports):
        report, _ = soak_reports
        poison = report["poison"]
        assert poison["quarantined"]
        assert poison["replayable"]
        assert poison["stray_quarantined_keys"] == []
        assert report["fleet"]["fleet"]["sessions_quarantined"] >= 1

    def test_same_seed_same_ledger_same_verdicts(self, soak_reports):
        first, second = soak_reports
        assert first["ledger"] == second["ledger"]
        assert first["verdict_digest"] == second["verdict_digest"]
        assert first["quarantine"] == second["quarantine"]

    def test_overall_verdict(self, soak_reports):
        report, _ = soak_reports
        assert report["ok"]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(os.system(f"python -m pytest -x -q {__file__}"))
