"""The seeded fleet chaos soak: hostile everything, healthy answers.

One function, :func:`run_chaos_soak`, is the executable form of this
repository's fault-tolerance claim.  It runs the same fleet twice on the
same ping replay — once clean, once under an installed
:class:`~repro.chaos.core.ChaosEngine` that corrupts pings, duplicates
retransmissions, skews clocks, fails and tears IO, knocks over batched
detector passes, and permanently poisons one chosen session — and then
checks, truck by truck:

* every *healthy* truck-day's final verdict matches the fault-free run
  (same pair, ``allclose`` distribution at ``rtol=1e-9``, same
  provenance);
* the poisoned session lands in the quarantine dead-letter store with
  replayable state (the soak actually rebuilds a
  :class:`~repro.stream.TruckSession` from the stored metadata);
* no exception escapes ``ingest`` / ``tick`` / ``flush_all`` — the soak
  calls them bare, so an escape fails the soak loudly.

Everything — injected faults included — derives from one seed, so the
ledger and the verdicts replay bit-identically: run the soak twice with
the same seed and you get the same report (``repro chaos
--check-determinism`` does exactly that).
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from ..supervise import RetryPolicy
from .core import ChaosEngine, FaultSpec

__all__ = ["run_chaos_soak", "format_chaos_ledger", "default_fault_specs",
           "build_soak_fleet_data"]

#: Tick the fleet after this many ingested pings.
_TICK_EVERY = 400


def build_soak_fleet_data(data_seed: int = 13, num_trajectories: int = 50,
                          num_trucks: int = 20):
    """The soak's synthetic world + dataset (same recipe as the tests)."""
    from ..data import (DatasetConfig, SyntheticWorld, WorldConfig,
                        generate_dataset)
    world = SyntheticWorld(WorldConfig(seed=data_seed))
    dataset = generate_dataset(
        DatasetConfig(num_trajectories=num_trajectories,
                      num_trucks=num_trucks, seed=data_seed),
        world=world)
    return world, dataset


def _tiny_detector(world, samples):
    """A LEAD fitted just enough to emit real verdicts, quickly."""
    from ..detection import DetectorTrainingConfig
    from ..encoding import AutoencoderTrainingConfig
    from ..pipeline import LEAD, LEADConfig
    config = LEADConfig(
        encoder_training=AutoencoderTrainingConfig(
            epochs=1, max_samples_per_epoch=30, batch_size=8, seed=0),
        detector_training=DetectorTrainingConfig(
            epochs=1, batch_size=4, seed=0),
        max_autoencoder_samples=40,
        seed=0)
    lead = LEAD(world.pois, config)
    lead.fit(samples[:8])
    return lead


def default_fault_specs(poison_key: str) -> list[FaultSpec]:
    """The soak's standard hostility mix.

    Rates are tuned so every recovery path fires while staying inside
    the retry budgets of the supervised layers — a healthy truck must
    never exhaust its retries, or the convergence assertion could not
    hold for every seed.  ``poison_key`` (``"truck|day"``) names the one
    session whose snapshot *always* fails: the quarantine's customer.
    """
    return [
        # Additive stream hostility (neutralized by ingest by design).
        FaultSpec("stream.ping", "corrupt", rate=0.02),
        FaultSpec("stream.ping", "duplicate", rate=0.02),
        FaultSpec("stream.ping", "skew", rate=0.01),
        # Flaky spill/restore IO (absorbed by the fleet's io_retry; the
        # read rate is low and the soak's retry budget deep, because an
        # exhausted *restore* loses state and would rightly fail the
        # convergence assertion).
        FaultSpec("io.write", "torn", rate=0.02),
        FaultSpec("io.write", "fail", rate=0.05),
        FaultSpec("io.read", "fail", rate=0.02),
        # Batched detector knocked over twice (per-session fallback).
        FaultSpec("detector.batch", "fail", rate=0.2, max_fires=2),
        # One permanently poisoned session.
        FaultSpec("fleet.snapshot", "fail", keys={poison_key}),
    ]


def _final_verdicts(manager, pings) -> dict:
    """Ingest ``pings`` with periodic ticks, then flush everything."""
    for count, ping in enumerate(pings, start=1):
        manager.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                       day=ping.day)
        if count % _TICK_EVERY == 0:
            manager.tick()
    manager.tick()
    return {(v.truck_id, v.day): v for v in manager.flush_all()}


def _verdict_digest(finals: dict) -> str:
    """Bit-exact digest of a final-verdict map (determinism checks)."""
    h = hashlib.sha256()
    for key in sorted(finals):
        verdict = finals[key]
        h.update(repr((key, verdict.pair, verdict.confidence)).encode())
        if verdict.distribution is not None:
            h.update(np.asarray(verdict.distribution, dtype=np.float64)
                     .tobytes())
    return h.hexdigest()


def _verdicts_match(chaotic, baseline) -> bool:
    """The *verdict* must converge; the audit trail may not.

    Injected garbage pings are dropped by sanitize, which truthfully
    records them in the provenance notes — so notes (and the
    ``sanitized`` flag) legitimately differ between the runs.  The
    decision payload — pair, probability distribution, confidence, and
    the degradation tier that produced it — must be identical.
    """
    if baseline.pair != chaotic.pair:
        return False
    if baseline.confidence != chaotic.confidence:
        return False
    a, b = baseline.distribution, chaotic.distribution
    if (a is None) != (b is None):
        return False
    if a is not None and not np.allclose(b, a, rtol=1e-9, atol=0.0):
        return False
    pa, pb = baseline.provenance, chaotic.provenance
    if (pa is None) != (pb is None):
        return False
    if pa is not None and pa.tier != pb.tier:
        return False
    return True


def run_chaos_soak(seed: int = 7, *, detector=None, samples=None,
                   data_seed: int = 13, num_trajectories: int = 50,
                   num_trucks: int = 20, fit_detector: bool = True,
                   specs: list[FaultSpec] | None = None,
                   max_sessions: int = 12, workdir=None,
                   poison_key: str | None = None) -> dict:
    """Run the chaos soak; returns a JSON-safe report (see module doc).

    ``seed`` drives *only* the injected faults; the data and model come
    from ``data_seed`` (or the provided ``samples`` / ``detector``), so
    sweeping ``seed`` soaks the same fleet under different hostility.
    ``report["ok"]`` is the overall pass/fail; ``report["ledger"]`` is
    the deterministic fault ledger.
    """
    from ..stream import FleetConfig, FleetSessionManager, TruckSession
    from ..stream.replay import dataset_ping_stream, scramble_stream

    if samples is None:
        world, dataset = build_soak_fleet_data(data_seed, num_trajectories,
                                               num_trucks)
        samples = dataset.samples
        if detector is None and fit_detector:
            detector = _tiny_detector(world, samples)

    base_pings = scramble_stream(dataset_ping_stream(samples), window=4,
                                 seed=data_seed)
    if poison_key is None:
        first = base_pings[0]
        poison_key = f"{first.truck_id}|{first.day}"
    if specs is None:
        specs = default_fault_specs(poison_key)

    # ---- fault-free baseline --------------------------------------
    # Everything stays resident: no spills, no restores — the purest
    # reference run the chaotic one must converge to.
    baseline = _final_verdicts(
        FleetSessionManager(detector, FleetConfig(
            max_sessions=1_000_000, reorder_capacity=16)),
        base_pings)

    # ---- chaotic run ----------------------------------------------
    cleanup = None
    if workdir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        workdir = cleanup.name
    workdir = Path(workdir)
    try:
        with ChaosEngine(seed, specs) as engine:
            from .streams import chaos_ping_stream
            chaotic_pings = chaos_ping_stream(base_pings,
                                              reorder_capacity=16)
            # The tight session budget forces constant spill/restore
            # under fire; the deep retry budget makes a *restore* loss
            # (which would legitimately diverge a healthy truck)
            # astronomically unlikely at the configured read rate.
            manager = FleetSessionManager(detector, FleetConfig(
                max_sessions=max_sessions, reorder_capacity=16,
                checkpoint_dir=workdir / "sessions",
                quarantine_dir=workdir / "quarantine",
                io_retry=RetryPolicy(max_attempts=5, backoff_base_s=0.0,
                                     jitter=0.0)))
            finals = _final_verdicts(manager, chaotic_pings)
            ledger = list(engine.ledger)
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    # ---- verification ---------------------------------------------
    mismatched = []
    for key, reference in baseline.items():
        if f"{key[0]}|{key[1]}" == poison_key:
            continue
        if key not in finals or not _verdicts_match(finals[key], reference):
            mismatched.append(list(key))
    healthy_total = len(baseline) - 1

    entry = manager.quarantine.get(poison_key)
    replayable = False
    if entry is not None and "state" in entry.metadata:
        try:
            rebuilt = TruckSession.from_state(entry.metadata["state"])
            replayable = f"{rebuilt.truck_id}|{rebuilt.day}" == poison_key
        except Exception:  # noqa: BLE001 - replayability is the check
            replayable = False
    stray = [k for k in manager.quarantine.keys() if k != poison_key]

    ok = not mismatched and entry is not None and replayable and not stray
    return {
        "seed": seed,
        "ok": bool(ok),
        "truck_days": len(baseline),
        "pings": {
            "clean": len(base_pings),
            "chaotic": len(chaotic_pings),
            "injected": len(chaotic_pings) - len(base_pings),
        },
        "healthy": {
            "total": healthy_total,
            "matched": healthy_total - len(mismatched),
            "mismatched": mismatched,
        },
        "poison": {
            "key": poison_key,
            "quarantined": entry is not None,
            "stage": entry.stage if entry is not None else None,
            "error_type": entry.error_type if entry is not None else None,
            "replayable": replayable,
            "stray_quarantined_keys": stray,
        },
        "faults_fired": len(ledger),
        "quarantine": manager.quarantine.summary(),
        "fleet": manager.stats(),
        "verdict_digest": _verdict_digest(finals),
        "ledger": ledger,
    }


def format_chaos_ledger(report: dict) -> str:
    """Human-readable fault / recovery ledger for one soak report."""
    lines = [
        f"chaos soak  seed={report['seed']}  "
        f"{'PASS' if report['ok'] else 'FAIL'}",
        f"  pings     {report['pings']['clean']} clean + "
        f"{report['pings']['injected']} injected",
        f"  faults    {report['faults_fired']} fired",
    ]
    by_site: dict[str, int] = {}
    for fault in report["ledger"]:
        label = f"{fault['site']}:{fault['kind']}"
        by_site[label] = by_site.get(label, 0) + 1
    for label in sorted(by_site):
        lines.append(f"    {label:<24} x{by_site[label]}")
    fleet = report["fleet"]["fleet"]
    lines.append(
        "  recovery  "
        f"detect_retries={fleet['detect_retries']} "
        f"batch_fallbacks={fleet['detect_batch_failures']} "
        f"spill_failures={fleet['spill_failures']} "
        f"restore_failures={fleet['restore_failures']} "
        f"quarantined={fleet['sessions_quarantined']}")
    healthy = report["healthy"]
    lines.append(
        f"  verdicts  {healthy['matched']}/{healthy['total']} healthy "
        "truck-days match the fault-free run (rtol=1e-9)")
    poison = report["poison"]
    lines.append(
        f"  poison    {poison['key']} quarantined={poison['quarantined']} "
        f"stage={poison['stage']} replayable={poison['replayable']}")
    lines.append(f"  digest    {report['verdict_digest'][:16]}")
    return "\n".join(lines)
