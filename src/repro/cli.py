"""Command-line interface.

Subcommands::

    python -m repro.cli generate --out data.json.gz --trajectories 100
    python -m repro.cli train    --data data.json.gz --out model/
    python -m repro.cli detect   --data data.json.gz --model model/ --index 0
    python -m repro.cli evaluate --data data.json.gz --model model/
    python -m repro.cli verify   --model model/
    python -m repro.cli tables   --scale small
    python -m repro.cli stream   --data data.json.gz --model model/
    python -m repro.cli serve    --data data.json.gz --model model/ --shards 4
    python -m repro.cli serve    --soak --shards 4 --kill-shard 1
    python -m repro.cli obs      telemetry.jsonl

``generate``/``train``/``detect``/``evaluate`` operate on explicit files;
``detect``/``train``/``stream``/``serve``/``chaos`` accept ``--telemetry
PATH`` to record a JSONL trace (spans, structured events, metrics) that
``obs`` renders; telemetry is off by default and costs nothing when off.
``verify`` integrity-checks a saved model directory against its
manifest; ``tables`` drives the cached experiment harness (the same
artifacts the benchmarks use); ``serve`` replays a dataset through the
sharded multi-process :class:`~repro.serve.FleetService` (or, with
``--soak``, runs the self-contained sharded-vs-serial convergence
drill).

Model/fleet/serve configuration flows through **one** loader
(:func:`_load_config`): every subcommand accepts ``--config PATH``, a
JSON file with optional ``"lead"`` / ``"fleet"`` / ``"serve"``
sections, built via the uniform ``from_dict`` surface — unknown keys
fail loudly — with explicit CLI flags layered on top.

Typed failures (:mod:`repro.errors`) are rendered as one-line messages
with exit code 2 instead of tracebacks; ``--traceback`` restores the
raw exception for debugging.
"""

from __future__ import annotations

import argparse
import contextlib
import sys


@contextlib.contextmanager
def _telemetry(args: argparse.Namespace):
    """Activate the observability subsystem when ``--telemetry`` was given.

    Yields the :class:`~repro.obs.Observability` instance (or ``None``
    when telemetry is off) and flushes the JSONL sink on exit — even
    when the command fails, so a crashing run still leaves its trace.
    """
    path = getattr(args, "telemetry", None)
    if path is None:
        yield None
        return
    from .obs import Observability, observe
    ob = Observability(seed=getattr(args, "seed", 0))
    try:
        with observe(ob):
            yield ob
    finally:
        ob.flush(path)
        print(f"telemetry: {len(ob.tracer.finished)} spans, "
              f"{len(ob.events)} events -> {path}")


def _load_config(args: argparse.Namespace, section: str, cls,
                 **overrides):
    """Build a config object through the uniform ``from_dict`` loader.

    Reads the optional ``--config`` JSON file, takes its ``section``
    block (missing section = empty), layers the non-``None``
    ``overrides`` from explicit CLI flags on top, and lets the config
    class reject unknown keys.  Every subcommand builds every config
    through this one path.
    """
    import json
    data: dict = {}
    path = getattr(args, "config", None)
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError(f"--config {path} must hold a JSON object")
        data = dict(payload.get(section, {}))
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    return cls.from_dict(data)


def _cmd_generate(args: argparse.Namespace) -> int:
    from .data import DatasetConfig, SyntheticWorld, WorldConfig, \
        generate_dataset
    world = SyntheticWorld(WorldConfig(seed=args.seed))
    dataset = generate_dataset(
        DatasetConfig(num_trajectories=args.trajectories,
                      num_trucks=max(1, args.trajectories // 2),
                      seed=args.seed, world=WorldConfig(seed=args.seed)),
        world=world)
    path = dataset.save(args.out)
    print(f"wrote {len(dataset)} labelled truck-days to {path}")
    return 0


def _world_for_seed(seed: int):
    from .data import SyntheticWorld, WorldConfig
    return SyntheticWorld(WorldConfig(seed=seed))


def _cmd_train(args: argparse.Namespace) -> int:
    from .data import HCTDataset
    from .pipeline import LEAD, LEADConfig
    dataset = HCTDataset.load(args.data)
    train, _, _ = dataset.split_by_truck((8, 1, 1), seed=args.seed)
    world = _world_for_seed(args.seed)
    lead = LEAD(world.pois,
                _load_config(args, "lead", LEADConfig, seed=args.seed))
    checkpoint_dir = args.checkpoint_dir
    with _telemetry(args):
        report = lead.fit(train.samples, verbose=True,
                          checkpoint_dir=checkpoint_dir,
                          workers=args.workers)
    lead.save(args.out)
    print(f"trained on {report.num_trajectories_used} trajectories; "
          f"weights saved to {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .errors import ArtifactCorruptedError
    from .io import verify_manifest
    try:
        manifest = verify_manifest(args.model, required=True)
    except ArtifactCorruptedError as exc:
        print(f"CORRUPT  {exc.path}: {exc.reason}")
        return 2
    for name, entry in sorted(manifest.files.items()):
        print(f"ok  {name}  sha256={str(entry['sha256'])[:12]}…  "
              f"{entry['size']} bytes")
    print(f"{len(manifest.files)} artifacts verified ({manifest.kind}, "
          f"schema v{manifest.schema})")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from .data import HCTDataset
    from .pipeline import LEAD, LEADConfig
    from .analysis import waybill_from_detection
    dataset = HCTDataset.load(args.data)
    world = _world_for_seed(args.seed)
    lead = LEAD(world.pois,
                _load_config(args, "lead", LEADConfig,
                             seed=args.seed)).load(args.model)
    sample = dataset[args.index]
    with _telemetry(args):
        result = lead.detect(sample.trajectory)
    if result is None:
        print("trajectory has too few stay points")
        return 1
    waybill = waybill_from_detection(result)
    print(f"truck {sample.trajectory.truck_id} {sample.trajectory.day}: "
          f"loaded trajectory <sp_{result.pair[0]} --> sp_{result.pair[1]}>")
    print(f"  loading  {waybill.loading_t / 3600:5.2f}h at "
          f"({waybill.loading_lat:.5f}, {waybill.loading_lng:.5f})")
    print(f"  unloading {waybill.unloading_t / 3600:4.2f}h at "
          f"({waybill.unloading_lat:.5f}, {waybill.unloading_lng:.5f})")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .data import HCTDataset
    from .eval import (accuracy_by_bucket, endpoint_accuracy,
                       evaluate_detector, overlap_score, prepare_test_set)
    from .pipeline import LEAD, LEADConfig
    dataset = HCTDataset.load(args.data)
    _, val, test = dataset.split_by_truck((8, 1, 1), seed=args.seed)
    world = _world_for_seed(args.seed)
    lead = LEAD(world.pois,
                _load_config(args, "lead", LEADConfig,
                             seed=args.seed)).load(args.model)
    test_set = prepare_test_set(list(val) + list(test), lead.processor)
    records = evaluate_detector(
        lambda p: lead.detect_processed(p).pair, test_set)
    for bucket, (acc, count) in accuracy_by_bucket(records).items():
        print(f"  {bucket:>6}: {acc:5.1f}%  (n={count})")
    print(f"  endpoint accuracy: {endpoint_accuracy(records)}")
    print(f"  interval IoU: {overlap_score(records):.3f}")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .experiments import Experiment, get_experiment_config
    from .eval import format_accuracy_table, format_timing_table
    experiment = Experiment(get_experiment_config(args.scale),
                            retrain_if_corrupt=args.retrain_if_corrupt)
    print(format_accuracy_table(experiment.table3(), "Table III"))
    print()
    print(format_accuracy_table(experiment.table4(), "Table IV"))
    print()
    print(format_timing_table(experiment.fig8(), "Fig. 8"))
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .data import HCTDataset
    from .pipeline import LEAD, LEADConfig
    from .stream import (FleetConfig, FleetSessionManager,
                         dataset_ping_stream, scramble_stream)
    dataset = HCTDataset.load(args.data)
    world = _world_for_seed(args.seed)
    lead = LEAD(world.pois,
                _load_config(args, "lead", LEADConfig,
                             seed=args.seed)).load(args.model)
    manager = FleetSessionManager(lead, _load_config(
        args, "fleet", FleetConfig,
        max_sessions=args.max_sessions,
        reorder_capacity=args.reorder_capacity,
        checkpoint_dir=args.checkpoint_dir))
    samples = dataset.samples
    if args.limit is not None:
        samples = samples[:args.limit]
    pings = dataset_ping_stream(samples)
    if args.scramble > 1:
        pings = scramble_stream(pings, window=args.scramble, seed=args.seed)
    print(f"replaying {len(pings)} pings from {len(samples)} truck-days "
          f"(tick every {args.tick_s:g}s of simulated time)")
    announced: dict[tuple[str, str], tuple] = {}

    def _announce(verdicts) -> None:
        for verdict in verdicts:
            key = (verdict.truck_id, verdict.day)
            state = (verdict.pair, verdict.confidence, verdict.final)
            if announced.get(key) != state:
                announced[key] = state
                print(f"  {verdict.summary()}")

    from .obs import render_tables
    with _telemetry(args) as ob:
        next_tick = None
        for ping in pings:
            if next_tick is None:
                next_tick = ping.t + args.tick_s
            while ping.t >= next_tick:
                _announce(manager.tick())
                next_tick += args.tick_s
            manager.ingest(ping.truck_id, ping.lat, ping.lng, ping.t,
                           day=ping.day)
        print("end of feed; finalizing every session:")
        _announce(manager.flush_all())
        sections = [("fleet stats", manager.stats())]
        if ob is not None:
            sections.append(("telemetry metrics", ob.registry.snapshot()))
        print(render_tables(sections), end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.soak:
        from .serve import format_serve_soak, run_serve_soak
        with _telemetry(args):
            report = run_serve_soak(
                seed=args.seed, num_trajectories=args.trajectories,
                num_trucks=args.trucks, num_shards=args.shards or 4,
                backend="inline" if args.inline else "process",
                fit_detector=not args.no_detector,
                kill_shard=args.kill_shard)
        print(format_serve_soak(report))
        return 0 if report["ok"] else 2
    if args.data is None or args.model is None:
        print("error: serve replay needs --data and --model "
              "(or use --soak for the self-contained drill)",
              file=sys.stderr)
        return 2
    from .data import HCTDataset
    from .obs import render_tables
    from .pipeline import LEAD, LEADConfig
    from .serve import FleetService, ServeConfig
    from .stream import dataset_ping_stream
    dataset = HCTDataset.load(args.data)
    world = _world_for_seed(args.seed)
    lead = LEAD(world.pois,
                _load_config(args, "lead", LEADConfig,
                             seed=args.seed)).load(args.model)
    config = _load_config(
        args, "serve", ServeConfig,
        num_shards=args.shards,
        queue_high_water=args.queue_high_water,
        checkpoint_dir=args.checkpoint_dir,
        backend="inline" if args.inline else None)
    samples = dataset.samples
    if args.limit is not None:
        samples = samples[:args.limit]
    pings = dataset_ping_stream(samples)
    batches = [pings[i:i + args.batch_pings]
               for i in range(0, len(pings), args.batch_pings)]
    midpoint = len(batches) // 2
    print(f"serving {len(pings)} pings from {len(samples)} truck-days "
          f"across {config.num_shards} shards ({config.backend}), "
          f"{args.batch_pings} pings per submit")
    rejected_total = 0
    with _telemetry(args) as ob:
        with FleetService(lead, config=config) as service:
            next_tick = None
            for index, batch in enumerate(batches):
                if args.kill_shard is not None and index == midpoint:
                    if service.kill_worker(shard=args.kill_shard):
                        print(f"  killed shard {args.kill_shard} worker "
                              f"at batch {index} (restarting from the "
                              f"last barrier + journal replay)")
                if next_tick is None:
                    next_tick = batch[0].t + args.tick_s
                result = service.submit(batch)
                while result.rejected:
                    # Backpressure: drain the overloaded shards, then
                    # resubmit exactly the rejected pings (order within
                    # a truck is preserved because rejection is
                    # all-or-nothing per shard per batch).
                    rejected_total += result.rejected
                    service.wait()
                    result = service.submit(result.rejected_pings)
                while batch[-1].t >= next_tick:
                    service.tick()
                    next_tick += args.tick_s
            print("end of feed; draining every shard:")
            for verdict in service.drain():
                print(f"  {verdict.summary()}")
            stats = service.stats()
        sections = [("serve stats", stats)]
        if ob is not None:
            sections.append(("telemetry metrics", ob.registry.snapshot()))
        print(render_tables(sections), end="")
    if rejected_total:
        print(f"backpressure: {rejected_total} pings rejected and "
              f"resubmitted")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    from .chaos import format_chaos_ledger, run_chaos_soak
    from .io import atomic_write_json
    with _telemetry(args):
        report = run_chaos_soak(
            seed=args.seed, data_seed=args.data_seed,
            num_trajectories=args.trajectories, num_trucks=args.trucks,
            fit_detector=not args.no_detector,
            max_sessions=args.max_sessions)
        print(format_chaos_ledger(report))
        failed = not report["ok"]
        if args.check_determinism:
            replay = run_chaos_soak(
                seed=args.seed, data_seed=args.data_seed,
                num_trajectories=args.trajectories, num_trucks=args.trucks,
                fit_detector=not args.no_detector,
                max_sessions=args.max_sessions)
            ledger_same = replay["ledger"] == report["ledger"]
            digest_same = replay["verdict_digest"] == report["verdict_digest"]
            print(f"determinism: ledger_match={ledger_same} "
                  f"verdict_match={digest_same}")
            if not (ledger_same and digest_same):
                print("FAIL: the same seed did not reproduce the same "
                      "fault ledger / verdicts", file=sys.stderr)
                failed = True
    if args.out is not None:
        atomic_write_json(args.out, report, indent=2)
        print(f"wrote {args.out}")
    if failed:
        print("FAIL: chaos soak did not recover cleanly "
              "(see ledger above)", file=sys.stderr)
        return 2
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs import read_jsonl, render_span_tree, render_tables
    records = read_jsonl(args.path)
    if not records:
        print(f"no telemetry records in {args.path}")
        return 1
    want = args.section
    meta = next((r for r in records if r.get("kind") == "meta"), None)
    if meta is not None and want == "all":
        print(f"telemetry schema v{meta.get('schema', '?')} "
              f"seed={meta.get('seed', '?')}")
    if want in ("all", "metrics"):
        snaps = [r for r in records if r.get("kind") == "metrics"]
        if snaps:
            # One shared width across the counter/gauge/histogram
            # sections, so multi-label rows stay aligned with
            # everything else.
            print(render_tables([("metrics", snaps[-1]["metrics"])]),
                  end="")
    if want in ("all", "spans"):
        spans = [r for r in records if r.get("kind") == "span"]
        if spans:
            print("spans")
            print("-----")
            print(render_span_tree(spans), end="")
    if want in ("all", "events"):
        events = [r for r in records if r.get("kind") == "event"]
        if events:
            print("events")
            print("------")
            for event in events:
                fields = event.get("fields") or {}
                rendered = " ".join(f"{k}={fields[k]}"
                                    for k in sorted(fields))
                print(f"{event['id']}  {event['name']}  {rendered}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LEAD reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    telemetry_help = ("write a JSONL telemetry trace (spans, structured "
                      "events, metrics snapshot) here; inspect it with "
                      "'repro obs <path>'")
    config_help = ("JSON file with optional 'lead' / 'fleet' / 'serve' "
                   "sections, loaded through the uniform from_dict "
                   "surface (unknown keys fail loudly); explicit flags "
                   "override it")

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--trajectories", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train LEAD on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--checkpoint-dir", default=None,
                   help="checkpoint every epoch here; rerunning the same "
                        "command after a crash resumes training")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for trajectory processing "
                        "(default: serial; negative = one per usable "
                        "CPU); any count trains the same model")
    p.add_argument("--config", default=None, metavar="PATH",
                   help=config_help)
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help=telemetry_help)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("verify",
                       help="integrity-check a saved model directory")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("detect", help="detect one trajectory's loaded part")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--config", default=None, metavar="PATH",
                   help=config_help)
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help=telemetry_help)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("evaluate", help="evaluate a trained model")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--config", default=None, metavar="PATH",
                   help=config_help)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("tables", help="print the paper's tables")
    p.add_argument("--scale", default="small",
                   choices=["tiny", "small", "default"])
    p.add_argument("--retrain-if-corrupt", action="store_true",
                   help="discard and retrain artifacts that fail "
                        "integrity checks instead of aborting")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("stream",
                       help="replay a dataset as a live fleet ping feed "
                            "with provisional verdicts")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tick-s", type=float, default=1800.0,
                   help="simulated seconds between detection ticks")
    p.add_argument("--max-sessions", type=int, default=None,
                   help="resident session bound (LRU beyond it; "
                        "default 1024)")
    p.add_argument("--reorder-capacity", type=int, default=None,
                   help="per-session out-of-order ping tolerance "
                        "(default 16)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="spill evicted sessions here (exact restore); "
                        "omit to drop them")
    p.add_argument("--scramble", type=int, default=1,
                   help="shuffle pings within windows of this size to "
                        "simulate out-of-order arrival")
    p.add_argument("--limit", type=int, default=None,
                   help="replay only the first N truck-days")
    p.add_argument("--config", default=None, metavar="PATH",
                   help=config_help)
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help=telemetry_help)
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("serve",
                       help="replay a dataset through the sharded "
                            "multi-process fleet service (or --soak: "
                            "the sharded-vs-serial convergence drill)")
    p.add_argument("--data", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--shards", type=int, default=None,
                   help="worker shards; trucks route by a stable hash "
                        "of the truck id (default 4)")
    p.add_argument("--inline", action="store_true",
                   help="run every shard in-process (no multiprocessing; "
                        "debugging and constrained sandboxes)")
    p.add_argument("--batch-pings", type=int, default=512,
                   help="pings per submit() batch")
    p.add_argument("--queue-high-water", type=int, default=None,
                   help="per-shard inflight bound; submits beyond it "
                        "are rejected with backpressure (default 64)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="barrier snapshots, journals and eviction "
                        "spills live here; enables restart from the "
                        "last barrier")
    p.add_argument("--tick-s", type=float, default=1800.0,
                   help="simulated seconds between detection ticks")
    p.add_argument("--limit", type=int, default=None,
                   help="replay only the first N truck-days")
    p.add_argument("--kill-shard", type=int, default=None,
                   help="SIGKILL this shard's worker at the replay "
                        "midpoint (ops drill; verdicts must still "
                        "converge)")
    p.add_argument("--soak", action="store_true",
                   help="run the self-contained sharded-vs-serial "
                        "convergence soak on synthetic data instead of "
                        "replaying --data")
    p.add_argument("--trajectories", type=int, default=50,
                   help="(--soak) synthetic truck-days")
    p.add_argument("--trucks", type=int, default=20,
                   help="(--soak) distinct trucks")
    p.add_argument("--no-detector", action="store_true",
                   help="(--soak) skip fitting the tiny detector "
                        "(ingest-only; much faster)")
    p.add_argument("--config", default=None, metavar="PATH",
                   help=config_help)
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help=telemetry_help)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("chaos",
                       help="seeded fault-injection soak: corrupted "
                            "pings, torn writes, worker crashes, one "
                            "poisoned session — healthy verdicts must "
                            "match a fault-free run bit for bit")
    p.add_argument("--seed", type=int, default=7,
                   help="drives every injected fault; same seed = same "
                        "ledger, same verdicts")
    p.add_argument("--data-seed", type=int, default=13,
                   help="synthetic world/dataset seed (independent of "
                        "the fault seed)")
    p.add_argument("--trajectories", type=int, default=50)
    p.add_argument("--trucks", type=int, default=20)
    p.add_argument("--max-sessions", type=int, default=12,
                   help="tight resident bound so spill/restore runs "
                        "under fire")
    p.add_argument("--no-detector", action="store_true",
                   help="skip fitting the tiny detector (ingest-only "
                        "soak; much faster)")
    p.add_argument("--check-determinism", action="store_true",
                   help="run the soak twice and fail unless the fault "
                        "ledger and verdicts replay identically")
    p.add_argument("--out", default=None,
                   help="write the full JSON report (ledger included) "
                        "here")
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help=telemetry_help)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("obs",
                       help="inspect a JSONL telemetry trace written by "
                            "--telemetry (metrics, span tree, events)")
    p.add_argument("path", help="telemetry JSONL file")
    p.add_argument("--section", default="all",
                   choices=["all", "metrics", "spans", "events"],
                   help="print only one section of the trace")
    p.set_defaults(func=_cmd_obs)

    parser.add_argument("--traceback", action="store_true",
                        help="show full tracebacks for typed errors")
    return parser


def main(argv: list[str] | None = None) -> int:
    from .errors import ReproError
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, FileNotFoundError) as exc:
        if getattr(args, "traceback", False):
            raise
        kind = type(exc).__name__
        print(f"error ({kind}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
