"""LEAD: Detecting Loaded Trajectories for Hazardous Chemicals Transportation.

A full reproduction of Liu et al., ICDE 2022, including the neural
substrate, a synthetic Nantong-like data substrate, the LEAD framework and
its six ablation variants, the three stay-point baselines, and the
evaluation harness that regenerates every table and figure of the paper.

Quickstart::

    from repro import (DatasetConfig, LEAD, LEADConfig, SyntheticWorld,
                       WorldConfig, generate_dataset)

    world = SyntheticWorld(WorldConfig(seed=1))
    dataset = generate_dataset(DatasetConfig(num_trajectories=200), world=world)
    train, val, test = dataset.split_by_truck()
    lead = LEAD(world.pois, LEADConfig())
    lead.fit(train.samples)
    result = lead.detect(test[0].trajectory)
    print(result.pair)

The stable public surface lives in :mod:`repro.api`; this package
lazily forwards to it (PEP 562), so ``import repro`` stays cheap and
``from repro import LEAD`` only pays for the subsystems it touches.
Legacy names outside the covenant keep resolving through the table
below for backward compatibility.
"""

from importlib import import_module

__version__ = "1.0.0"

#: Names outside the :mod:`repro.api` covenant that remain importable
#: from ``repro`` for backward compatibility, keyed to their home
#: submodule.  New code should import from ``repro`` (covenant names)
#: or from the owning subpackage directly.
_LEGACY = {
    # model substrate
    "GPSPoint": "model", "Trajectory": "model", "StayPoint": "model",
    "MovePoint": "model", "CandidateTrajectory": "model",
    "TimeInterval": "model", "LoadedLabel": "model",
    # data
    "SimulatorConfig": "data", "TruckDaySimulator": "data",
    "make_fleet": "data",
    # processing
    "NoiseFilter": "processing", "StayPointExtractor": "processing",
    "CandidateGenerator": "processing",
    "RawTrajectoryProcessor": "processing",
    "ProcessedTrajectory": "processing",
    "sanitize_trajectory": "processing",
    "trajectory_from_raw": "processing",
    # features / encoding / detection
    "FeatureConfig": "features", "FeatureExtractor": "features",
    "CandidateFeaturizer": "features", "ZScoreNormalizer": "features",
    "EncoderConfig": "encoding", "HierarchicalAutoencoder": "encoding",
    "AutoencoderTrainer": "encoding",
    "AutoencoderTrainingConfig": "encoding",
    "GroupDetector": "detection", "IndependentDetector": "detection",
    "DetectorTrainingConfig": "detection",
    # baselines / eval / analysis
    "SPRDetector": "baselines", "SPNNDetector": "baselines",
    "DetectionRecord": "eval", "accuracy": "eval",
    "accuracy_by_bucket": "eval", "evaluate_detector": "eval",
    "prepare_test_set": "eval",
    "Waybill": "analysis", "waybill_from_detection": "analysis",
    "audit_detection": "analysis", "find_unregistered_sites": "analysis",
    # errors
    "ArtifactCorruptedError": "errors",
    "CheckpointCorruptedError": "errors", "CircuitOpenError": "errors",
    "DetectorUnavailableError": "errors",
    "InvalidTrajectoryError": "errors", "NotFittedError": "errors",
    "NumericalInstabilityError": "errors", "TaskFailedError": "errors",
    # perf / supervise / chaos
    "LRUCache": "perf", "SegmentFeatureCache": "perf",
    "parallel_map": "perf", "spawn_rng": "perf",
    "Quarantine": "supervise", "QuarantineEntry": "supervise",
    "InjectedFault": "chaos",
}

#: Covenant names (resolved through :mod:`repro.api`).
_API_NAMES = frozenset((
    "DatasetConfig", "HCTDataset", "LabeledSample", "POIDatabase",
    "SyntheticWorld", "WorldConfig", "generate_dataset",
    "LEAD", "LEADConfig", "DetectionResult", "DetectionProvenance",
    "FitReport", "VARIANT_NAMES", "variant_config",
    "FleetConfig", "FleetSessionManager", "Ping", "ProvisionalVerdict",
    "TruckSession", "dataset_ping_stream",
    "FleetService", "ServeConfig", "ServeError", "SubmitResult",
    "shard_for",
    "ChaosEngine", "FaultSpec", "CircuitBreaker", "RetryPolicy",
    "ConfigMixin", "config_from_dict", "config_to_dict",
    "Observability", "observe", "ReproError",
    "inference_dtype",
))

__all__ = sorted(_API_NAMES | set(_LEGACY) | {"__version__"})


def __getattr__(name: str):
    if name in _API_NAMES:
        value = getattr(import_module("repro.api"), name)
    elif name in _LEGACY:
        value = getattr(import_module(f"repro.{_LEGACY[name]}"), name)
    else:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value   # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
