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
Everything else is imported from its owning subpackage.
"""

from importlib import import_module

__version__ = "1.0.0"

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

__all__ = sorted(_API_NAMES | {"__version__"})


def __getattr__(name: str):
    if name not in _API_NAMES:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module("repro.api"), name)
    globals()[name] = value   # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
