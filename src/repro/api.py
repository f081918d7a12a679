"""The blessed public surface of the repro package.

Everything importable from this module — equivalently, from ``repro``
itself, which lazily forwards here — is **covenant**: names, call
signatures and semantics only change with a deprecation cycle.
Anything else under ``repro.*`` is internal wiring that may move
between releases without notice.  DESIGN.md §15 records the covenant
and the reasoning.

The facade groups into layers:

* **Data** — build a synthetic world and a labeled dataset.
* **Model** — configure, fit, save/load and run the LEAD detector.
* **Streaming** — per-truck sessions and the single-process fleet
  manager over a live ping stream.
* **Serving** — the sharded multi-process :class:`FleetService`.
* **Operations** — config round-trips, observability, resilience and
  chaos primitives, and the inference precision context.
"""

from __future__ import annotations

# Data substrate
from .data import (DatasetConfig, HCTDataset, LabeledSample, POIDatabase,
                   SyntheticWorld, WorldConfig, generate_dataset)
# Model pipeline
from .pipeline import (LEAD, VARIANT_NAMES, DetectionProvenance,
                       DetectionResult, FitReport, LEADConfig,
                       variant_config)
# Streaming
from .stream import (FleetConfig, FleetSessionManager, Ping,
                     ProvisionalVerdict, TruckSession,
                     dataset_ping_stream)
# Serving
from .serve import (FleetService, ServeConfig, ServeError, SubmitResult,
                    shard_for)
# Operations
from .chaos import ChaosEngine, FaultSpec
from .configbase import ConfigMixin, config_from_dict, config_to_dict
from .errors import ReproError
from .nn import inference_dtype
from .obs import Observability, observe
from .supervise import CircuitBreaker, RetryPolicy

__all__ = [
    # data
    "DatasetConfig", "HCTDataset", "LabeledSample", "POIDatabase",
    "SyntheticWorld", "WorldConfig", "generate_dataset",
    # model
    "LEAD", "LEADConfig", "DetectionResult", "DetectionProvenance",
    "FitReport", "VARIANT_NAMES", "variant_config",
    # streaming
    "FleetConfig", "FleetSessionManager", "Ping", "ProvisionalVerdict",
    "TruckSession", "dataset_ping_stream",
    # serving
    "FleetService", "ServeConfig", "ServeError", "SubmitResult",
    "shard_for",
    # operations
    "ChaosEngine", "FaultSpec", "CircuitBreaker", "RetryPolicy",
    "ConfigMixin", "config_from_dict", "config_to_dict",
    "Observability", "observe", "ReproError",
    "inference_dtype",
]
