"""Evaluation harness: run any detector over a labelled test set.

All methods (LEAD, its variants, and the stay-point baselines) expose a
``detect(processed) -> (i', j')`` call; the harness processes the raw
trajectories, scores exact-pair hits (Eq. 14), and records per-trajectory
inference wall time (Fig. 8).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from ..data.dataset import LabeledSample
from ..processing import ProcessedTrajectory, RawTrajectoryProcessor
from .metrics import DetectionRecord

__all__ = ["prepare_test_set", "evaluate_detector"]


def prepare_test_set(samples: Iterable[LabeledSample],
                     processor: RawTrajectoryProcessor | None = None
                     ) -> list[tuple[ProcessedTrajectory, tuple[int, int]]]:
    """Sanitize and process labelled samples; keep those with a mappable
    label."""
    processor = processor or RawTrajectoryProcessor()
    prepared = []
    for sample in samples:
        processed = processor.process_sample(sample)
        if processed is None or processed.label_pair is None:
            continue
        prepared.append((processed, processed.label_pair))
    return prepared


def evaluate_detector(
    detect: Callable[[ProcessedTrajectory], tuple[int, int]],
    test_set: list[tuple[ProcessedTrajectory, tuple[int, int]]],
) -> list[DetectionRecord]:
    """Run ``detect`` over a prepared test set, timing each call."""
    if not test_set:
        raise ValueError("empty test set")
    records = []
    for processed, true_pair in test_set:
        started = time.perf_counter()
        detected = detect(processed)
        elapsed = time.perf_counter() - started
        records.append(DetectionRecord(
            num_stay_points=processed.num_stay_points,
            true_pair=true_pair,
            detected_pair=detected,
            inference_time_s=elapsed))
    return records
