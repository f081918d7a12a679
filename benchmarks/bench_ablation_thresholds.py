"""Ablation (beyond the paper): stay-point threshold sensitivity.

The paper tunes Dmax = 500 m and Tmin = 15 min so that "most staying
behaviors can be included in stay points".  This bench sweeps both
thresholds over the test trajectories, reporting how many stay points are
extracted and how often the ground-truth label still maps onto them —
the quantity that bounds every method's achievable accuracy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.processing import StayPointExtractor

SWEEP = [
    (250.0, 15 * 60.0),
    (500.0, 15 * 60.0),   # the paper's setting
    (1000.0, 15 * 60.0),
    (500.0, 8 * 60.0),
    (500.0, 25 * 60.0),
]


@pytest.mark.parametrize("dmax,tmin", SWEEP)
def test_threshold_sensitivity(experiment, benchmark, dmax, tmin):
    extractor = StayPointExtractor(max_distance_m=dmax,
                                   min_duration_s=tmin)
    _, val, test = experiment.splits
    samples = (list(val) + list(test))[:20]
    lead = experiment.lead_variant("LEAD")
    cleaned = [lead.processor.noise_filter.filter(s.trajectory)
               for s in samples]

    counts = []
    mapped = 0
    for sample, clean in zip(samples, cleaned):
        stay_points = extractor.extract(clean)
        counts.append(len(stay_points))
        if len(stay_points) >= 2 and \
                sample.label.to_ordinal_pair(stay_points) is not None:
            mapped += 1
    print(f"\nDmax={dmax:.0f}m Tmin={tmin/60:.0f}min: "
          f"mean #stay points {np.mean(counts):.1f}, "
          f"label mappable on {mapped}/{len(samples)} trajectories")

    benchmark(lambda: [extractor.extract(c) for c in cleaned[:5]])
