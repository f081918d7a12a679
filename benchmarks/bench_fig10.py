"""Fig. 10 — KLD training-loss curves of the forward/backward detectors.

Regenerates the paper's Fig. 10 from the cached training histories and
benchmarks one detector training step (forward + backward + update).

Paper shape to check: both detectors' KLD losses decrease and flatten,
confirming they approximate the label distributions.
"""

from __future__ import annotations

import numpy as np

from repro.detection import (DetectorSample, build_forward_group,
                             pair_to_index, smooth_label)
from repro.eval import format_loss_curves
from repro.nn import Adam, kld_loss


def test_fig10_detector_curves(experiment, trained_lead, benchmark):
    curves = experiment.fig10()
    print()
    print(format_loss_curves(
        curves, "Fig. 10: KLD loss curves of forward/backward detectors",
        loss_name="kld"))
    assert set(curves) == {"forward-detector", "backward-detector"}

    # Benchmark one supervised detector step on a real trajectory.
    test_set = experiment.test_set()
    processed, pair = test_set[0]
    cvecs = trained_lead.encode_candidates_batch([processed])[0]
    target = pair_to_index(processed.num_stay_points, pair)
    sample = DetectorSample(cvecs, processed.num_stay_points, target)
    detector = trained_lead.forward_detector
    optimizer = Adam(detector.parameters(), lr=1e-5)
    label = smooth_label(len(sample.cvecs), sample.target_index)

    def step():
        group = build_forward_group(sample.cvecs, sample.num_stay_points)
        loss = kld_loss(label, detector(group))
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return loss.item()

    value = benchmark(step)
    assert np.isfinite(value)
