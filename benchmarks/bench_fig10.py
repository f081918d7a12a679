"""Fig. 10 — KLD training-loss curves of the forward/backward detectors.

Regenerates the paper's Fig. 10 from the cached training histories and
benchmarks one detector training step (forward + backward + update).

Paper shape to check: both detectors' KLD losses decrease and flatten,
confirming they approximate the label distributions.
"""

from __future__ import annotations

import numpy as np

from repro.detection import forward_index_maps, pair_to_index, smooth_label
from repro.eval import format_loss_curves
from repro.nn import Adam, Tensor, kld_loss


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
    n = processed.num_stay_points
    target = pair_to_index(n, pair)
    detector = trained_lead.forward_detector
    optimizer = Adam(detector.parameters(), lr=1e-5)
    label = smooth_label(len(cvecs), target)

    def step():
        loss = kld_loss(label, detector.score_indexed(
            Tensor(cvecs), forward_index_maps(n)))
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return loss.item()

    value = benchmark(step)
    assert np.isfinite(value)
