"""Fig. 9 — MSE training-loss curves of the hierarchical autoencoder.

Regenerates the paper's Fig. 9 (loss curves for the autoencoder inside
LEAD, LEAD-NoSel, and LEAD-NoHie) from the cached training histories, and
benchmarks one autoencoder training step.

Paper shape to check: the full hierarchical autoencoder converges to the
lowest loss in the fewest epochs; NoSel is next; NoHie is worst.
"""

from __future__ import annotations

import numpy as np

from repro.eval import format_loss_curves
from repro.nn import Adam


def test_fig9_autoencoder_curves(experiment, trained_lead, benchmark):
    curves = experiment.fig9()
    print()
    print(format_loss_curves(
        curves, "Fig. 9: MSE loss curves of hierarchical autoencoders",
        loss_name="mse"))

    # Benchmark one self-supervised training step (batch forward+backward).
    train, _, _ = experiment.splits
    processed = trained_lead.processor.process(train[0].trajectory,
                                               train[0].label)
    stays, moves = trained_lead._segments(processed)
    pairs = [c.pair for c in processed.candidates[:8]]
    model = trained_lead.autoencoder
    optimizer = Adam(model.parameters(), lr=1e-4)

    def step():
        loss = model.reconstruction_loss_batch([stays], [moves], [pairs])
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return loss.item()

    value = benchmark(step)
    assert np.isfinite(value)
