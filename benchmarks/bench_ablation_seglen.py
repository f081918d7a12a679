"""Ablation (beyond the paper): segment-subsampling length.

DESIGN.md §2 documents one engineering deviation: each stay/move segment
is subsampled to ``max_segment_len`` points before entering the LSTMs.
This bench measures how the cap trades encoding cost for fidelity: the
encoding time of one trajectory at several caps, plus the number of GPS
points retained.
"""

from __future__ import annotations

import pytest

from repro.features import (CandidateFeaturizer, FeatureConfig,
                            FeatureExtractor)


@pytest.mark.parametrize("seg_len", [4, 8, 16, 32])
def test_encode_cost_vs_segment_length(experiment, trained_lead,
                                       sample_processed, benchmark,
                                       seg_len):
    extractor = FeatureExtractor(
        experiment.world.pois,
        FeatureConfig(max_segment_len=seg_len))
    featurizer = CandidateFeaturizer(extractor,
                                     trained_lead.featurizer.normalizer)
    model = trained_lead.autoencoder
    matrices = featurizer.featurize_segments(
        sample_processed.stay_points + sample_processed.move_points)
    stay = matrices[:sample_processed.num_stay_points]
    move = matrices[sample_processed.num_stay_points:]
    pairs = [c.pair for c in sample_processed.candidates]
    retained = sum(len(s) for s in stay) + sum(len(s) for s in move)
    print(f"\nmax_segment_len={seg_len}: {retained} GPS points retained "
          f"across {len(stay) + len(move)} segments")

    cvecs = benchmark(lambda: model.encode_trajectories(
        [stay], [move], [pairs])[0])
    assert cvecs.shape == (len(pairs), model.config.cvec_dim)
