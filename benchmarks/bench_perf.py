"""Throughput benchmarks for the fleet-scale inference layer (PR 2).

Measures the three levers of the throughput layer on the cached
experiment artifacts:

* batch-of-one vs cross-trajectory *batched* encoding and detection
  (batched detection must match a loop of batch-of-one calls);
* cold- vs warm-cache featurization (the content-keyed segment cache);
* the end-to-end ``repro bench`` harness itself, asserting the payload
  it writes is well-formed and that batch-of-one == whole batch holds.

Run with ``REPRO_SCALE=tiny`` for a smoke pass; the committed
``BENCH_lead.json`` is produced by ``python -m repro.cli bench`` at the
default scale.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="module")
def test_processed(experiment):
    processed = [p for p, _ in experiment.test_set()]
    if len(processed) < 2:
        pytest.skip("need at least two test trajectories")
    return processed


def test_encode_batch_vs_loop(trained_lead, test_processed, benchmark):
    loop = [trained_lead.encode_candidates_batch([p])[0]
            for p in test_processed]
    batched = benchmark(
        lambda: trained_lead.encode_candidates_batch(test_processed))
    assert len(batched) == len(loop)
    for single, merged in zip(loop, batched):
        assert np.allclose(single, merged, rtol=1e-9, atol=0.0)


def test_detect_batch_vs_loop(trained_lead, test_processed, benchmark):
    loop = [trained_lead.detect_processed(p) for p in test_processed]
    batched = benchmark(
        lambda: trained_lead.detect_processed_batch(test_processed))
    assert [r.pair for r in batched] == [r.pair for r in loop]
    for single, merged in zip(loop, batched):
        assert np.allclose(single.distribution, merged.distribution,
                           rtol=1e-9, atol=0.0)


def test_featurize_warm_cache(trained_lead, test_processed, benchmark):
    if trained_lead.feature_cache is not None:
        trained_lead.feature_cache.clear()
    trained_lead.extractor.clear_cache()
    for processed in test_processed:   # cold pass fills the cache
        trained_lead._segments(processed)

    def warm() -> None:
        for processed in test_processed:
            trained_lead._segments(processed)

    benchmark(warm)
    if trained_lead.feature_cache is not None:
        assert trained_lead.feature_cache.stats.hit_rate > 0.5


def test_bench_harness_payload(tmp_path):
    from repro.perf import compare_to_baseline, run_bench
    payload = run_bench(repeats=1, train_wall=False)
    assert payload["equivalence"]["allclose"]
    for key in ("encode_single_tps", "encode_batch_tps",
                "detect_single_tps", "detect_batch_tps",
                "train_steps_fused_sps"):
        assert payload["metrics"][key] > 0
    # A payload never regresses against itself.
    assert compare_to_baseline(payload, payload) == []


def test_preprocess_extract(trained_lead, test_processed, benchmark):
    """Chunked stay-point extraction over the cleaned test set."""
    extractor = trained_lead.processor.extractor
    cleaned = [p.cleaned for p in test_processed]

    def vectorized() -> None:
        for trajectory in cleaned:
            extractor.extract(trajectory)

    benchmark(vectorized)


def test_preprocess_payload_metrics(tmp_path):
    from repro.perf import run_bench
    payload = run_bench(repeats=1, train_wall=False)
    for key in ("preprocess_extract_tps", "preprocess_filter_tps",
                "preprocess_poi_pps"):
        assert payload["metrics"][key] > 0
