"""Tests for metrics, the evaluation harness, and report rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import (BUCKETS, DetectionRecord, accuracy,
                        accuracy_by_bucket, bucket_of, evaluate_detector,
                        format_accuracy_table, format_loss_curves,
                        format_timing_table, mean_inference_time_by_bucket,
                        prepare_test_set)


def record(n, hit, t=0.01):
    true = (1, 2)
    detected = (1, 2) if hit else (1, 3) if n >= 3 else (1, 2)
    return DetectionRecord(n, true, detected, t)


class TestMetrics:
    def test_hit_requires_exact_pair(self):
        assert record(5, True).hit
        assert not record(5, False).hit

    def test_accuracy(self):
        records = [record(4, True), record(4, True), record(4, False),
                   record(4, False)]
        assert accuracy(records) == 50.0

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy([])

    def test_bucket_of(self):
        assert bucket_of(3) == "3~5"
        assert bucket_of(8) == "6~8"
        assert bucket_of(11) == "9~11"
        assert bucket_of(14) == "12~14"
        assert bucket_of(2) is None
        assert bucket_of(15) is None

    def test_buckets_cover_paper_range(self):
        covered = {n for lo, hi in BUCKETS for n in range(lo, hi + 1)}
        assert covered == set(range(3, 15))

    def test_accuracy_by_bucket(self):
        records = [record(4, True), record(4, False),  # 3~5 -> 50%
                   record(7, True),                     # 6~8 -> 100%
                   record(15, False)]                   # outside buckets
        table = accuracy_by_bucket(records)
        assert table["3~5"] == (50.0, 2)
        assert table["6~8"] == (100.0, 1)
        assert np.isnan(table["9~11"][0])
        # The 15-stay record is excluded from the overall row.
        assert table["3~14"] == (pytest.approx(200 / 3), 3)

    def test_timing_by_bucket(self):
        records = [record(4, True, t=0.1), record(4, True, t=0.3),
                   record(7, True, t=1.0)]
        timing = mean_inference_time_by_bucket(records)
        assert timing["3~5"] == pytest.approx(0.2)
        assert timing["6~8"] == pytest.approx(1.0)
        assert np.isnan(timing["12~14"])


class TestHarness:
    def test_evaluate_detector_records_and_times(self):
        # A minimal fake "processed" stand-in via real processing.
        from repro.data import DatasetConfig, generate_dataset
        dataset = generate_dataset(DatasetConfig(
            num_trajectories=3, num_trucks=2, seed=9))
        test_set = prepare_test_set(dataset)
        assert test_set, "expected processable samples"
        records = evaluate_detector(
            lambda p: (1, p.num_stay_points), test_set)
        assert len(records) == len(test_set)
        assert all(r.inference_time_s >= 0 for r in records)
        # Default-pair detection hits whenever the truth is (1, n).
        for r, (p, truth) in zip(records, test_set):
            assert r.hit == (truth == (1, p.num_stay_points))

    def test_nonfinite_fix_is_sanitized_before_processing(self):
        """The test set takes ``LEAD.detect``'s front door: a NaN fix is
        dropped before noise filtering, exactly as if it never arrived,
        instead of staying in the cleaned day and skewing its stays."""
        from repro.data import DatasetConfig, LabeledSample, generate_dataset
        from repro.model import Trajectory
        day = generate_dataset(DatasetConfig(
            num_trajectories=3, num_trucks=2, seed=1)).samples[0]
        raw = day.trajectory

        def variant(lats, keep):
            return LabeledSample(Trajectory(
                lats[keep], raw.lngs[keep], raw.ts[keep],
                truck_id=raw.truck_id, day=raw.day), day.label)

        middle = len(raw) // 2
        lats = raw.lats.copy()
        lats[middle] = np.nan
        everything = np.ones(len(raw), dtype=bool)
        without = everything.copy()
        without[middle] = False
        [(got, got_pair)] = prepare_test_set([variant(lats, everything)])
        [(want, want_pair)] = prepare_test_set([variant(raw.lats, without)])
        assert np.isfinite(got.cleaned.lats).all()
        assert got_pair == want_pair
        assert got.num_stay_points == want.num_stay_points
        for a, b in zip(got.stay_points, want.stay_points, strict=True):
            assert (a.start, a.end) == (b.start, b.end)
            assert np.isfinite(a.centroid).all()
            assert a.centroid == b.centroid

    def test_clean_days_are_processed_as_given(self):
        from repro.data import DatasetConfig, generate_dataset
        dataset = generate_dataset(DatasetConfig(
            num_trajectories=3, num_trucks=2, seed=9))
        raws = {id(sample.trajectory) for sample in dataset}
        test_set = prepare_test_set(dataset)
        assert test_set
        assert all(id(processed.raw) in raws for processed, _ in test_set)

    def test_evaluate_empty_raises(self):
        with pytest.raises(ValueError):
            evaluate_detector(lambda p: (1, 2), [])


class TestReports:
    def make_results(self):
        return {
            "SP-R": [record(4, False), record(7, True)],
            "LEAD": [record(4, True), record(7, True)],
        }

    def test_accuracy_table_renders_all_methods(self):
        text = format_accuracy_table(self.make_results(), "Table X")
        assert "Table X" in text
        assert "SP-R" in text and "LEAD" in text
        assert "3~5" in text and "3~14" in text
        assert "(share)" in text

    def test_timing_table_renders(self):
        text = format_timing_table(self.make_results(), "Fig X")
        assert "Fig X" in text
        assert "ms" in text

    def test_loss_curves_render(self):
        text = format_loss_curves(
            {"HA in LEAD": [0.12, 0.05, 0.04]}, "Fig 9", loss_name="mse")
        assert "minimized at epoch 2" in text
        assert "mse=0.0400" in text
