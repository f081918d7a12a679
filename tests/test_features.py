"""Tests for feature extraction, normalization, and candidate sequences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (DatasetConfig, POI, POIDatabase, POI_CATEGORIES,
                        generate_dataset)
from repro.encoding.autoencoder import flat_sequences
from repro.features import (CandidateFeaturizer, FEATURE_DIM, FeatureConfig,
                            FeatureExtractor, ZScoreNormalizer,
                            subsample_indices)
from repro.processing import RawTrajectoryProcessor

RNG = np.random.default_rng(31)


class TestNormalizer:
    def test_fit_transform_standardizes(self):
        x = RNG.normal(loc=5.0, scale=3.0, size=(500, 4))
        z = ZScoreNormalizer().fit_transform(x)
        np.testing.assert_allclose(z.mean(axis=0), np.zeros(4), atol=1e-9)
        np.testing.assert_allclose(z.std(axis=0), np.ones(4), atol=1e-9)

    def test_constant_column_passthrough(self):
        x = np.ones((10, 2))
        x[:, 1] = RNG.normal(size=10)
        z = ZScoreNormalizer().fit_transform(x)
        assert np.isfinite(z).all()
        np.testing.assert_allclose(z[:, 0], np.zeros(10))

    def test_inverse_transform_roundtrip(self):
        x = RNG.normal(size=(50, 3))
        normalizer = ZScoreNormalizer().fit(x)
        np.testing.assert_allclose(
            normalizer.inverse_transform(normalizer.transform(x)), x,
            atol=1e-12)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ZScoreNormalizer().transform(np.ones((2, 2)))
        with pytest.raises(RuntimeError):
            ZScoreNormalizer().inverse_transform(np.ones((2, 2)))
        with pytest.raises(RuntimeError):
            ZScoreNormalizer().to_dict()

    def test_fit_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ZScoreNormalizer().fit(np.ones(5))
        with pytest.raises(ValueError):
            ZScoreNormalizer().fit(np.ones((0, 3)))

    def test_dict_roundtrip(self):
        x = RNG.normal(size=(20, 3))
        a = ZScoreNormalizer().fit(x)
        b = ZScoreNormalizer.from_dict(a.to_dict())
        np.testing.assert_allclose(a.transform(x), b.transform(x))


class TestSubsample:
    def test_short_segment_untouched(self):
        np.testing.assert_array_equal(subsample_indices(3, 7, 16),
                                      np.arange(3, 8))

    def test_long_segment_capped(self):
        idx = subsample_indices(0, 99, 16)
        assert len(idx) <= 16
        assert idx[0] == 0 and idx[-1] == 99
        assert (np.diff(idx) > 0).all()

    def test_single_point(self):
        np.testing.assert_array_equal(subsample_indices(5, 5, 16), [5])

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            subsample_indices(5, 3, 16)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 50), st.integers(0, 200), st.integers(2, 32))
    def test_invariants(self, start, length, max_len):
        end = start + length
        idx = subsample_indices(start, end, max_len)
        assert idx[0] == start and idx[-1] == end or length == 0
        assert len(idx) <= max(max_len, 1)
        assert (np.diff(idx) > 0).all() or len(idx) == 1


class TestFeatureExtractor:
    @pytest.fixture()
    def db(self):
        db = POIDatabase()
        db.add(POI(0, "chemical_factory", 32.0, 120.9))
        db.add(POI(1, "restaurant", 32.001, 120.9))
        return db

    def test_feature_dim_is_32(self):
        assert FEATURE_DIM == 32

    def test_trajectory_features_shape_and_content(self, db):
        from repro.model import Trajectory
        tr = Trajectory([32.0, 32.5], [120.9, 121.0], [0.0, 60.0])
        features = FeatureExtractor(db).trajectory_features(tr)
        assert features.shape == (2, 32)
        np.testing.assert_allclose(features[0, :3], [32.0, 120.9, 0.0])
        idx_chem = 3 + POI_CATEGORIES.index("chemical_factory")
        assert features[0, idx_chem] == 1.0
        assert features[1, 3:].sum() == 0.0  # far from all POIs

    def test_point_rows_match_whole_trajectory(self, db):
        """Rows are per point: features of any subset of the points are
        exactly the matching rows of the whole trajectory's matrix."""
        from repro.model import Trajectory
        tr = Trajectory([32.0, 32.5, 32.001], [120.9, 121.0, 120.9],
                        [0.0, 60.0, 120.0])
        extractor = FeatureExtractor(db)
        whole = extractor.trajectory_features(tr)
        pick = np.array([2, 0])
        rows = extractor.features(tr.lats[pick], tr.lngs[pick],
                                  tr.ts[pick])
        assert np.array_equal(rows, whole[pick])
        extractor.clear_cache()     # no memo; still callable
        assert np.array_equal(extractor.trajectory_features(tr), whole)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeatureConfig(poi_radius_m=0)
        with pytest.raises(ValueError):
            FeatureConfig(max_segment_len=1)


class TestCandidateFeaturizer:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.data import SyntheticWorld, WorldConfig
        world = SyntheticWorld(WorldConfig(seed=2))
        dataset = generate_dataset(
            DatasetConfig(num_trajectories=6, num_trucks=3, seed=2),
            world=world)
        processor = RawTrajectoryProcessor()
        processed = [processor.process(s.trajectory, s.label)
                     for s in dataset]
        processed = [p for p in processed if p is not None]
        extractor = FeatureExtractor(world.pois)
        featurizer = CandidateFeaturizer(extractor, ZScoreNormalizer())
        featurizer.fit_normalizer([p.cleaned for p in processed])
        return processed, featurizer

    def test_segment_length_cap(self, setup):
        processed, featurizer = setup
        max_len = featurizer.extractor.config.max_segment_len
        for p in processed[:3]:
            for candidate in p.candidates:
                matrices = featurizer.featurize_segments(candidate.segments())
                assert all(len(s) <= max_len for s in matrices)

    def test_normalized_scale(self, setup):
        """Features of real candidates should be roughly standardized."""
        processed, featurizer = setup
        flat = np.concatenate(featurizer.featurize_segments(
            [segment for c in processed[0].candidates[:5]
             for segment in c.segments()]), axis=0)
        # Values stay within a reasonable standardized band.
        assert np.abs(flat).max() < 40.0
        assert np.abs(np.median(flat)) < 2.0

    def test_flat_matches_segments(self, setup):
        """A candidate's flat f-seq holds every point of its segments."""
        processed, featurizer = setup
        p0 = processed[0]
        stays = featurizer.featurize_segments(p0.stay_points)
        moves = featurizer.featurize_segments(p0.move_points)
        candidate = p0.candidates[0]
        flat, = flat_sequences([stays], [moves], [[candidate.pair]])
        assert np.array_equal(flat, np.concatenate(
            featurizer.featurize_segments(candidate.segments())))

    def test_stay_point_features(self, setup):
        processed, featurizer = setup
        sp = processed[0].stay_points[0]
        features = featurizer.segment_features(sp)
        assert features.ndim == 2
        assert features.shape[1] == FEATURE_DIM
