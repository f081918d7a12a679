"""Tests for the POI database and spatial index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (CHEMICAL_CATEGORIES, POI, POI_CATEGORIES,
                        POIDatabase, REST_CATEGORIES)
from repro.geo import haversine_m


def make_poi(poi_id, category, lat, lng):
    return POI(poi_id, category, lat, lng)


class TestCategories:
    def test_exactly_29_categories(self):
        assert len(POI_CATEGORIES) == 29

    def test_no_duplicates(self):
        assert len(set(POI_CATEGORIES)) == 29

    def test_chemical_and_rest_are_subsets(self):
        assert set(CHEMICAL_CATEGORIES) <= set(POI_CATEGORIES)
        assert set(REST_CATEGORIES) <= set(POI_CATEGORIES)

    def test_fuel_station_is_both_chemical_and_rest(self):
        # This overlap is the paper's "complex staying scenario".
        assert "fuel_station" in CHEMICAL_CATEGORIES
        assert "fuel_station" in REST_CATEGORIES


class TestPOI:
    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError):
            POI(0, "space_station", 32.0, 120.9)

    def test_category_index(self):
        poi = make_poi(0, POI_CATEGORIES[5], 32.0, 120.9)
        assert poi.category_index == 5


class TestPOIDatabase:
    def test_empty_database(self):
        db = POIDatabase()
        assert len(db) == 0
        assert db.query_radius(32.0, 120.9, 100.0) == []
        assert db.nearest(32.0, 120.9) is None
        np.testing.assert_array_equal(db.count_categories(32.0, 120.9),
                                      np.zeros(29))

    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError):
            POIDatabase(cell_size_m=0)

    def test_radius_query_matches_haversine_bruteforce(self):
        rng = np.random.default_rng(5)
        center = (32.0, 120.9)
        db = POIDatabase()
        pois = []
        for i in range(300):
            lat = center[0] + rng.normal(0, 0.01)
            lng = center[1] + rng.normal(0, 0.01)
            poi = make_poi(i, POI_CATEGORIES[i % 29], lat, lng)
            pois.append(poi)
            db.add(poi)
        radius = 400.0
        hits = db.query_radius(*center, radius)
        # Hits come in POI index (insertion) order; ids equal indices.
        assert [p.poi_id for p in hits] == sorted(p.poi_id for p in hits)
        got = {p.poi_id for p in hits}
        # The grid works in a planar projection; allow a tiny tolerance
        # band around the radius when comparing with spherical distance.
        must_have = {p.poi_id for p in pois
                     if haversine_m(*center, p.lat, p.lng) < radius * 0.995}
        may_have = {p.poi_id for p in pois
                    if haversine_m(*center, p.lat, p.lng) <= radius * 1.005}
        assert must_have <= got <= may_have

    def test_count_categories_shape_and_content(self):
        db = POIDatabase()
        db.add(make_poi(0, "chemical_factory", 32.0, 120.9))
        db.add(make_poi(1, "chemical_factory", 32.0003, 120.9))
        db.add(make_poi(2, "restaurant", 32.0, 120.9005))
        db.add(make_poi(3, "restaurant", 32.3, 121.0))  # far away
        counts = db.count_categories(32.0, 120.9, radius_m=100.0)
        assert counts.shape == (29,)
        idx_chem = POI_CATEGORIES.index("chemical_factory")
        idx_rest = POI_CATEGORIES.index("restaurant")
        assert counts[idx_chem] == 2.0
        assert counts[idx_rest] == 1.0
        assert counts.sum() == 3.0

    def test_count_categories_batch(self):
        db = POIDatabase()
        db.add(make_poi(0, "hospital", 32.0, 120.9))
        batch = db.count_categories_batch(np.array([32.0, 32.2]),
                                          np.array([120.9, 121.0]))
        assert batch.shape == (2, 29)
        assert batch[0].sum() == 1.0
        assert batch[1].sum() == 0.0

    def test_nearest_with_category_filter(self):
        db = POIDatabase()
        db.add(make_poi(0, "hospital", 32.01, 120.9))
        db.add(make_poi(1, "restaurant", 32.001, 120.9))
        nearest = db.nearest(32.0, 120.9)
        assert nearest.poi_id == 1
        nearest_hospital = db.nearest(32.0, 120.9, category="hospital")
        assert nearest_hospital.poi_id == 0
        assert db.nearest(32.0, 120.9, category="bank") is None

    def test_negative_radius_rejected(self):
        db = POIDatabase()
        db.add(make_poi(0, "hospital", 32.0, 120.9))
        with pytest.raises(ValueError):
            db.query_radius(32.0, 120.9, -1.0)
