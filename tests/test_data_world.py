"""Tests for the synthetic world, road network, simulator, and dataset."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (DatasetConfig, EDGE_SPEEDS_KMH, HCTDataset,
                        LabeledSample, RoadNetwork, SimulatorConfig,
                        SyntheticWorld, Truck, TruckDaySimulator,
                        WorldConfig, generate_dataset, make_fleet)
from repro.geo import NANTONG_BBOX, haversine_m


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld(WorldConfig(seed=3))


@pytest.fixture(scope="module")
def tiny_dataset():
    config = DatasetConfig(num_trajectories=12, num_trucks=6, seed=5)
    return generate_dataset(config)


class TestRoadNetwork:
    def test_graph_is_connected(self, world):
        import networkx as nx
        assert nx.is_connected(world.roads.graph)

    def test_edge_kinds_present(self, world):
        kinds = {attrs["kind"]
                 for _, _, attrs in world.roads.graph.edges(data=True)}
        assert kinds == set(EDGE_SPEEDS_KMH)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            RoadNetwork(NANTONG_BBOX, nx_nodes=2, ny_nodes=2)

    def test_route_endpoints_exact(self, world):
        origin = (31.90, 120.60)
        destination = (32.20, 121.10)
        route = world.roads.route(origin, destination)
        assert (route.lats[0], route.lngs[0]) == origin
        assert (route.lats[-1], route.lngs[-1]) == destination
        assert route.length_m > haversine_m(*origin, *destination) * 0.9
        assert len(route.edge_kinds) == route.num_waypoints - 1

    def test_avoid_urban_reduces_urban_fraction(self, world):
        # A diagonal crossing the city center.
        origin = (NANTONG_BBOX.min_lat + 0.02, NANTONG_BBOX.min_lng + 0.02)
        destination = (NANTONG_BBOX.max_lat - 0.02, NANTONG_BBOX.max_lng - 0.02)
        through = world.roads.route(origin, destination, avoid_urban=False)
        around = world.roads.route(origin, destination, avoid_urban=True)
        assert (world.roads.urban_fraction(around)
                <= world.roads.urban_fraction(through))

    def test_route_same_point(self, world):
        route = world.roads.route((32.0, 120.8), (32.0, 120.8))
        assert route.num_waypoints >= 2
        assert route.length_m < 10_000


class TestWorld:
    def test_summary_counts(self, world):
        summary = world.summary()
        assert summary["lu_sites"] == world.config.num_lu_sites
        assert summary["rest_stops"] == world.config.num_rest_stops
        assert summary["depots"] == world.config.num_depots
        assert summary["pois"] > 500

    def test_lu_sites_are_chemical_categories(self, world):
        from repro.data import CHEMICAL_CATEGORIES
        assert all(s.category in CHEMICAL_CATEGORIES for s in world.lu_sites)

    def test_pois_inside_bbox(self, world):
        assert all(world.config.bbox.contains(p.lat, p.lng)
                   for p in world.pois)

    def test_deterministic_given_seed(self):
        a = SyntheticWorld(WorldConfig(seed=9))
        b = SyntheticWorld(WorldConfig(seed=9))
        assert [(s.lat, s.lng) for s in a.lu_sites] == \
               [(s.lat, s.lng) for s in b.lu_sites]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(num_lu_sites=2)


class TestSimulator:
    def test_truck_needs_sites(self, world):
        with pytest.raises(ValueError):
            Truck("t", world.depots[0], (world.lu_sites[0],))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulatorConfig(ordinary_stay_s=(60.0, 600.0))
        with pytest.raises(ValueError):
            SimulatorConfig(sampling_interval_s=10.0, sampling_jitter_s=20.0)

    def test_simulated_day_is_wellformed(self, world):
        rng = np.random.default_rng(1)
        fleet = make_fleet(world, 4, rng)
        sim = TruckDaySimulator(world)
        for truck in fleet:
            trajectory, label = sim.simulate(truck, "2020-09-01", rng)
            assert len(trajectory) > 50
            assert (np.diff(trajectory.ts) > 0).all()
            # Label ordering: loading before unloading.
            assert label.loading.end <= label.unloading.start
            # The truck is near the loading site during the loading stay.
            mid = (label.loading.start + label.loading.end) / 2
            idx = int(np.argmin(np.abs(trajectory.ts - mid)))
            d = haversine_m(trajectory.lats[idx], trajectory.lngs[idx],
                            label.loading_lat, label.loading_lng)
            assert d < 1_000  # within 1 km despite noise/outliers

    def test_loaded_leg_slower_on_average(self, world):
        """The loaded-speed signal LEAD exploits must exist in the data."""
        rng = np.random.default_rng(2)
        config = SimulatorConfig(outlier_probability=0.0, gps_noise_m=0.0)
        sim = TruckDaySimulator(world, config)
        fleet = make_fleet(world, 12, rng)
        loaded_speeds, empty_speeds = [], []
        for truck in fleet:
            trajectory, label = sim.simulate(truck, "d", rng)
            speeds = trajectory.segment_speeds_kmh()
            mids = (trajectory.ts[:-1] + trajectory.ts[1:]) / 2
            moving = speeds > 8.0
            loaded_mask = ((mids > label.loading.end)
                           & (mids < label.unloading.start) & moving)
            empty_mask = ((mids < label.loading.start)
                          | (mids > label.unloading.end)) & moving
            loaded_speeds.extend(speeds[loaded_mask])
            empty_speeds.extend(speeds[empty_mask])
        assert np.mean(loaded_speeds) < np.mean(empty_speeds) * 0.92

    def test_outliers_injected_when_enabled(self, world):
        rng = np.random.default_rng(3)
        config = SimulatorConfig(outlier_probability=0.05)
        sim = TruckDaySimulator(world, config)
        truck = make_fleet(world, 1, rng)[0]
        trajectory, _ = sim.simulate(truck, "d", rng)
        speeds = trajectory.segment_speeds_kmh()
        assert (speeds > 130.0).any()

    def test_stay_count_targets_buckets(self, world):
        rng = np.random.default_rng(4)
        sim = TruckDaySimulator(world)
        # Planning targets are deliberately shifted above the paper's 3-14
        # because dropped breaks and merged stays shrink the extracted count.
        counts = [sim._target_stay_count(rng) for _ in range(300)]
        assert min(counts) >= 3 and max(counts) <= 16


class TestDataset:
    def test_generation_counts(self, tiny_dataset):
        assert len(tiny_dataset) == 12
        assert len(tiny_dataset.truck_ids) == 6

    def test_split_by_truck_disjoint(self, tiny_dataset):
        train, val, test = tiny_dataset.split_by_truck((4, 1, 1), seed=0)
        assert len(train) + len(val) + len(test) == len(tiny_dataset)
        assert not (set(train.truck_ids) & set(val.truck_ids))
        assert not (set(train.truck_ids) & set(test.truck_ids))

    def test_split_rejects_bad_ratios(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.split_by_truck((1, 1), seed=0)

    def test_save_load_roundtrip(self, tiny_dataset, tmp_path):
        path = tiny_dataset.save(tmp_path / "ds.json.gz")
        again = HCTDataset.load(path)
        assert len(again) == len(tiny_dataset)
        first_a = tiny_dataset[0]
        first_b = again[0]
        np.testing.assert_allclose(first_a.trajectory.lats,
                                   first_b.trajectory.lats)
        assert first_a.label == first_b.label

    def test_save_is_byte_reproducible(self, tiny_dataset, tmp_path):
        first = tiny_dataset.save(tmp_path / "a.json.gz")
        second = tiny_dataset.save(tmp_path / "b.json.gz")
        assert first.read_bytes() == second.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["a.json.gz", "b.json.gz"]           # no temporary left over

    def test_summary(self, tiny_dataset):
        summary = tiny_dataset.summary()
        assert summary["num_samples"] == 12
        assert summary["mean_points"] > 50

    def test_sample_dict_roundtrip(self, tiny_dataset):
        sample = tiny_dataset[0]
        again = LabeledSample.from_dict(sample.to_dict())
        assert again.label == sample.label

    def test_config_caps_trucks(self):
        config = DatasetConfig(num_trajectories=3, num_trucks=10)
        assert config.num_trucks == 3

    def test_determinism(self):
        a = generate_dataset(DatasetConfig(num_trajectories=4,
                                           num_trucks=2, seed=11))
        b = generate_dataset(DatasetConfig(num_trajectories=4,
                                           num_trucks=2, seed=11))
        np.testing.assert_allclose(a[0].trajectory.lats, b[0].trajectory.lats)
