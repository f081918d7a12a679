"""Synthetic city generator (DESIGN.md S7-S9 substrate).

Builds a Nantong-like world: an urban core with generic POIs, several
industrial zones (plus a port strip) dense in chemical-type POIs, rest
facilities along the road corridors, and truck depots on the outskirts.

A subset of chemical-type POIs is designated as *l/u sites* — places where
hazardous chemicals are actually loaded or unloaded.  Crucially, fuel
stations appear both as l/u sites (fuel trucks load there) and as ordinary
break locations, reproducing the paper's "complex staying scenarios"
challenge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo import BoundingBox, NANTONG_BBOX
from .poi import (CHEMICAL_CATEGORIES, POI, POI_CATEGORIES, POIDatabase,
                  REST_CATEGORIES)
from .roadnet import RoadNetwork

__all__ = ["WorldConfig", "SyntheticWorld", "Site"]


@dataclass(frozen=True)
class Site:
    """A location where trucks can stay (l/u site, rest stop, or depot)."""

    site_id: int
    lat: float
    lng: float
    category: str
    kind: str  # "lu" | "rest" | "depot"


@dataclass
class WorldConfig:
    """Knobs for the synthetic city."""

    bbox: BoundingBox = NANTONG_BBOX
    seed: int = 0
    num_industrial_zones: int = 5
    pois_per_zone: int = 60
    urban_pois: int = 320
    scattered_pois: int = 160
    num_lu_sites: int = 60
    num_rest_stops: int = 40
    num_depots: int = 12
    road_nx: int = 18
    road_ny: int = 14

    def __post_init__(self) -> None:
        if self.num_lu_sites < 4:
            raise ValueError("need at least 4 l/u sites")
        if self.num_depots < 1 or self.num_rest_stops < 1:
            raise ValueError("need at least one depot and one rest stop")


class SyntheticWorld:
    """The full synthetic substrate: POIs, sites, and the road network."""

    def __init__(self, config: WorldConfig | None = None) -> None:
        self.config = config or WorldConfig()
        rng = np.random.default_rng(self.config.seed)
        bbox = self.config.bbox
        self.urban_core = bbox.shrink(0.30)
        self.roads = RoadNetwork(bbox, self.config.road_nx,
                                 self.config.road_ny,
                                 seed=self.config.seed,
                                 urban_core=self.urban_core)
        self.pois = POIDatabase()
        self.lu_sites: list[Site] = []
        self.rest_stops: list[Site] = []
        self.depots: list[Site] = []
        self._next_poi_id = 0
        self._next_site_id = 0
        self._zone_centers = self._make_zone_centers(rng)
        self._populate_pois(rng)
        self._designate_sites(rng)

    # ------------------------------------------------------------------
    def _make_zone_centers(self, rng: np.random.Generator) -> np.ndarray:
        """Industrial zone centers: ring between the core and the border."""
        centers = []
        bbox = self.config.bbox
        attempts = 0
        while (len(centers) < self.config.num_industrial_zones
               and attempts < 1000):
            attempts += 1
            lat, lng = bbox.shrink(0.85).sample(rng)
            if not self.urban_core.contains(lat, lng):
                centers.append((lat, lng))
        if len(centers) < self.config.num_industrial_zones:
            raise RuntimeError("could not place industrial zones")
        return np.asarray(centers)

    def _add_poi(self, category: str, lat: float, lng: float) -> POI:
        lat, lng = self.config.bbox.clamp(lat, lng)
        poi = POI(self._next_poi_id, category, lat, lng,
                  name=f"{category}-{self._next_poi_id}")
        self._next_poi_id += 1
        self.pois.add(poi)
        return poi

    def _populate_pois(self, rng: np.random.Generator) -> None:
        industrial = [c for c in CHEMICAL_CATEGORIES if c != "hospital"]
        industrial += ["industrial_warehouse", "logistics_center",
                       "truck_depot", "company", "weigh_station"]
        generic = [c for c in POI_CATEGORIES
                   if c not in CHEMICAL_CATEGORIES or c == "hospital"]
        # Industrial zones: chemical-heavy clusters, ~1.2 km radius.
        for center in self._zone_centers:
            for _ in range(self.config.pois_per_zone):
                category = industrial[rng.integers(len(industrial))]
                lat = center[0] + rng.normal(0.0, 0.010)
                lng = center[1] + rng.normal(0.0, 0.012)
                self._add_poi(category, lat, lng)
        # Urban core: generic city POIs.
        for _ in range(self.config.urban_pois):
            category = generic[rng.integers(len(generic))]
            lat, lng = self.urban_core.sample(rng)
            self._add_poi(category, lat, lng)
        # Scattered POIs everywhere (fuel stations, rest areas, villages).
        roadside = list(REST_CATEGORIES) + ["residential_area", "company",
                                            "supermarket"]
        for _ in range(self.config.scattered_pois):
            category = roadside[rng.integers(len(roadside))]
            lat, lng = self.config.bbox.sample(rng)
            self._add_poi(category, lat, lng)

    def _designate_sites(self, rng: np.random.Generator) -> None:
        chemical_pois = [p for p in self.pois
                         if p.category in CHEMICAL_CATEGORIES]
        if len(chemical_pois) < self.config.num_lu_sites:
            raise RuntimeError("not enough chemical POIs for l/u sites")
        order = rng.permutation(len(chemical_pois))
        for idx in order[:self.config.num_lu_sites]:
            poi = chemical_pois[int(idx)]
            self.lu_sites.append(self._make_site(poi, "lu"))
        rest_pois = [p for p in self.pois if p.category in REST_CATEGORIES]
        order = rng.permutation(len(rest_pois))
        for idx in order[:self.config.num_rest_stops]:
            poi = rest_pois[int(idx)]
            self.rest_stops.append(self._make_site(poi, "rest"))
        depot_pois = [p for p in self.pois if p.category == "truck_depot"]
        while len(depot_pois) < self.config.num_depots:
            lat, lng = self.config.bbox.shrink(0.9).sample(rng)
            if self.urban_core.contains(lat, lng):
                continue
            depot_pois.append(self._add_poi("truck_depot", lat, lng))
        order = rng.permutation(len(depot_pois))
        for idx in order[:self.config.num_depots]:
            poi = depot_pois[int(idx)]
            self.depots.append(self._make_site(poi, "depot"))

    def _make_site(self, poi: POI, kind: str) -> Site:
        site = Site(self._next_site_id, poi.lat, poi.lng, poi.category, kind)
        self._next_site_id += 1
        return site

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, int]:
        return {
            "pois": len(self.pois),
            "lu_sites": len(self.lu_sites),
            "rest_stops": len(self.rest_stops),
            "depots": len(self.depots),
            "road_nodes": self.roads.graph.number_of_nodes(),
            "road_edges": self.roads.graph.number_of_edges(),
        }
