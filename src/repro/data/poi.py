"""POI (point of interest) database with a planar grid index (DESIGN.md S7).

The paper collects 415,639 POIs in Nantong and groups them into 29 typical
categories; feature extraction counts category occurrences within a 100 m
radius of each GPS point.  This module provides the same interface over a
synthetic POI set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo import LocalProjection

__all__ = ["POI", "POIDatabase", "POI_CATEGORIES", "CHEMICAL_CATEGORIES",
           "REST_CATEGORIES"]

#: The 29 POI categories (paper §VI-A names "company, hospital, chemical
#: factory, etc." — the full taxonomy is not disclosed, so we use a
#: plausible industrial-city taxonomy of the same cardinality).
POI_CATEGORIES: tuple[str, ...] = (
    "chemical_factory", "fuel_station", "gas_plant", "oil_depot",
    "industrial_warehouse", "port_terminal", "steel_plant", "power_plant",
    "pharmaceutical_factory", "paint_factory", "fertilizer_plant",
    "construction_site", "truck_depot", "logistics_center", "weigh_station",
    "rest_area", "restaurant", "hotel", "hospital", "school", "company",
    "shopping_mall", "residential_area", "government_office", "bank",
    "park", "supermarket", "parking_lot", "bus_station",
)

assert len(POI_CATEGORIES) == 29

#: Categories at which hazardous chemicals are plausibly loaded/unloaded.
CHEMICAL_CATEGORIES: tuple[str, ...] = (
    "chemical_factory", "fuel_station", "gas_plant", "oil_depot",
    "port_terminal", "pharmaceutical_factory", "paint_factory",
    "fertilizer_plant", "steel_plant", "power_plant", "hospital",
    "construction_site",
)

#: Categories at which drivers take ordinary (non-l/u) breaks.
REST_CATEGORIES: tuple[str, ...] = (
    "fuel_station", "rest_area", "restaurant", "parking_lot",
    "logistics_center", "weigh_station",
)

_CATEGORY_INDEX = {name: i for i, name in enumerate(POI_CATEGORIES)}


@dataclass(frozen=True)
class POI:
    """One point of interest."""

    poi_id: int
    category: str
    lat: float
    lng: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.category not in _CATEGORY_INDEX:
            raise ValueError(f"unknown POI category: {self.category!r}")

    @property
    def category_index(self) -> int:
        return _CATEGORY_INDEX[self.category]


#: Cell-key packing factor for the frozen CSR grid.  City-scale planar
#: coordinates divided by the cell size stay far below 2**31, so
#: ``cx * 2**32 + cy`` is injective over int64.
_CELL_PACK = np.int64(2) ** 32


class _CSRGrid:
    """Frozen, array-only view of the grid index (built lazily).

    ``order`` lists POI indices sorted by packed cell key; ``starts``
    are CSR offsets into it (one slice per occupied cell, keys in
    ``cell_keys`` sorted ascending).  Bulk queries binary-search the
    keys of every (query, neighbor-cell) pair at once, gather the
    candidate slices with one ragged ``np.repeat`` expansion, and never
    touch a Python-level POI object.
    """

    __slots__ = ("cell_keys", "starts", "order", "xy", "categories")

    def __init__(self, xy: np.ndarray, categories: np.ndarray,
                 cell_size_m: float) -> None:
        cells = np.floor(xy / cell_size_m).astype(np.int64)
        keys = cells[:, 0] * _CELL_PACK + cells[:, 1]
        self.order = np.argsort(keys, kind="stable")
        sorted_keys = keys[self.order]
        if sorted_keys.size:
            first = np.concatenate(
                ([0], np.flatnonzero(np.diff(sorted_keys)) + 1))
            self.cell_keys = sorted_keys[first]
            self.starts = np.concatenate(
                (first, [sorted_keys.size])).astype(np.int64)
        else:
            self.cell_keys = np.zeros(0, dtype=np.int64)
            self.starts = np.zeros(1, dtype=np.int64)
        self.xy = xy
        self.categories = categories


class POIDatabase:
    """A spatially indexed collection of POIs.

    The index is a uniform grid in local planar meters; radius queries scan
    only the cells intersecting the query disc, making the 100 m category
    counting used by feature extraction O(1) per point in practice.

    The grid is a CSR-style array index (:class:`_CSRGrid`), frozen from
    the POIs the first time a query needs it and rebuilt after any
    :meth:`add`.  Every query runs through the bulk plane in numpy; the
    one-point entries are batches of one.
    """

    def __init__(self, pois: list[POI] | None = None,
                 cell_size_m: float = 250.0,
                 projection: LocalProjection | None = None) -> None:
        if cell_size_m <= 0:
            raise ValueError("cell_size_m must be positive")
        self.cell_size_m = float(cell_size_m)
        self._pois: list[POI] = []
        self._xy_list: list[tuple[float, float]] = []
        self._xy_cache: np.ndarray | None = None
        self._categories_cache: np.ndarray | None = None
        self._csr: _CSRGrid | None = None
        self._projection = projection
        for poi in pois or []:
            self.add(poi)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pois)

    def __iter__(self):
        return iter(self._pois)

    @property
    def pois(self) -> list[POI]:
        return list(self._pois)

    def _ensure_projection(self, lat: float, lng: float) -> LocalProjection:
        if self._projection is None:
            self._projection = LocalProjection(lat, lng)
        return self._projection

    def add(self, poi: POI) -> None:
        projection = self._ensure_projection(poi.lat, poi.lng)
        x, y = projection.to_xy(poi.lat, poi.lng)
        self._pois.append(poi)
        self._xy_list.append((float(x), float(y)))
        self._xy_cache = None
        self._categories_cache = None
        self._csr = None

    @property
    def _xy(self) -> np.ndarray:
        if self._xy_cache is None:
            self._xy_cache = (np.asarray(self._xy_list)
                              if self._xy_list else np.zeros((0, 2)))
        return self._xy_cache

    @property
    def _category_codes(self) -> np.ndarray:
        """Per-POI category index as one int64 array (cached)."""
        if self._categories_cache is None:
            self._categories_cache = np.asarray(
                [p.category_index for p in self._pois], dtype=np.int64)
        return self._categories_cache

    def _frozen(self) -> _CSRGrid:
        """The CSR grid, rebuilt lazily after any mutation."""
        if self._csr is None:
            self._csr = _CSRGrid(self._xy, self._category_codes,
                                 self.cell_size_m)
        return self._csr

    # ------------------------------------------------------------------
    def query_radius(self, lat: float, lng: float, radius_m: float
                     ) -> list[POI]:
        """All POIs within ``radius_m`` meters of (lat, lng), in POI
        index (insertion) order."""
        if radius_m < 0:
            raise ValueError("radius must be non-negative")
        if not self._pois:
            return []
        _, hits = self._hits_within_batch(np.array([float(lat)]),
                                          np.array([float(lng)]), radius_m)
        return [self._pois[i] for i in np.sort(hits)]

    def count_categories(self, lat: float, lng: float,
                         radius_m: float = 100.0) -> np.ndarray:
        """29-vector of per-category POI counts within the radius.

        This is exactly the ``poi`` feature of the paper's §IV-A.
        """
        return self.count_categories_batch(
            np.array([float(lat)]), np.array([float(lng)]), radius_m)[0]

    def count_categories_batch(self, lats: np.ndarray, lngs: np.ndarray,
                               radius_m: float = 100.0) -> np.ndarray:
        """Category counts for many points at once, shape ``(n, 29)``.

        One projection pass over all query points, one binary search per
        neighbor-cell offset, one ragged gather of candidate POIs, and a
        single ``np.bincount`` into the count matrix — no Python loop
        over points or POIs.  A POI counts when its squared planar
        distance from the projected query is within ``radius_m**2``.
        """
        if radius_m < 0:
            raise ValueError("radius must be non-negative")
        lats = np.asarray(lats, dtype=np.float64)
        lngs = np.asarray(lngs, dtype=np.float64)
        if lats.shape != lngs.shape or lats.ndim != 1:
            raise ValueError("lats and lngs must be equal-length 1-D arrays")
        num_categories = len(POI_CATEGORIES)
        if lats.size == 0 or not self._pois:
            return np.zeros((lats.size, num_categories))
        qidx, cand = self._hits_within_batch(lats, lngs, radius_m)
        if not cand.size:
            return np.zeros((lats.size, num_categories))
        # bincount over flattened (query, category) bins: the same
        # integer accumulation as an ``np.add.at`` scatter, minus its
        # per-element dispatch cost.
        flat = np.bincount(qidx * num_categories
                           + self._frozen().categories[cand],
                           minlength=lats.size * num_categories)
        return flat.reshape(lats.size, num_categories).astype(np.float64)

    def _hits_within_batch(self, lats: np.ndarray, lngs: np.ndarray,
                           radius_m: float
                           ) -> tuple[np.ndarray, np.ndarray]:
        """All (query index, POI index) pairs within ``radius_m``.

        Requires a non-empty database and non-empty query arrays.
        """
        grid = self._frozen()
        x, y = self._projection.to_xy(lats, lngs)
        cell = self.cell_size_m
        reach = int(np.ceil(radius_m / cell))
        cx = np.floor(x / cell).astype(np.int64)
        cy = np.floor(y / cell).astype(np.int64)
        last = grid.cell_keys.size - 1
        # All neighbor-cell keys of all queries in one (n, span²) block,
        # resolved by a single binary search — no Python loop over the
        # offset grid.
        offs = np.arange(-reach, reach + 1, dtype=np.int64)
        kx = (cx[:, None] + offs[None, :]) * _CELL_PACK
        ky = cy[:, None] + offs[None, :]
        keys = (kx[:, :, None] + ky[:, None, :]).reshape(lats.size, -1)
        keys = keys.ravel()
        pos = np.minimum(np.searchsorted(grid.cell_keys, keys), last)
        occupied = grid.cell_keys[pos] == keys
        empty = np.zeros(0, dtype=np.int64)
        if not occupied.any():
            return empty, empty
        span_sq = offs.size * offs.size
        q = np.repeat(np.arange(lats.size, dtype=np.int64),
                      span_sq)[occupied]
        pos = pos[occupied]
        begins = grid.starts[pos]
        lengths = grid.starts[pos + 1] - begins
        total = int(lengths.sum())
        if total == 0:
            return empty, empty
        # Ragged expansion: each (query, cell) slice becomes contiguous
        # candidate indices begins[k] .. begins[k] + lengths[k).
        qidx = np.repeat(q, lengths)
        offsets = (np.arange(total, dtype=np.int64)
                   - np.repeat(np.cumsum(lengths) - lengths, lengths))
        cand = grid.order[np.repeat(begins, lengths) + offsets]
        dx_m = grid.xy[cand, 0] - x[qidx]
        dy_m = grid.xy[cand, 1] - y[qidx]
        hit = dx_m ** 2 + dy_m ** 2 <= radius_m ** 2
        return qidx[hit], cand[hit]

    def nearest(self, lat: float, lng: float,
                category: str | None = None) -> POI | None:
        """The nearest POI (optionally restricted to one category)."""
        if not self._pois:
            return None
        projection = self._ensure_projection(lat, lng)
        x, y = projection.to_xy(lat, lng)
        distances = np.hypot(self._xy[:, 0] - float(x),
                             self._xy[:, 1] - float(y))
        if category is not None:
            code = _CATEGORY_INDEX.get(category, -1)
            eligible = np.flatnonzero(self._category_codes == code)
            if eligible.size == 0:
                return None
            best = int(eligible[np.argmin(distances[eligible])])
        else:
            best = int(np.argmin(distances))
        return self._pois[best]
