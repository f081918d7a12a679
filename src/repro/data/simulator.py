"""HCT truck-day simulator (DESIGN.md S9).

Generates one labelled raw trajectory per truck-day, reproducing the causal
structure of the paper's Nantong data:

* an HCT process has the three ordered phases of the paper's Fig. 1
  (go to loading -> transport -> leave unloading);
* the truck *stays* (>= Tmin) when loading and unloading, near
  chemical-type POIs;
* the driver additionally takes ordinary breaks — before the loading, in
  the middle of the loaded leg, and after unloading — frequently at fuel
  stations, which are also legitimate loading sites for fuel trucks
  (challenge 1 of the paper: complex staying scenarios);
* *loaded* driving is slower (`loaded_speed_factor`) and detours around
  the urban core, a moving-behaviour signal invisible to stay-point-only
  baselines;
* GPS points carry Gaussian noise, and occasional large outliers that the
  Vmax noise filter must remove.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo import haversine_m
from ..model import LoadedLabel, TimeInterval, Trajectory
from .roadnet import Route
from .world import Site, SyntheticWorld

__all__ = ["SimulatorConfig", "Truck", "TruckDaySimulator", "make_fleet"]

#: Stay-count buckets and their shares in the paper's test set (Table III).
STAY_COUNT_BUCKETS: tuple[tuple[int, int, float], ...] = (
    (3, 5, 0.22),
    (6, 8, 0.34),
    (9, 11, 0.25),
    (12, 14, 0.19),
)

#: Planning weights used by the simulator.  They are deliberately shifted
#: toward larger itineraries relative to STAY_COUNT_BUCKETS because some
#: planned breaks are dropped (no separable site, day overrun) and some
#: stays merge during extraction; the *extracted* distribution then lands
#: near the paper's bucket shares.
_PLANNING_BUCKETS: tuple[tuple[int, int, float], ...] = (
    (3, 5, 0.27),
    (6, 8, 0.30),
    (9, 11, 0.23),
    (12, 15, 0.20),
)


@dataclass
class SimulatorConfig:
    """Physics and behaviour knobs of the simulator."""

    sampling_interval_s: float = 120.0   # ~2-minute sampling (paper §VI-A)
    sampling_jitter_s: float = 15.0
    gps_noise_m: float = 8.0
    outlier_probability: float = 0.008
    outlier_jump_m: tuple[float, float] = (6_000.0, 12_000.0)
    loaded_speed_factor: float = 0.72
    speed_noise_rel: float = 0.12
    stay_wander_m: float = 30.0
    ordinary_stay_s: tuple[float, float] = (17.0 * 60, 42.0 * 60)
    lu_stay_s: tuple[float, float] = (20.0 * 60, 70.0 * 60)
    #: Probability that an ordinary break happens at a chemical-type site
    #: (queueing at a factory gate, resting while refuelling) instead of a
    #: rest facility.  These stops are POI-indistinguishable from real
    #: loading/unloading stays — the paper's "complex staying scenarios".
    gate_stop_prob: float = 0.15
    min_leg_m: float = 2_500.0           # keep consecutive stays separable
    day_start_s: tuple[float, float] = (3.5 * 3600, 7.0 * 3600)
    max_day_s: float = 23.5 * 3600
    bucket_probs: tuple[tuple[int, int, float], ...] = _PLANNING_BUCKETS

    def __post_init__(self) -> None:
        if self.sampling_interval_s <= 2 * self.sampling_jitter_s:
            raise ValueError("sampling jitter too large for the interval")
        total = sum(p for _, _, p in self.bucket_probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("bucket probabilities must sum to 1")
        if self.ordinary_stay_s[0] < 16 * 60 or self.lu_stay_s[0] < 16 * 60:
            raise ValueError(
                "stays must exceed the Tmin=15min extraction threshold")


@dataclass(frozen=True)
class Truck:
    """An HCT truck: home depot plus its company's l/u site pool."""

    truck_id: str
    depot: Site
    site_pool: tuple[Site, ...]

    def __post_init__(self) -> None:
        if len(self.site_pool) < 2:
            raise ValueError("a truck needs at least two l/u sites")


def make_fleet(world: SyntheticWorld, num_trucks: int,
               rng: np.random.Generator,
               pool_size: tuple[int, int] = (3, 6)) -> list[Truck]:
    """Create a fleet whose companies use Zipf-skewed site pools.

    The skew makes some l/u sites rare, so a white list built from training
    trucks cannot cover every site used by test trucks (challenge 2 of the
    paper: numerous loading and unloading locations).
    """
    sites = world.lu_sites
    ranks = np.arange(1, len(sites) + 1, dtype=np.float64)
    weights = 1.0 / ranks**0.9
    weights /= weights.sum()
    min_pair_m = SimulatorConfig().min_leg_m
    fleet = []
    for i in range(num_trucks):
        depot = world.depots[int(rng.integers(len(world.depots)))]
        size = int(rng.integers(pool_size[0], pool_size[1] + 1))
        size = min(size, len(sites))
        for _ in range(64):
            chosen = rng.choice(len(sites), size=size, replace=False,
                                p=weights)
            pool = tuple(sites[int(c)] for c in chosen)
            if _has_distant_pair(pool, min_pair_m):
                break
        else:
            raise RuntimeError("l/u sites are too clustered for a fleet")
        fleet.append(Truck(truck_id=f"truck-{i:04d}", depot=depot,
                           site_pool=pool))
    return fleet


def _has_distant_pair(pool: tuple[Site, ...], min_m: float) -> bool:
    return any(
        haversine_m(a.lat, a.lng, b.lat, b.lng) >= min_m
        for i, a in enumerate(pool) for b in pool[i + 1:])


@dataclass
class _Visit:
    """One planned stop of the day's itinerary."""

    site: Site
    duration_s: float
    role: str  # "loading" | "unloading" | "ordinary"


class TruckDaySimulator:
    """Generates labelled raw trajectories over a :class:`SyntheticWorld`."""

    def __init__(self, world: SyntheticWorld,
                 config: SimulatorConfig | None = None) -> None:
        self.world = world
        self.config = config or SimulatorConfig()

    # ------------------------------------------------------------------
    # Itinerary planning
    # ------------------------------------------------------------------
    def _target_stay_count(self, rng: np.random.Generator) -> int:
        buckets = self.config.bucket_probs
        probs = np.array([p for _, _, p in buckets])
        lo, hi, _ = buckets[int(rng.choice(len(buckets), p=probs))]
        return int(rng.integers(lo, hi + 1))

    def _pick_lu_sites(self, truck: Truck, rng: np.random.Generator
                       ) -> tuple[Site, Site]:
        pool = truck.site_pool
        for _ in range(64):
            i, j = rng.choice(len(pool), size=2, replace=False)
            a, b = pool[int(i)], pool[int(j)]
            if haversine_m(a.lat, a.lng, b.lat, b.lng) >= self.config.min_leg_m:
                return a, b
        raise RuntimeError(
            f"no sufficiently distant l/u pair in pool of {truck.truck_id}")

    def _pick_ordinary_site(self, previous: Site, nxt: Site,
                            rng: np.random.Generator) -> Site | None:
        """A break location separable from both neighbours."""
        if rng.uniform() < self.config.gate_stop_prob:
            stops = self.world.lu_sites
        else:
            stops = self.world.rest_stops
        for _ in range(48):
            site = stops[int(rng.integers(len(stops)))]
            if (haversine_m(site.lat, site.lng, previous.lat, previous.lng)
                    >= self.config.min_leg_m
                    and haversine_m(site.lat, site.lng, nxt.lat, nxt.lng)
                    >= self.config.min_leg_m):
                return site
        return None

    def _plan(self, truck: Truck, rng: np.random.Generator) -> list[_Visit]:
        target = self._target_stay_count(rng)
        num_ordinary = target - 2
        # Spread ordinary breaks over the three phases; the loaded phase
        # gets the largest share (long hauls need breaks).
        shares = rng.multinomial(num_ordinary, [0.30, 0.40, 0.30])
        loading, unloading = self._pick_lu_sites(truck, rng)
        cfg = self.config

        def stay(role: str, site: Site) -> _Visit:
            lo, hi = cfg.lu_stay_s if role != "ordinary" else cfg.ordinary_stay_s
            return _Visit(site, float(rng.uniform(lo, hi)), role)

        visits: list[_Visit] = []
        anchors = [truck.depot, loading, unloading, truck.depot]
        phase_roles = ("ordinary", "ordinary", "ordinary")
        for phase, count in enumerate(shares):
            previous = anchors[phase]
            nxt = anchors[phase + 1]
            for _ in range(int(count)):
                site = self._pick_ordinary_site(previous, nxt, rng)
                if site is None:
                    continue
                visits.append(stay(phase_roles[phase], site))
                previous = site
            if phase == 0:
                visits.append(stay("loading", loading))
            elif phase == 1:
                visits.append(stay("unloading", unloading))
        return visits

    # ------------------------------------------------------------------
    # Trajectory synthesis
    # ------------------------------------------------------------------
    def simulate(self, truck: Truck, day: str,
                 rng: np.random.Generator) -> tuple[Trajectory, LoadedLabel]:
        """One labelled truck-day."""
        cfg = self.config
        visits = self._plan(truck, rng)
        lats: list[float] = []
        lngs: list[float] = []
        ts: list[float] = []
        cursor = float(rng.uniform(*cfg.day_start_s))
        position = (truck.depot.lat, truck.depot.lng)
        loaded = False
        loading_interval: TimeInterval | None = None
        unloading_interval: TimeInterval | None = None
        loading_site: Site | None = None
        unloading_site: Site | None = None

        def emit(lat: float, lng: float, t: float) -> None:
            lats.append(lat)
            lngs.append(lng)
            ts.append(t)

        # Departure fix at the depot.
        emit(*position, cursor)

        stops = list(visits) + [
            _Visit(truck.depot, 0.0, "return")]
        for visit in stops:
            if cursor > cfg.max_day_s and visit.role == "ordinary":
                continue  # day is running long: skip remaining breaks
            route = self.world.roads.route(
                position, (visit.site.lat, visit.site.lng),
                avoid_urban=loaded)
            cursor = self._drive(route, cursor, loaded, rng, emit)
            position = (visit.site.lat, visit.site.lng)
            if visit.duration_s > 0:
                arrival = cursor
                cursor = self._stay(visit, cursor, rng, emit)
                if visit.role == "loading":
                    loading_interval = TimeInterval(arrival, cursor)
                    loading_site = visit.site
                    loaded = True
                elif visit.role == "unloading":
                    unloading_interval = TimeInterval(arrival, cursor)
                    unloading_site = visit.site
                    loaded = False

        trajectory = self._finalize(lats, lngs, ts, truck, day, rng)
        if loading_interval is None or unloading_interval is None:
            raise RuntimeError("itinerary missing loading/unloading")
        label = LoadedLabel(
            loading=loading_interval, unloading=unloading_interval,
            loading_lat=loading_site.lat, loading_lng=loading_site.lng,
            unloading_lat=unloading_site.lat, unloading_lng=unloading_site.lng)
        return trajectory, label

    # ------------------------------------------------------------------
    def _drive(self, route: Route, cursor: float, loaded: bool,
               rng: np.random.Generator, emit) -> float:
        """Emit samples while driving a route; returns the new time cursor."""
        cfg = self.config
        factor = cfg.loaded_speed_factor if loaded else 1.0
        speeds = route.edge_speeds_kmh(factor)
        speeds = speeds * np.exp(rng.normal(0.0, cfg.speed_noise_rel,
                                            size=speeds.size))
        speeds = np.clip(speeds, 12.0, 105.0)
        # Cumulative time at each waypoint.
        edge_times = route.edge_lengths_m / (speeds / 3.6)
        waypoint_times = cursor + np.concatenate([[0.0],
                                                  np.cumsum(edge_times)])
        end_time = float(waypoint_times[-1])
        t = cursor + self._interval(rng)
        while t < end_time:
            idx = int(np.searchsorted(waypoint_times, t) - 1)
            idx = min(max(idx, 0), route.num_waypoints - 2)
            span = waypoint_times[idx + 1] - waypoint_times[idx]
            alpha = 0.0 if span <= 0 else (t - waypoint_times[idx]) / span
            lat = route.lats[idx] + alpha * (route.lats[idx + 1]
                                             - route.lats[idx])
            lng = route.lngs[idx] + alpha * (route.lngs[idx + 1]
                                             - route.lngs[idx])
            emit(lat, lng, t)
            t += self._interval(rng)
        return end_time

    def _stay(self, visit: _Visit, cursor: float,
              rng: np.random.Generator, emit) -> float:
        """Emit wandering samples during a stay; returns the new cursor."""
        cfg = self.config
        end_time = cursor + visit.duration_s
        lat0, lng0 = visit.site.lat, visit.site.lng
        meters_per_deg = 111_000.0
        t = cursor + self._interval(rng)
        # Arrival fix right at the site keeps the stay anchored.
        emit(lat0, lng0, cursor)
        while t < end_time:
            wander = rng.normal(0.0, cfg.stay_wander_m, size=2)
            emit(lat0 + wander[0] / meters_per_deg,
                 lng0 + wander[1] / meters_per_deg, t)
            t += self._interval(rng)
        return end_time

    def _interval(self, rng: np.random.Generator) -> float:
        cfg = self.config
        return float(max(30.0, rng.normal(cfg.sampling_interval_s,
                                          cfg.sampling_jitter_s)))

    def _finalize(self, lats, lngs, ts, truck: Truck, day: str,
                  rng: np.random.Generator) -> Trajectory:
        """Apply measurement noise, inject outliers, enforce ordering."""
        cfg = self.config
        lats = np.asarray(lats)
        lngs = np.asarray(lngs)
        ts = np.asarray(ts)
        order = np.argsort(ts, kind="stable")
        lats, lngs, ts = lats[order], lngs[order], ts[order]
        keep = np.concatenate([[True], np.diff(ts) > 1.0])
        lats, lngs, ts = lats[keep], lngs[keep], ts[keep]
        meters_per_deg = 111_000.0
        noise = rng.normal(0.0, cfg.gps_noise_m, size=(lats.size, 2))
        lats = lats + noise[:, 0] / meters_per_deg
        lngs = lngs + noise[:, 1] / meters_per_deg
        # Outliers: large jumps the Vmax filter must remove (never the
        # first point — the filter trusts the first fix).
        for i in range(1, lats.size):
            if rng.uniform() < cfg.outlier_probability:
                jump = rng.uniform(*cfg.outlier_jump_m)
                angle = rng.uniform(0.0, 2 * np.pi)
                lats[i] += jump * np.sin(angle) / meters_per_deg
                lngs[i] += jump * np.cos(angle) / meters_per_deg
        return Trajectory(lats, lngs, ts, truck_id=truck.truck_id, day=day)
