"""Discrete-time traffic simulator (GTMobiSim substitute, decision D7).

Reproduces the trace model of the paper's toolkit (Section IV): *"There are
10,000 cars randomly generated along the roads based on Gaussian
distribution. Once a car is generated, the associated destination is also
randomly chosen and the route selection is based on shortest path routing."*

Model:

* Cars are placed by a :class:`~repro.mobility.distributions.PlacementDistribution`
  and snapped to the nearest segment.
* Each car draws a random destination junction and follows the shortest path
  (Dijkstra) toward it at an individual constant speed.
* When a car arrives it immediately draws a new destination, so the
  population never drains.
* :meth:`TrafficSimulator.step` advances the whole fleet; a
  :class:`~repro.mobility.snapshot.PopulationSnapshot` can be taken at any
  instant.

Everything is a pure function of the seed, so any experiment's population is
reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import MobilityError
from ..roadnet.geometry import Point, point_along
from ..roadnet.graph import RoadNetwork
from ..roadnet.paths import shortest_junction_path
from ..roadnet.spatial_index import SegmentIndex
from .distributions import GaussianPlacement, PlacementDistribution
from .snapshot import PopulationSnapshot

__all__ = ["Car", "TrafficSimulator"]


@dataclass
class Car:
    """A simulated vehicle.

    Attributes:
        car_id: Stable id.
        segment_id: Segment currently occupied.
        offset: Distance in metres travelled along the current segment,
            measured from ``entry_junction``'s end.
        entry_junction: The junction through which the car entered the
            current segment (defines travel direction).
        speed: Metres per second.
        route: Remaining segment ids to traverse after the current one.
        destination: Target junction id.
    """

    car_id: int
    segment_id: int
    offset: float
    entry_junction: int
    speed: float
    route: List[int]
    destination: int

    def position(self, network: RoadNetwork) -> Point:
        """The car's 2-D position interpolated along its segment."""
        segment = network.segment(self.segment_id)
        start = network.junction(self.entry_junction).location
        end = network.junction(segment.other_end(self.entry_junction)).location
        fraction = self.offset / segment.length if segment.length > 0 else 0.0
        return point_along(start, end, fraction)


class TrafficSimulator:
    """Seeded fleet simulation over a road network.

    Args:
        network: The road map (must be connected for routing to succeed;
            cars are only placed on the largest connected component).
        n_cars: Fleet size (the paper uses 10,000).
        seed: RNG seed; the entire evolution is deterministic given it.
        placement: Spatial distribution of initial positions (defaults to
            the paper's Gaussian model).
        speed_range: Uniform range of car speeds in m/s (urban 5-20 m/s).
    """

    def __init__(
        self,
        network: RoadNetwork,
        n_cars: int,
        seed: int = 2017,
        placement: Optional[PlacementDistribution] = None,
        speed_range: Tuple[float, float] = (5.0, 20.0),
    ) -> None:
        if n_cars < 0:
            raise MobilityError(f"n_cars must be non-negative, got {n_cars}")
        if speed_range[0] <= 0 or speed_range[1] < speed_range[0]:
            raise MobilityError(f"invalid speed range: {speed_range}")
        self._network = network
        import numpy as np  # local: keeps numpy off ``import repro``

        self._rng = np.random.default_rng(seed)
        self._placement = placement or GaussianPlacement()
        self._speed_range = speed_range
        self._time = 0.0
        self._index = SegmentIndex(network) if network.segment_count else None
        components = network.connected_components()
        self._routable = components[0] if components else frozenset()
        routable_junctions = set()
        for segment_id in self._routable:
            routable_junctions.update(network.segment(segment_id).endpoints())
        self._routable_junctions = tuple(sorted(routable_junctions))
        self._cars: List[Car] = self._spawn_fleet(n_cars)

    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def time(self) -> float:
        return self._time

    @property
    def cars(self) -> Tuple[Car, ...]:
        return tuple(self._cars)

    # ------------------------------------------------------------------
    # fleet construction
    # ------------------------------------------------------------------
    def _spawn_fleet(self, n_cars: int) -> List[Car]:
        if n_cars == 0:
            return []
        if not self._routable:
            raise MobilityError("cannot spawn cars on an empty network")
        bounds = self._network.bounding_box()
        points = self._placement.sample(n_cars, bounds, self._rng)
        cars: List[Car] = []
        for car_id, point in enumerate(points):
            segment_id = self._snap_to_routable(point)
            segment = self._network.segment(segment_id)
            offset = float(self._rng.uniform(0.0, segment.length))
            entry = segment.junction_a
            speed = float(self._rng.uniform(*self._speed_range))
            car = Car(
                car_id=car_id,
                segment_id=segment_id,
                offset=offset,
                entry_junction=entry,
                speed=speed,
                route=[],
                destination=segment.junction_b,
            )
            self._assign_new_trip(car)
            cars.append(car)
        return cars

    def _snap_to_routable(self, point: Point) -> int:
        assert self._index is not None
        segment_id = self._index.nearest_segment(point)
        if segment_id in self._routable:
            return segment_id
        # Nearest segment lies on a minor disconnected component; fall back
        # to the closest routable segment by midpoint distance.
        return min(
            self._routable,
            key=lambda sid: (
                self._network.segment_midpoint(sid).distance_to(point),
                sid,
            ),
        )

    def _assign_new_trip(self, car: Car) -> None:
        """Draw a random destination and route the car toward it."""
        segment = self._network.segment(car.segment_id)
        # Head toward whichever endpoint starts the shortest route.
        for __ in range(8):
            destination = int(
                self._routable_junctions[
                    self._rng.integers(0, len(self._routable_junctions))
                ]
            )
            if destination not in segment.endpoints():
                break
        else:
            destination = segment.junction_b
        exit_junction = segment.other_end(car.entry_junction)
        route = shortest_junction_path(self._network, exit_junction, destination)
        car.destination = destination
        car.route = list(route.segments)

    # ------------------------------------------------------------------
    # time evolution
    # ------------------------------------------------------------------
    def step(self, dt: float = 1.0) -> None:
        """Advance the simulation by ``dt`` seconds."""
        if dt <= 0:
            raise MobilityError(f"dt must be positive, got {dt}")
        for car in self._cars:
            self._advance_car(car, car.speed * dt)
        self._time += dt

    def run(self, steps: int, dt: float = 1.0) -> None:
        """Advance ``steps`` times by ``dt`` seconds each."""
        for __ in range(steps):
            self.step(dt)

    def _advance_car(self, car: Car, travel: float) -> None:
        remaining = travel
        # Bounded hops per tick: a car cannot cross more segments than this
        # in one step under sane speeds; guards against pathological maps.
        for __ in range(10_000):
            segment = self._network.segment(car.segment_id)
            to_end = segment.length - car.offset
            if remaining < to_end:
                car.offset += remaining
                return
            remaining -= to_end
            exit_junction = segment.other_end(car.entry_junction)
            if not car.route:
                # Arrived: turn around conceptually by starting a new trip
                # from this junction.
                car.entry_junction = exit_junction
                car.offset = 0.0
                car.entry_junction = exit_junction
                car.segment_id = car.segment_id
                self._start_next_trip_at(car, exit_junction)
                continue
            next_segment_id = car.route.pop(0)
            next_segment = self._network.segment(next_segment_id)
            car.segment_id = next_segment_id
            car.entry_junction = exit_junction
            if exit_junction not in next_segment.endpoints():
                raise MobilityError(
                    f"route discontinuity for car {car.car_id}: junction "
                    f"{exit_junction} not on segment {next_segment_id}"
                )
            car.offset = 0.0
        raise MobilityError(f"car {car.car_id} crossed too many segments in one step")

    def _start_next_trip_at(self, car: Car, junction_id: int) -> None:
        """Begin a fresh trip for an arrived car standing at ``junction_id``."""
        for __ in range(8):
            destination = int(
                self._routable_junctions[
                    self._rng.integers(0, len(self._routable_junctions))
                ]
            )
            if destination != junction_id:
                break
        else:  # pragma: no cover - single-junction maps are rejected earlier
            destination = junction_id
        route = shortest_junction_path(self._network, junction_id, destination)
        if not route.segments:
            # Destination equals origin; stay put this tick.
            car.route = []
            return
        first = route.segments[0]
        car.segment_id = first
        car.entry_junction = junction_id
        car.offset = 0.0
        car.route = list(route.segments[1:])
        car.destination = destination

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def snapshot(self) -> PopulationSnapshot:
        """The current user-to-segment assignment."""
        return PopulationSnapshot(
            {car.car_id: car.segment_id for car in self._cars}, time=self._time
        )

    def car(self, car_id: int) -> Car:
        """The car with ``car_id``."""
        for car in self._cars:
            if car.car_id == car_id:
                return car
        raise MobilityError(f"unknown car id: {car_id}")

    def positions(self) -> Dict[int, Point]:
        """Current 2-D position of every car."""
        return {car.car_id: car.position(self._network) for car in self._cars}
