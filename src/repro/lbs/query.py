"""Anonymous range-query processing over cloaked regions.

The paper motivates the spatial tolerance by its "direct influence on the
performance of the anonymous query processing technique [7], [9]": an LBS
serving a cloaked user must return a *candidate result set* valid for every
possible user position inside the region, and the candidate set grows with
the region. This module implements that query model so experiment E12 can
measure the privacy/cost trade-off across levels:

* POIs (points of interest) are placed on road segments,
* a range query ("POIs within ``radius`` of the user") against a cloaked
  region returns every POI within ``radius`` of *any* region segment — a
  superset of the exact result that the client filters locally after
  de-anonymizing as far as its keys allow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import QueryError
from ..roadnet.geometry import Point, point_along, point_segment_distance
from ..roadnet.graph import RoadNetwork
from ..roadnet.spatial_index import SegmentIndex

__all__ = ["PointOfInterest", "PoiDirectory", "CandidateResult", "range_query"]


@dataclass(frozen=True)
class PointOfInterest:
    """A service point on the road network.

    Attributes:
        poi_id: Stable id.
        segment_id: Segment the POI sits on.
        location: 2-D position (on the segment's straight line).
        category: Free-form category tag (e.g. ``"fuel"``).
    """

    poi_id: int
    segment_id: int
    location: Point
    category: str = "generic"


class PoiDirectory:
    """A seeded synthetic POI database over a road network.

    Args:
        network: The road map.
        count: Number of POIs to place.
        seed: RNG seed (placement is reproducible).
        categories: Category tags cycled round-robin.
    """

    def __init__(
        self,
        network: RoadNetwork,
        count: int,
        seed: int = 7,
        categories: Sequence[str] = ("fuel", "food", "atm", "pharmacy"),
    ) -> None:
        if count < 0:
            raise QueryError(f"count must be non-negative, got {count}")
        if not categories:
            raise QueryError("need at least one POI category")
        self._network = network
        import numpy as np  # local: keeps numpy off ``import repro``

        rng = np.random.default_rng(seed)
        segment_ids = network.segment_ids()
        if not segment_ids and count > 0:
            raise QueryError("cannot place POIs on an empty network")
        pois: List[PointOfInterest] = []
        for poi_id in range(count):
            segment_id = int(segment_ids[rng.integers(0, len(segment_ids))])
            a, b = network.segment_endpoints(segment_id)
            location = point_along(a, b, float(rng.uniform(0.0, 1.0)))
            pois.append(
                PointOfInterest(
                    poi_id=poi_id,
                    segment_id=segment_id,
                    location=location,
                    category=categories[poi_id % len(categories)],
                )
            )
        self._pois: Tuple[PointOfInterest, ...] = tuple(pois)
        self._by_segment: Dict[int, List[PointOfInterest]] = {}
        for poi in self._pois:
            self._by_segment.setdefault(poi.segment_id, []).append(poi)

    @property
    def network(self) -> RoadNetwork:
        return self._network

    def __len__(self) -> int:
        return len(self._pois)

    def all_pois(self) -> Tuple[PointOfInterest, ...]:
        return self._pois

    def pois_on(self, segment_id: int) -> Tuple[PointOfInterest, ...]:
        return tuple(self._by_segment.get(segment_id, ()))

    def pois_near_point(
        self, point: Point, radius: float, category: Optional[str] = None
    ) -> Tuple[PointOfInterest, ...]:
        """POIs within ``radius`` of ``point`` (exact result for one position)."""
        if radius < 0:
            raise QueryError(f"radius must be non-negative, got {radius}")
        hits = [
            poi
            for poi in self._pois
            if poi.location.distance_to(point) <= radius
            and (category is None or poi.category == category)
        ]
        return tuple(hits)


@dataclass(frozen=True)
class CandidateResult:
    """The anonymous query answer for a cloaked region.

    Attributes:
        region_size: Number of segments in the queried region.
        candidates: Candidate POIs (superset of the exact answer for every
            possible user position in the region).
        exact_for_segment: Exact answers per region segment — what the
            client keeps after de-anonymizing down to a given region.
    """

    region_size: int
    candidates: Tuple[PointOfInterest, ...]
    exact_for_segment: Dict[int, Tuple[PointOfInterest, ...]]

    @property
    def candidate_count(self) -> int:
        return len(self.candidates)

    def precision_for(self, true_segment: int) -> float:
        """|exact| / |candidates| for the true user segment — the fraction
        of returned work that was actually useful."""
        if not self.candidates:
            return 1.0
        exact = self.exact_for_segment.get(true_segment, ())
        return len(exact) / len(self.candidates)


def range_query(
    directory: PoiDirectory,
    region: AbstractSet[int],
    radius: float,
    category: Optional[str] = None,
) -> CandidateResult:
    """Answer an anonymous range query for a cloaked ``region``.

    The candidate set contains every POI within ``radius`` of any point of
    any region segment (conservative: distance is measured to the segment's
    straight line). Cost grows with the region, which is the effect
    experiment E12 quantifies level by level.
    """
    if radius < 0:
        raise QueryError(f"radius must be non-negative, got {radius}")
    if not region:
        raise QueryError("cannot query an empty region")
    network = directory.network
    candidate_ids: Dict[int, PointOfInterest] = {}
    exact: Dict[int, Tuple[PointOfInterest, ...]] = {}
    for segment_id in sorted(region):
        a, b = network.segment_endpoints(segment_id)
        per_segment: List[PointOfInterest] = []
        for poi in directory.all_pois():
            if category is not None and poi.category != category:
                continue
            if point_segment_distance(poi.location, a, b) <= radius:
                candidate_ids[poi.poi_id] = poi
                per_segment.append(poi)
        exact[segment_id] = tuple(per_segment)
    ordered = tuple(candidate_ids[poi_id] for poi_id in sorted(candidate_ids))
    return CandidateResult(
        region_size=len(region), candidates=ordered, exact_for_segment=exact
    )
