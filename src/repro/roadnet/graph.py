"""Road-network model: junctions, segments, and the segment-adjacency graph.

The paper models the map exactly this way (Section II): *"It consists of a
set of segments as the connections of adjacent junctions and a set of
junctions as the intersections of segments."* Cloaking regions are sets of
segment ids; two segments are adjacent ("linked", in the paper's wording)
when they share a junction.

:class:`RoadNetwork` is immutable after construction — ReverseCloak's
reversibility guarantees depend on both sides of the protocol seeing the
exact same graph, so accidental mutation is a correctness hazard. Build
networks with :class:`RoadNetworkBuilder` or the generators in
:mod:`repro.roadnet.generators`.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from ..errors import (
    DisconnectedRegionError,
    RoadNetworkError,
    UnknownJunctionError,
    UnknownSegmentError,
)
from .geometry import BoundingBox, Point, midpoint

__all__ = [
    "Junction",
    "Segment",
    "RoadNetwork",
    "RoadNetworkBuilder",
    "removable_segments",
]

_Built = TypeVar("_Built")


def gc_paused(build: Callable[..., _Built]) -> Callable[..., _Built]:
    """Run ``build`` with the cyclic garbage collector paused.

    Building a map allocates tens of thousands of small containers, none
    of them in a reference cycle. With the collector on, each burst of
    allocations triggers collections that walk every live object of the
    process (the map built so far and every imported module) and free
    nothing. Nested calls leave the switch to the outermost one.
    """

    @functools.wraps(build)
    def paused(*args, **kwargs) -> _Built:
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def removable_segments(neighbors_of, region: AbstractSet[int]) -> Tuple[int, ...]:
    """Region members whose removal leaves the rest of ``region`` connected.

    ``neighbors_of`` maps a segment id to its adjacent segment ids (the
    caller restricts nothing — membership filtering happens here). The whole
    answer is produced by one component sweep plus one articulation-point
    pass, O(|region| * deg):

    * one connected component: removable = non-articulation members (an
      empty remainder, i.e. a single-member region, counts as connected);
    * two components: only a singleton component can go — removing its
      member leaves exactly the other (connected) component;
    * three or more components: removing one member can never reconnect the
      rest, so nothing is removable.
    """
    region_set = region if isinstance(region, (set, frozenset)) else set(region)
    if not region_set:
        return ()
    if len(region_set) == 1:
        return tuple(region_set)
    components = []
    unseen = set(region_set)
    while unseen:
        start = next(iter(unseen))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for neighbor in neighbors_of(current):
                if neighbor in unseen and neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        unseen -= seen
        components.append(seen)
    if len(components) > 2:
        return ()
    if len(components) == 2:
        return tuple(
            sorted(
                member
                for component in components
                if len(component) == 1
                for member in component
            )
        )
    articulation = _articulation_points(
        neighbors_of, region_set, next(iter(components[0]))
    )
    return tuple(sorted(region_set - articulation))


def _articulation_points(
    neighbors_of, region: AbstractSet[int], start: int
) -> set:
    """Articulation points of the (connected) region-induced subgraph.

    Iterative Tarjan lowlink pass — recursion-free so arbitrarily large
    regions cannot overflow the interpreter stack.
    """
    disc: Dict[int, int] = {start: 0}
    low: Dict[int, int] = {start: 0}
    articulation: set = set()
    counter = 1
    root_children = 0
    stack: List[Tuple[int, int, Iterator[int]]] = [
        (start, -1, iter(neighbors_of(start)))
    ]
    while stack:
        node, parent, neighbors = stack[-1]
        descended = False
        for neighbor in neighbors:
            if neighbor not in region or neighbor == parent:
                continue
            if neighbor in disc:
                if disc[neighbor] < low[node]:
                    low[node] = disc[neighbor]
            else:
                disc[neighbor] = low[neighbor] = counter
                counter += 1
                stack.append((neighbor, node, iter(neighbors_of(neighbor))))
                descended = True
                break
        if not descended:
            stack.pop()
            if stack:
                above = stack[-1][0]
                if low[node] < low[above]:
                    low[above] = low[node]
                if above == start:
                    root_children += 1
                elif low[node] >= disc[above]:
                    articulation.add(above)
    if root_children >= 2:
        articulation.add(start)
    return articulation


@dataclass(frozen=True)
class Junction:
    """A road intersection.

    Attributes:
        junction_id: Stable integer id, unique within a network.
        location: Position in the local metric projection.
    """

    junction_id: int
    location: Point


@dataclass(frozen=True)
class Segment:
    """An undirected road segment between two junctions.

    Attributes:
        segment_id: Stable integer id, unique within a network.
        junction_a: Id of one endpoint junction (always the smaller id).
        junction_b: Id of the other endpoint junction.
        length: Road length in metres. Defaults to the Euclidean distance
            between the endpoints when built through the builder; a longer
            explicit value models curved roads.
    """

    segment_id: int
    junction_a: int
    junction_b: int
    length: float

    def endpoints(self) -> Tuple[int, int]:
        """The endpoint junction ids as an ordered pair."""
        return (self.junction_a, self.junction_b)

    def other_end(self, junction_id: int) -> int:
        """The endpoint opposite to ``junction_id``."""
        if junction_id == self.junction_a:
            return self.junction_b
        if junction_id == self.junction_b:
            return self.junction_a
        raise RoadNetworkError(
            f"junction {junction_id} is not an endpoint of segment {self.segment_id}"
        )


class RoadNetwork:
    """An immutable road network with fast segment-adjacency lookups.

    The class exposes exactly the operations ReverseCloak needs:

    * neighbour ("linked") segments of a segment,
    * the candidate frontier of a region (used as ``CanA`` by RGE),
    * region connectivity and spatial measures (used by tolerance checks),
    * deterministic global orderings (used by transition tables).
    """

    @gc_paused
    def __init__(
        self,
        junctions: Mapping[int, Junction],
        segments: Mapping[int, Segment],
        name: str = "road-network",
    ) -> None:
        self._name = name
        self._junctions: Dict[int, Junction] = dict(junctions)
        self._segments: Dict[int, Segment] = dict(segments)
        self._segments_at_junction: Dict[int, Tuple[int, ...]] = self._validate_and_index()
        self._neighbors: Dict[int, Tuple[int, ...]] = self._index_neighbors()
        # Hot-path caches: tolerance checks and spatial indexing look up
        # segment lengths constantly, and several callers need the whole
        # network's summed length; both are pure functions of the immutable
        # graph, so they are computed once here.
        self._length_of: Dict[int, float] = {
            segment_id: segment.length
            for segment_id, segment in self._segments.items()
        }
        self._network_length: float = sum(
            self._length_of[segment_id] for segment_id in sorted(self._length_of)
        )
        self._network_bbox: Optional[BoundingBox] = None
        self._length_sort_keys: Optional[Dict[int, Tuple[float, int]]] = None
        self._segment_bounds: Optional[
            Dict[int, Tuple[float, float, float, float]]
        ] = None
        self._compiled = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _validate_and_index(self) -> Dict[int, Tuple[int, ...]]:
        """Check the whole graph in one pass over each table; returns the
        ascending incident-segment ids of every junction."""
        junctions = self._junctions
        for junction_id, junction in junctions.items():
            if junction.junction_id != junction_id:
                raise RoadNetworkError(
                    f"junction key {junction_id} does not match id "
                    f"{junction.junction_id}"
                )
        at: Dict[int, List[int]] = {junction_id: [] for junction_id in junctions}
        seen_pairs: Dict[Tuple[int, int], int] = {}
        for segment_id, segment in self._segments.items():
            if segment.segment_id != segment_id:
                raise RoadNetworkError(
                    f"segment key {segment_id} does not match id {segment.segment_id}"
                )
            a, b = segment.junction_a, segment.junction_b
            if a not in junctions:
                raise UnknownJunctionError(a)
            if b not in junctions:
                raise UnknownJunctionError(b)
            if a == b:
                raise RoadNetworkError(
                    f"segment {segment_id} is a self-loop at junction {a}"
                )
            if segment.length <= 0.0:
                raise RoadNetworkError(
                    f"segment {segment_id} has non-positive length {segment.length}"
                )
            pair = (a, b) if a < b else (b, a)
            first = seen_pairs.setdefault(pair, segment_id)
            if first != segment_id:
                raise RoadNetworkError(
                    f"segments {first} and {segment_id} duplicate the "
                    f"junction pair {pair}"
                )
            at[a].append(segment_id)
            at[b].append(segment_id)
        return {junction_id: tuple(sorted(sids)) for junction_id, sids in at.items()}

    def _index_neighbors(self) -> Dict[int, Tuple[int, ...]]:
        # Two segments share at most one junction (duplicate pairs are
        # rejected above), so the two incident lists overlap in the
        # segment itself only.
        at = self._segments_at_junction
        neighbors: Dict[int, Tuple[int, ...]] = {}
        for segment_id, segment in self._segments.items():
            linked = sorted(at[segment.junction_a] + at[segment.junction_b])
            linked.remove(segment_id)
            linked.remove(segment_id)
            neighbors[segment_id] = tuple(linked)
        return neighbors

    def length_sort_keys(self) -> Dict[int, Tuple[float, int]]:
        """The canonical ``(length, id)`` sort key of every segment.

        This is the key of the protocol's length ordering (transition-table
        rows and columns). Computed once per network — sorting with
        ``key=keys.__getitem__`` replaces a per-element Python lambda in the
        per-step candidate ordering, which is hot during cloaking.
        """
        keys = self._length_sort_keys
        if keys is None:
            keys = {
                segment_id: (length, segment_id)
                for segment_id, length in self._length_of.items()
            }
            self._length_sort_keys = keys
        return keys

    def compiled(self):
        """The shared :class:`~repro.roadnet.compiled.CompiledNetwork` of
        this map — dense reindex, CSR adjacency, flat length/bbox/rank
        tables. Compiled once per geometry digest (equal maps share one
        plane) and cached on the instance; this is what every hot path
        (region state maintenance, candidate ordering, removability
        sweeps) consumes instead of the id-keyed dicts here.
        """
        plane = self._compiled
        if plane is None:
            from .compiled import compiled_network  # local: avoids a cycle

            plane = compiled_network(self)
            self._compiled = plane
        return plane

    def segment_bounds(self) -> Dict[int, Tuple[float, float, float, float]]:
        """Per-segment ``(min_x, min_y, max_x, max_y)``, computed once.

        The running bounding-box maintenance of
        :class:`~repro.core.region_state.RegionState` folds these plain
        tuples per mutation instead of re-reading endpoint ``Point``
        attributes — same extremes, a fraction of the attribute traffic.
        """
        bounds = self._segment_bounds
        if bounds is None:
            bounds = {}
            for segment_id, segment in self._segments.items():
                a = self._junctions[segment.junction_a].location
                b = self._junctions[segment.junction_b].location
                bounds[segment_id] = (
                    a.x if a.x < b.x else b.x,
                    a.y if a.y < b.y else b.y,
                    a.x if a.x > b.x else b.x,
                    a.y if a.y > b.y else b.y,
                )
            self._segment_bounds = bounds
        return bounds

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def junction_count(self) -> int:
        return len(self._junctions)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def junction(self, junction_id: int) -> Junction:
        """The junction with ``junction_id`` (raises :class:`UnknownJunctionError`)."""
        try:
            return self._junctions[junction_id]
        except KeyError:
            raise UnknownJunctionError(junction_id) from None

    def segment(self, segment_id: int) -> Segment:
        """The segment with ``segment_id`` (raises :class:`UnknownSegmentError`)."""
        try:
            return self._segments[segment_id]
        except KeyError:
            raise UnknownSegmentError(segment_id) from None

    def has_segment(self, segment_id: int) -> bool:
        return segment_id in self._segments

    def junction_ids(self) -> Tuple[int, ...]:
        """All junction ids in ascending order."""
        return tuple(sorted(self._junctions))

    def segment_ids(self) -> Tuple[int, ...]:
        """All segment ids in ascending order."""
        return tuple(sorted(self._segments))

    def segments_at_junction(self, junction_id: int) -> Tuple[int, ...]:
        """Ids of segments incident to ``junction_id``, ascending."""
        try:
            return self._segments_at_junction[junction_id]
        except KeyError:
            raise UnknownJunctionError(junction_id) from None

    def neighbors(self, segment_id: int) -> Tuple[int, ...]:
        """Ids of segments sharing a junction with ``segment_id``, ascending.

        This is the paper's "linked segments" relation driving both expansion
        and reversal.
        """
        try:
            return self._neighbors[segment_id]
        except KeyError:
            raise UnknownSegmentError(segment_id) from None

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def segment_endpoints(self, segment_id: int) -> Tuple[Point, Point]:
        """The endpoint coordinates of a segment."""
        segment = self.segment(segment_id)
        return (
            self.junction(segment.junction_a).location,
            self.junction(segment.junction_b).location,
        )

    def segment_midpoint(self, segment_id: int) -> Point:
        """Midpoint of the straight line between the segment's endpoints."""
        a, b = self.segment_endpoints(segment_id)
        return midpoint(a, b)

    def segment_length(self, segment_id: int) -> float:
        """Road length of a segment in metres."""
        try:
            return self._length_of[segment_id]
        except KeyError:
            raise UnknownSegmentError(segment_id) from None

    def bounding_box(self, segment_ids: Optional[Iterable[int]] = None) -> BoundingBox:
        """Tightest box around the given segments (whole network by default).

        The full-network box is computed once and cached — the graph is
        immutable, and spatial indexes ask for it repeatedly.
        """
        if segment_ids is None:
            if self._network_bbox is None:
                self._network_bbox = BoundingBox.around(
                    [j.location for j in self._junctions.values()]
                )
            return self._network_bbox
        points = []
        for segment_id in segment_ids:
            points.extend(self.segment_endpoints(segment_id))
        return BoundingBox.around(points)

    def total_length(self, segment_ids: Optional[Iterable[int]] = None) -> float:
        """Sum of segment lengths in metres (whole network by default).

        The full-network total is precomputed at construction, so
        ``total_length()`` is O(1).
        """
        if segment_ids is None:
            return self._network_length
        return sum(self.segment_length(sid) for sid in segment_ids)

    # ------------------------------------------------------------------
    # region operations (the primitives ReverseCloak builds on)
    # ------------------------------------------------------------------
    def frontier(self, region: AbstractSet[int]) -> Tuple[int, ...]:
        """The candidate frontier of ``region``: segments adjacent to the
        region but not inside it, in ascending id order.

        RGE calls this set ``CanA``. An empty region has an empty frontier.
        """
        candidates = set()
        for segment_id in region:
            for neighbor in self.neighbors(segment_id):
                if neighbor not in region:
                    candidates.add(neighbor)
        return tuple(sorted(candidates))

    def is_connected_region(self, region: AbstractSet[int]) -> bool:
        """Whether ``region`` induces a connected segment-adjacency subgraph.

        Empty regions count as connected; unknown segment ids raise.
        """
        if not region:
            return True
        for segment_id in region:
            self.segment(segment_id)
        start = next(iter(region))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for neighbor in self.neighbors(current):
                if neighbor in region and neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == len(region)

    def require_connected_region(self, region: AbstractSet[int]) -> None:
        """Raise :class:`DisconnectedRegionError` unless ``region`` is connected."""
        if not self.is_connected_region(region):
            raise DisconnectedRegionError(
                f"region of {len(region)} segments is not connected"
            )

    def articulation_free_removals(self, region: AbstractSet[int]) -> Tuple[int, ...]:
        """Segments whose removal keeps ``region`` connected, ascending order.

        Reversal only ever removes such segments — every intermediate region
        of a forward expansion is connected, so the true last-added segment is
        always in this set. Search-mode reversal uses it to enumerate
        hypotheses.

        Computed with a single articulation-point pass (Tarjan) over the
        region-induced subgraph: O(|region| * deg) total, instead of one
        connectivity check per member (O(|region|^2 * deg)). Runs on the
        compiled CSR plane; :func:`removable_segments` remains the
        dict-walking reference implementation it is tested against.
        """
        region_set = set(region)
        try:
            return self.compiled().removable_members(region_set)
        except KeyError as exc:
            raise UnknownSegmentError(exc.args[0]) from None

    def connected_components(self) -> Tuple[FrozenSet[int], ...]:
        """Connected components of the segment-adjacency graph, largest first."""
        unseen = set(self._segments)
        components: List[FrozenSet[int]] = []
        while unseen:
            start = min(unseen)
            seen = {start}
            stack = [start]
            while stack:
                current = stack.pop()
                for neighbor in self.neighbors(current):
                    if neighbor in unseen and neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            unseen -= seen
            components.append(frozenset(seen))
        components.sort(key=lambda c: (-len(c), min(c)))
        return tuple(components)

    def __getstate__(self) -> dict:
        # The compiled plane carries per-thread scratch (unpicklable) and
        # is memoized per geometry digest anyway — drop it and let the
        # unpickled copy resolve it on first use.
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoadNetwork(name={self._name!r}, junctions={self.junction_count}, "
            f"segments={self.segment_count})"
        )


@dataclass
class RoadNetworkBuilder:
    """Incremental builder producing an immutable :class:`RoadNetwork`.

    Example:
        >>> builder = RoadNetworkBuilder(name="tiny")
        >>> builder.add_junction(0, 0.0, 0.0)
        0
        >>> builder.add_junction(1, 100.0, 0.0)
        1
        >>> builder.add_segment(0, 0, 1)
        0
        >>> network = builder.build()
        >>> network.segment_count
        1
    """

    name: str = "road-network"
    _junctions: Dict[int, Junction] = field(default_factory=dict)
    _segments: Dict[int, Segment] = field(default_factory=dict)

    def add_junction(self, junction_id: int, x: float, y: float) -> int:
        """Register a junction; returns its id. Duplicate ids raise."""
        if junction_id in self._junctions:
            raise RoadNetworkError(f"duplicate junction id: {junction_id}")
        self._junctions[junction_id] = Junction(junction_id, Point(x, y))
        return junction_id

    def add_segment(
        self,
        segment_id: int,
        junction_a: int,
        junction_b: int,
        length: Optional[float] = None,
    ) -> int:
        """Register a segment; returns its id.

        ``length`` defaults to the Euclidean distance between the endpoints.
        Both junctions must already exist.
        """
        if segment_id in self._segments:
            raise RoadNetworkError(f"duplicate segment id: {segment_id}")
        for junction_id in (junction_a, junction_b):
            if junction_id not in self._junctions:
                raise UnknownJunctionError(junction_id)
        if length is None:
            length = self._junctions[junction_a].location.distance_to(
                self._junctions[junction_b].location
            )
        low, high = min(junction_a, junction_b), max(junction_a, junction_b)
        self._segments[segment_id] = Segment(segment_id, low, high, length)
        return segment_id

    def next_junction_id(self) -> int:
        """The smallest unused junction id."""
        return max(self._junctions, default=-1) + 1

    def next_segment_id(self) -> int:
        """The smallest unused segment id."""
        return max(self._segments, default=-1) + 1

    def build(self) -> RoadNetwork:
        """Produce the immutable network (validates the whole graph)."""
        return RoadNetwork(self._junctions, self._segments, name=self.name)
