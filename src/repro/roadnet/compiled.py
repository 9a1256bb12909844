"""The compiled road-network plane: dense, flat, shareable hot-path tables.

:class:`~repro.roadnet.graph.RoadNetwork` keeps the map as id-keyed dicts —
the right shape for construction, validation and serialization, but the
wrong one for the cloaking/reversal hot loops, which ask the same few
questions millions of times per request: *who are the neighbours? how long
is this segment? where does it rank in the global length order? does this
removal disconnect the region?* :class:`CompiledNetwork` answers them from
structures compiled exactly once per map:

* **dense reindex** — segment ids mapped to ``0..n-1`` in ascending id
  order (``segment_list`` / ``index_of``), so graph sweeps can use flat
  arrays instead of hash tables;
* **CSR adjacency** — the segment-adjacency graph as two ``array('l')``
  buffers (``offsets`` / ``csr_neighbors``, dense indices), consumed by the
  articulation/connectivity sweeps with epoch-stamped scratch arrays (no
  per-call dict or set churn);
* **flat per-segment tables** — lengths (``array('d')``), bbox extremes
  (four ``array('d')`` planes), and the global ``(length, id)`` rank
  (``array('l')``), plus the id-keyed views (``rank_of`` / ``rank_to_id``
  / ``length_of`` / ``bounds_of`` / ``neighbor_map``) that the
  interpreter-bound loops index directly.

The plane is immutable and safe to share: one compiled instance serves
every engine, :class:`~repro.core.region_state.RegionState` and peel
search that works on an equal map. Sharing is keyed by the *geometry
digest* — topology, lengths **and junction coordinates** (the envelope's
wire ``network_digest`` deliberately omits coordinates, but the compiled
bbox/rank tables depend on them, so the compiled cache must not collide
two maps that differ only in geometry).

The Tarjan scratch buffers are per-thread (:class:`threading.local`);
everything else is read-only after construction.
"""

from __future__ import annotations

import hashlib
import threading
from array import array
from collections import OrderedDict
from itertools import accumulate, chain
from typing import TYPE_CHECKING, AbstractSet, Dict, FrozenSet, Iterable, Tuple

from .graph import gc_paused

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .graph import RoadNetwork

__all__ = ["CompiledNetwork", "compiled_network", "geometry_digest"]


def geometry_digest(network: "RoadNetwork") -> str:
    """A stable digest of the full map *including junction coordinates*.

    The envelope-level ``network_digest`` hashes topology and lengths only
    (coordinates never cross the wire); compiled tables additionally bake
    in bbox extremes and proximity geometry, so their sharing key must
    separate maps that agree on topology but not on coordinates.
    """
    hasher = hashlib.sha256()
    for junction_id in network.junction_ids():
        location = network.junction(junction_id).location
        hasher.update(f"{junction_id}:{location.x!r}:{location.y!r};".encode())
    hasher.update(b"|")
    for segment_id in network.segment_ids():
        segment = network.segment(segment_id)
        hasher.update(
            f"{segment_id}:{segment.junction_a}:{segment.junction_b}:"
            f"{segment.length!r};".encode()
        )
    return hasher.hexdigest()[:24]


class _TarjanScratch:
    """Per-thread reusable sweep buffers (epoch-stamped, never cleared)."""

    __slots__ = ("mark", "disc_epoch", "disc", "low", "epoch")

    def __init__(self, size: int) -> None:
        self.mark = array("q", bytes(8 * size))
        self.disc_epoch = array("q", bytes(8 * size))
        self.disc = array("q", bytes(8 * size))
        self.low = array("q", bytes(8 * size))
        self.epoch = 0


class _SideNeighbors(dict):
    """``segment id -> (neighbours at junction_a, neighbours at junction_b)``,
    each a frozenset, computed from the network on first lookup and kept.
    Racing threads compute the same value, so a lost store is harmless."""

    __slots__ = ("_network",)

    def __init__(self, network: "RoadNetwork") -> None:
        super().__init__()
        self._network = network

    def __missing__(self, segment_id: int) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        network = self._network
        segment = network.segment(segment_id)
        sides = (
            frozenset(network.segments_at_junction(segment.junction_a)) - {segment_id},
            frozenset(network.segments_at_junction(segment.junction_b)) - {segment_id},
        )
        self[segment_id] = sides
        return sides


class CompiledNetwork:
    """Immutable compiled tables of one road network (see module docstring).

    Build through :func:`compiled_network` (or
    :meth:`RoadNetwork.compiled`), never directly — construction is O(E log
    E) and the instances are meant to be shared per geometry digest.
    """

    __slots__ = (
        "segment_list",
        "index_of",
        "offsets",
        "csr_neighbors",
        "neighbor_map",
        "side_neighbors",
        "lengths",
        "min_x",
        "min_y",
        "max_x",
        "max_y",
        "bounds_of",
        "length_rank",
        "rank_of",
        "rank_to_id",
        "length_of",
        "segment_count",
        "avg_degree",
        "_local",
    )

    @gc_paused
    def __init__(self, network: "RoadNetwork") -> None:
        segment_list: Tuple[int, ...] = network.segment_ids()
        index_of: Dict[int, int] = {
            segment_id: dense for dense, segment_id in enumerate(segment_list)
        }
        self.segment_list = segment_list
        self.index_of = index_of
        self.segment_count = len(segment_list)

        # CSR adjacency over dense indices. Neighbour tuples are already
        # ascending by id, and the dense reindex is id-ordered, so the CSR
        # rows come out sorted too.
        neighbors = network.neighbors
        neighbor_map: Dict[int, Tuple[int, ...]] = {
            segment_id: neighbors(segment_id) for segment_id in segment_list
        }
        self.neighbor_map = neighbor_map
        rows = neighbor_map.values()
        self.offsets = array("l", accumulate(map(len, rows), initial=0))
        self.csr_neighbors = array(
            "l", map(index_of.__getitem__, chain.from_iterable(rows))
        )
        total = self.offsets[-1]
        self.avg_degree = (total / self.segment_count) if self.segment_count else 0.0

        # Neighbours split by shared endpoint junction. Segments incident
        # to one junction are pairwise adjacent (a clique), which is what
        # makes :meth:`keeps_connected` local. Each neighbour shares
        # exactly one junction (duplicate pairs are rejected at build
        # time), so the two sets partition the neighbour list. Filled per
        # segment on first lookup: a peel touches a small part of the
        # map, and a cloak-only server none of it.
        self.side_neighbors = _SideNeighbors(network)

        # Flat per-segment tables + the id-keyed views hot Python loops use.
        length_of: Dict[int, float] = {
            segment_id: network.segment_length(segment_id)
            for segment_id in segment_list
        }
        self.length_of = length_of
        self.lengths = array("d", length_of.values())
        bounds_of = network.segment_bounds()
        self.bounds_of = bounds_of
        min_x, min_y, max_x, max_y = (
            zip(*map(bounds_of.__getitem__, segment_list))
            if segment_list
            else ((), (), (), ())
        )
        self.min_x = array("d", min_x)
        self.min_y = array("d", min_y)
        self.max_x = array("d", max_x)
        self.max_y = array("d", max_y)

        # Global (length, id) rank — the protocol's canonical ordering.
        # Comparing two members by rank is one int comparison instead of a
        # (float, int) tuple compare, which is what makes the maintained
        # length ordering and the per-step candidate sorts cheap.
        by_length = sorted(segment_list, key=network.length_sort_keys().__getitem__)
        self.rank_to_id = tuple(by_length)
        rank_of: Dict[int, int] = {
            segment_id: rank for rank, segment_id in enumerate(by_length)
        }
        self.rank_of = rank_of
        self.length_rank = array("l", map(rank_of.__getitem__, segment_list))

        self._local = threading.local()

    # ------------------------------------------------------------------
    # graph sweeps
    # ------------------------------------------------------------------
    def _scratch(self) -> _TarjanScratch:
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = _TarjanScratch(self.segment_count)
            self._local.scratch = scratch
        return scratch

    def removable_members(self, region: Iterable[int]) -> Tuple[int, ...]:
        """Region members whose removal keeps the rest connected, ascending.

        Byte-identical to :func:`repro.roadnet.graph.removable_segments`
        over the same region — one component sweep plus one iterative
        Tarjan articulation pass, both running on the CSR buffers with
        epoch-stamped scratch arrays (no per-call allocations beyond the
        DFS stack). Raises ``KeyError`` on a segment id not in the map.
        """
        index_of = self.index_of
        members = [index_of[segment_id] for segment_id in region]
        if not members:
            return ()
        segment_list = self.segment_list
        if len(members) == 1:
            return (segment_list[members[0]],)
        scratch = self._scratch()
        member = scratch.epoch + 1
        scratch.epoch += 1
        mark = scratch.mark
        for dense in members:
            mark[dense] = member
        offsets = self.offsets
        csr = self.csr_neighbors
        # Articulation pass first, assuming one component (the common case
        # by far — callers probe connected regions). The DFS doubles as
        # the reachability sweep: an undercount falls through to the
        # multi-component rules below.
        disc_epoch = scratch.disc_epoch
        disc = scratch.disc
        low = scratch.low
        epoch = member  # discovery stamps piggyback on the member epoch
        root = members[0]
        disc_epoch[root] = epoch
        disc[root] = 0
        low[root] = 0
        counter = 1
        root_children = 0
        articulation: set = set()
        frames: list = [[root, -1, offsets[root]]]
        while frames:
            frame = frames[-1]
            node, parent, position = frame
            end = offsets[node + 1]
            descended = False
            while position < end:
                neighbor = csr[position]
                position += 1
                if mark[neighbor] != member or neighbor == parent:
                    continue
                if disc_epoch[neighbor] == epoch:
                    if disc[neighbor] < low[node]:
                        low[node] = disc[neighbor]
                else:
                    disc_epoch[neighbor] = epoch
                    disc[neighbor] = counter
                    low[neighbor] = counter
                    counter += 1
                    frame[2] = position
                    frames.append([neighbor, node, offsets[neighbor]])
                    descended = True
                    break
            if not descended:
                frames.pop()
                if frames:
                    above = frames[-1][0]
                    if low[node] < low[above]:
                        low[above] = low[node]
                    if above == root:
                        root_children += 1
                    elif low[node] >= disc[above]:
                        articulation.add(above)
        if counter == len(members):
            if root_children >= 2:
                articulation.add(root)
            return tuple(
                sorted(
                    segment_list[dense]
                    for dense in members
                    if dense not in articulation
                )
            )
        # Disconnected: >2 components can never be reconnected by one
        # removal; exactly 2 allow only a singleton component to go.
        components = [(root, counter)]  # (representative, size)
        stack: list = []
        for dense in members:
            if disc_epoch[dense] == epoch:
                continue
            if len(components) == 2:
                return ()
            disc_epoch[dense] = epoch
            size = 1
            stack.append(dense)
            while stack:
                current = stack.pop()
                for position in range(offsets[current], offsets[current + 1]):
                    neighbor = csr[position]
                    if mark[neighbor] == member and disc_epoch[neighbor] != epoch:
                        disc_epoch[neighbor] = epoch
                        size += 1
                        stack.append(neighbor)
            components.append((dense, size))
        return tuple(
            sorted(
                segment_list[start]
                for start, size in components
                if size == 1
            )
        )

    def is_connected(self, region: Iterable[int]) -> bool:
        """Whether ``region`` induces a connected subgraph (CSR sweep).

        Empty regions count as connected, matching
        :meth:`RoadNetwork.is_connected_region`; unknown ids raise
        ``KeyError``.
        """
        index_of = self.index_of
        members = [index_of[segment_id] for segment_id in region]
        if not members:
            return True
        scratch = self._scratch()
        member = scratch.epoch + 1
        seen = scratch.epoch + 2
        scratch.epoch += 2
        mark = scratch.mark
        for dense in members:
            mark[dense] = member
        offsets = self.offsets
        csr = self.csr_neighbors
        start = members[0]
        mark[start] = seen
        reached = 1
        stack = [start]
        while stack:
            current = stack.pop()
            for position in range(offsets[current], offsets[current + 1]):
                neighbor = csr[position]
                if mark[neighbor] == member:
                    mark[neighbor] = seen
                    reached += 1
                    stack.append(neighbor)
        return reached == len(members)

    def keeps_connected(self, region: AbstractSet[int], member: int) -> bool:
        """Whether removing ``member`` leaves the *connected* ``region``
        connected.

        Precondition: ``region`` is connected and contains ``member`` (the
        answer is unspecified otherwise). The segments at one junction
        form a clique, so ``member``'s in-region neighbours at
        ``junction_a`` are mutually adjacent, and so are those at
        ``junction_b``; every other member reached ``member`` through one
        of the two groups. The remainder is therefore connected iff the
        two groups still reach each other without ``member``. A
        bidirectional BFS over ``neighbor_map`` answers that, always
        expanding the smaller frontier and stopping at the first meeting
        or when one side runs dry — the cost is the explored
        neighbourhood, not O(|region| * deg). A member with no in-region
        neighbour on one side answers in O(deg).
        """
        at_a, at_b = self.side_neighbors[member]
        frontier_a = [segment for segment in at_a if segment in region]
        if not frontier_a:
            return True
        frontier_b = [segment for segment in at_b if segment in region]
        if not frontier_b:
            return True
        neighbor_map = self.neighbor_map
        # ``member`` is marked seen on both sides, so neither walk crosses
        # it; the meeting test therefore never fires on it either.
        seen_a = set(frontier_a)
        seen_a.add(member)
        seen_b = set(frontier_b)
        seen_b.add(member)
        while True:
            if len(frontier_a) > len(frontier_b):
                frontier_a, frontier_b = frontier_b, frontier_a
                seen_a, seen_b = seen_b, seen_a
            grown: list = []
            for node in frontier_a:
                for neighbor in neighbor_map[node]:
                    if neighbor in seen_a or neighbor not in region:
                        continue
                    if neighbor in seen_b:
                        return True
                    seen_a.add(neighbor)
                    grown.append(neighbor)
            if not grown:
                return False
            frontier_a = grown

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledNetwork(segments={self.segment_count}, "
            f"avg_degree={self.avg_degree:.2f})"
        )


#: Compiled planes shared per geometry digest. Small LRU: every entry pins
#: O(E) arrays plus the id-keyed views; equal maps built independently
#: (tests, per-request reconstructions, process workers re-deserializing
#: the same wire document) converge on one plane instead of recompiling.
_COMPILED_CACHE: "OrderedDict[str, CompiledNetwork]" = OrderedDict()
_COMPILED_CACHE_SIZE = 8
_COMPILED_CACHE_LOCK = threading.Lock()


def compiled_network(network: "RoadNetwork") -> CompiledNetwork:
    """The shared :class:`CompiledNetwork` of ``network``.

    Compiled once per geometry digest and memoized (bounded LRU); prefer
    :meth:`RoadNetwork.compiled`, which additionally caches the resolved
    plane on the network instance so repeat lookups skip the digest.
    """
    digest = geometry_digest(network)
    with _COMPILED_CACHE_LOCK:
        plane = _COMPILED_CACHE.get(digest)
        if plane is not None:
            _COMPILED_CACHE.move_to_end(digest)
            return plane
    # Compile outside the lock (O(E log E) on large maps); a concurrent
    # duplicate build is wasted work, never wrong — the tables are a pure
    # function of the digest.
    plane = CompiledNetwork(network)
    with _COMPILED_CACHE_LOCK:
        existing = _COMPILED_CACHE.get(digest)
        if existing is not None:
            _COMPILED_CACHE.move_to_end(digest)
            return existing
        _COMPILED_CACHE[digest] = plane
        while len(_COMPILED_CACHE) > _COMPILED_CACHE_SIZE:
            _COMPILED_CACHE.popitem(last=False)
    return plane
