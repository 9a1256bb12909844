"""Incrementally maintained cloaking-region state, with an undo log.

Every question the expansion and reversal hot paths ask about the current
region — *what is the frontier? how long is it? how big is its bounding box?
how many users are inside? which members can be removed without
disconnecting it?* — was originally answered by a from-scratch recompute
over the whole region, making each expansion step O(|R| * deg) and a level
of R additions O(R^2 * deg). :class:`RegionState` maintains all of those
answers under :meth:`add` / :meth:`remove` mutations instead:

* **frontier multiset** — per-candidate count of in-region neighbours, so
  the frontier updates in O(deg) per mutation and membership tests are O(1);
* **running total length** — O(1) per mutation (floating-point note below);
* **running bounding box** — O(1) growth on add; a removal that touches the
  boundary marks the box dirty and the next query rebuilds it lazily;
* **population count** — O(1) per mutation against the construction-time
  :class:`~repro.mobility.snapshot.PopulationSnapshot`;
* **length-ordered members** — the transition-table row ordering
  (``length_order``), maintained by binary insertion over the compiled
  plane's global length *ranks* (one int per member instead of a
  ``(length, id)`` tuple) so RGE never re-sorts the whole region per step;
* **removal bookkeeping** — the articulation-free member set, recomputed
  lazily with one Tarjan pass over the compiled CSR adjacency
  (O(|R| * deg)) and cached until the next mutation, which is what
  reversal's hypothesis enumeration consumes.

All per-segment lookups (neighbours, lengths, bbox extremes, length ranks)
come from the map's shared :class:`~repro.roadnet.compiled.CompiledNetwork`
plane, resolved once at construction.

**Undo log.** The reversal search explores hypothesised inner regions
depth-first: remove a segment, look backward, recurse, put it back. A
:meth:`clone` per hypothesis costs O(|R|) container copies even when the
branch dies immediately; the undo log makes backtracking O(changed)
instead. :meth:`checkpoint` arms an operation trail and returns a token;
every subsequent mutation appends its inverse bookkeeping (the segment,
plus the O(1) scalars a pure inverse cannot recover: the cached removable
set, the frontier tuple, the bbox extremes/dirty flag and the rounded
total); :meth:`rollback` pops the trail back to the token, restoring the
state — including the lazily cached answers — bit for bit. :meth:`clone`
stays as the rollback oracle the tests compare against (the randomized
checkpoint/rollback tests of ``TestRandomizedRollback``); no production
path clones per hypothesis.

Floating-point note: naive float summation is order-dependent, and a
tolerance comparison that flips between the anonymizer's and the
de-anonymizer's summation order would break reversibility. The state
therefore maintains the total length *exactly* — every float length is a
dyadic rational, so a fixed-point integer accumulator at scale ``2**-1074``
is lossless under any add/remove order (see ``_scaled_exact``; it replaced
the former :class:`~fractions.Fraction` accumulator at identical semantics
and ~5x less per-mutation cost) — and exposes its correctly-rounded float.
:class:`~repro.core.profile.ToleranceSpec` resolves comparisons that land
within rounding distance of the bound against the exact value, so every
path — incremental, from-scratch, clone-derived, rolled-back — makes
identical decisions.

The state is deliberately *not* thread-safe and not tied to any algorithm:
the engine owns one state for the whole multi-level expansion, replay owns
one per certification, and the peel search owns one undo-logged state for
the whole hypothesis walk.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..errors import CloakingError
from ..mobility.snapshot import PopulationSnapshot
from ..roadnet.geometry import BoundingBox
from ..roadnet.graph import RoadNetwork

__all__ = ["RegionState", "exact_fraction"]

#: Exact-rational memo for float lengths/bounds. Segment lengths repeat
#: constantly (grids share one spacing), and ``Fraction(float)`` is the
#: costly part of exact accumulation.
_FRACTION_CACHE: Dict[float, Fraction] = {}
_FRACTION_CACHE_CAP = 65536


def exact_fraction(value: float) -> Fraction:
    """The exact rational value of a float (memoised)."""
    fraction = _FRACTION_CACHE.get(value)
    if fraction is None:
        if len(_FRACTION_CACHE) >= _FRACTION_CACHE_CAP:
            _FRACTION_CACHE.clear()
        fraction = Fraction(value)
        _FRACTION_CACHE[value] = fraction
    return fraction


#: Fixed-point scale of the exact length accumulator. Every finite float is
#: ``m / 2**k`` with ``k <= 1074`` (the subnormal limit), so integers at
#: scale ``2**-1074`` represent any sum of float lengths *exactly* —
#: big-int addition replaces :class:`Fraction` normalisation on the
#: per-mutation hot path (~5x cheaper), and ``n / _SCALE`` (CPython's
#: correctly-rounded int/int true division) recovers the same
#: correctly-rounded float total bit for bit.
_SCALE_BITS = 1074
_SCALE = 1 << _SCALE_BITS

#: Scaled-integer memo for float lengths (same role as the Fraction memo).
_SCALED_CACHE: Dict[float, int] = {}


def _scaled_exact(value: float) -> int:
    """``value`` as an exact integer multiple of ``2**-1074`` (memoised)."""
    scaled = _SCALED_CACHE.get(value)
    if scaled is None:
        if len(_SCALED_CACHE) >= _FRACTION_CACHE_CAP:
            _SCALED_CACHE.clear()
        numerator, denominator = value.as_integer_ratio()
        # Denominators of finite floats are powers of two dividing 2**1074.
        scaled = numerator * (_SCALE // denominator)
        _SCALED_CACHE[value] = scaled
    return scaled


class RegionState:
    """Mutable region over an immutable network with O(deg) updates.

    Args:
        network: The shared road map.
        members: Initial region members (added one by one).
        snapshot: Optional population snapshot; when given,
            :attr:`population` tracks the user count inside the region.

    The :attr:`members` set is exposed directly for zero-copy reads by the
    algorithms — callers must treat it as read-only and mutate only through
    :meth:`add` / :meth:`remove`.
    """

    def __init__(
        self,
        network: RoadNetwork,
        members: Iterable[int] = (),
        snapshot: Optional[PopulationSnapshot] = None,
    ) -> None:
        compiled = network.compiled()
        self._network = network
        self._compiled = compiled
        self._snapshot = snapshot
        self._neighbors = compiled.neighbor_map
        self._length_of = compiled.length_of
        self._rank_of = compiled.rank_of
        self._rank_to_id = compiled.rank_to_id
        self._seg_bounds = compiled.bounds_of
        self._members: set = set()
        self._frontier_counts: Dict[int, int] = {}
        self._frontier_cache: Optional[Tuple[int, ...]] = None
        self._exact_scaled = 0
        self._total_length = 0.0
        self._total_dirty = False
        self._population = 0
        #: Members as global length ranks, ascending — rank order equals
        #: the canonical (length, id) order, one int compare per step.
        self._by_length: List[int] = []
        self._min_x = self._min_y = float("inf")
        self._max_x = self._max_y = float("-inf")
        self._bbox_dirty = False
        self._removable: Optional[FrozenSet[int]] = None
        self._trail: Optional[list] = None
        for segment_id in members:
            self.add(segment_id)

    @classmethod
    def from_region(
        cls,
        network: RoadNetwork,
        region: AbstractSet[int],
        snapshot: Optional[PopulationSnapshot] = None,
    ) -> "RegionState":
        """A state initialised to an existing region (O(|region| * deg))."""
        return cls(network, region, snapshot=snapshot)

    def clone(self) -> "RegionState":
        """An independent copy — O(|region| + |frontier|) container copies,
        cheaper than a from-scratch rebuild (no neighbour scans, no
        re-sorting). The clone never inherits the undo trail: it is a
        snapshot, not a participant in the original's checkpoint stack.
        This is the reversal search's equivalence oracle; the search
        itself backtracks with :meth:`checkpoint` / :meth:`rollback`."""
        other = RegionState.__new__(RegionState)
        other._network = self._network
        other._compiled = self._compiled
        other._snapshot = self._snapshot
        other._neighbors = self._neighbors
        other._length_of = self._length_of
        other._rank_of = self._rank_of
        other._rank_to_id = self._rank_to_id
        other._seg_bounds = self._seg_bounds
        other._members = set(self._members)
        other._frontier_counts = dict(self._frontier_counts)
        other._frontier_cache = self._frontier_cache
        other._exact_scaled = self._exact_scaled
        other._total_length = self._total_length
        other._total_dirty = self._total_dirty
        other._population = self._population
        other._by_length = list(self._by_length)
        other._min_x = self._min_x
        other._min_y = self._min_y
        other._max_x = self._max_x
        other._max_y = self._max_y
        other._bbox_dirty = self._bbox_dirty
        other._removable = self._removable
        other._trail = None
        return other

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _base_add(self, segment_id: int, length: float, rank: int) -> None:
        """The self-inverse core of :meth:`add`: members, frontier counts,
        exact length, population and length ordering (everything
        :meth:`rollback` can undo by running the opposite base op)."""
        members = self._members
        members.add(segment_id)
        frontier_counts = self._frontier_counts
        frontier_counts.pop(segment_id, None)
        for neighbor in self._neighbors[segment_id]:
            if neighbor not in members:
                frontier_counts[neighbor] = frontier_counts.get(neighbor, 0) + 1
        self._exact_scaled += _scaled_exact(length)
        if self._snapshot is not None:
            self._population += self._snapshot.count_on(segment_id)
        insort(self._by_length, rank)

    def _base_remove(self, segment_id: int, length: float, rank: int) -> None:
        """The self-inverse core of :meth:`remove` (see :meth:`_base_add`)."""
        members = self._members
        members.discard(segment_id)
        frontier_counts = self._frontier_counts
        in_region_neighbors = 0
        for neighbor in self._neighbors[segment_id]:
            if neighbor in members:
                in_region_neighbors += 1
            else:
                count = frontier_counts.get(neighbor)
                if count is not None:
                    if count <= 1:
                        del frontier_counts[neighbor]
                    else:
                        frontier_counts[neighbor] = count - 1
        if in_region_neighbors:
            frontier_counts[segment_id] = in_region_neighbors
        self._exact_scaled -= _scaled_exact(length)
        if self._snapshot is not None:
            self._population -= self._snapshot.count_on(segment_id)
        index = bisect_left(self._by_length, rank)
        del self._by_length[index]

    def _log(self, was_add: bool, segment_id: int) -> None:
        """Append one trail entry: the op plus the O(1) scalars a pure
        inverse cannot recover (cached answers, bbox, rounded total)."""
        self._trail.append(
            (
                was_add,
                segment_id,
                self._removable,
                self._frontier_cache,
                self._min_x,
                self._min_y,
                self._max_x,
                self._max_y,
                self._bbox_dirty,
                self._total_length,
                self._total_dirty,
            )
        )

    def add(self, segment_id: int) -> None:
        """Add one segment to the region (raises if already inside)."""
        if segment_id in self._members:
            raise CloakingError(f"segment {segment_id} is already in the region")
        try:
            length = self._length_of[segment_id]
        except KeyError:
            self._network.segment_length(segment_id)  # raises UnknownSegmentError
            raise
        if self._trail is not None:
            self._log(True, segment_id)
        self._base_add(segment_id, length, self._rank_of[segment_id])
        self._total_dirty = True
        if not self._bbox_dirty:
            min_x, min_y, max_x, max_y = self._seg_bounds[segment_id]
            if min_x < self._min_x:
                self._min_x = min_x
            if max_x > self._max_x:
                self._max_x = max_x
            if min_y < self._min_y:
                self._min_y = min_y
            if max_y > self._max_y:
                self._max_y = max_y
        self._removable = None
        self._frontier_cache = None

    def remove(self, segment_id: int) -> None:
        """Remove one segment from the region (raises if not inside)."""
        if segment_id not in self._members:
            raise CloakingError(f"segment {segment_id} is not in the region")
        if self._trail is not None:
            self._log(False, segment_id)
        self._base_remove(
            segment_id, self._length_of[segment_id], self._rank_of[segment_id]
        )
        self._total_dirty = True
        if not self._bbox_dirty:
            min_x, min_y, max_x, max_y = self._seg_bounds[segment_id]
            if (
                min_x <= self._min_x
                or max_x >= self._max_x
                or min_y <= self._min_y
                or max_y >= self._max_y
            ):
                self._bbox_dirty = True
        self._removable = None
        self._frontier_cache = None

    # ------------------------------------------------------------------
    # undo log
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Arm the undo log (idempotent) and return a rollback token.

        Every mutation after a checkpoint is recorded; :meth:`rollback`
        with the token restores this exact state — maintained measures
        *and* lazily cached answers (removable set, frontier tuple, bbox)
        — in O(mutations since the token). Tokens nest like a stack:
        rolling back to an outer token discards inner ones.
        """
        trail = self._trail
        if trail is None:
            trail = self._trail = []
        return len(trail)

    def rollback(self, token: int) -> None:
        """Restore the state captured by ``token`` (see :meth:`checkpoint`).

        Raises :class:`CloakingError` when ``token`` does not designate a
        live checkpoint (never armed, or already rolled past).
        """
        trail = self._trail
        if trail is None or token > len(trail) or token < 0:
            raise CloakingError(f"no checkpoint at token {token}")
        length_of = self._length_of
        rank_of = self._rank_of
        while len(trail) > token:
            (
                was_add,
                segment_id,
                removable,
                frontier_cache,
                min_x,
                min_y,
                max_x,
                max_y,
                bbox_dirty,
                total_length,
                total_dirty,
            ) = trail.pop()
            length = length_of[segment_id]
            rank = rank_of[segment_id]
            if was_add:
                self._base_remove(segment_id, length, rank)
            else:
                self._base_add(segment_id, length, rank)
            self._removable = removable
            self._frontier_cache = frontier_cache
            self._min_x = min_x
            self._min_y = min_y
            self._max_x = max_x
            self._max_y = max_y
            self._bbox_dirty = bbox_dirty
            self._total_length = total_length
            self._total_dirty = total_dirty

    @property
    def trail_length(self) -> int:
        """Logged mutations since the first checkpoint (0 when unarmed)."""
        return len(self._trail) if self._trail is not None else 0

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def snapshot(self) -> Optional[PopulationSnapshot]:
        return self._snapshot

    @property
    def members(self) -> set:
        """The live member set — read-only by contract (no copy)."""
        return self._members

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, segment_id: int) -> bool:
        return segment_id in self._members

    @property
    def total_length(self) -> float:
        """Summed road length of the region, metres — the *correctly
        rounded* float of the exact sum, so it is independent of the
        add/remove order that produced this state.

        The rounding (an exact big-int division) runs lazily on first read
        after a mutation: only length-bounded tolerances ever read it, so
        segment-count-only workloads never pay for it.
        """
        if self._total_dirty:
            self._total_length = self._exact_scaled / _SCALE
            self._total_dirty = False
        return self._total_length

    @property
    def exact_total_length(self) -> Fraction:
        """The exact rational total length (tolerance tie-breaks)."""
        return Fraction(self._exact_scaled, _SCALE)

    @property
    def population(self) -> int:
        """Users inside the region per the construction-time snapshot
        (0 when no snapshot was given)."""
        return self._population

    def is_frontier(self, segment_id: int) -> bool:
        """Whether ``segment_id`` is outside the region but adjacent to it."""
        return segment_id in self._frontier_counts

    @property
    def frontier_map(self) -> Dict[int, int]:
        """The live frontier multiset ``{candidate: in-region neighbour
        count}`` — read-only by contract, like :attr:`members`. Hot loops
        (RPLE slot probing) test membership against it directly instead of
        paying a method call per probe."""
        return self._frontier_counts

    def frontier(self) -> Tuple[int, ...]:
        """The candidate frontier, ascending ids (matches
        :meth:`RoadNetwork.frontier` exactly). Cached until the next
        mutation — backward enumerations read it repeatedly."""
        cached = self._frontier_cache
        if cached is None:
            cached = tuple(sorted(self._frontier_counts))
            self._frontier_cache = cached
        return cached

    def frontier_counts(self) -> Dict[int, int]:
        """Per-candidate in-region neighbour counts (a fresh dict)."""
        return dict(self._frontier_counts)

    def segments_by_length(self) -> Tuple[int, ...]:
        """Members ordered by (length, id) — the canonical transition-table
        row order (:func:`repro.core.transition_table.length_order`)."""
        return tuple(map(self._rank_to_id.__getitem__, self._by_length))

    def members_by_length_slice(self, start: int, stride: int) -> Tuple[int, ...]:
        """Members at positions ``start, start + stride, ...`` of the
        (length, id) ordering — the backward transition's row walk
        (:func:`repro.core.transition_table.state_backward`), read
        straight off the maintained ordering without materialising it."""
        return tuple(
            map(self._rank_to_id.__getitem__, self._by_length[start::stride])
        )

    def length_rank(self, segment_id: int) -> int:
        """The member's 0-based position in the (length, id) ordering."""
        if segment_id not in self._members:
            raise CloakingError(f"segment {segment_id} is not in the region")
        return bisect_left(self._by_length, self._rank_of[segment_id])

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def _rebuild_bbox(self) -> None:
        self._min_x = self._min_y = float("inf")
        self._max_x = self._max_y = float("-inf")
        bounds = self._seg_bounds
        for segment_id in self._members:
            min_x, min_y, max_x, max_y = bounds[segment_id]
            if min_x < self._min_x:
                self._min_x = min_x
            if max_x > self._max_x:
                self._max_x = max_x
            if min_y < self._min_y:
                self._min_y = min_y
            if max_y > self._max_y:
                self._max_y = max_y
        self._bbox_dirty = False

    def bounding_box(self) -> BoundingBox:
        """Tightest box around the region (raises on an empty region,
        matching :meth:`RoadNetwork.bounding_box`)."""
        if not self._members:
            raise ValueError("cannot bound an empty region")
        if self._bbox_dirty:
            self._rebuild_bbox()
        return BoundingBox(self._min_x, self._min_y, self._max_x, self._max_y)

    def diagonal(self) -> float:
        """The region bounding-box diagonal, metres."""
        box = self.bounding_box()
        return box.diagonal

    def diagonal_after_add(self, segment_id: int) -> float:
        """The bounding-box diagonal the region would have after adding
        ``segment_id`` — O(1), without mutating the state.

        min/max are exact, so this equals the from-scratch diagonal of
        ``region | {segment_id}`` bit for bit.
        """
        seg_min_x, seg_min_y, seg_max_x, seg_max_y = self._seg_bounds[segment_id]
        if not self._members:
            return BoundingBox(seg_min_x, seg_min_y, seg_max_x, seg_max_y).diagonal
        if self._bbox_dirty:
            self._rebuild_bbox()
        min_x = seg_min_x if seg_min_x < self._min_x else self._min_x
        max_x = seg_max_x if seg_max_x > self._max_x else self._max_x
        min_y = seg_min_y if seg_min_y < self._min_y else self._min_y
        max_y = seg_max_y if seg_max_y > self._max_y else self._max_y
        return BoundingBox(min_x, min_y, max_x, max_y).diagonal

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the region induces a connected subgraph."""
        return self._compiled.is_connected(self._members)

    def removable_members(self) -> FrozenSet[int]:
        """Members whose removal keeps the region connected.

        One Tarjan articulation pass over the compiled CSR plane, cached
        until the next mutation (and *restored* by :meth:`rollback`, so a
        backtracking search re-reads earlier regions' answers for free) —
        reversal's hypothesis enumeration asks this for many candidates of
        the same region, so the amortised cost per query is O(1).
        """
        if self._removable is None:
            self._removable = frozenset(
                self._compiled.removable_members(self._members)
            )
        return self._removable

    def is_removable(self, segment_id: int) -> bool:
        """Whether removing ``segment_id`` keeps the region connected."""
        return segment_id in self.removable_members()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RegionState(members={len(self._members)}, "
            f"frontier={len(self._frontier_counts)}, "
            f"length={self.total_length:.1f})"
        )
