"""Synthetic road-network generators.

The paper's demonstration runs on a USGS map of northwest Atlanta (6,979
junctions, 9,187 segments) loaded through GTMobiSim. That map is not
redistributable, so this module provides deterministic synthetic substitutes
(decision D8 in DESIGN.md):

* :func:`grid_network` — Manhattan-style grids; the workhorse for unit tests
  and controlled experiments.
* :func:`radial_network` — ring-and-spoke city topology.
* :func:`random_delaunay_network` — irregular planar networks built from a
  seeded random point set and its Delaunay triangulation, pruned to a target
  segment count while staying connected. Degree and length statistics are in
  the same regime as the USGS map. Points and triangulation come from
  :mod:`repro.roadnet.pointset`, in pure Python: the points are
  bit-identical to numpy's ``default_rng(seed)`` draws and the edges are
  their exact Delaunay triangulation, so no numerical library is imported
  to build one.
* :func:`atlanta_like` — :func:`random_delaunay_network` invoked with the
  paper's published constants (6,979 junctions / 9,187 segments).
* :func:`fig1_network`, :func:`fig2_network`, :func:`fig3_network` — small
  fixtures mirroring the paper's Figures 1–3 for the figure-reproduction
  benchmarks (E1–E3).

All generators are pure functions of their arguments (including ``seed``), so
every experiment in ``benchmarks/`` is exactly reproducible.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..errors import RoadNetworkError
from .graph import RoadNetwork, RoadNetworkBuilder, gc_paused

__all__ = [
    "grid_network",
    "path_network",
    "radial_network",
    "random_delaunay_network",
    "atlanta_like",
    "fig1_network",
    "fig2_network",
    "fig3_network",
    "ATLANTA_JUNCTIONS",
    "ATLANTA_SEGMENTS",
]

#: Junction / segment counts of the USGS northwest-Atlanta map used by the
#: paper's toolkit (Section IV).
ATLANTA_JUNCTIONS = 6979
ATLANTA_SEGMENTS = 9187


@gc_paused
def grid_network(rows: int, cols: int, spacing: float = 100.0, name: str = "") -> RoadNetwork:
    """A ``rows`` x ``cols`` junction grid with all horizontal/vertical streets.

    Junction ids are ``r * cols + c``; segment ids are assigned row-major,
    horizontal streets first. The grid has ``rows*(cols-1) + cols*(rows-1)``
    segments.

    Args:
        rows: Number of junction rows (>= 1).
        cols: Number of junction columns (>= 1).
        spacing: Street length in metres.
        name: Optional network name (defaults to ``grid-{rows}x{cols}``).
    """
    if rows < 1 or cols < 1:
        raise RoadNetworkError(f"grid needs positive dimensions, got {rows}x{cols}")
    builder = RoadNetworkBuilder(name=name or f"grid-{rows}x{cols}")
    for r in range(rows):
        for c in range(cols):
            builder.add_junction(r * cols + c, c * spacing, r * spacing)
    segment_id = 0
    for r in range(rows):
        for c in range(cols - 1):
            builder.add_segment(segment_id, r * cols + c, r * cols + c + 1)
            segment_id += 1
    for r in range(rows - 1):
        for c in range(cols):
            builder.add_segment(segment_id, r * cols + c, (r + 1) * cols + c)
            segment_id += 1
    return builder.build()


def path_network(n_segments: int, spacing: float = 100.0) -> RoadNetwork:
    """A straight line of ``n_segments`` consecutive segments (test fixture)."""
    if n_segments < 1:
        raise RoadNetworkError("a path needs at least one segment")
    builder = RoadNetworkBuilder(name=f"path-{n_segments}")
    for i in range(n_segments + 1):
        builder.add_junction(i, i * spacing, 0.0)
    for i in range(n_segments):
        builder.add_segment(i, i, i + 1)
    return builder.build()


def radial_network(
    rings: int, spokes: int, ring_spacing: float = 200.0, name: str = ""
) -> RoadNetwork:
    """A ring-and-spoke network: ``rings`` concentric rings crossed by
    ``spokes`` radial roads, plus a central junction.

    Models the downtown-plus-beltway shape common in US cities. The network
    has ``rings * spokes + 1`` junctions and ``2 * rings * spokes`` segments
    (each ring junction gets one arc segment and one radial segment).
    """
    if rings < 1 or spokes < 3:
        raise RoadNetworkError("radial network needs rings >= 1 and spokes >= 3")
    builder = RoadNetworkBuilder(name=name or f"radial-{rings}x{spokes}")
    builder.add_junction(0, 0.0, 0.0)

    def junction_id(ring: int, spoke: int) -> int:
        return 1 + (ring - 1) * spokes + spoke

    for ring in range(1, rings + 1):
        radius = ring * ring_spacing
        for spoke in range(spokes):
            angle = 2.0 * math.pi * spoke / spokes
            builder.add_junction(
                junction_id(ring, spoke), radius * math.cos(angle), radius * math.sin(angle)
            )
    segment_id = 0
    for ring in range(1, rings + 1):
        for spoke in range(spokes):
            inner = 0 if ring == 1 else junction_id(ring - 1, spoke)
            builder.add_segment(segment_id, inner, junction_id(ring, spoke))
            segment_id += 1
            builder.add_segment(
                segment_id, junction_id(ring, spoke), junction_id(ring, (spoke + 1) % spokes)
            )
            segment_id += 1
    return builder.build()


@gc_paused
def random_delaunay_network(
    n_junctions: int,
    target_segments: int,
    seed: int,
    extent: float = 20_000.0,
    name: str = "",
) -> RoadNetwork:
    """An irregular planar road network from a seeded random point set.

    Construction: draw ``n_junctions`` uniform points in an ``extent`` x
    ``extent`` square (the doubles ``numpy.random.default_rng(seed)`` would
    draw, computed by :func:`~repro.roadnet.pointset.uniform_points`),
    triangulate them (Delaunay, :func:`~repro.roadnet.pointset.delaunay_edges`),
    then keep a minimum spanning tree (guaranteeing connectivity) plus the
    shortest remaining Delaunay edges until ``target_segments`` segments
    exist. Short edges are preferred because real road segments connect
    nearby intersections.

    Args:
        n_junctions: Number of junctions (>= 3 for a triangulation).
        target_segments: Desired segment count; must be at least
            ``n_junctions - 1`` (the spanning tree) and at most the number of
            Delaunay edges.
        seed: Non-negative RNG seed; the network is a pure function of all
            arguments.
        extent: Side of the square map region in metres.
        name: Optional network name.
    """
    if n_junctions < 3:
        raise RoadNetworkError("Delaunay generator needs at least 3 junctions")
    if target_segments < n_junctions - 1:
        raise RoadNetworkError(
            f"target_segments={target_segments} cannot connect "
            f"{n_junctions} junctions (need >= {n_junctions - 1})"
        )
    # Local import: a process whose maps never triangulate (grids,
    # fixtures, wire documents) does not compile the triangulator.
    from .pointset import delaunay_edges, uniform_points

    points = uniform_points(seed, n_junctions, extent)
    edges = delaunay_edges(points)
    if target_segments > len(edges):
        raise RoadNetworkError(
            f"target_segments={target_segments} exceeds the {len(edges)} "
            f"Delaunay edges available"
        )

    # Shortest first, ties by junction pair: Kruskal's spanning tree, with
    # the edges it rejects kept in the same order as the extras.
    hypot = math.hypot
    ordered = sorted(
        (hypot(points[a][0] - points[b][0], points[a][1] - points[b][1]), a, b)
        for a, b in edges
    )
    parent = list(range(n_junctions))

    def root_of(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    tree_edges: List[Tuple[int, int, float]] = []
    extra_edges: List[Tuple[int, int, float]] = []
    for length, a, b in ordered:
        root_a, root_b = root_of(a), root_of(b)
        if root_a != root_b:
            parent[root_b] = root_a
            tree_edges.append((a, b, length))
        else:
            extra_edges.append((a, b, length))
    chosen = tree_edges + extra_edges[: target_segments - len(tree_edges)]
    chosen.sort()

    builder = RoadNetworkBuilder(
        name=name or f"delaunay-{n_junctions}j-{target_segments}s-seed{seed}"
    )
    for junction_id, (x, y) in enumerate(points):
        builder.add_junction(junction_id, x, y)
    for segment_id, (a, b, length) in enumerate(chosen):
        builder.add_segment(segment_id, a, b, length)
    return builder.build()


def atlanta_like(seed: int = 2017, scale: float = 1.0) -> RoadNetwork:
    """A synthetic stand-in for the paper's northwest-Atlanta USGS map.

    Matches the published size (6,979 junctions / 9,187 segments) at
    ``scale=1.0``; smaller ``scale`` values shrink both counts proportionally
    for faster experiments while preserving the edge/junction ratio.
    """
    if not 0.0 < scale <= 1.0:
        raise RoadNetworkError(f"scale must be in (0, 1], got {scale}")
    n_junctions = max(3, int(round(ATLANTA_JUNCTIONS * scale)))
    target_segments = max(n_junctions - 1, int(round(ATLANTA_SEGMENTS * scale)))
    return random_delaunay_network(
        n_junctions,
        target_segments,
        seed=seed,
        extent=20_000.0 * math.sqrt(scale),
        name=f"atlanta-like-{scale:g}",
    )


def fig1_network() -> RoadNetwork:
    """The small sub-graph used by the paper's Figure 1 walkthrough.

    The paper shows a neighbourhood of ~24 segments where ``s18`` holds the
    actual user and three levels add ``{s17, s22}``, ``{s14, s15, s19}`` and
    ``{s9, s21, s24}``. The exact topology is not fully recoverable from the
    figure, so this fixture is a 4x4 junction grid whose 24 segments carry the
    ids ``1..24`` — segment 18 sits in the interior, matching the role it
    plays in the walkthrough (experiment E1).
    """
    grid = grid_network(4, 4, spacing=100.0)
    builder = RoadNetworkBuilder(name="fig1")
    for junction_id in grid.junction_ids():
        location = grid.junction(junction_id).location
        builder.add_junction(junction_id, location.x, location.y)
    for segment_id in grid.segment_ids():
        segment = grid.segment(segment_id)
        builder.add_segment(
            segment_id + 1, segment.junction_a, segment.junction_b, segment.length
        )
    return builder.build()


def fig2_network() -> RoadNetwork:
    """The exact configuration of the paper's Figure 2 RGE example.

    Region ``CloakA = {s8, s9, s11}`` is a three-segment path and the
    candidate frontier is exactly ``CanA = {s6, s10, s14}``. Segment lengths
    are chosen so the length-sorted table orders are::

        rows:    [s9, s8, s11]   (s8 -> row 2, as in the figure)
        columns: [s6, s14, s10]  (s14 -> column 2, as in the figure)

    With ``R_i = 5`` the pick value is ``5 mod 3 = 2`` and the selected cell
    is ``(2, 2)``: the forward transition ``s8 -> s14`` and backward
    transition ``s14 -> s8`` of the figure (experiment E2).
    """
    builder = RoadNetworkBuilder(name="fig2")
    # A path J0-J1-J2-J3 carrying the region, with one pendant junction per
    # frontier segment.
    builder.add_junction(0, 0.0, 0.0)
    builder.add_junction(1, 100.0, 0.0)
    builder.add_junction(2, 150.0, 0.0)
    builder.add_junction(3, 300.0, 0.0)
    builder.add_junction(4, 0.0, 40.0)  # pendant for s6
    builder.add_junction(5, 150.0, 120.0)  # pendant for s10
    builder.add_junction(6, 100.0, -80.0)  # pendant for s14
    builder.add_segment(8, 0, 1, length=100.0)  # s8 (row 2)
    builder.add_segment(9, 1, 2, length=50.0)  # s9 (row 1)
    builder.add_segment(11, 2, 3, length=150.0)  # s11 (row 3)
    builder.add_segment(6, 0, 4, length=40.0)  # s6 (column 1)
    builder.add_segment(10, 2, 5, length=120.0)  # s10 (column 3)
    builder.add_segment(14, 1, 6, length=80.0)  # s14 (column 2)
    return builder.build()


def fig3_network() -> RoadNetwork:
    """A fixture for the paper's Figure 3 RPLE example.

    Figure 3 requires segment ``s8`` to have a forward transition list of
    length ``T = 6`` containing ``s14``. This fixture gives ``s8`` exactly six
    neighbours (``s10``–``s15``) arranged as a star around its two endpoint
    junctions, so the pre-assignment fills a six-slot list (experiment E3).
    """
    builder = RoadNetworkBuilder(name="fig3")
    builder.add_junction(0, 0.0, 0.0)
    builder.add_junction(1, 100.0, 0.0)
    pendants = {
        10: (-80.0, 60.0),
        11: (-80.0, -60.0),
        12: (0.0, 90.0),
        13: (180.0, 60.0),
        14: (180.0, -60.0),
        15: (100.0, 90.0),
    }
    for junction_id, (x, y) in zip(range(2, 8), pendants.values()):
        builder.add_junction(junction_id, x, y)
    builder.add_segment(8, 0, 1)
    attach = [0, 0, 0, 1, 1, 1]
    for (segment_id, __), junction_id, anchor in zip(
        pendants.items(), range(2, 8), attach
    ):
        builder.add_segment(segment_id, anchor, junction_id)
    return builder.build()


def _degree_histogram(network: RoadNetwork) -> Dict[int, int]:
    """Junction-degree histogram (used by tests to sanity-check generators)."""
    histogram: Dict[int, int] = {}
    for junction_id in network.junction_ids():
        degree = len(network.segments_at_junction(junction_id))
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram
