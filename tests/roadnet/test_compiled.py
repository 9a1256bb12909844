"""CompiledNetwork: the flat hot-path tables must mirror the dict model."""

import random

import pytest

from repro.roadnet import (
    CompiledNetwork,
    atlanta_like,
    compiled_network,
    geometry_digest,
    grid_network,
    radial_network,
    random_delaunay_network,
)
from repro.roadnet.graph import RoadNetworkBuilder, removable_segments

GRID = grid_network(9, 9)
DELAUNAY = random_delaunay_network(n_junctions=60, target_segments=120, seed=7)


@pytest.mark.parametrize("network", [GRID, DELAUNAY], ids=["grid", "delaunay"])
class TestTables:
    def test_dense_reindex_is_id_ordered(self, network):
        plane = network.compiled()
        assert plane.segment_list == network.segment_ids()
        assert all(
            plane.segment_list[plane.index_of[s]] == s for s in plane.segment_list
        )

    def test_csr_matches_neighbor_map(self, network):
        plane = network.compiled()
        for sid in network.segment_ids():
            dense = plane.index_of[sid]
            row = plane.csr_neighbors[
                plane.offsets[dense] : plane.offsets[dense + 1]
            ]
            assert tuple(plane.segment_list[d] for d in row) == network.neighbors(sid)

    def test_length_rank_is_global_length_order(self, network):
        plane = network.compiled()
        expected = sorted(
            network.segment_ids(), key=lambda s: (network.segment_length(s), s)
        )
        assert list(plane.rank_to_id) == expected
        assert all(plane.rank_of[s] == i for i, s in enumerate(expected))
        assert all(
            plane.length_rank[plane.index_of[s]] == plane.rank_of[s]
            for s in network.segment_ids()
        )

    def test_flat_geometry_tables(self, network):
        plane = network.compiled()
        bounds = network.segment_bounds()
        for sid in network.segment_ids():
            dense = plane.index_of[sid]
            assert plane.lengths[dense] == network.segment_length(sid)
            assert (
                plane.min_x[dense],
                plane.min_y[dense],
                plane.max_x[dense],
                plane.max_y[dense],
            ) == bounds[sid]

    def test_side_neighbors_partition_the_neighbor_list(self, network):
        plane = network.compiled()
        for sid in network.segment_ids():
            at_a, at_b = plane.side_neighbors[sid]
            assert not at_a & at_b  # a neighbour shares exactly one junction
            segment = network.segment(sid)
            incident = (
                set(network.segments_at_junction(segment.junction_a))
                | set(network.segments_at_junction(segment.junction_b))
            ) - {sid}
            assert at_a | at_b == incident

    def test_removability_and_connectivity_match_reference(self, network):
        plane = network.compiled()
        rng = random.Random(23)
        ids = list(network.segment_ids())
        neighbors = network.compiled().neighbor_map.__getitem__
        for _ in range(200):
            region = set(rng.sample(ids, rng.randrange(0, 24)))
            assert plane.removable_members(region) == removable_segments(
                neighbors, set(region)
            )
            assert plane.is_connected(region) == network.is_connected_region(region)
        # Grown (connected) regions exercise the single-component Tarjan arm.
        region = {ids[0]}
        for _ in range(60):
            frontier = network.frontier(region)
            if not frontier:
                break
            region.add(rng.choice(frontier))
            assert plane.removable_members(region) == removable_segments(
                neighbors, set(region)
            )


def _pruned_grid(rows: int, cols: int, keep: float, seed: int):
    """A grid with a random share of its segments deleted: bridges, dead
    ends and cut vertices that a full grid never has."""
    full = grid_network(rows, cols)
    rng = random.Random(seed)
    builder = RoadNetworkBuilder(name=f"pruned-grid-{seed}")
    for junction_id in full.junction_ids():
        location = full.junction(junction_id).location
        builder.add_junction(junction_id, location.x, location.y)
    for segment_id in full.segment_ids():
        if rng.random() < keep:
            segment = full.segment(segment_id)
            builder.add_segment(
                segment_id, segment.junction_a, segment.junction_b, segment.length
            )
    return builder.build()


def _grown_regions(network, count: int, max_size: int, seed: int):
    """Random connected regions grown one frontier segment at a time."""
    rng = random.Random(seed)
    ids = network.segment_ids()
    for _ in range(count):
        region = {rng.choice(ids)}
        for _ in range(rng.randrange(0, max_size)):
            frontier = network.frontier(region)
            if not frontier:
                break
            region.add(rng.choice(frontier))
        yield frozenset(region)


class TestKeepsConnected:
    """The junction-local removability test against the brute-force
    :func:`removable_segments`, for every member of every region."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: grid_network(9, 9),
            lambda: atlanta_like(scale=0.05),
            lambda: random_delaunay_network(
                n_junctions=60, target_segments=120, seed=11
            ),
            lambda: radial_network(4, 7),
            lambda: _pruned_grid(9, 9, keep=0.7, seed=5),
            lambda: _pruned_grid(12, 12, keep=0.55, seed=9),
        ],
        ids=["grid9", "atlanta", "delaunay", "radial", "pruned70", "pruned55"],
    )
    def test_matches_brute_force(self, build):
        network = build()
        plane = network.compiled()
        neighbors = plane.neighbor_map.__getitem__
        probes = bridges = 0
        for region in _grown_regions(network, count=60, max_size=45, seed=3):
            expected = set(removable_segments(neighbors, set(region)))
            for member in region:
                assert plane.keeps_connected(region, member) == (
                    member in expected
                ), (sorted(region), member)
                probes += 1
                bridges += member not in expected
        # The regions must exercise both answers, or the test shows nothing.
        assert probes > bridges > 0

    def test_pruned_grid_has_dead_ends(self):
        network = _pruned_grid(9, 9, keep=0.7, seed=5)
        assert any(
            not all(network.compiled().side_neighbors[sid])
            for sid in network.segment_ids()
        )


class TestSharing:
    def test_plane_cached_on_instance(self):
        assert GRID.compiled() is GRID.compiled()

    def test_equal_maps_share_one_plane(self):
        assert grid_network(5, 5).compiled() is grid_network(5, 5).compiled()
        assert compiled_network(grid_network(5, 5)) is grid_network(5, 5).compiled()

    def test_geometry_digest_separates_coordinates(self):
        """Same topology and lengths, different junction coordinates: the
        wire network digest collides by design, the geometry digest (and
        therefore the compiled bbox tables) must not."""

        def build(y):
            builder = RoadNetworkBuilder(name="twin")
            builder.add_junction(0, 0.0, 0.0)
            builder.add_junction(1, 100.0, y)
            builder.add_junction(2, 200.0, 0.0)
            builder.add_segment(0, 0, 1, length=150.0)
            builder.add_segment(1, 1, 2, length=150.0)
            return builder.build()

        flat, bent = build(0.0), build(90.0)
        from repro.core.envelope import network_digest

        assert network_digest(flat) == network_digest(bent)
        assert geometry_digest(flat) != geometry_digest(bent)
        assert flat.compiled() is not bent.compiled()
        assert isinstance(flat.compiled(), CompiledNetwork)


class TestPinnedDigests:
    """The serving maps, pinned to literal digests.

    Every committed benchmark figure and golden envelope was produced on
    these maps, so a faster generator, build or compile must reproduce
    them bit for bit — a self-consistency check would miss a change that
    is merely deterministic.
    """

    @pytest.mark.parametrize(
        "build, wire, geometry",
        [
            (lambda: grid_network(71, 71), "782f7f684a2c3c61", "84d3a975e6ca7a0a943fcf2d"),
            (atlanta_like, "2a9c15a7bfe7e271", "51f319d1ef1e30827370cd13"),
        ],
        ids=["grid71", "atlanta"],
    )
    def test_serving_map_digests(self, build, wire, geometry):
        from repro.core.envelope import network_digest

        network = build()
        assert network_digest(network) == wire
        assert geometry_digest(network) == geometry
