"""Tests for the road-network graph model."""

import pytest

from repro.errors import (
    DisconnectedRegionError,
    RoadNetworkError,
    UnknownJunctionError,
    UnknownSegmentError,
)
from repro.roadnet import RoadNetworkBuilder, grid_network, path_network


@pytest.fixture()
def tiny():
    """A 'T' network: 0-1-2 in a line plus 3 hanging off junction 1."""
    builder = RoadNetworkBuilder(name="tiny-T")
    builder.add_junction(0, 0, 0)
    builder.add_junction(1, 100, 0)
    builder.add_junction(2, 200, 0)
    builder.add_junction(3, 100, 100)
    builder.add_segment(0, 0, 1)
    builder.add_segment(1, 1, 2)
    builder.add_segment(2, 1, 3)
    return builder.build()


class TestBuilder:
    def test_duplicate_junction_rejected(self):
        builder = RoadNetworkBuilder()
        builder.add_junction(0, 0, 0)
        with pytest.raises(RoadNetworkError):
            builder.add_junction(0, 1, 1)

    def test_duplicate_segment_id_rejected(self):
        builder = RoadNetworkBuilder()
        builder.add_junction(0, 0, 0)
        builder.add_junction(1, 1, 0)
        builder.add_segment(0, 0, 1)
        with pytest.raises(RoadNetworkError):
            builder.add_segment(0, 1, 0)

    def test_segment_requires_existing_junctions(self):
        builder = RoadNetworkBuilder()
        builder.add_junction(0, 0, 0)
        with pytest.raises(UnknownJunctionError):
            builder.add_segment(0, 0, 99)

    def test_self_loop_rejected_at_build(self):
        builder = RoadNetworkBuilder()
        builder.add_junction(0, 0, 0)
        builder.add_junction(1, 1, 0)
        builder.add_segment(0, 0, 1)
        # force a self-loop through the raw constructor path
        with pytest.raises(RoadNetworkError):
            from repro.roadnet.graph import RoadNetwork, Segment

            RoadNetwork(
                {0: builder._junctions[0]},
                {0: Segment(0, 0, 0, 1.0)},
            )

    def test_duplicate_junction_pair_rejected(self):
        builder = RoadNetworkBuilder()
        builder.add_junction(0, 0, 0)
        builder.add_junction(1, 1, 0)
        builder.add_segment(0, 0, 1)
        builder.add_segment(1, 1, 0)
        with pytest.raises(RoadNetworkError):
            builder.build()

    def test_default_length_is_euclidean(self, tiny):
        assert tiny.segment_length(0) == pytest.approx(100.0)

    def test_explicit_length_survives(self):
        builder = RoadNetworkBuilder()
        builder.add_junction(0, 0, 0)
        builder.add_junction(1, 100, 0)
        builder.add_segment(0, 0, 1, length=160.0)  # curved road
        assert builder.build().segment_length(0) == 160.0

    def test_nonpositive_length_rejected(self):
        builder = RoadNetworkBuilder()
        builder.add_junction(0, 0, 0)
        builder.add_junction(1, 100, 0)
        builder.add_segment(0, 0, 1, length=0.0)
        with pytest.raises(RoadNetworkError):
            builder.build()

    def test_next_ids(self):
        builder = RoadNetworkBuilder()
        assert builder.next_junction_id() == 0
        builder.add_junction(5, 0, 0)
        assert builder.next_junction_id() == 6
        assert builder.next_segment_id() == 0


class TestLookups:
    def test_unknown_segment(self, tiny):
        with pytest.raises(UnknownSegmentError):
            tiny.segment(99)

    def test_unknown_junction(self, tiny):
        with pytest.raises(UnknownJunctionError):
            tiny.junction(99)

    def test_counts(self, tiny):
        assert tiny.junction_count == 4
        assert tiny.segment_count == 3

    def test_segments_at_junction(self, tiny):
        assert tiny.segments_at_junction(1) == (0, 1, 2)
        assert tiny.segments_at_junction(3) == (2,)

    def test_neighbors_via_shared_junction(self, tiny):
        assert tiny.neighbors(0) == (1, 2)
        assert tiny.neighbors(2) == (0, 1)

    def test_other_end(self, tiny):
        segment = tiny.segment(0)
        assert segment.other_end(0) == 1
        assert segment.other_end(1) == 0
        with pytest.raises(RoadNetworkError):
            segment.other_end(3)

    def test_has_segment(self, tiny):
        assert tiny.has_segment(0)
        assert not tiny.has_segment(42)

    def test_segment_midpoint(self, tiny):
        mid = tiny.segment_midpoint(0)
        assert (mid.x, mid.y) == (50.0, 0.0)


class TestRegions:
    def test_frontier_of_single_segment(self, tiny):
        assert tiny.frontier({0}) == (1, 2)

    def test_frontier_excludes_region(self, tiny):
        assert tiny.frontier({0, 1}) == (2,)

    def test_frontier_of_everything_empty(self, tiny):
        assert tiny.frontier({0, 1, 2}) == ()

    def test_empty_region_connected(self, tiny):
        assert tiny.is_connected_region(set())

    def test_connected_region(self, tiny):
        assert tiny.is_connected_region({0, 1, 2})

    def test_disconnected_region(self):
        network = path_network(5)
        assert not network.is_connected_region({0, 4})

    def test_require_connected_raises(self):
        network = path_network(5)
        with pytest.raises(DisconnectedRegionError):
            network.require_connected_region({0, 4})

    def test_articulation_free_removals_path(self):
        network = path_network(4)
        # only the path's end segments can be removed without disconnection
        assert network.articulation_free_removals({0, 1, 2, 3}) == (0, 3)

    def test_articulation_free_removals_star(self, tiny):
        # every leaf of the T can go; removing segment 1 or 2 still leaves
        # the other two sharing junction 1 -> all removable
        assert tiny.articulation_free_removals({0, 1, 2}) == (0, 1, 2)

    def test_connected_components(self):
        builder = RoadNetworkBuilder()
        for junction_id, (x, y) in enumerate([(0, 0), (1, 0), (5, 5), (6, 5)]):
            builder.add_junction(junction_id, x, y)
        builder.add_segment(0, 0, 1)
        builder.add_segment(1, 2, 3)
        components = builder.build().connected_components()
        assert len(components) == 2
        assert {frozenset({0}), frozenset({1})} == set(components)

    def test_grid_is_single_component(self):
        assert len(grid_network(5, 5).connected_components()) == 1

    def test_bounding_box_of_region(self, tiny):
        box = tiny.bounding_box({0})
        assert (box.min_x, box.max_x) == (0.0, 100.0)

    def test_total_length(self, tiny):
        assert tiny.total_length({0, 1, 2}) == pytest.approx(300.0)

    def test_ordering_deterministic(self, tiny):
        assert tiny.segment_ids() == (0, 1, 2)
        assert tiny.junction_ids() == (0, 1, 2, 3)


class TestCollectorPause:
    """Map construction pauses the cyclic collector and always restores it."""

    def test_collector_back_on_after_build_and_after_a_failed_build(self):
        import gc

        assert gc.isenabled()
        grid_network(4, 4).compiled()
        assert gc.isenabled()
        builder = RoadNetworkBuilder()
        builder.add_junction(0, 0, 0)
        builder.add_junction(1, 1, 0)
        builder.add_segment(0, 0, 1)
        builder.add_segment(1, 1, 0)  # duplicate junction pair
        with pytest.raises(RoadNetworkError):
            builder.build()
        assert gc.isenabled()

    def test_collector_left_off_when_the_caller_turned_it_off(self):
        import gc

        gc.disable()
        try:
            grid_network(3, 3)
            assert not gc.isenabled()
        finally:
            gc.enable()
