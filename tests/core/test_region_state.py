"""RegionState: incremental bookkeeping must match from-scratch recomputes.

Two layers of assurance:

* a randomized property test applying arbitrary interleaved add/remove
  sequences on grid and Delaunay networks, checking every maintained
  quantity (frontier, total length, bounding box, population count,
  length ordering, connectivity/removability) against the from-scratch
  answer after every single mutation;
* protocol equivalence: the engine, which carries one maintained state
  through the whole expansion, must produce byte-identical envelopes
  (regions, digests, MACs) to the state-less reference of
  ``tests/reference.py`` for both algorithms, and must de-anonymize the
  reference's envelopes back to its regions in every reversal mode.
"""

import random

import pytest

import reference
from repro import (
    KeyChain,
    LevelRequirement,
    PopulationSnapshot,
    PrivacyProfile,
    RegionState,
    ReverseCloakEngine,
    ReversibleGlobalExpansion,
    ReversiblePreassignmentExpansion,
    ToleranceSpec,
    grid_network,
    random_delaunay_network,
)
from repro.core.algorithm import eligible_candidates
from repro.core.transition_table import length_order
from repro.errors import CloakingError


GRID = grid_network(8, 8)
DELAUNAY = random_delaunay_network(n_junctions=50, target_segments=100, seed=11)


def brute_removable(network, region):
    """The seed-era O(R^2) definition: removal keeps the rest connected."""
    return tuple(
        sid
        for sid in sorted(region)
        if network.is_connected_region(region - {sid})
    )


def assert_state_matches(network, snapshot, state, region):
    assert state.members == region
    assert len(state) == len(region)
    assert state.frontier() == network.frontier(region)
    assert state.frontier_counts() == {
        candidate: sum(1 for n in network.neighbors(candidate) if n in region)
        for candidate in network.frontier(region)
    }
    assert state.total_length == pytest.approx(
        network.total_length(region), rel=1e-12, abs=1e-9
    )
    assert state.population == snapshot.count_in_region(region)
    assert state.segments_by_length() == length_order(network, region)
    if region:
        assert state.bounding_box() == network.bounding_box(region)
    assert state.is_connected() == network.is_connected_region(region)
    assert tuple(sorted(state.removable_members())) == brute_removable(
        network, set(region)
    )


class TestRandomizedProperty:
    @pytest.mark.parametrize("network", [GRID, DELAUNAY], ids=["grid", "delaunay"])
    def test_interleaved_add_remove_matches_recompute(self, network):
        rng = random.Random(2024)
        snapshot = PopulationSnapshot.from_counts(
            {sid: rng.randrange(4) for sid in network.segment_ids()}
        )
        all_segments = list(network.segment_ids())
        state = RegionState(network, snapshot=snapshot)
        region = set()
        for _ in range(200):
            if region and rng.random() < 0.4:
                sid = rng.choice(sorted(region))
                state.remove(sid)
                region.discard(sid)
            else:
                sid = rng.choice(all_segments)
                if sid in region:
                    continue
                state.add(sid)
                region.add(sid)
            assert_state_matches(network, snapshot, state, region)

    def test_from_region_matches_recompute(self):
        rng = random.Random(7)
        snapshot = PopulationSnapshot.from_counts(
            {sid: 1 for sid in GRID.segment_ids()}
        )
        region = set(rng.sample(GRID.segment_ids(), 25))
        state = RegionState.from_region(GRID, region, snapshot=snapshot)
        assert_state_matches(GRID, snapshot, state, region)


class TestMutationContract:
    def test_double_add_raises(self):
        state = RegionState(GRID, (0,))
        with pytest.raises(CloakingError):
            state.add(0)

    def test_remove_absent_raises(self):
        state = RegionState(GRID, (0,))
        with pytest.raises(CloakingError):
            state.remove(5)

    def test_length_rank(self):
        state = RegionState(DELAUNAY, (0, 1, 2, 3))
        order = state.segments_by_length()
        for expected, sid in enumerate(order):
            assert state.length_rank(sid) == expected
        with pytest.raises(CloakingError):
            state.length_rank(99)

    def test_bbox_shrinks_after_boundary_removal(self):
        # A 1x3 strip: removing an end segment must shrink the box.
        state = RegionState(GRID, (0, 1, 2))
        wide = state.bounding_box()
        state.remove(2)
        assert state.bounding_box() == GRID.bounding_box({0, 1})
        assert state.bounding_box().width < wide.width

    def test_diagonal_after_add_is_exact(self):
        state = RegionState(GRID, (0, 1))
        for candidate in state.frontier():
            expected = GRID.bounding_box({0, 1, candidate}).diagonal
            assert state.diagonal_after_add(candidate) == expected


class TestToleranceDeltas:
    def test_fits_after_add_matches_fits(self):
        specs = [
            ToleranceSpec(max_segments=4),
            ToleranceSpec(max_total_length=450.0),
            ToleranceSpec(max_diagonal=320.0),
            ToleranceSpec(max_segments=6, max_total_length=650.0, max_diagonal=500.0),
        ]
        state = RegionState(GRID, (0,))
        region = {0}
        for _ in range(6):
            for spec in specs:
                for candidate in state.frontier():
                    assert spec.fits_after_add(state, candidate) == spec.fits(
                        GRID, region | {candidate}
                    ), (spec, candidate)
            frontier = state.frontier()
            nxt = frontier[0]
            state.add(nxt)
            region.add(nxt)

    def test_total_length_decisions_are_order_independent_at_the_bound(self):
        # 0.1 + 0.2 + 0.3 is the canonical float-summation trap: naive
        # left-to-right gives 0.6000000000000001 while other orders give
        # 0.6. All tolerance paths must agree on regions that land exactly
        # on the bound, whatever mutation order built the state.
        from repro import RoadNetworkBuilder

        builder = RoadNetworkBuilder(name="float-trap")
        for jid, x in enumerate((0.0, 1.0, 2.0, 3.0)):
            builder.add_junction(jid, x, 0.0)
        for sid, length in enumerate((0.1, 0.2, 0.3)):
            builder.add_segment(sid, sid, sid + 1, length=length)
        network = builder.build()
        region = {0, 1, 2}
        for bound in (0.6, 0.6000000000000001, 0.5999999999999999, 0.7):
            spec = ToleranceSpec(max_total_length=bound)
            expected = spec.fits(network, region)
            for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
                state = RegionState(network, order)
                assert spec.fits_state(state) == expected, (bound, order)
            # Clone-derived and remove-derived states must agree too.
            grown = RegionState(network, (0, 1, 2))
            derived = grown.clone()
            assert spec.fits_state(derived) == expected, bound
            prefix = RegionState(network, (0, 1))
            assert spec.fits_after_add(prefix, 2) == expected, bound
            via_remove = RegionState(network, (0, 1, 2))
            via_remove.remove(2)
            assert spec.fits_after_add(via_remove, 2) == expected, bound

    def test_eligible_candidates_state_path_identical(self):
        spec = ToleranceSpec(max_segments=8, max_diagonal=420.0)
        state = RegionState(GRID, (27,))
        region = {27}
        for _ in range(5):
            fast = eligible_candidates(GRID, region, spec, state=state)
            slow = eligible_candidates(GRID, region, spec)
            assert fast == slow
            if not fast:
                break
            state.add(fast[0])
            region.add(fast[0])


class TestEngineEquivalence:
    """The refactor must not change a single protocol-visible byte."""

    NETWORKS = [
        ("grid", grid_network(9, 9)),
        ("delaunay", random_delaunay_network(n_junctions=70, target_segments=140, seed=5)),
    ]

    @pytest.mark.parametrize("label,network", NETWORKS, ids=[n for n, _ in NETWORKS])
    @pytest.mark.parametrize("algo_name", ["rge", "rple"])
    def test_envelopes_byte_identical_and_reversible(self, label, network, algo_name):
        snapshot = PopulationSnapshot.from_counts(
            {sid: (sid % 3) for sid in network.segment_ids()}
        )
        diag = network.bounding_box().diagonal
        tolerance = ToleranceSpec(
            max_segments=40,
            max_total_length=network.total_length() / 2.0,
            max_diagonal=diag,
        )
        profile = PrivacyProfile(
            [
                LevelRequirement(k=6, l=3, tolerance=tolerance),
                LevelRequirement(k=12, l=5, tolerance=tolerance),
            ]
        )
        chain = KeyChain.from_passphrases(["eq-1", "eq-2"])
        algorithm = (
            ReversibleGlobalExpansion()
            if algo_name == "rge"
            else ReversiblePreassignmentExpansion.for_network(network)
        )
        engine = ReverseCloakEngine(network, algorithm)
        user = snapshot.occupied_segments()[0]

        envelope = engine.anonymize(user, snapshot, profile, chain)
        trace = reference.anonymize(network, algorithm, user, snapshot, profile, chain)
        # Byte-identical: same regions, same digests, same MACs, same JSON.
        assert envelope == trace.envelope
        assert envelope.to_json() == trace.envelope.to_json()

        # The reference's envelope reverses to its own regions in every mode.
        removed = {
            level: tuple(reversed(added))
            for level, added in trace.additions.items()
        }
        for mode in ("hint", "search", "auto"):
            result = engine.deanonymize(trace.envelope, chain, 0, mode=mode)
            assert result.region_at(0) == (user,)
            assert result.regions == trace.regions
            assert result.removed == removed
