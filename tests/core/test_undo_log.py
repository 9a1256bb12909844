"""Undo-log RegionState and the checkpoint/rollback peel search.

Three layers of assurance:

* randomized add/remove/checkpoint/rollback sequences where every rollback
  is compared field-for-field against a clone taken at checkpoint time —
  the clone path is the oracle the undo log must reproduce exactly
  (members, frontier counts, *exact* total length, bbox, removability,
  length ordering, population);
* reference pinning: engine de-anonymization (hint and search modes, RGE
  and RPLE) must recover the cache-free reference's regions, and
  `peel_level` itself must return the reference peel's outcome set;
* the derived small-hinted-peel crossover (`incremental_threshold`) must
  come from the compiled plane and behave identically on either side of
  the boundary.
"""

import random

import pytest

import reference
from repro import (
    KeyChain,
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
from repro.core import enumerate_bootstraps, peel_level
from repro.core.reversal import _CROSSOVER_STEP_COST, incremental_threshold
from repro.errors import CloakingError
from repro.keys import AccessKey

GRID = grid_network(8, 8)
DELAUNAY = random_delaunay_network(n_junctions=50, target_segments=100, seed=11)


def assert_states_equal(state, oracle):
    """Every observable of ``state`` equals the clone oracle's, exactly."""
    assert state.members == oracle.members
    assert len(state) == len(oracle)
    assert state.frontier() == oracle.frontier()
    assert state.frontier_counts() == oracle.frontier_counts()
    # Exact equality on purpose: rollback must restore the fixed-point
    # accumulator bit for bit, not approximately.
    assert state.exact_total_length == oracle.exact_total_length
    assert state.total_length == oracle.total_length
    assert state.population == oracle.population
    assert state.segments_by_length() == oracle.segments_by_length()
    if len(state):
        assert state.bounding_box() == oracle.bounding_box()
    assert state.removable_members() == oracle.removable_members()


class TestRandomizedRollback:
    @pytest.mark.parametrize("network", [GRID, DELAUNAY], ids=["grid", "delaunay"])
    def test_random_ops_with_nested_checkpoints(self, network):
        rng = random.Random(411)
        snapshot = PopulationSnapshot.from_counts(
            {sid: rng.randrange(4) for sid in network.segment_ids()}
        )
        all_segments = list(network.segment_ids())
        state = RegionState(network, snapshot=snapshot)
        # Stack of (token, clone-at-checkpoint) pairs — the oracle.
        checkpoints = []
        for _ in range(400):
            action = rng.random()
            if action < 0.25:
                checkpoints.append((state.checkpoint(), state.clone()))
            elif action < 0.40 and checkpoints:
                # Roll back to a random live checkpoint (dropping inner ones,
                # exactly like the peel search unwinding several levels).
                index = rng.randrange(len(checkpoints))
                token, oracle = checkpoints[index]
                del checkpoints[index:]
                state.rollback(token)
                assert_states_equal(state, oracle)
            elif action < 0.65 and state.members:
                state.remove(rng.choice(sorted(state.members)))
            else:
                sid = rng.choice(all_segments)
                if sid not in state.members:
                    state.add(sid)
        # Unwind everything that is left.
        while checkpoints:
            token, oracle = checkpoints.pop()
            state.rollback(token)
            assert_states_equal(state, oracle)

    def test_rollback_restores_cached_answers(self):
        state = RegionState.from_region(GRID, {0, 1, 2, 16})
        token = state.checkpoint()
        removable_before = state.removable_members()
        frontier_before = state.frontier()
        state.remove(2)
        state.add(17)
        state.rollback(token)
        # The restored cached objects are the very ones captured by the
        # trail, not recomputes — and they are still correct.
        assert state.removable_members() == removable_before
        assert state.frontier() == frontier_before

    def test_rollback_without_checkpoint_raises(self):
        state = RegionState.from_region(GRID, {0, 1})
        with pytest.raises(CloakingError):
            state.rollback(0)

    def test_rollback_past_trail_raises(self):
        state = RegionState.from_region(GRID, {0, 1})
        token = state.checkpoint()
        state.remove(1)
        with pytest.raises(CloakingError):
            state.rollback(token + 5)

    def test_rolled_past_token_is_dead(self):
        state = RegionState.from_region(GRID, {0, 1, 2})
        outer = state.checkpoint()
        state.remove(2)
        inner = state.checkpoint()
        state.remove(1)
        state.rollback(outer)
        with pytest.raises(CloakingError):
            state.rollback(inner)

    def test_clone_does_not_inherit_trail(self):
        state = RegionState.from_region(GRID, {0, 1, 2})
        state.checkpoint()
        state.remove(2)
        clone = state.clone()
        assert clone.trail_length == 0
        with pytest.raises(CloakingError):
            clone.rollback(0)
        # ... and mutating the clone never disturbs the original's trail.
        clone.add(2)
        state.rollback(0)
        assert state.members == {0, 1, 2}


class TestGoldenEquivalence:
    """The undo-log search agrees with the cache-free reference peel."""

    @pytest.fixture(scope="class")
    def network(self):
        return grid_network(10, 10)

    @pytest.fixture(scope="class")
    def snapshot(self, network):
        return PopulationSnapshot.from_counts(
            {sid: 1 for sid in network.segment_ids()}
        )

    @pytest.mark.parametrize("algo_name", ["rge", "rple"])
    def test_deanonymize_modes_match_reference(self, network, snapshot, algo_name):
        algorithm = (
            ReversibleGlobalExpansion()
            if algo_name == "rge"
            else ReversiblePreassignmentExpansion.for_network(network)
        )
        engine = ReverseCloakEngine(network, algorithm)
        chain = KeyChain.from_passphrases(["undo-golden-1", "undo-golden-2"])
        profile = PrivacyProfile.uniform(
            levels=2, base_k=18, k_step=12, base_l=3, l_step=1, max_segments=80
        )
        user = network.segment_ids()[25]
        trace = reference.anonymize(network, algorithm, user, snapshot, profile, chain)
        envelope = engine.anonymize(user, snapshot, profile, chain)
        assert envelope == trace.envelope
        for mode in ("hint", "auto"):
            assert engine.deanonymize(envelope, chain, 0, mode=mode).regions == (
                trace.regions
            )
        blind = engine.anonymize(user, snapshot, profile, chain, include_hints=False)
        result = engine.deanonymize(blind, chain, 1, mode="search")
        assert result.regions == {2: trace.regions[2], 1: trace.regions[1]}
        assert result.removed[2] == tuple(reversed(trace.additions[2]))

    def test_peel_level_outcomes_match_reference(self, network):
        key = AccessKey.from_passphrase(1, "undo-peel")
        algorithm = ReversiblePreassignmentExpansion.for_network(network)
        tolerance = ToleranceSpec(max_segments=60)
        region = {44}
        anchor = 44
        for step in range(1, 13):
            segment = algorithm.forward_step(
                network, region, anchor, key, step, tolerance
            )
            region.add(segment)
            anchor = segment
        bootstraps = enumerate_bootstraps(network, region)
        outcomes = peel_level(
            network, algorithm, key, region, 12, tolerance, bootstraps
        )
        assert reference.outcome_set(outcomes) == reference.search_peel(
            network, algorithm, key, region, 12, tolerance
        )
        assert any(o.inner_region == frozenset({44}) for o in outcomes)


class TestDerivedThreshold:
    def test_threshold_comes_from_compiled_plane(self):
        for network in (GRID, DELAUNAY):
            expected = max(
                8,
                int(_CROSSOVER_STEP_COST / max(network.compiled().avg_degree, 1.0)),
            )
            assert incremental_threshold(network) == expected

    def test_denser_maps_cross_over_sooner(self):
        # Mean degree orders the crossover: the denser map needs fewer
        # members before maintained state beats from-scratch recomputes.
        sparse = grid_network(4, 4)
        dense = grid_network(30, 30)
        assert sparse.compiled().avg_degree < dense.compiled().avg_degree
        assert incremental_threshold(sparse) >= incremental_threshold(dense)

    def test_hinted_peel_identical_across_boundary(self):
        """Regression at the crossover: hinted de-anonymization must agree
        with the reference for region sizes straddling the derived
        threshold exactly (the from-scratch path below it, the maintained
        state above)."""
        network = grid_network(12, 12)
        threshold = incremental_threshold(network)
        snapshot = PopulationSnapshot.from_counts(
            {sid: 1 for sid in network.segment_ids()}
        )
        chain = KeyChain.from_passphrases(["boundary-key"])
        user = network.segment_ids()[50]
        for target in (threshold - 1, threshold, threshold + 1):
            profile = PrivacyProfile.uniform(
                levels=1, base_k=target, k_step=1, base_l=3, l_step=1,
                max_segments=2 * target + 4,
            )
            engine = ReverseCloakEngine(network)
            trace = reference.anonymize(
                network, engine.algorithm, user, snapshot, profile, chain
            )
            envelope = engine.anonymize(user, snapshot, profile, chain)
            assert envelope == trace.envelope
            result = engine.deanonymize(envelope, chain, 0, mode="hint")
            assert result.regions == trace.regions
            assert result.removed[1] == tuple(reversed(trace.additions[1]))
