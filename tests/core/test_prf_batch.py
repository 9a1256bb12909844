"""Equivalence tests for the batched PRF plane (``LevelDraws``).

The batched plane must be invisible in every output: the same keyed values
as per-call :func:`keyed_draw`, and the same envelopes and reversals as the
test-side reference (``tests/reference.py``), which draws once per call.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from repro import (
    KeyChain,
    PopulationSnapshot,
    PrivacyProfile,
    ReverseCloakEngine,
    ReversibleGlobalExpansion,
    ReversiblePreassignmentExpansion,
    grid_network,
)
from repro.core.algorithm import MAX_ATTEMPT, LevelDraws, keyed_draw
from repro.errors import CloakingError
from repro.keys import AccessKey


class TestLevelDraws:
    def test_matches_keyed_draw_sequential(self):
        key = AccessKey.from_passphrase(2, "draws-seq")
        draws = LevelDraws(key)
        for step in range(1, 120):
            assert draws.draw(step) == keyed_draw(key, step)

    def test_matches_keyed_draw_with_redraws(self):
        key = AccessKey.from_passphrase(1, "draws-redraw")
        draws = LevelDraws(key)
        for step in (1, 3, 7):
            for attempt in range(10):
                assert draws.draw(step, attempt) == keyed_draw(key, step, attempt)

    def test_random_access_and_descending_steps(self):
        # The backward pass requests steps high-to-low; the buffer must
        # serve any access pattern.
        key = AccessKey.from_passphrase(1, "draws-desc")
        draws = LevelDraws(key, lookahead=50)
        for step in range(50, 0, -1):
            assert draws.draw(step) == keyed_draw(key, step)

    def test_memoizes(self):
        key = AccessKey.from_passphrase(1, "draws-memo")
        draws = LevelDraws(key)
        assert draws.draw(5, 2) == draws.draw(5, 2)
        assert draws.level == 1

    def test_validation_parity_with_keyed_draw(self):
        key = AccessKey.from_passphrase(1, "draws-valid")
        draws = LevelDraws(key)
        with pytest.raises(CloakingError):
            draws.draw(0)
        with pytest.raises(CloakingError):
            draws.draw(1, -1)
        with pytest.raises(CloakingError):
            draws.draw(1, MAX_ATTEMPT)

    @settings(deadline=None, max_examples=40)
    @given(
        passphrase=st.text(min_size=1, max_size=12),
        level=st.integers(min_value=1, max_value=5),
        accesses=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=600),
                st.integers(min_value=0, max_value=6),
            ),
            max_size=60,
        ),
    )
    def test_property_random_patterns(self, passphrase, level, accesses):
        # Property form of the tentpole equivalence: over random keys,
        # levels and access patterns, the batched plane serves exactly the
        # per-call values.
        key = AccessKey.from_passphrase(level, passphrase)
        draws = LevelDraws(key)
        for step, attempt in accesses:
            assert draws.draw(step, attempt) == keyed_draw(key, step, attempt)


@pytest.fixture(scope="module")
def batch_grid():
    return grid_network(8, 8)


@pytest.fixture(scope="module")
def batch_snapshot(batch_grid):
    return PopulationSnapshot.from_counts(
        {sid: 1 for sid in batch_grid.segment_ids()}
    )


@pytest.fixture(scope="module")
def batch_profile():
    return PrivacyProfile.uniform(
        levels=2, base_k=6, k_step=6, base_l=3, l_step=1, max_segments=40
    )


GOLDEN_ENVELOPE_SHA256 = {
    # sha256(envelope.to_json()) for the fixed request below, captured
    # before the batched plane landed — pins byte-identity to the seed era.
    "rge": "bbe0ef8fd733452625404dc26a3be4352b335154bcff8b2e1b1f6e35deff8a7b",
    "rple": "fdebdcd77c7b7e9748906a7ed0d821c383535ad4d5b5e1de0f9f98f0790a45fa",
}


def _algorithm(network, algo_name):
    if algo_name == "rge":
        return ReversibleGlobalExpansion()
    return ReversiblePreassignmentExpansion.for_network(network)


class TestEngineEquivalence:
    @pytest.mark.parametrize("algo_name", ["rge", "rple"])
    @pytest.mark.parametrize("include_hints", [True, False])
    def test_envelopes_byte_identical(
        self, batch_grid, batch_snapshot, batch_profile, algo_name, include_hints
    ):
        algorithm = _algorithm(batch_grid, algo_name)
        chain = KeyChain.from_passphrases(["golden-1", "golden-2"])
        a = ReverseCloakEngine(batch_grid, algorithm).anonymize(
            60, batch_snapshot, batch_profile, chain, include_hints=include_hints
        )
        b = reference.anonymize(
            batch_grid, algorithm, 60, batch_snapshot, batch_profile, chain,
            include_hints=include_hints,
        ).envelope
        assert a == b
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("algo_name", ["rge", "rple"])
    def test_envelope_matches_pre_change_golden(
        self, batch_grid, batch_snapshot, batch_profile, algo_name
    ):
        algorithm = (
            None
            if algo_name == "rge"
            else ReversiblePreassignmentExpansion.for_network(batch_grid)
        )
        chain = KeyChain.from_passphrases(["golden-1", "golden-2"])
        envelope = ReverseCloakEngine(batch_grid, algorithm).anonymize(
            60, batch_snapshot, batch_profile, chain
        )
        digest = hashlib.sha256(envelope.to_json().encode()).hexdigest()
        assert digest == GOLDEN_ENVELOPE_SHA256[algo_name]

    @pytest.mark.parametrize("algo_name", ["rge", "rple"])
    @pytest.mark.parametrize("mode", ["hint", "search"])
    def test_reversals_identical(
        self, batch_grid, batch_snapshot, algo_name, mode
    ):
        algorithm = _algorithm(batch_grid, algo_name)
        chain = KeyChain.from_passphrases(["peel-1"])
        profile = PrivacyProfile.uniform(
            levels=1, base_k=8, k_step=1, base_l=3, l_step=1, max_segments=40
        )
        engine = ReverseCloakEngine(batch_grid, algorithm)
        trace = reference.anonymize(
            batch_grid, algorithm, 60, batch_snapshot, profile, chain,
            include_hints=(mode == "hint"),
        )
        envelope = engine.anonymize(
            60, batch_snapshot, profile, chain, include_hints=(mode == "hint")
        )
        assert envelope == trace.envelope
        result = engine.deanonymize(envelope, chain, 0, mode=mode)
        assert result.regions == trace.regions
        assert result.removed == {1: tuple(reversed(trace.additions[1]))}


class TestLookaheadBounds:
    def test_forged_lookahead_is_capped(self):
        # Envelopes are attacker input: a forged step count must not make
        # the buffer allocate/draw an arbitrarily large first block.
        key = AccessKey.from_passphrase(1, "forged-steps")
        draws = LevelDraws(key, lookahead=10**9)
        assert draws.draw(1) == keyed_draw(key, 1)
        assert len(draws._values) <= LevelDraws._MAX_LOOKAHEAD

    def test_honest_long_level_predraws_fully(self):
        key = AccessKey.from_passphrase(1, "long-level")
        draws = LevelDraws(key, lookahead=500)
        draws.draw(1)
        # The whole known level arrives in the first block (no refills).
        assert len(draws._values) == 500
        for step in (250, 500):
            assert draws.draw(step) == keyed_draw(key, step)
