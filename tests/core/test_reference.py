"""Differential test: the engine against the test-side reference.

``tests/reference.py`` transcribes the paper's anonymize and search peel
with no caches, no maintained state and per-call keyed draws. On small
maps of every generator family — grids, Delaunay, radial, path and
Atlanta-like road maps, whose length ties and degree spreads differ — the
engine must agree with it exactly, for RGE and RPLE:

* envelopes are equal, ``to_json()`` included, with and without hints;
* hint-mode de-anonymization recovers the reference's own per-level regions
  and removal orders;
* in search mode the true inner region is among the reference peel's
  certified outcomes, and the engine's ``peel_level`` returns exactly the
  reference's outcome set under the same penalty cap.
"""

import pytest

import reference
from repro import (
    KeyChain,
    PopulationSnapshot,
    PrivacyProfile,
    ReverseCloakEngine,
    ReversibleGlobalExpansion,
    ReversiblePreassignmentExpansion,
    atlanta_like,
    grid_network,
    path_network,
    radial_network,
    random_delaunay_network,
)
from repro.core import enumerate_bootstraps, peel_level

MAPS = {
    "grid": lambda: grid_network(7, 7),
    "delaunay": lambda: random_delaunay_network(
        n_junctions=40, target_segments=80, seed=3
    ),
    "radial": lambda: radial_network(3, 6),
    "path": lambda: path_network(30),
    "atlanta": lambda: atlanta_like(scale=0.01),
}


@pytest.fixture(scope="module", params=sorted(MAPS))
def network(request):
    return MAPS[request.param]()


@pytest.fixture(scope="module", params=["rge", "rple"])
def algorithm(request, network):
    if request.param == "rge":
        return ReversibleGlobalExpansion()
    return ReversiblePreassignmentExpansion.for_network(network)


@pytest.fixture(scope="module")
def request_args(network):
    snapshot = PopulationSnapshot.from_counts(
        {sid: 1 + sid % 2 for sid in network.segment_ids()}
    )
    profile = PrivacyProfile.uniform(
        levels=2, base_k=10, k_step=14, base_l=3, l_step=1,
        max_segments=min(60, network.segment_count),
    )
    chain = KeyChain.from_passphrases(
        [f"ref-{network.name}-1", f"ref-{network.name}-2"]
    )
    user = network.segment_ids()[network.segment_count // 2]
    return user, snapshot, profile, chain


class TestEngineMatchesReference:
    @pytest.mark.parametrize("include_hints", [True, False], ids=["hints", "blind"])
    def test_envelopes_equal(self, network, algorithm, request_args, include_hints):
        user, snapshot, profile, chain = request_args
        engine = ReverseCloakEngine(network, algorithm)
        envelope = engine.anonymize(
            user, snapshot, profile, chain, include_hints=include_hints
        )
        expected = reference.anonymize(
            network, algorithm, user, snapshot, profile, chain,
            include_hints=include_hints,
        ).envelope
        assert envelope == expected
        assert envelope.to_json() == expected.to_json()

    def test_hint_peel_recovers_reference_trace(
        self, network, algorithm, request_args
    ):
        user, snapshot, profile, chain = request_args
        trace = reference.anonymize(
            network, algorithm, user, snapshot, profile, chain
        )
        engine = ReverseCloakEngine(network, algorithm)
        result = engine.deanonymize(trace.envelope, chain, 0, mode="hint")
        assert result.regions == trace.regions
        assert result.removed == {
            level: tuple(reversed(added))
            for level, added in trace.additions.items()
        }

    def test_search_peel_matches_reference_outcomes(
        self, network, algorithm, request_args
    ):
        user, snapshot, profile, chain = request_args
        trace = reference.anonymize(
            network, algorithm, user, snapshot, profile, chain,
            include_hints=False,
        )
        expected = reference.peel_all(network, algorithm, trace, chain)
        for record in trace.envelope.levels:
            level = record.level
            outer = trace.regions[level]
            assert reference.true_outcome(trace, level) in {
                (inner, removed) for inner, removed, _ in expected[level]
            }
            outcomes = peel_level(
                network, algorithm, chain.key_for(level), outer, record.steps,
                record.tolerance, enumerate_bootstraps(network, outer),
            )
            assert reference.outcome_set(outcomes) == expected[level]
        # The engine's own search-mode peel lands on the true level-1
        # region (the level-1 digest pins it among the certified outcomes).
        engine = ReverseCloakEngine(network, algorithm)
        result = engine.deanonymize(trace.envelope, chain, 1, mode="search")
        assert result.region_at(1) == trace.regions[1]


def test_reference_tie_break_is_load_bearing(monkeypatch):
    """A one-line change to the reference's table tie-break must show: grid
    segments all share one length, so ordering ties by descending id
    reorders every RGE table and the envelopes part ways."""
    network = grid_network(7, 7)
    snapshot = PopulationSnapshot.from_counts(
        {sid: 1 for sid in network.segment_ids()}
    )
    profile = PrivacyProfile.uniform(
        levels=2, base_k=10, k_step=14, base_l=3, l_step=1, max_segments=60
    )
    chain = KeyChain.from_passphrases(["tie-1", "tie-2"])
    algorithm = ReversibleGlobalExpansion()
    engine_envelope = ReverseCloakEngine(network).anonymize(
        40, snapshot, profile, chain
    )
    assert engine_envelope == reference.anonymize(
        network, algorithm, 40, snapshot, profile, chain
    ).envelope
    monkeypatch.setattr(
        reference,
        "_length_order",
        lambda net, segments: sorted(
            segments, key=lambda sid: (net.segment_length(sid), -sid)
        ),
    )
    assert engine_envelope != reference.anonymize(
        network, algorithm, 40, snapshot, profile, chain
    ).envelope
