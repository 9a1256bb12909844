"""Cross-component integration scenarios.

Each test drives several subsystems together the way the paper's deployment
does — simulator feeding the anonymizer, envelopes flowing to the provider,
keys flowing through access control, requesters reversing and querying.
Unit tests pin the parts; these pin the joints.
"""

import json

import pytest

from repro import (
    AccessControlProfile,
    CloakEnvelope,
    KeyChain,
    PrivacyProfile,
    Requester,
    ReverseCloakEngine,
    ReversiblePreassignmentExpansion,
    TrafficSimulator,
    grid_network,
    load_network_json,
    radial_network,
    save_network_json,
)
from repro.attacks import StructuralAdversary, segment_entropy
from repro.lbs import (
    AnonymizerService,
    CloakRequest,
    ContinuousCloaker,
    LBSProvider,
    PoiDirectory,
)
from repro.metrics import nesting_ratios, region_quality


class TestFullDeploymentScenario:
    """The paper's Section IV story, end to end, on both algorithms."""

    @pytest.fixture(params=["rge", "rple"])
    def deployment(self, request):
        network = grid_network(12, 12)
        simulator = TrafficSimulator(network, n_cars=700, seed=101)
        simulator.run(3)
        algorithm = (
            None
            if request.param == "rge"
            else ReversiblePreassignmentExpansion.for_network(network)
        )
        anonymizer = AnonymizerService(network, algorithm)
        anonymizer.update_snapshot(simulator.snapshot())
        provider = LBSProvider(PoiDirectory(network, count=250, seed=9))
        return network, simulator, anonymizer, provider

    def test_owner_to_requester_flow(self, deployment):
        network, simulator, anonymizer, provider = deployment
        snapshot = simulator.snapshot()
        owner = snapshot.users()[12]
        profile = PrivacyProfile.uniform(
            levels=3, base_k=5, k_step=5, base_l=3, l_step=2, max_segments=70
        )
        chain = KeyChain.generate(3)

        # 1. owner cloaks and uploads
        envelope = anonymizer.cloak(
            CloakRequest(user_id=owner, profile=profile, chain=chain)
        )
        provider.upload("owner", envelope)

        # 2. owner configures access control
        acl = AccessControlProfile(chain, {2: 10, 1: 40, 0: 80})
        acl.register(Requester("stranger", 0))
        acl.register(Requester("friend", 50))
        acl.register(Requester("spouse", 99))

        # 3. requesters fetch + reverse per their grants
        stored = provider.envelope_of("owner")
        # serialization boundary: the provider ships JSON
        shipped = CloakEnvelope.from_json(stored.to_json())

        stranger_grant = acl.fetch_keys("stranger")
        assert stranger_grant.keys == ()
        assert provider.visible_region("owner") == shipped.region

        friend_engine = ReverseCloakEngine.for_envelope(network, shipped)
        friend_grant = acl.fetch_keys("friend")
        friend_view = friend_engine.deanonymize(
            shipped,
            {key.level: key for key in friend_grant.keys},
            target_level=friend_grant.access_level,
        )
        assert friend_grant.access_level == 1
        assert set(friend_view.region_at(1)) < set(shipped.region)

        spouse_grant = acl.fetch_keys("spouse")
        spouse_view = friend_engine.deanonymize(
            shipped,
            {key.level: key for key in spouse_grant.keys},
            target_level=0,
        )
        assert spouse_view.region_at(0) == (snapshot.segment_of(owner),)

        # 4. queries get tighter with finer regions
        coarse = provider.serve_range_query("owner", radius=200.0)
        fine = provider.serve_range_query(
            "owner", radius=200.0, region_override=friend_view.region_at(1)
        )
        assert fine.candidate_count <= coarse.candidate_count

    def test_regions_nest_and_satisfy_profile(self, deployment):
        network, simulator, anonymizer, provider = deployment
        snapshot = simulator.snapshot()
        profile = PrivacyProfile.uniform(
            levels=3, base_k=4, k_step=4, base_l=3, l_step=1, max_segments=70
        )
        chain = KeyChain.generate(3)
        envelope = anonymizer.cloak(
            CloakRequest(user_id=snapshot.users()[3], profile=profile, chain=chain)
        )
        engine = ReverseCloakEngine.for_envelope(network, envelope)
        result = engine.deanonymize(envelope, chain, target_level=0)
        ratios = nesting_ratios(result.regions)
        assert all(0 < ratio <= 1 for ratio in ratios.values())
        for level in (1, 2, 3):
            quality = region_quality(
                network,
                set(result.regions[level]),
                snapshot,
                profile.requirement(level),
            )
            assert quality.meets(profile.requirement(level))


class TestMapPersistenceScenario:
    """Owner and requester load the same map from disk (the real workflow:
    a map file is distributed once, envelopes flow separately)."""

    def test_cloak_travels_across_processes(self, tmp_path):
        network = radial_network(5, 8)
        map_path = tmp_path / "city.json"
        save_network_json(network, map_path)

        # "anonymizer process"
        simulator = TrafficSimulator(network, n_cars=300, seed=77)
        simulator.run(2)
        snapshot = simulator.snapshot()
        profile = PrivacyProfile.uniform(
            levels=2, base_k=4, k_step=4, base_l=3, l_step=1, max_segments=40
        )
        chain = KeyChain.generate(2)
        engine = ReverseCloakEngine(network)
        user_segment = snapshot.occupied_segments()[0]
        envelope = engine.anonymize(user_segment, snapshot, profile, chain)
        (tmp_path / "envelope.json").write_text(envelope.to_json())
        (tmp_path / "keys.json").write_text(
            json.dumps({"levels": chain.to_hex_list()})
        )

        # "requester process": everything reloaded from disk
        loaded_network = load_network_json(map_path)
        loaded_envelope = CloakEnvelope.from_json(
            (tmp_path / "envelope.json").read_text()
        )
        loaded_chain = KeyChain.from_hex_list(
            json.loads((tmp_path / "keys.json").read_text())["levels"]
        )
        requester_engine = ReverseCloakEngine.for_envelope(
            loaded_network, loaded_envelope
        )
        result = requester_engine.deanonymize(
            loaded_envelope, loaded_chain, target_level=0
        )
        assert result.region_at(0) == (user_segment,)


class TestAdversaryIntegration:
    """Adversaries operate on real deployment artifacts, not synthetic ones."""

    def test_structural_adversary_vs_live_envelope(self):
        network = grid_network(10, 10)
        simulator = TrafficSimulator(network, n_cars=400, seed=23)
        simulator.run(2)
        snapshot = simulator.snapshot()
        profile = PrivacyProfile.uniform(
            levels=2, base_k=5, k_step=5, base_l=3, l_step=2, max_segments=50
        )
        chain = KeyChain.generate(2)
        engine = ReverseCloakEngine(network)
        user_segment = snapshot.occupied_segments()[4]
        envelope = engine.anonymize(user_segment, snapshot, profile, chain)

        adversary = StructuralAdversary(network, max_sequences=40_000)
        posterior = adversary.attack_envelope(envelope, target_level=0)
        # privacy floor: the keyless adversary's uncertainty stays within a
        # factor of the l-diversity design (many candidates remain)
        assert posterior.candidate_count >= 2
        assert posterior.probability_of({user_segment}) < 1.0
        # ... while the region's raw entropy matches its size
        assert segment_entropy(set(envelope.region)) > 2.0

    def test_continuous_cloaks_remain_individually_sound(self):
        """Every envelope in a continuous stream independently satisfies its
        profile and reverses exactly (the intersection weakness is *across*
        envelopes, never within one)."""
        network = grid_network(10, 10)
        simulator = TrafficSimulator(network, n_cars=400, seed=29)
        simulator.run(2)
        engine = ReverseCloakEngine(network)
        profile = PrivacyProfile.uniform(
            levels=2, base_k=5, k_step=3, base_l=3, l_step=1, max_segments=50
        )
        cloaker = ContinuousCloaker(engine, simulator, profile)
        timeline = cloaker.run(user_id=8, ticks=5, interval_seconds=5.0)
        for entry in timeline.successful_entries():
            assert entry.snapshot.count_in_region(
                set(entry.envelope.region)
            ) >= profile.requirement(2).k
            result = engine.deanonymize(entry.envelope, entry.chain, 0)
            assert result.region_at(0) == (entry.snapshot.segment_of(8),)
