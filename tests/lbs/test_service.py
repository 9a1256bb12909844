"""Tests for :class:`~repro.lbs.service.AnonymizerService` — the serving
facade: cloaking, the server-side deanonymize endpoint, the raw-document
and the raw-document ``handle`` entry point."""

import json
import threading

import pytest

from repro import (
    KeyChain,
    PrivacyProfile,
    ReverseCloakEngine,
    ReversiblePreassignmentExpansion,
)
from repro.core import LevelRequirement, PrivacyProfile as CoreProfile, ToleranceSpec
from repro.errors import (
    DeadlineExceededError,
    MobilityError,
    OverloadedError,
    ProfileError,
    ReverseCloakError,
    ToleranceExceededError,
)
from repro.lbs import (
    AnonymizerService,
    BatchOutcomeDoc,
    CloakRequest,
    CloakRequestDoc,
    DeanonymizeBatchDoc,
    DeanonymizeRequestDoc,
    OutcomeDoc,
    ReversalEngineCache,
)
from repro.lbs.wire import (
    CLOAK_REQUEST_FORMAT,
    DEANONYMIZE_REQUEST_FORMAT,
    MALFORMED_DOCUMENT,
    STATS_FORMAT,
    STATS_REQUEST_FORMAT,
    WIRE_VERSION,
)


@pytest.fixture(scope="module")
def profile():
    return PrivacyProfile.uniform(
        levels=2, base_k=3, k_step=3, base_l=2, l_step=1, max_segments=60
    )


@pytest.fixture()
def service(grid10, traffic_snapshot):
    service = AnonymizerService(grid10)
    service.update_snapshot(traffic_snapshot)
    return service


def _handle_reference(service, document):
    """The answer to one wire document, served without the lanes.

    The parity oracle of ``handle_batch``: parse the document, then call
    the service's typed single calls (``cloak_segment`` for a resolved
    segment, ``cloak`` otherwise, ``deanonymize`` for a peel) and turn the
    result or the typed error into an outcome document. Every other
    format goes to ``service.handle``.
    """
    kind = document.get("format") if isinstance(document, dict) else None
    try:
        if kind == CLOAK_REQUEST_FORMAT:
            doc = CloakRequestDoc.from_dict(document)
            if doc.user_segment is not None:
                envelope = service.cloak_segment(
                    doc.user_segment,
                    doc.profile,
                    doc.chain,
                    deadline_ms=doc.deadline_ms,
                )
            else:
                envelope = service.cloak(doc.to_request())
            return OutcomeDoc.from_envelope(envelope).to_dict()
        if kind == DEANONYMIZE_REQUEST_FORMAT:
            doc = DeanonymizeRequestDoc.from_dict(document)
            result = service.deanonymize(
                doc.envelope, doc.key_map(), doc.target_level, mode=doc.mode
            )
            return OutcomeDoc.from_result(result).to_dict()
    except ReverseCloakError as exc:
        return OutcomeDoc.from_exception(exc).to_dict()
    return service.handle(document)


def _request(snapshot, profile, index=0, tag="svc"):
    user_id = snapshot.users()[index]
    return CloakRequest(
        user_id=user_id,
        profile=profile,
        chain=KeyChain.from_passphrases([f"{tag}-1", f"{tag}-2"]),
    )


class TestCloaking:
    def test_serves_request_and_counts(self, service, traffic_snapshot, profile):
        request = _request(traffic_snapshot, profile)
        envelope = service.cloak(request)
        assert traffic_snapshot.segment_of(request.user_id) in envelope.region
        assert service.requests_served == 1
        assert service.failures == 0

    def test_no_snapshot_rejected(self, grid10, profile):
        bare = AnonymizerService(grid10)
        with pytest.raises(MobilityError):
            bare.cloak(
                CloakRequest(
                    user_id=0,
                    profile=profile,
                    chain=KeyChain.from_passphrases(["x1", "x2"]),
                )
            )
        with pytest.raises(MobilityError):
            bare.cloak_batch([_request_stub(profile)])

    def test_failures_counted(self, service, traffic_snapshot):
        impossible = CoreProfile(
            [LevelRequirement(k=10_000, l=2, tolerance=ToleranceSpec(max_segments=5))]
        )
        with pytest.raises(ToleranceExceededError):
            service.cloak(
                CloakRequest(
                    user_id=traffic_snapshot.users()[0],
                    profile=impossible,
                    chain=KeyChain.from_passphrases(["f1"]),
                )
            )
        assert service.failures == 1

    def test_cloak_segment(self, service, profile):
        chain = KeyChain.from_passphrases(["seg-1", "seg-2"])
        envelope = service.cloak_segment(50, profile, chain)
        assert 50 in envelope.region

    def test_unknown_user_rejected(self, service, profile):
        with pytest.raises(MobilityError):
            service.cloak(
                CloakRequest(
                    user_id=10_000,
                    profile=profile,
                    chain=KeyChain.from_passphrases(["s1", "s2"]),
                )
            )
        assert service.failures == 0  # a missing user is not a cloaking failure

    def test_snapshot_updates_change_results(self, grid10, profile):
        from repro.mobility import PopulationSnapshot

        service = AnonymizerService(grid10)
        chain = KeyChain.from_passphrases(["s1", "s2"])
        dense = PopulationSnapshot.from_counts(
            {segment_id: 5 for segment_id in grid10.segment_ids()}
        )
        sparse = PopulationSnapshot.from_counts(
            {segment_id: 1 for segment_id in grid10.segment_ids()}
        )
        service.update_snapshot(dense)
        envelope_dense = service.cloak_segment(50, profile, chain)
        service.update_snapshot(sparse)
        envelope_sparse = service.cloak_segment(50, profile, chain)
        # fewer users per segment -> the same k needs a larger region
        assert len(envelope_sparse.region) > len(envelope_dense.region)


def _request_stub(profile):
    return CloakRequest(
        user_id=0, profile=profile, chain=KeyChain.from_passphrases(["a", "b"])
    )


class TestDeanonymizeEndpoint:
    def test_multi_level_peel(self, service, traffic_snapshot, profile):
        request = _request(traffic_snapshot, profile, tag="peel")
        envelope = service.cloak(request)
        user_segment = traffic_snapshot.segment_of(request.user_id)
        result = service.deanonymize(envelope, request.chain, target_level=0)
        assert result.region_at(0) == (user_segment,)
        assert service.reversals_served == 1
        partial = service.deanonymize(
            envelope, request.chain.suffix(2), target_level=1
        )
        assert set(partial.region_at(1)) < set(envelope.region)

    def test_matches_direct_engine(self, service, traffic_snapshot, profile):
        request = _request(traffic_snapshot, profile, tag="eq")
        envelope = service.cloak(request)
        direct = ReverseCloakEngine(service.network).deanonymize(
            envelope, request.chain, target_level=0
        )
        via_service = service.deanonymize(envelope, request.chain, target_level=0)
        assert via_service.regions == direct.regions
        assert via_service.removed == direct.removed

    def test_foreign_algorithm_envelope(self, grid10, traffic_snapshot, profile):
        # A service configured for RGE must still reverse an RPLE envelope:
        # the reversal engine comes from the envelope's own metadata.
        rple = ReversiblePreassignmentExpansion.for_network(grid10)
        producer = AnonymizerService(grid10, rple)
        producer.update_snapshot(traffic_snapshot)
        request = _request(traffic_snapshot, profile, tag="foreign")
        envelope = producer.cloak(request)
        consumer = AnonymizerService(grid10)
        consumer.update_snapshot(traffic_snapshot)
        result = consumer.deanonymize(envelope, request.chain, target_level=0)
        assert result.region_at(0) == (
            traffic_snapshot.segment_of(request.user_id),
        )
        # The per-spec reversal engine is cached across calls.
        assert consumer._reversal_engine(envelope) is consumer._reversal_engine(
            envelope
        )


class TestDeanonymizeBatchEndpoint:
    def test_matches_sequential_deanonymize(
        self, service, traffic_snapshot, profile
    ):
        requests = []
        for index in range(4):
            request = _request(traffic_snapshot, profile, index, tag=f"db{index}")
            envelope = service.cloak(request)
            requests.append(
                DeanonymizeRequestDoc(
                    envelope=envelope, keys=tuple(request.chain), target_level=0
                )
            )
        expected = [
            service.deanonymize(r.envelope, r.key_map(), 0) for r in requests
        ]
        outcomes = service.deanonymize_batch(requests)
        assert all(o.ok for o in outcomes)
        assert [o.result.regions for o in outcomes] == [
            e.regions for e in expected
        ]
        assert [o.result.removed for o in outcomes] == [
            e.removed for e in expected
        ]

    def test_empty_batch(self, service):
        assert service.deanonymize_batch([]) == []


class TestReversalEngineCacheLRU:
    """Regression for the unbounded `_reversal_engines` dict: envelope
    algorithm metadata is attacker input on the wire endpoint, so churning
    params must evict old engines, not accumulate them."""

    class _Envelope:
        """The two fields engine resolution reads (RGE ignores params, so
        churning them makes distinct cache keys without expensive builds)."""

        def __init__(self, params):
            self.algorithm = "rge"
            self.algorithm_params = params

    def test_eviction_and_reuse(self, grid6):
        cache = ReversalEngineCache(grid6, cap=4)
        first = self._Envelope({"churn": 0})
        engine_zero = cache.engine_for(first)
        assert cache.engine_for(first) is engine_zero  # cached, not rebuilt
        for index in range(1, 10):
            cache.engine_for(self._Envelope({"churn": index}))
        assert len(cache) == 4  # bounded: eviction happened
        # Entry 0 was evicted — a fresh engine object comes back...
        assert cache.engine_for(first) is not engine_zero
        # ...while the most recent entries survived and are reused.
        recent = self._Envelope({"churn": 9})
        assert cache.engine_for(recent) is cache.engine_for(recent)

    def test_lru_order_refreshes_on_hit(self, grid6):
        cache = ReversalEngineCache(grid6, cap=2)
        hot = self._Envelope({"w": "hot"})
        hot_engine = cache.engine_for(hot)
        cache.engine_for(self._Envelope({"w": "b"}))
        cache.engine_for(hot)  # refresh: hot becomes most recent
        cache.engine_for(self._Envelope({"w": "c"}))  # evicts b, not hot
        assert cache.engine_for(hot) is hot_engine

    def test_service_reversal_cache_is_bounded(
        self, service, traffic_snapshot, profile
    ):
        for index in range(40):
            service._reversal_engine(self._Envelope({"i": index}))
        assert len(service._reversal_engines) <= 32
        # The service's own algorithm spec bypasses the LRU entirely.
        request = _request(traffic_snapshot, profile, tag="lru")
        envelope = service.cloak(request)
        assert service._reversal_engine(envelope) is service.engine


class TestReversalCounters:
    """Regression: reversal failures used to increment nothing, and
    `handle` converted them to outcome docs leaving no trace at all."""

    def test_direct_deanonymize_failure_counts(
        self, service, traffic_snapshot, profile
    ):
        request = _request(traffic_snapshot, profile, tag="cnt")
        envelope = service.cloak(request)
        wrong = KeyChain.from_passphrases(["bad-1", "bad-2"])
        with pytest.raises(Exception):
            service.deanonymize(envelope, wrong, target_level=0)
        assert service.reversal_failures == 1
        assert service.failures == 1
        assert service.reversals_served == 0

    def test_handle_reversal_failure_leaves_a_trace(
        self, service, traffic_snapshot, profile
    ):
        request = _request(traffic_snapshot, profile, tag="hcnt")
        envelope = service.cloak(request)
        wrong = KeyChain.from_passphrases(["worse-1", "worse-2"])
        document = DeanonymizeRequestDoc(
            envelope=envelope, keys=tuple(wrong), target_level=0
        ).to_dict()
        outcome = OutcomeDoc.from_dict(service.handle(document))
        assert not outcome.ok
        assert service.reversal_failures == 1
        assert service.failures == 1
        assert service.reversals_served == 0
        # A successful reversal through handle still counts as served.
        good = DeanonymizeRequestDoc(
            envelope=envelope, keys=tuple(request.chain), target_level=0
        ).to_dict()
        assert OutcomeDoc.from_dict(service.handle(good)).ok
        assert service.reversals_served == 1
        assert service.failures == 1

    def test_batch_counters_split_success_and_failure(
        self, service, traffic_snapshot, profile
    ):
        request = _request(traffic_snapshot, profile, tag="bcnt")
        envelope = service.cloak(request)
        wrong = KeyChain.from_passphrases(["nope-1", "nope-2"])
        batch = [
            DeanonymizeRequestDoc(
                envelope=envelope, keys=tuple(request.chain), target_level=0
            ),
            DeanonymizeRequestDoc(
                envelope=envelope, keys=tuple(wrong), target_level=0
            ),
            DeanonymizeRequestDoc(
                envelope=envelope, keys=tuple(request.chain), target_level=1
            ),
        ]
        outcomes = service.deanonymize_batch(batch)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert service.reversals_served == 2
        assert service.reversal_failures == 1
        assert service.failures == 1
        # Cloak-side failures keep accumulating into the same total.
        impossible = CoreProfile(
            [LevelRequirement(k=10_000, l=2, tolerance=ToleranceSpec(max_segments=5))]
        )
        with pytest.raises(ToleranceExceededError):
            service.cloak(
                CloakRequest(
                    user_id=traffic_snapshot.users()[0],
                    profile=impossible,
                    chain=KeyChain.from_passphrases(["c1"]),
                )
            )
        assert service.failures == 2
        assert service.reversal_failures == 1


class TestHandle:
    def test_cloak_document_round_trip(self, service, traffic_snapshot, profile):
        request = _request(traffic_snapshot, profile, tag="doc")
        expected = service.cloak(request)
        outcome = OutcomeDoc.from_dict(
            service.handle(CloakRequestDoc.from_request(request).to_dict())
        )
        assert outcome.ok
        assert outcome.envelope.to_json() == expected.to_json()

    def test_resolved_segment_document(self, service, profile):
        chain = KeyChain.from_passphrases(["rs-1", "rs-2"])
        document = CloakRequestDoc(
            user_id=999_999, profile=profile, chain=chain, user_segment=50
        ).to_dict()
        outcome = OutcomeDoc.from_dict(service.handle(document))
        assert outcome.ok
        assert 50 in outcome.envelope.region

    def test_deanonymize_document(self, service, traffic_snapshot, profile):
        request = _request(traffic_snapshot, profile, tag="dd")
        envelope = service.cloak(request)
        document = DeanonymizeRequestDoc(
            envelope=envelope, keys=tuple(request.chain), target_level=0
        ).to_dict()
        outcome = OutcomeDoc.from_dict(service.handle(document))
        assert outcome.ok
        assert outcome.result.region_at(0) == (
            traffic_snapshot.segment_of(request.user_id),
        )

    def test_deanonymize_batch_document(self, service, traffic_snapshot, profile):
        request = _request(traffic_snapshot, profile, tag="bd")
        envelope = service.cloak(request)
        wrong = KeyChain.from_passphrases(["bw-1", "bw-2"])
        batch = DeanonymizeBatchDoc(
            items=(
                DeanonymizeRequestDoc(
                    envelope=envelope, keys=tuple(request.chain), target_level=0
                ),
                DeanonymizeRequestDoc(
                    envelope=envelope, keys=tuple(wrong), target_level=0
                ),
            )
        )
        reply = BatchOutcomeDoc.from_dict(service.handle(batch.to_dict()))
        assert len(reply.outcomes) == 2
        assert reply.outcomes[0].ok
        assert reply.outcomes[0].result.region_at(0) == (
            traffic_snapshot.segment_of(request.user_id),
        )
        assert not reply.outcomes[1].ok
        assert reply.outcomes[1].error_code == "key_mismatch"
        assert not reply.ok
        # The whole exchange survives a JSON transport.
        json_reply = BatchOutcomeDoc.from_json(
            service.handle_json(batch.to_json())
        )
        assert json_reply.to_json() == reply.to_json()

    def test_serving_failure_becomes_structured_error(
        self, service, traffic_snapshot
    ):
        impossible = CoreProfile(
            [LevelRequirement(k=10_000, l=2, tolerance=ToleranceSpec(max_segments=5))]
        )
        document = CloakRequestDoc(
            user_id=traffic_snapshot.users()[0],
            profile=impossible,
            chain=KeyChain.from_passphrases(["h1"]),
        ).to_dict()
        outcome = OutcomeDoc.from_dict(service.handle(document))
        assert not outcome.ok
        assert outcome.error_code == "tolerance_exceeded"
        assert isinstance(outcome.to_exception(), ToleranceExceededError)

    @pytest.mark.parametrize(
        "document",
        [
            {"format": "repro.cloak_request", "version": 1},  # missing fields
            {"format": "what.is.this", "version": 1},
            {"no": "format"},
            "not even a dict",
        ],
    )
    def test_malformed_documents_become_structured_errors(self, service, document):
        outcome = OutcomeDoc.from_dict(service.handle(document))
        assert not outcome.ok
        assert outcome.error_code == MALFORMED_DOCUMENT

    def test_handle_json(self, service, traffic_snapshot, profile):
        request = _request(traffic_snapshot, profile, tag="hj")
        payload = CloakRequestDoc.from_request(request).to_json()
        outcome = OutcomeDoc.from_json(service.handle_json(payload))
        assert outcome.ok
        bad = OutcomeDoc.from_json(service.handle_json("{broken"))
        assert bad.error_code == MALFORMED_DOCUMENT


class TestAdmissionControl:
    """Load shedding: a bounded in-flight budget rejects excess work up
    front with the structured ``overloaded`` code — backpressure, not a
    serving failure."""

    def _service(self, grid10, traffic_snapshot, max_inflight):
        service = AnonymizerService(grid10, max_inflight=max_inflight)
        service.update_snapshot(traffic_snapshot)
        return service

    def test_invalid_budget_rejected(self, grid10):
        with pytest.raises(ProfileError):
            AnonymizerService(grid10, max_inflight=0)

    def test_unbounded_by_default(self, service):
        assert service.max_inflight is None
        assert service.inflight == 0
        assert service.requests_shed == 0

    def test_oversized_batch_shed_all_or_nothing(
        self, grid10, traffic_snapshot, profile
    ):
        service = self._service(grid10, traffic_snapshot, max_inflight=2)
        requests = [
            _request(traffic_snapshot, profile, index, tag=f"sh{index}")
            for index in range(3)
        ]
        with pytest.raises(OverloadedError, match="in-flight budget"):
            service.cloak_batch(requests)
        # Nothing executed, nothing leaked: the batch was rejected at the
        # door, the budget is free again, and shedding is not a failure.
        assert service.requests_served == 0
        assert service.failures == 0
        assert service.requests_shed == 3
        assert service.inflight == 0
        # A batch that fits still serves.
        assert all(o.ok for o in service.cloak_batch(requests[:2]))
        assert service.requests_served == 2

    def test_concurrent_load_beyond_budget_is_shed(
        self, grid10, traffic_snapshot, profile
    ):
        service = self._service(grid10, traffic_snapshot, max_inflight=1)
        release = threading.Event()
        entered = threading.Event()
        original = service.engine.anonymize

        def slow_anonymize(*args, **kwargs):
            entered.set()
            release.wait(timeout=10)
            return original(*args, **kwargs)

        service._engine.anonymize = slow_anonymize
        holder = threading.Thread(
            target=service.cloak, args=(_request(traffic_snapshot, profile),)
        )
        holder.start()
        try:
            assert entered.wait(timeout=10)
            assert service.inflight == 1
            with pytest.raises(OverloadedError):
                service.cloak(_request(traffic_snapshot, profile, 1, tag="c2"))
            assert service.requests_shed == 1
        finally:
            release.set()
            holder.join(timeout=10)
        assert service.inflight == 0
        assert service.requests_served == 1

    def test_handle_returns_structured_overloaded_outcome(
        self, grid10, traffic_snapshot, profile
    ):
        service = self._service(grid10, traffic_snapshot, max_inflight=1)
        envelope = service.cloak(_request(traffic_snapshot, profile, tag="ho"))
        batch = DeanonymizeBatchDoc(
            items=(
                DeanonymizeRequestDoc(
                    envelope=envelope,
                    keys=tuple(
                        KeyChain.from_passphrases(["ho-1", "ho-2"])
                    ),
                    target_level=0,
                ),
            )
            * 2
        )
        reply = service.handle(batch.to_dict())
        outcome = OutcomeDoc.from_dict(reply)
        assert not outcome.ok
        assert outcome.error_code == "overloaded"
        assert isinstance(outcome.to_exception(), OverloadedError)
        assert service.requests_shed == 2

    def test_reversal_batches_share_the_budget(
        self, grid10, traffic_snapshot, profile
    ):
        service = self._service(grid10, traffic_snapshot, max_inflight=2)
        request = _request(traffic_snapshot, profile, tag="rb")
        envelope = service.cloak(request)
        item = DeanonymizeRequestDoc(
            envelope=envelope, keys=tuple(request.chain), target_level=0
        )
        with pytest.raises(OverloadedError):
            service.deanonymize_batch([item, item, item])
        assert service.requests_shed == 3
        assert all(o.ok for o in service.deanonymize_batch([item, item]))


class TestServiceDeadlines:
    """Cooperative deadlines on the serving facade and the wire path."""

    def test_cloak_segment_honors_deadline(self, service, profile):
        chain = KeyChain.from_passphrases(["ddl-1", "ddl-2"])
        with pytest.raises(DeadlineExceededError):
            service.cloak_segment(50, profile, chain, deadline_ms=0.0)
        assert service.failures == 1
        # Without a deadline (or with a generous one) nothing changes.
        assert 50 in service.cloak_segment(50, profile, chain).region
        assert (
            50
            in service.cloak_segment(
                50, profile, chain, deadline_ms=60_000.0
            ).region
        )

    def test_handle_surfaces_deadline_exceeded_outcome(
        self, service, traffic_snapshot, profile
    ):
        request = _request(traffic_snapshot, profile, tag="hd")
        document = CloakRequestDoc.from_request(request).to_dict()
        document["deadline_ms"] = 0.0
        peel = DeanonymizeRequestDoc(
            envelope=service.cloak(request),
            keys=tuple(request.chain),
            target_level=0,
            deadline_ms=0.0,
        ).to_dict()
        for sent in (document, peel):
            outcome = OutcomeDoc.from_dict(service.handle(sent))
            assert not outcome.ok
            assert outcome.error_code == "deadline_exceeded"
            assert isinstance(outcome.to_exception(), DeadlineExceededError)

    def test_batch_deadline_is_a_default_not_a_cap(
        self, service, traffic_snapshot, profile
    ):
        # The batch-level deadline applies to items without their own;
        # an item's explicit (generous) deadline wins over the expired
        # batch default.
        request = _request(traffic_snapshot, profile, tag="bdl")
        envelope = service.cloak(request)
        defaulted = DeanonymizeRequestDoc(
            envelope=envelope, keys=tuple(request.chain), target_level=0
        )
        explicit = DeanonymizeRequestDoc(
            envelope=envelope,
            keys=tuple(request.chain),
            target_level=0,
            deadline_ms=60_000.0,
        )
        batch = DeanonymizeBatchDoc(
            items=(defaulted, explicit), deadline_ms=0.0
        )
        reply = BatchOutcomeDoc.from_dict(service.handle(batch.to_dict()))
        assert [o.ok for o in reply.outcomes] == [False, True]
        assert reply.outcomes[0].error_code == "deadline_exceeded"


class TestStats:
    """The ``stats()`` snapshot and its ``repro.stats_request`` wire form."""

    def test_counters_snapshot(self, service, traffic_snapshot, profile):
        request = _request(traffic_snapshot, profile, tag="st")
        envelope = service.cloak(request)
        service.deanonymize(
            envelope, {key.level: key for key in request.chain}, 0
        )
        with pytest.raises(MobilityError):
            service.cloak(
                CloakRequest(
                    user_id=10_000,
                    profile=profile,
                    chain=KeyChain.from_passphrases(["st-x1", "st-x2"]),
                )
            )
        stats = service.stats()
        assert stats == {
            "requests_served": 1,
            "failures": 0,  # a MobilityError is not a cloaking failure
            "reversals_served": 1,
            "reversal_failures": 0,
            "requests_shed": 0,
            "inflight": 0,
            "worker_restarts": 0,
            "inline_fallbacks": 0,
        }

    def test_stats_request_format(self, service, traffic_snapshot, profile):
        service.handle(
            CloakRequestDoc.from_request(
                _request(traffic_snapshot, profile, tag="stw")
            ).to_dict()
        )
        reply = service.handle(
            {"format": STATS_REQUEST_FORMAT, "version": WIRE_VERSION}
        )
        assert reply["format"] == STATS_FORMAT
        assert reply["version"] == WIRE_VERSION
        assert reply["status"] == "ok"
        assert reply["counters"] == service.stats()
        assert reply["counters"]["requests_served"] == 1

    def test_stats_request_version_mismatch(self, service):
        outcome = OutcomeDoc.from_dict(
            service.handle({"format": STATS_REQUEST_FORMAT, "version": 99})
        )
        assert outcome.error_code == MALFORMED_DOCUMENT
        assert "version" in outcome.error_message

    def test_backend_counters_surface(self, grid10, traffic_snapshot, profile):
        from repro.lbs import ProcessPoolBackend

        with ProcessPoolBackend(2, start_method="fork") as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            stats = service.stats()
            assert stats["worker_restarts"] == 0
            assert stats["inline_fallbacks"] == 0


class TestUnknownFormatDiagnostics:
    """Satellite regression: the unknown-format error names the offending
    top-level key(s) instead of a bare ``malformed_document``."""

    def test_missing_format_key_lists_top_level_keys(self, service):
        outcome = OutcomeDoc.from_dict(
            service.handle({"fromat": "repro.cloak_request", "version": 1})
        )
        assert outcome.error_code == MALFORMED_DOCUMENT
        assert "no 'format' key" in outcome.error_message
        assert "'fromat'" in outcome.error_message
        assert "'version'" in outcome.error_message

    def test_unknown_format_value_is_quoted(self, service):
        outcome = OutcomeDoc.from_dict(
            service.handle({"format": "what.is.this", "version": 1})
        )
        assert outcome.error_code == MALFORMED_DOCUMENT
        assert "'what.is.this'" in outcome.error_message

    def test_non_dict_reports_received_type(self, service):
        outcome = OutcomeDoc.from_dict(service.handle(["not", "a", "dict"]))
        assert outcome.error_code == MALFORMED_DOCUMENT
        assert "list" in outcome.error_message

    def test_valid_documents_unchanged(
        self, grid10, service, traffic_snapshot, profile
    ):
        # The fix must not disturb the wire form of valid traffic.
        request = _request(traffic_snapshot, profile, tag="ufd")
        document = CloakRequestDoc.from_request(request).to_dict()
        direct = AnonymizerService(grid10)
        direct.update_snapshot(traffic_snapshot)
        assert service.handle_json(json.dumps(document)) == direct.handle_json(
            json.dumps(document)
        )


class TestHandleBatch:
    """``handle_batch``: positional transport batching over ``handle``."""

    def test_equivalent_to_per_document_handle(
        self, grid10, traffic_snapshot, profile
    ):
        producer = AnonymizerService(grid10)
        producer.update_snapshot(traffic_snapshot)
        peel_request = _request(traffic_snapshot, profile, index=5, tag="hb")
        envelope = producer.cloak(peel_request)
        reference = AnonymizerService(grid10)
        reference.update_snapshot(traffic_snapshot)
        batched = AnonymizerService(grid10)
        batched.update_snapshot(traffic_snapshot)
        documents = [
            CloakRequestDoc.from_request(
                _request(traffic_snapshot, profile, index=i, tag="hb")
            ).to_dict()
            for i in range(3)
        ]
        documents.append(
            DeanonymizeRequestDoc(
                envelope=envelope,
                keys=tuple(peel_request.chain),
                target_level=0,
            ).to_dict()
        )
        documents.append({"format": "what.is.this"})  # unknown stays per-doc
        documents.append(
            dict(documents[0], user_id=10_000)
        )  # unknown user fails in place
        expected = [
            json.dumps(_handle_reference(reference, doc), sort_keys=True)
            for doc in documents
        ]
        outcomes = batched.handle_batch(documents)
        assert [
            json.dumps(outcome, sort_keys=True) for outcome in outcomes
        ] == expected
        assert batched.requests_served == reference.requests_served
        assert batched.failures == reference.failures
        assert batched.reversals_served == reference.reversals_served

    def test_empty_batch(self, service):
        assert service.handle_batch([]) == []

    @pytest.mark.parametrize("installed", [True, False], ids=["snapshot", "none"])
    @pytest.mark.parametrize("backend_kind", ["inline", "process"])
    def test_malformed_items_answer_in_place(
        self, grid10, traffic_snapshot, profile, backend_kind, installed
    ):
        """A malformed cloak or peel document inside a coalesced batch
        answers as malformed — never demoted to unknown-user, nor to the
        lane-wide ``mobility_unavailable`` of a service without a
        snapshot — and counts nothing, byte-identical to the document
        served alone through the typed single calls. Runs on both the
        inline backend and the process pool (whose fast path defers
        parsing to the worker shards)."""
        producer = AnonymizerService(grid10)
        producer.update_snapshot(traffic_snapshot)
        peel_request = _request(traffic_snapshot, profile, index=5, tag="hbm")
        envelope = producer.cloak(peel_request)
        good_cloak = CloakRequestDoc.from_request(
            _request(traffic_snapshot, profile, index=1, tag="hbm")
        ).to_dict()
        good_peel = DeanonymizeRequestDoc(
            envelope=envelope,
            keys=tuple(peel_request.chain),
            target_level=0,
        ).to_dict()
        documents = [
            good_cloak,
            # Valid user id, junk profile: ships to the shard, whose
            # parse must answer in place without poisoning the chunk.
            dict(good_cloak, profile={"levels": "nope"}),
            # Non-integer user id: malformed must beat unknown-user.
            dict(good_cloak, user_id="not-an-int"),
            good_peel,
            dict(good_peel, keys="not-a-list"),
            dict(good_cloak, user_id=10_000),  # unknown user, in place
            # A string id that parses to a known user: valid, but off the
            # literal-int fast path, so resolved after a parent-side parse.
            dict(good_cloak, user_id=str(good_cloak["user_id"])),
            # Deadlines the pool reads before anything parses them: a
            # numeric string (valid, coerced by the parser) and junk.
            dict(good_peel, deadline_ms="60000"),
            dict(good_peel, deadline_ms="soon"),
        ]
        reference = AnonymizerService(grid10)
        if installed:
            reference.update_snapshot(traffic_snapshot)
        expected = [
            json.dumps(_handle_reference(reference, doc), sort_keys=True)
            for doc in documents
        ]

        def run(batched):
            if installed:
                batched.update_snapshot(traffic_snapshot)
            outcomes = batched.handle_batch(documents)
            assert [
                json.dumps(outcome, sort_keys=True) for outcome in outcomes
            ] == expected
            for key in (
                "requests_served",
                "failures",
                "reversals_served",
                "reversal_failures",
            ):
                assert batched.stats()[key] == reference.stats()[key], key

        if backend_kind == "process":
            from repro.lbs import ProcessPoolBackend

            with ProcessPoolBackend(2, start_method="fork") as backend:
                run(AnonymizerService(grid10, backend=backend))
        else:
            run(AnonymizerService(grid10))

    def test_shed_batch_answers_every_position(
        self, grid10, traffic_snapshot, profile
    ):
        service = AnonymizerService(grid10, max_inflight=1)
        service.update_snapshot(traffic_snapshot)
        documents = [
            CloakRequestDoc.from_request(
                _request(traffic_snapshot, profile, index=i, tag="shb")
            ).to_dict()
            for i in range(3)
        ]
        # Documents that do not parse answer as malformed, as they would
        # alone, and are not counted as shed.
        bad = {"format": CLOAK_REQUEST_FORMAT, "version": 1, "user_id": "x"}
        documents[1:1] = [bad, bad]
        outcomes = service.handle_batch(documents)
        assert len(outcomes) == 5
        codes = [outcome["error"]["code"] for outcome in outcomes]
        assert codes == [
            "overloaded",
            MALFORMED_DOCUMENT,
            MALFORMED_DOCUMENT,
            "overloaded",
            "overloaded",
        ]
        assert service.requests_shed == 3
        # A lane of nothing but malformed documents sheds nothing.
        assert [
            outcome["error"]["code"] for outcome in service.handle_batch([bad, bad])
        ] == [MALFORMED_DOCUMENT] * 2
        assert service.requests_shed == 3
