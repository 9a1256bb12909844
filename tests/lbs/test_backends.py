"""Tests for the pluggable execution backends (:mod:`repro.lbs.backends`).

The contract under test: every backend serves byte-identical envelopes to
inline serving against the same (spec, snapshot, batch); expected serving
failures come back in place as typed outcomes; anything unexpected
propagates. ``ProcessPoolBackend`` additionally covers the wire-document
path and the snapshot token cache.

The multiprocessing start methods exercised come from the
``REPRO_TEST_START_METHODS`` environment variable (comma-separated;
default ``fork``) — CI runs a ``spawn`` entry so macOS/Windows semantics
are covered without paying spawn start-up on every local run.
"""

import json
import os

import pytest

from repro import (
    KeyChain,
    PopulationSnapshot,
    PrivacyProfile,
    ReversiblePreassignmentExpansion,
    grid_network,
)
from repro.core import LevelRequirement, PrivacyProfile as CoreProfile, ToleranceSpec
from repro.errors import (
    CloakingError,
    DeanonymizationError,
    EnvelopeError,
    KeyMismatchError,
    MobilityError,
    ToleranceExceededError,
)
from repro.lbs import (
    AnonymizerService,
    BackendSpec,
    BatchOutcome,
    CloakRequest,
    InlineBackend,
    ProcessPoolBackend,
)
from repro.lbs.wire import CloakRequestDoc, DeanonymizeRequestDoc, OutcomeDoc

START_METHODS = tuple(
    method.strip()
    for method in os.environ.get("REPRO_TEST_START_METHODS", "fork").split(",")
    if method.strip()
)


@pytest.fixture(scope="module")
def batch_profile():
    return PrivacyProfile.uniform(
        levels=2, base_k=3, k_step=3, base_l=2, l_step=1, max_segments=60
    )


def _requests(snapshot, profile, count, tag="u"):
    return [
        CloakRequest(
            user_id=user_id,
            profile=profile,
            chain=KeyChain.from_passphrases(
                [f"{tag}{user_id}-1", f"{tag}{user_id}-2"]
            ),
        )
        for user_id in snapshot.users()[:count]
    ]


def _backends():
    backends = [
        pytest.param(lambda: InlineBackend(), id="inline"),
    ]
    for method in START_METHODS:
        backends.append(
            pytest.param(
                lambda method=method: ProcessPoolBackend(2, start_method=method),
                id=f"process-2-{method}",
            )
        )
    return backends


class TestBackendEquivalence:
    @pytest.mark.parametrize("make_backend", _backends())
    def test_byte_identical_to_inline(
        self, grid10, traffic_snapshot, batch_profile, make_backend
    ):
        reference = AnonymizerService(grid10)
        reference.update_snapshot(traffic_snapshot)
        requests = _requests(traffic_snapshot, batch_profile, 8)
        expected = [reference.cloak(request).to_json() for request in requests]
        with make_backend() as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            outcomes = service.cloak_batch(requests)
            assert [o.request for o in outcomes] == requests
            assert all(o.ok and o.error is None for o in outcomes)
            assert [o.envelope.to_json() for o in outcomes] == expected
            # A second (warm) batch: the process backend now serves from
            # its cached snapshot token — results must not change.
            again = service.cloak_batch(requests)
            assert [o.envelope.to_json() for o in again] == expected
            service.close()

    @pytest.mark.parametrize("make_backend", _backends())
    def test_rple_engine_spec_crosses_backend(
        self, grid10, traffic_snapshot, batch_profile, make_backend
    ):
        algorithm = ReversiblePreassignmentExpansion.for_network(grid10)
        reference = AnonymizerService(grid10, algorithm)
        reference.update_snapshot(traffic_snapshot)
        requests = _requests(traffic_snapshot, batch_profile, 4, tag="r")
        expected = [reference.cloak(request).to_json() for request in requests]
        with make_backend() as backend:
            service = AnonymizerService(grid10, algorithm, backend=backend)
            service.update_snapshot(traffic_snapshot)
            outcomes = service.cloak_batch(requests)
            assert [o.envelope.to_json() for o in outcomes] == expected

    @pytest.mark.parametrize("make_backend", _backends())
    def test_failures_reported_in_place_with_typed_errors(
        self, grid10, traffic_snapshot, batch_profile, make_backend
    ):
        impossible = CoreProfile(
            [LevelRequirement(k=10_000, l=2, tolerance=ToleranceSpec(max_segments=5))]
        )
        good = _requests(traffic_snapshot, batch_profile, 4)
        bad = CloakRequest(
            user_id=traffic_snapshot.users()[0],
            profile=impossible,
            chain=KeyChain.from_passphrases(["bad1"]),
        )
        missing = CloakRequest(
            user_id=10_000,
            profile=batch_profile,
            chain=KeyChain.from_passphrases(["gone1", "gone2"]),
        )
        with make_backend() as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            outcomes = service.cloak_batch(good[:2] + [bad, missing] + good[2:])
            assert [o.ok for o in outcomes] == [True, True, False, False, True, True]
            assert isinstance(outcomes[2].error, ToleranceExceededError)
            assert isinstance(outcomes[3].error, MobilityError)
            # The typed union of BatchOutcome.error, across every backend.
            for outcome in outcomes:
                assert outcome.error is None or isinstance(
                    outcome.error, (CloakingError, MobilityError)
                )

    @pytest.mark.parametrize("make_backend", _backends())
    def test_off_map_segment_does_not_poison_its_lane(
        self, grid10, traffic_snapshot, batch_profile, make_backend
    ):
        # A pre-resolved segment the map does not have fails that document
        # alone; its coalesced neighbours are served as if it were absent.
        first, last = [
            CloakRequestDoc.from_request(request).to_dict()
            for request in _requests(traffic_snapshot, batch_profile, 2)
        ]
        off_map = dict(first, user_segment=10_000)
        lane = [first, off_map, last]
        with make_backend() as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            alone = [json.dumps(service.handle(doc), sort_keys=True) for doc in lane]
            together = service.handle_batch(lane)
            assert [json.dumps(reply, sort_keys=True) for reply in together] == alone
            assert [reply["status"] for reply in together] == ["ok", "error", "ok"]
            assert together[1]["error"]["code"] == "road_network_error"
            raw = backend.cloak_batch_raw(traffic_snapshot, lane)
            assert [json.dumps(reply, sort_keys=True) for reply in raw] == alone
            service.close()


def _reversal_fixture(network, snapshot, profile, count, tag="peel"):
    """(requests, producing service) — one reversal request per cloak."""
    producer = AnonymizerService(network)
    producer.update_snapshot(snapshot)
    requests = []
    for index, user_id in enumerate(snapshot.users()[:count]):
        chain = KeyChain.from_passphrases(
            [f"{tag}{index}-1", f"{tag}{index}-2"]
        )
        envelope = producer.cloak(
            CloakRequest(user_id=user_id, profile=profile, chain=chain)
        )
        requests.append(
            DeanonymizeRequestDoc(
                envelope=envelope, keys=tuple(chain), target_level=0
            )
        )
    return requests


def _canonical(outcomes):
    """The canonical wire form of reversal outcomes (sorted-key JSON) —
    byte-level equality across backends is asserted on exactly this."""
    return [
        OutcomeDoc.from_result(o.result).to_json()
        if o.ok
        else OutcomeDoc.from_exception(o.error).to_json()
        for o in outcomes
    ]


class TestReversalBackendEquivalence:
    """`deanonymize_batch` must be byte-identical across every backend —
    the reversal twin of the cloaking equivalence contract, including the
    process pool under both start methods."""

    @pytest.mark.parametrize("make_backend", _backends())
    @pytest.mark.parametrize("mode", ["hint", "search"])
    def test_byte_identical_to_sequential_service(
        self, grid10, traffic_snapshot, batch_profile, make_backend, mode
    ):
        base = _reversal_fixture(grid10, traffic_snapshot, batch_profile, 6)
        requests = [
            DeanonymizeRequestDoc(
                envelope=r.envelope,
                keys=r.keys,
                target_level=r.target_level,
                mode=mode,
            )
            for r in base
        ]
        reference = AnonymizerService(grid10)
        expected = [
            OutcomeDoc.from_result(
                reference.deanonymize(r.envelope, r.key_map(), 0, mode=mode)
            ).to_json()
            for r in requests
        ]
        with make_backend() as backend:
            service = AnonymizerService(grid10, backend=backend)
            outcomes = service.deanonymize_batch(requests)
            assert [o.request for o in outcomes] == requests
            assert all(o.ok and o.error is None for o in outcomes)
            assert _canonical(outcomes) == expected
            # A warm second batch must not change anything.
            assert _canonical(service.deanonymize_batch(requests)) == expected
        assert service.reversals_served == 12
        assert service.failures == 0

    @pytest.mark.parametrize("make_backend", _backends())
    def test_rple_envelopes_cross_every_backend(
        self, grid10, traffic_snapshot, batch_profile, make_backend
    ):
        # The serving backend is configured for RGE; the envelopes are
        # RPLE — reversal engines must come from envelope metadata on
        # every backend, including inside process-pool workers.
        algorithm = ReversiblePreassignmentExpansion.for_network(grid10)
        producer = AnonymizerService(grid10, algorithm)
        producer.update_snapshot(traffic_snapshot)
        requests = []
        for index, user_id in enumerate(traffic_snapshot.users()[:4]):
            chain = KeyChain.from_passphrases([f"rp{index}-1", f"rp{index}-2"])
            envelope = producer.cloak(
                CloakRequest(
                    user_id=user_id, profile=batch_profile, chain=chain
                )
            )
            requests.append(
                DeanonymizeRequestDoc(
                    envelope=envelope, keys=tuple(chain), target_level=0
                )
            )
        reference = AnonymizerService(grid10)
        expected = [
            OutcomeDoc.from_result(
                reference.deanonymize(r.envelope, r.key_map(), 0)
            ).to_json()
            for r in requests
        ]
        with make_backend() as backend:
            service = AnonymizerService(grid10, backend=backend)
            assert _canonical(service.deanonymize_batch(requests)) == expected

    @pytest.mark.parametrize("make_backend", _backends())
    def test_mixed_error_batches_keep_request_order(
        self, grid10, traffic_snapshot, batch_profile, make_backend
    ):
        good = _reversal_fixture(grid10, traffic_snapshot, batch_profile, 3)
        wrong_chain = KeyChain.from_passphrases(["wrong-1", "wrong-2"])
        wrong_key = DeanonymizeRequestDoc(
            envelope=good[0].envelope,
            keys=tuple(wrong_chain),
            target_level=0,
        )
        bad_level = DeanonymizeRequestDoc(
            envelope=good[1].envelope,
            keys=good[1].keys,
            target_level=7,
        )
        foreign_network = AnonymizerService(grid_network(4, 4))
        foreign_network.update_snapshot(
            PopulationSnapshot.from_counts(
                {sid: 3 for sid in grid_network(4, 4).segment_ids()}
            )
        )
        foreign_chain = KeyChain.from_passphrases(["fn-1", "fn-2"])
        foreign = DeanonymizeRequestDoc(
            envelope=foreign_network.cloak_segment(
                5, batch_profile, foreign_chain
            ),
            keys=tuple(foreign_chain),
            target_level=0,
        )
        batch = [good[0], wrong_key, bad_level, good[1], foreign, good[2]]
        with make_backend() as backend:
            service = AnonymizerService(grid10, backend=backend)
            outcomes = service.deanonymize_batch(batch)
        assert [o.request for o in outcomes] == batch
        assert [o.ok for o in outcomes] == [True, False, False, True, False, True]
        assert isinstance(outcomes[1].error, KeyMismatchError)
        assert isinstance(outcomes[2].error, DeanonymizationError)
        assert isinstance(outcomes[4].error, EnvelopeError)
        assert service.reversals_served == 3
        assert service.failures == 3
        assert service.reversal_failures == 3

    @pytest.mark.parametrize("make_backend", _backends())
    def test_empty_batch(self, grid10, make_backend):
        with make_backend() as backend:
            service = AnonymizerService(grid10, backend=backend)
            assert service.deanonymize_batch([]) == []


class TestReversalUnexpectedExceptionsPropagate:
    """Only the typed reversal union may become outcomes — engine bugs
    must abort the batch on every backend."""

    def test_inline(self, grid10, traffic_snapshot, batch_profile, monkeypatch):
        from repro.core.engine import ReverseCloakEngine

        requests = _reversal_fixture(
            grid10, traffic_snapshot, batch_profile, 2, tag="boom"
        )

        def boom(self, *args, **kwargs):
            raise RuntimeError("reversal engine bug")

        with InlineBackend() as backend:
            service = AnonymizerService(grid10, backend=backend)
            monkeypatch.setattr(ReverseCloakEngine, "deanonymize", boom)
            with pytest.raises(RuntimeError, match="reversal engine bug"):
                service.deanonymize_batch(requests)

    @pytest.mark.skipif(
        "fork" not in START_METHODS, reason="needs fork to inherit the patch"
    )
    def test_process_pool(
        self, grid10, traffic_snapshot, batch_profile, monkeypatch
    ):
        from repro.core.engine import ReverseCloakEngine

        requests = _reversal_fixture(
            grid10, traffic_snapshot, batch_profile, 2, tag="pboom"
        )

        def boom(self, *args, **kwargs):
            raise RuntimeError("reversal bug in worker")

        monkeypatch.setattr(ReverseCloakEngine, "deanonymize", boom)
        with ProcessPoolBackend(2, start_method="fork") as backend:
            service = AnonymizerService(grid10, backend=backend)
            with pytest.raises(RuntimeError, match="reversal bug in worker"):
                service.deanonymize_batch(requests)
            # Reported failures keep the pipes aligned: the pool survives
            # and the next (cloak) batch still serves.
            monkeypatch.undo()
            service.update_snapshot(traffic_snapshot)
            good = _requests(traffic_snapshot, batch_profile, 2)
            assert all(o.ok for o in service.cloak_batch(good))


class TestUnexpectedExceptionsPropagate:
    """Regression: only CloakingError/MobilityError may become outcomes —
    a bug in the engine (or any unexpected exception) must abort the batch,
    not be swallowed into a BatchOutcome."""

    def test_inline(self, grid10, traffic_snapshot, batch_profile, monkeypatch):
        from repro.core.engine import ReverseCloakEngine

        def boom(self, *args, **kwargs):
            raise RuntimeError("engine bug")

        with InlineBackend() as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            requests = _requests(traffic_snapshot, batch_profile, 3)
            monkeypatch.setattr(ReverseCloakEngine, "anonymize", boom)
            with pytest.raises(RuntimeError, match="engine bug"):
                service.cloak_batch(requests)

    @pytest.mark.skipif(
        "fork" not in START_METHODS, reason="needs fork to inherit the patch"
    )
    def test_process_pool(
        self, grid10, traffic_snapshot, batch_profile, monkeypatch
    ):
        from repro.core.engine import ReverseCloakEngine

        def boom(self, *args, **kwargs):
            raise RuntimeError("engine bug in worker")

        # Patch before the pool forks so workers inherit the broken engine.
        monkeypatch.setattr(ReverseCloakEngine, "anonymize", boom)
        with ProcessPoolBackend(2, start_method="fork") as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            requests = _requests(traffic_snapshot, batch_profile, 3)
            with pytest.raises(RuntimeError, match="engine bug in worker"):
                service.cloak_batch(requests)


class TestProcessPoolProtocol:
    @pytest.fixture(scope="class")
    def method(self):
        return START_METHODS[0]

    def test_snapshot_updates_between_batches(
        self, grid10, batch_profile, method
    ):
        dense = PopulationSnapshot.from_counts(
            {segment_id: 5 for segment_id in grid10.segment_ids()}, time=1.0
        )
        sparse = PopulationSnapshot.from_counts(
            {segment_id: 1 for segment_id in grid10.segment_ids()}, time=2.0
        )
        reference = AnonymizerService(grid10)
        with ProcessPoolBackend(2, start_method=method) as backend:
            service = AnonymizerService(grid10, backend=backend)
            for snapshot in (dense, sparse, dense):
                reference.update_snapshot(snapshot)
                service.update_snapshot(snapshot)
                requests = _requests(snapshot, batch_profile, 4, tag="s")
                expected = [
                    reference.cloak(request).to_json() for request in requests
                ]
                outcomes = service.cloak_batch(requests)
                assert [o.envelope.to_json() for o in outcomes] == expected
                assert all(
                    o.envelope.snapshot_time == snapshot.time for o in outcomes
                )

    def test_straggler_workers_resync_snapshot(
        self, grid10, traffic_snapshot, batch_profile, method
    ):
        # First batch has fewer chunks than workers, so some workers never
        # see the snapshot token; the next, wider batch forces them through
        # the _NEED_SNAPSHOT resend path.
        reference = AnonymizerService(grid10)
        reference.update_snapshot(traffic_snapshot)
        with ProcessPoolBackend(4, start_method=method) as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            small = _requests(traffic_snapshot, batch_profile, 2)
            assert all(o.ok for o in service.cloak_batch(small))
            wide = _requests(traffic_snapshot, batch_profile, 12)
            expected = [reference.cloak(request).to_json() for request in wide]
            outcomes = service.cloak_batch(wide)
            assert [o.envelope.to_json() for o in outcomes] == expected

    def test_empty_batch(self, grid10, traffic_snapshot, method):
        with ProcessPoolBackend(2, start_method=method) as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            assert service.cloak_batch([]) == []

    def test_dead_workers_recovered_in_place(
        self, grid10, traffic_snapshot, batch_profile, method
    ):
        # Since PR 6 a worker dying mid-protocol is an operational event,
        # not a batch failure: supervision respawns the slot and re-drives
        # the lost chunk, so the batch still returns byte-identical
        # outcomes — even when every worker was killed under it.
        reference = AnonymizerService(grid10)
        reference.update_snapshot(traffic_snapshot)
        requests = _requests(traffic_snapshot, batch_profile, 6)
        expected = [reference.cloak(request).to_json() for request in requests]
        with ProcessPoolBackend(2, start_method=method) as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            assert all(o.ok for o in service.cloak_batch(requests))
            for handle in backend._workers:
                handle.process.terminate()
                handle.process.join(timeout=5)
            recovered = service.cloak_batch(requests)
            assert [o.envelope.to_json() for o in recovered] == expected
            assert backend.worker_restarts == 2  # both slots respawned
            assert backend.inline_fallbacks == 0  # recovery, not degradation
            retried = service.cloak_batch(requests)
            assert [o.envelope.to_json() for o in retried] == expected
            assert backend.worker_restarts == 2  # respawned workers are healthy

    def test_close_is_idempotent(self, grid10, traffic_snapshot, batch_profile, method):
        backend = ProcessPoolBackend(2, start_method=method)
        service = AnonymizerService(grid10, backend=backend)
        service.update_snapshot(traffic_snapshot)
        assert all(
            o.ok for o in service.cloak_batch(_requests(traffic_snapshot, batch_profile, 2))
        )
        backend.close()
        backend.close()


class TestBackendLifecycle:
    def test_bind_to_two_services_rejected(self, grid10, grid6):
        backend = InlineBackend()
        AnonymizerService(grid10, backend=backend)
        with pytest.raises(CloakingError):
            AnonymizerService(grid6, backend=backend)

    @pytest.mark.parametrize(
        "make_backend",
        [
            pytest.param(lambda: InlineBackend(), id="inline"),
            pytest.param(lambda: ProcessPoolBackend(2), id="process-2"),
        ],
    )
    def test_unbound_backend_rejects_serving(
        self, dense_snapshot, batch_profile, make_backend
    ):
        request = _requests(dense_snapshot, batch_profile, 1)[0]
        document = CloakRequestDoc.from_request(request).to_dict()
        with make_backend() as backend:
            with pytest.raises(CloakingError):
                backend.cloak_batch_raw(dense_snapshot, [document])
            with pytest.raises(CloakingError):
                backend.deanonymize_batch_raw([{"format": "x"}])

    def test_invalid_widths_rejected(self):
        with pytest.raises(CloakingError):
            ProcessPoolBackend(0)

    def test_batch_outcome_ok_property(self, grid10, dense_snapshot, batch_profile):
        request = _requests(dense_snapshot, batch_profile, 1)[0]
        assert not BatchOutcome(request=request, error=CloakingError("x")).ok

    def test_spec_builds_engines_against_shared_structures(self, grid10):
        spec = BackendSpec(
            network=grid10,
            algorithm=ReversiblePreassignmentExpansion.for_network(grid10),
            include_hints=False,
        )
        engine = spec.build_engine()
        assert engine.network is grid10
        assert engine.algorithm is spec.algorithm


class TestInlineChunkCounter:
    def test_chunk_ids_unique_under_concurrent_batches(self):
        # Regression: `_next_chunk` used an unguarded read-increment pair,
        # so two request threads sharing one backend could draw the same
        # chunk id — and with it the same fault-plan row. The counter is
        # now lock-guarded; hammer it from many threads and require every
        # id to be distinct and gapless.
        import threading

        backend = InlineBackend()
        drawn = []
        record = drawn.append
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(200):
                record(backend._next_chunk())

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(drawn) == 8 * 200
        assert sorted(drawn) == list(range(8 * 200))


class TestSingleServingPath:
    """Each operation has one per-item serving function behind the two raw
    methods: a served document is parsed exactly once, where it is
    served, and the pool's parent parses nothing on the fast path."""

    @pytest.fixture()
    def parses(self, monkeypatch):
        counts = {"cloak": 0, "peel": 0}
        for name, cls in (("cloak", CloakRequestDoc), ("peel", DeanonymizeRequestDoc)):
            original = cls.__dict__["from_dict"].__func__

            def counted(klass, document, _name=name, _original=original):
                counts[_name] += 1
                return _original(klass, document)

            monkeypatch.setattr(cls, "from_dict", classmethod(counted))
        return counts

    def _documents(self, grid10, snapshot, profile):
        cloaks = [
            CloakRequestDoc.from_request(request).to_dict()
            for request in _requests(snapshot, profile, 4, tag="once")
        ]
        peels = [
            request.to_dict()
            for request in _reversal_fixture(grid10, snapshot, profile, 3)
        ]
        return cloaks, peels

    def test_inline_parses_each_served_document_once(
        self, grid10, traffic_snapshot, batch_profile, parses
    ):
        cloaks, peels = self._documents(grid10, traffic_snapshot, batch_profile)
        with InlineBackend() as backend:
            AnonymizerService(grid10, backend=backend)
            parses.update(cloak=0, peel=0)
            replies = backend.cloak_batch_raw(traffic_snapshot, cloaks)
            replies += backend.deanonymize_batch_raw(peels)
        assert all(reply["status"] == "ok" for reply in replies)
        assert parses == {"cloak": len(cloaks), "peel": len(peels)}

    def test_pool_fast_path_parses_nothing_in_the_parent(
        self, grid10, traffic_snapshot, batch_profile, parses
    ):
        cloaks, peels = self._documents(grid10, traffic_snapshot, batch_profile)
        with ProcessPoolBackend(2, start_method=START_METHODS[0]) as backend:
            AnonymizerService(grid10, backend=backend)
            parses.update(cloak=0, peel=0)
            replies = backend.cloak_batch_raw(traffic_snapshot, cloaks)
            replies += backend.deanonymize_batch_raw(peels)
        assert all(reply["status"] == "ok" for reply in replies)
        assert parses == {"cloak": 0, "peel": 0}

    def test_pool_ships_a_mixed_batch_in_one_dispatch(
        self, grid10, traffic_snapshot, batch_profile
    ):
        # Literal-int ids take the fast path; a string id that parses is
        # resolved after a parent-side parse. Both ship together.
        cloaks = [
            CloakRequestDoc.from_request(request).to_dict()
            for request in _requests(traffic_snapshot, batch_profile, 4, tag="mx")
        ]
        cloaks[1] = dict(cloaks[1], user_id=str(cloaks[1]["user_id"]))
        reference = AnonymizerService(grid10)
        reference.update_snapshot(traffic_snapshot)
        expected = reference.handle_batch(cloaks)
        with ProcessPoolBackend(2, start_method=START_METHODS[0]) as backend:
            AnonymizerService(grid10, backend=backend)
            drives = []
            original = backend._drive

            def counted(op, chunks, **kwargs):
                drives.append(op)
                return original(op, chunks, **kwargs)

            backend._drive = counted
            replies = backend.cloak_batch_raw(traffic_snapshot, cloaks)
        assert drives == ["cloak"]
        assert replies == expected
        assert all(reply["status"] == "ok" for reply in replies)
