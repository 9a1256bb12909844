"""Concurrency tests for ``AnonymizerService.cloak_batch`` and the guarded
bookkeeping counters.

One service is shared by several request threads at once — the deployment
shape of the socket front-end's executor and of any embedding server. The
counters are the historical race (a bare ``+= 1`` next to a locked one
dropped increments under that interleaving), which the reprolint ``locks``
rule guards statically; these tests keep it covered at runtime.
"""

import sys
import threading

import pytest

from repro import KeyChain, PrivacyProfile
from repro.core import LevelRequirement, PrivacyProfile as CoreProfile, ToleranceSpec
from repro.errors import KeyMismatchError, MobilityError, ToleranceExceededError
from repro.lbs import AnonymizerService, CloakRequest


@pytest.fixture(scope="module")
def batch_profile():
    return PrivacyProfile.uniform(
        levels=2, base_k=3, k_step=3, base_l=2, l_step=1, max_segments=60
    )


@pytest.fixture()
def service(grid10, traffic_snapshot):
    service = AnonymizerService(grid10)
    service.update_snapshot(traffic_snapshot)
    return service


def _requests(snapshot, profile, count, tag="u"):
    return [
        CloakRequest(
            user_id=user_id,
            profile=profile,
            chain=KeyChain.from_passphrases([f"{tag}{user_id}-1", f"{tag}{user_id}-2"]),
        )
        for user_id in snapshot.users()[:count]
    ]


def _impossible_requests(snapshot, count):
    impossible = CoreProfile(
        [LevelRequirement(k=10_000, l=2, tolerance=ToleranceSpec(max_segments=5))]
    )
    return [
        CloakRequest(
            user_id=user_id,
            profile=impossible,
            chain=KeyChain.from_passphrases([f"f{user_id}"]),
        )
        for user_id in snapshot.users()[:count]
    ]


def _run_threads(target, count, timeout=120.0):
    """Start ``count`` threads on ``target(slot)`` together, with a short
    interpreter switch interval so a lost counter update has every chance
    to show; re-raise the first failure any of them hit."""
    errors = []
    barrier = threading.Barrier(count)

    def run(slot):
        try:
            barrier.wait()
            target(slot)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    workers = [threading.Thread(target=run, args=(slot,)) for slot in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers), "threads hung"
    if errors:
        raise errors[0]


class TestCloakBatch:
    def test_matches_sequential_serving(self, service, traffic_snapshot, batch_profile):
        requests = _requests(traffic_snapshot, batch_profile, 16)
        sequential = [service.cloak(request) for request in requests]
        outcomes = service.cloak_batch(requests)
        assert [outcome.request for outcome in outcomes] == requests  # order kept
        assert all(outcome.ok and outcome.error is None for outcome in outcomes)
        # Envelope byte-equality against single-request serving.
        assert [o.envelope.to_json() for o in outcomes] == [
            e.to_json() for e in sequential
        ]

    def test_empty_batch(self, service):
        assert service.cloak_batch([]) == []

    def test_no_snapshot_rejected(self, grid10, batch_profile):
        bare = AnonymizerService(grid10)
        with pytest.raises(MobilityError):
            bare.cloak_batch(
                [
                    CloakRequest(
                        user_id=0,
                        profile=batch_profile,
                        chain=KeyChain.from_passphrases(["x1", "x2"]),
                    )
                ]
            )

    def test_failures_reported_in_place(self, service, traffic_snapshot, batch_profile):
        good = _requests(traffic_snapshot, batch_profile, 4)
        bad = _impossible_requests(traffic_snapshot, 1)[0]
        missing = CloakRequest(
            user_id=10_000,
            profile=batch_profile,
            chain=KeyChain.from_passphrases(["gone1", "gone2"]),
        )
        outcomes = service.cloak_batch(good[:2] + [bad, missing] + good[2:])
        assert [o.ok for o in outcomes] == [True, True, False, False, True, True]
        assert isinstance(outcomes[2].error, ToleranceExceededError)
        assert isinstance(outcomes[3].error, MobilityError)
        assert service.requests_served == 4
        assert service.failures == 1  # user-missing is not a cloaking failure

    def test_batch_ignores_mid_flight_snapshot_update(
        self, service, traffic_snapshot, dense_snapshot, batch_profile
    ):
        # The batch captures one immutable snapshot at submission; swapping
        # the live snapshot between submissions must not mix populations
        # within a batch (each batch is internally consistent).
        requests = _requests(traffic_snapshot, batch_profile, 6)
        before = service.cloak_batch(requests)
        service.update_snapshot(dense_snapshot)
        # Users of traffic_snapshot may not exist in dense_snapshot built
        # from counts; re-resolve against the new snapshot's users.
        after = service.cloak_batch(_requests(dense_snapshot, batch_profile, 6, "d"))
        assert all(o.ok for o in before) and all(o.ok for o in after)


class TestCounterSafety:
    def test_concurrent_batches_count_exactly(
        self, service, traffic_snapshot, batch_profile
    ):
        # Hammer one service from several threads, each submitting
        # batches; the guarded counters must account for every request
        # exactly once (the old bare `+= 1` lost increments here).
        requests = _requests(traffic_snapshot, batch_profile, 10)
        rounds = 4
        threads = 5

        def hammer(_slot):
            for __ in range(rounds):
                outcomes = service.cloak_batch(requests)
                assert all(o.ok for o in outcomes)

        _run_threads(hammer, threads)
        assert service.requests_served == threads * rounds * len(requests)
        assert service.failures == 0

    def test_single_and_batch_paths_race_exactly(
        self, service, traffic_snapshot, batch_profile
    ):
        # The historical interleaving itself: single-request cloaks and batches
        # bump the same counter from different threads at the same time.
        requests = _requests(traffic_snapshot, batch_profile, 6)
        bad = _impossible_requests(traffic_snapshot, 2)
        rounds = 3

        def mixed(slot):
            for __ in range(rounds):
                if slot % 2:
                    for request in requests:
                        service.cloak(request)
                    with pytest.raises(ToleranceExceededError):
                        service.cloak(bad[0])
                else:
                    outcomes = service.cloak_batch(requests + bad)
                    assert [o.ok for o in outcomes] == [True] * 6 + [False] * 2

        _run_threads(mixed, 6)
        # Three single-path threads, three batch threads.
        assert service.requests_served == 6 * rounds * len(requests)
        assert service.failures == 3 * rounds * (1 + len(bad))
        assert service.inflight == 0

    def test_concurrent_envelopes_match_sequential(
        self, service, traffic_snapshot, batch_profile
    ):
        # Byte-equality under concurrency: many threads serving the same
        # request set must produce exactly the sequential envelopes
        # (deterministic keyed expansion, no cross-request state).
        requests = _requests(traffic_snapshot, batch_profile, 8)
        expected = [service.cloak(request).to_json() for request in requests]
        results = {}
        lock = threading.Lock()

        def serve(slot):
            outcomes = service.cloak_batch(requests)
            with lock:
                results[slot] = [o.envelope.to_json() for o in outcomes]

        _run_threads(serve, 4)
        assert len(results) == 4
        assert all(batch == expected for batch in results.values())

    def test_failures_counted_under_concurrency(self, service, traffic_snapshot):
        bad_requests = _impossible_requests(traffic_snapshot, 6)

        def hammer(_slot):
            outcomes = service.cloak_batch(bad_requests)
            assert not any(o.ok for o in outcomes)

        _run_threads(hammer, 3)
        assert service.failures == 3 * len(bad_requests)
        assert service.requests_served == 0

    def test_reversal_counters_under_concurrency(
        self, service, traffic_snapshot, batch_profile
    ):
        # The reversal counters share the lock: concurrent peels from
        # several threads, some with a wrong key, count exactly.
        request = _requests(traffic_snapshot, batch_profile, 1, "rev")[0]
        envelope = service.cloak(request)
        keys = {key.level: key for key in request.chain}
        wrong = {
            key.level: key
            for key in KeyChain.from_passphrases(["wrong-1", "wrong-2"])
        }
        rounds = 4

        def peel(slot):
            for __ in range(rounds):
                if slot % 2:
                    result = service.deanonymize(envelope, keys, 0)
                    assert result.region_at(0) == (
                        traffic_snapshot.segment_of(request.user_id),
                    )
                else:
                    with pytest.raises(KeyMismatchError):
                        service.deanonymize(envelope, wrong, 0)

        _run_threads(peel, 4)
        assert service.reversals_served == 2 * rounds
        assert service.reversal_failures == 2 * rounds
        assert service.failures == 2 * rounds
        assert service.requests_served == 1
