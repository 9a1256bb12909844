"""End-to-end fault-tolerance tests for the serving stack.

Every recovery path the supervision layer claims is exercised here through
the deterministic fault harness (:mod:`repro.lbs.faults`) — injected
worker crashes (chunk-level, mid-cloak, mid-peel, during the snapshot
resend), crash loops that exhaust the retry budget, dropped replies,
cooperative deadlines, and the teardown escalation ladder — and the
contract asserted throughout is the repo's serving invariant: outcomes
stay byte-identical and order-preserving versus :class:`InlineBackend`,
whatever dies underneath.

Process-pool scenarios run once per start method in
``REPRO_TEST_START_METHODS`` (default ``fork``; CI adds ``spawn``).
"""

import os

import pytest

from repro import KeyChain, PrivacyProfile
from repro.errors import DeadlineExceededError, MobilityError, WorkerCrashedError
from repro.lbs import (
    AnonymizerService,
    CloakRequest,
    FaultAction,
    FaultPlan,
    InlineBackend,
    ProcessPoolBackend,
)
from repro.lbs.wire import DeanonymizeRequestDoc, OutcomeDoc

START_METHODS = tuple(
    method.strip()
    for method in os.environ.get("REPRO_TEST_START_METHODS", "fork").split(",")
    if method.strip()
)


@pytest.fixture(scope="module")
def ft_profile():
    return PrivacyProfile.uniform(
        levels=2, base_k=3, k_step=3, base_l=2, l_step=1, max_segments=60
    )


def _cloak_requests(snapshot, profile, count, tag="ft", deadline_ms=None):
    return [
        CloakRequest(
            user_id=user_id,
            profile=profile,
            chain=KeyChain.from_passphrases(
                [f"{tag}{user_id}-1", f"{tag}{user_id}-2"]
            ),
            deadline_ms=deadline_ms,
        )
        for user_id in snapshot.users()[:count]
    ]


def _peel_requests(network, snapshot, profile, count, tag="ftp",
                   deadline_ms=None):
    """One reversal request per freshly cloaked envelope."""
    producer = AnonymizerService(network)
    producer.update_snapshot(snapshot)
    requests = []
    for index, user_id in enumerate(snapshot.users()[:count]):
        chain = KeyChain.from_passphrases([f"{tag}{index}-1", f"{tag}{index}-2"])
        envelope = producer.cloak(
            CloakRequest(user_id=user_id, profile=profile, chain=chain)
        )
        requests.append(
            DeanonymizeRequestDoc(
                envelope=envelope,
                keys=tuple(chain),
                target_level=0,
                deadline_ms=deadline_ms,
            )
        )
    return requests


def _canonical_cloaks(outcomes):
    """Canonical wire form of cloak outcomes — byte-level equality across
    backends (success *and* error outcomes) is asserted on exactly this."""
    return [
        OutcomeDoc.from_envelope(o.envelope).to_json()
        if o.ok
        else OutcomeDoc.from_exception(o.error).to_json()
        for o in outcomes
    ]


def _canonical_peels(outcomes):
    return [
        OutcomeDoc.from_result(o.result).to_json()
        if o.ok
        else OutcomeDoc.from_exception(o.error).to_json()
        for o in outcomes
    ]


def _inline_cloaks(network, snapshot, requests):
    service = AnonymizerService(network, backend=InlineBackend())
    service.update_snapshot(snapshot)
    return _canonical_cloaks(service.cloak_batch(requests))


def _inline_peels(network, requests):
    service = AnonymizerService(network, backend=InlineBackend())
    return _canonical_peels(service.deanonymize_batch(requests))


def _assert_no_worker_crashed(outcomes):
    for outcome in outcomes:
        assert not isinstance(outcome.error, WorkerCrashedError)


class TestSupervisedRecovery:
    """Injected worker crashes are operational events, not batch failures."""

    @pytest.mark.parametrize("method", START_METHODS)
    def test_every_worker_killed_once_in_mixed_64_item_load(
        self, grid10, traffic_snapshot, ft_profile, method
    ):
        # The PR's acceptance scenario: a plan that kills each of the two
        # workers exactly once across a 64-item cloak batch and a 64-item
        # peel batch. Both batches must come back byte-identical to inline
        # serving, order preserved, with worker_crashed never surfacing.
        plan = FaultPlan(
            actions=(
                FaultAction(kind="kill_worker", worker=0, op="cloak"),
                FaultAction(kind="kill_worker", worker=1, op="peel"),
            )
        )
        cloaks = _cloak_requests(traffic_snapshot, ft_profile, 64)
        peels = _peel_requests(grid10, traffic_snapshot, ft_profile, 64)
        expected_cloaks = _inline_cloaks(grid10, traffic_snapshot, cloaks)
        expected_peels = _inline_peels(grid10, peels)
        with ProcessPoolBackend(
            2, start_method=method, fault_plan=plan, retry_backoff_s=0.01
        ) as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            cloak_outcomes = service.cloak_batch(cloaks)
            assert [o.request for o in cloak_outcomes] == cloaks
            assert _canonical_cloaks(cloak_outcomes) == expected_cloaks
            peel_outcomes = service.deanonymize_batch(peels)
            assert [o.request for o in peel_outcomes] == peels
            assert _canonical_peels(peel_outcomes) == expected_peels
            _assert_no_worker_crashed(cloak_outcomes)
            _assert_no_worker_crashed(peel_outcomes)
            assert backend.worker_restarts == 2  # one kill each, recovered
            assert backend.inline_fallbacks == 0  # recovery, not degradation

    @pytest.mark.parametrize("method", START_METHODS)
    def test_kill_mid_cloak_chunk(
        self, grid10, traffic_snapshot, ft_profile, method
    ):
        # The worker dies *between items* of a chunk it has partially
        # served; the re-driven chunk must re-serve from the top and stay
        # byte-identical (cloaking is deterministic, so the partial work
        # is simply discarded with the dead incarnation).
        plan = FaultPlan(
            actions=(
                FaultAction(kind="kill_worker", worker=0, item=2, op="cloak"),
            )
        )
        requests = _cloak_requests(traffic_snapshot, ft_profile, 8, tag="mc")
        expected = _inline_cloaks(grid10, traffic_snapshot, requests)
        with ProcessPoolBackend(
            2, start_method=method, fault_plan=plan, retry_backoff_s=0.01
        ) as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            outcomes = service.cloak_batch(requests)
            assert _canonical_cloaks(outcomes) == expected
            assert backend.worker_restarts == 1
            assert backend.inline_fallbacks == 0

    @pytest.mark.parametrize("method", START_METHODS)
    def test_kill_mid_peel_chunk(
        self, grid10, traffic_snapshot, ft_profile, method
    ):
        plan = FaultPlan(
            actions=(
                FaultAction(kind="kill_worker", worker=1, item=1, op="peel"),
            )
        )
        requests = _peel_requests(
            grid10, traffic_snapshot, ft_profile, 8, tag="mp"
        )
        expected = _inline_peels(grid10, requests)
        with ProcessPoolBackend(
            2, start_method=method, fault_plan=plan, retry_backoff_s=0.01
        ) as backend:
            service = AnonymizerService(grid10, backend=backend)
            outcomes = service.deanonymize_batch(requests)
            assert _canonical_peels(outcomes) == expected
            assert backend.worker_restarts == 1
            assert backend.inline_fallbacks == 0

    @pytest.mark.parametrize("method", START_METHODS)
    def test_crash_during_snapshot_resend(
        self, grid10, traffic_snapshot, ft_profile, method
    ):
        # A straggler worker (first batch was narrower than the pool)
        # answers _NEED_SNAPSHOT on the next wide batch and is killed while
        # handling the resend — its second message, hence chunk ordinal 1.
        # Supervision must respawn it and re-drive with the snapshot blob.
        plan = FaultPlan(
            actions=(
                FaultAction(kind="kill_worker", worker=1, chunk=1, op="cloak"),
            )
        )
        narrow = _cloak_requests(traffic_snapshot, ft_profile, 1, tag="nr")
        wide = _cloak_requests(traffic_snapshot, ft_profile, 6, tag="wd")
        expected = _inline_cloaks(grid10, traffic_snapshot, wide)
        with ProcessPoolBackend(
            2, start_method=method, fault_plan=plan, retry_backoff_s=0.01
        ) as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            assert all(o.ok for o in service.cloak_batch(narrow))
            outcomes = service.cloak_batch(wide)
            assert _canonical_cloaks(outcomes) == expected
            assert backend.worker_restarts == 1
            assert backend.inline_fallbacks == 0


class TestRetryExhaustion:
    @pytest.fixture()
    def crash_loop_plan(self):
        # ``incarnation: null`` re-fires on every respawn: worker 0 can
        # never hold a cloak chunk, exhausting the retry budget.
        return FaultPlan(
            actions=(
                FaultAction(
                    kind="kill_worker", worker=0, op="cloak", incarnation=None
                ),
            )
        )

    @pytest.mark.parametrize("method", START_METHODS)
    def test_inline_fallback_keeps_batch_byte_identical(
        self, grid10, traffic_snapshot, ft_profile, crash_loop_plan, method
    ):
        requests = _cloak_requests(traffic_snapshot, ft_profile, 6, tag="fb")
        expected = _inline_cloaks(grid10, traffic_snapshot, requests)
        with ProcessPoolBackend(
            2,
            start_method=method,
            fault_plan=crash_loop_plan,
            max_chunk_retries=1,
            retry_backoff_s=0.01,
        ) as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            outcomes = service.cloak_batch(requests)
            # Degraded, not lost: the chunk ran inline on the parent and
            # the batch is still byte-identical and order-preserving.
            assert _canonical_cloaks(outcomes) == expected
            _assert_no_worker_crashed(outcomes)
            assert backend.inline_fallbacks == 1
            assert backend.worker_restarts == 2  # initial + one retry

    @pytest.mark.parametrize("method", START_METHODS)
    def test_disabled_fallback_surfaces_worker_crashed_in_place(
        self, grid10, traffic_snapshot, ft_profile, crash_loop_plan, method
    ):
        requests = _cloak_requests(traffic_snapshot, ft_profile, 6, tag="wc")
        with ProcessPoolBackend(
            2,
            start_method=method,
            fault_plan=crash_loop_plan,
            max_chunk_retries=1,
            retry_backoff_s=0.01,
            inline_fallback=False,
        ) as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            outcomes = service.cloak_batch(requests)
            # Worker 0's chunk (the first half) fails in place with the
            # structured code; worker 1's chunk is untouched.
            assert [o.ok for o in outcomes] == [False] * 3 + [True] * 3
            for outcome in outcomes[:3]:
                assert isinstance(outcome.error, WorkerCrashedError)
                assert "retries exhausted" in str(outcome.error)
            assert backend.inline_fallbacks == 0


class TestDroppedReplies:
    @pytest.mark.parametrize("method", START_METHODS)
    def test_dropped_reply_recovered_via_dispatch_timeout(
        self, grid10, traffic_snapshot, ft_profile, method
    ):
        # The worker serves the chunk but never answers; only the
        # dispatch-wait bound can notice. The wedged incarnation is
        # replaced and the chunk re-driven.
        plan = FaultPlan(
            actions=(FaultAction(kind="drop_reply", worker=0, op="cloak"),)
        )
        requests = _cloak_requests(traffic_snapshot, ft_profile, 4, tag="dr")
        expected = _inline_cloaks(grid10, traffic_snapshot, requests)
        with ProcessPoolBackend(
            2,
            start_method=method,
            fault_plan=plan,
            dispatch_timeout_s=1.5,
            retry_backoff_s=0.01,
        ) as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            outcomes = service.cloak_batch(requests)
            assert _canonical_cloaks(outcomes) == expected
            assert backend.worker_restarts == 1
            assert backend.inline_fallbacks == 0


def _deadline_backends(methods):
    backends = [
        pytest.param(lambda: InlineBackend(), id="inline"),
    ]
    for method in methods:
        backends.append(
            pytest.param(
                lambda method=method: ProcessPoolBackend(
                    2, start_method=method
                ),
                id=f"process-2-{method}",
            )
        )
    return backends


class TestCooperativeDeadlines:
    @pytest.mark.parametrize("make_backend", _deadline_backends(START_METHODS))
    def test_pre_expired_cloaks_fail_identically_everywhere(
        self, grid10, traffic_snapshot, ft_profile, make_backend
    ):
        # deadline_ms=0 is expired before the first checkpoint: every
        # backend must surface the same structured deadline_exceeded
        # outcome, in place, without aborting the batch.
        requests = _cloak_requests(
            traffic_snapshot, ft_profile, 4, tag="dl", deadline_ms=0.0
        )
        expected = _inline_cloaks(grid10, traffic_snapshot, requests)
        with make_backend() as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            outcomes = service.cloak_batch(requests)
            assert all(not o.ok for o in outcomes)
            assert all(
                isinstance(o.error, DeadlineExceededError) for o in outcomes
            )
            assert _canonical_cloaks(outcomes) == expected

    @pytest.mark.parametrize("make_backend", _deadline_backends(START_METHODS))
    def test_pre_expired_peels_fail_identically_everywhere(
        self, grid10, traffic_snapshot, ft_profile, make_backend
    ):
        requests = _peel_requests(
            grid10, traffic_snapshot, ft_profile, 4, tag="dlp",
            deadline_ms=0.0,
        )
        expected = _inline_peels(grid10, requests)
        with make_backend() as backend:
            service = AnonymizerService(grid10, backend=backend)
            outcomes = service.deanonymize_batch(requests)
            assert all(not o.ok for o in outcomes)
            assert all(
                isinstance(o.error, DeadlineExceededError) for o in outcomes
            )
            assert _canonical_peels(outcomes) == expected

    @pytest.mark.parametrize(
        "flavor", ["inline"] + [f"process-{m}" for m in START_METHODS]
    )
    def test_injected_delay_pushes_one_item_past_its_deadline(
        self, grid10, traffic_snapshot, ft_profile, flavor
    ):
        # A generous real-time budget plus an injected artificial delay:
        # exactly item 0 of chunk 0 (worker 0) expires, deterministically,
        # with no real sleeping; its siblings serve normally. The same plan
        # drives the inline backend (which presents as worker 0, chunk ==
        # batch ordinal) and worker 0 of the process pool. Items count the
        # documents that ship: the unknown user up front is answered
        # before serving, so item 0 is the request at position 1.
        import dataclasses

        plan = FaultPlan(
            actions=(
                FaultAction(
                    kind="delay", worker=0, chunk=0, item=0, op="cloak",
                    delay_ms=120_000.0,
                ),
            )
        )
        requests = _cloak_requests(
            traffic_snapshot, ft_profile, 4, tag="dly", deadline_ms=60_000.0
        )
        requests.insert(0, dataclasses.replace(requests[0], user_id=10_000))
        if flavor == "inline":
            backend = InlineBackend(fault_plan=plan)
        else:
            backend = ProcessPoolBackend(
                2, start_method=flavor.split("-", 1)[1], fault_plan=plan
            )
        with backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            outcomes = service.cloak_batch(requests)
            assert [o.ok for o in outcomes] == [False, False, True, True, True]
            assert isinstance(outcomes[0].error, MobilityError)
            assert isinstance(outcomes[1].error, DeadlineExceededError)

    def test_mixed_deadlines_only_expire_the_marked_items(
        self, grid10, traffic_snapshot, ft_profile
    ):
        # Items with and without deadlines interleave freely in one batch.
        requests = _cloak_requests(traffic_snapshot, ft_profile, 4, tag="mix")
        import dataclasses

        requests[1] = dataclasses.replace(requests[1], deadline_ms=0.0)
        requests[3] = dataclasses.replace(requests[3], deadline_ms=0.0)
        method = START_METHODS[0]
        with ProcessPoolBackend(2, start_method=method) as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            outcomes = service.cloak_batch(requests)
            assert [o.ok for o in outcomes] == [True, False, True, False]
            assert isinstance(outcomes[1].error, DeadlineExceededError)
            assert isinstance(outcomes[3].error, DeadlineExceededError)


class TestTeardownEscalation:
    @pytest.mark.parametrize("method", START_METHODS)
    def test_close_reaps_workers_that_ignore_sentinel_and_sigterm(
        self, grid10, traffic_snapshot, ft_profile, method
    ):
        # Worker 0 ignores both the shutdown sentinel and SIGTERM, so
        # close() must escalate all the way to kill(); worker 1 ignores
        # only the sentinel and dies at terminate(). Either way: no live
        # children after close().
        plan = FaultPlan(
            actions=(
                FaultAction(kind="ignore_shutdown", worker=0),
                FaultAction(kind="ignore_sigterm", worker=0),
                FaultAction(kind="ignore_shutdown", worker=1),
            )
        )
        backend = ProcessPoolBackend(
            2, start_method=method, fault_plan=plan, shutdown_join_s=0.25
        )
        service = AnonymizerService(grid10, backend=backend)
        service.update_snapshot(traffic_snapshot)
        requests = _cloak_requests(traffic_snapshot, ft_profile, 2, tag="td")
        assert all(o.ok for o in service.cloak_batch(requests))
        processes = [handle.process for handle in backend._workers]
        assert len(processes) == 2 and all(p.is_alive() for p in processes)
        backend.close()
        assert all(not p.is_alive() for p in processes)
        assert backend._workers == []
        backend.close()  # idempotent after escalation too
