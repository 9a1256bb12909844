"""Network-level fault injection against the socket front-end.

The wire-side mirror of ``test_fault_tolerance``: where that suite
scripts *workers* failing, this one scripts the *network* failing — a
peer stalling mid-frame, truncating, corrupting, dropping the
connection, dribbling bytes — through the deterministic
(connection, frame)-keyed actions of :mod:`repro.lbs.faults` and the
fault-wrapping :class:`FaultyConnection` transport.

Contracts pinned here (the ISSUE's acceptance criteria):

* the same fault plan produces the same statuses, the same structured
  error codes, and **byte-identical outcomes for unaffected requests**
  on every run and on every backend (inline and process pools under each
  start method in ``REPRO_TEST_START_METHODS``);
* no scenario hangs (every read is timeout-bounded) and no admitted
  request is silently lost;
* :class:`ResilientClient` absorbs exactly the faults it exists for —
  dropped connections, server restarts, retryable structured errors, a
  per-request deadline budget — and refuses to retry what would fail
  identically forever.
"""

import asyncio
import json
import os

import pytest

from repro import KeyChain, PrivacyProfile
from repro.errors import OverloadedError
from repro.lbs import (
    AnonymizerService,
    CloakRequest,
    CloakRequestDoc,
    FaultAction,
    FaultPlan,
    FaultyConnection,
    FrontendServer,
    InlineBackend,
    NetworkFaultInjector,
    ProcessPoolBackend,
    ResilientClient,
)
from repro.lbs.deferral import TemporalTolerance
from repro.lbs.wire import MALFORMED_DOCUMENT

START_METHODS = tuple(
    method.strip()
    for method in os.environ.get("REPRO_TEST_START_METHODS", "fork").split(",")
    if method.strip()
)


def _backends():
    backends = [pytest.param(lambda: InlineBackend(), id="inline")]
    for method in START_METHODS:
        backends.append(
            pytest.param(
                lambda method=method: ProcessPoolBackend(2, start_method=method),
                id=f"process-2-{method}",
            )
        )
    return backends


@pytest.fixture(scope="module")
def profile():
    return PrivacyProfile.uniform(
        levels=2, base_k=3, k_step=3, base_l=2, l_step=1, max_segments=60
    )


def _cloak_doc(snapshot, profile, index, tag="nf"):
    user_id = snapshot.users()[index]
    chain = KeyChain.from_passphrases([f"{tag}{index}-1", f"{tag}{index}-2"])
    return CloakRequestDoc.from_request(
        CloakRequest(user_id=user_id, profile=profile, chain=chain)
    ).to_dict()


def _canonical(outcome: dict) -> str:
    return json.dumps(outcome, sort_keys=True)


#: One action per kind, one connection each — the full network-fault
#: vocabulary in a single deterministic script.
ALL_KINDS_PLAN = FaultPlan(
    actions=(
        FaultAction(kind="stall_bytes", connection=0, frame=0),
        FaultAction(kind="truncate_frame", connection=1, frame=0),
        FaultAction(kind="corrupt_frame", connection=2, frame=0),
        FaultAction(kind="drop_connection", connection=3, frame=0),
        FaultAction(kind="dribble_write", connection=4, frame=0, count=3),
    )
)


class TestScriptedWireFaults:
    async def _run_scenario(self, server, documents):
        """Drive one faulted pass: five connections, one fault kind each,
        then a clean follow-up frame on the surviving corrupt-frame
        connection and a clean sixth connection. Returns everything
        observable so two passes can be compared wholesale."""
        injector = NetworkFaultInjector(ALL_KINDS_PLAN)
        conns = []
        for index in range(5):
            conns.append(
                await FaultyConnection.connect(
                    server.host, server.port, injector, connection_index=index
                )
            )
        statuses = []
        for index, conn in enumerate(conns):
            statuses.append(
                await conn.send_frame(
                    {"request_id": index, "request": documents[index]}
                )
            )
        # Bounded reads everywhere: the "never hangs" contract. The live
        # connections are read (and closed) first, so the only connection
        # left to the idle timeout is the deliberately stalled one.
        replies = {}
        for index in (1, 2, 3, 4):
            replies[index] = await conns[index].read_reply(timeout_s=30.0)
        # The corrupt-frame connection took a strike but stayed up: a
        # clean frame on it (frame ordinal 1 — no action matches) must
        # serve byte-identically.
        followup_status = await conns[2].send_frame(
            {"request_id": 99, "request": documents[2]}
        )
        followup = await conns[2].read_reply(timeout_s=30.0)
        for index in (1, 2, 3, 4):
            await conns[index].close()
        # The stalled connection resolves when the server's idle timeout
        # evicts it — a None read, never a hang.
        replies[0] = await conns[0].read_reply(timeout_s=30.0)
        await conns[0].close()
        # A sixth, unscripted connection is untouched by the plan.
        clean = await FaultyConnection.connect(
            server.host, server.port, injector, connection_index=5
        )
        clean_status = await clean.send_frame(
            {"request_id": 100, "request": documents[5]}
        )
        clean_reply = await clean.read_reply(timeout_s=30.0)
        await clean.close()
        return {
            "statuses": statuses,
            "replies": [
                None if replies[index] is None else json.loads(replies[index])
                for index in range(5)
            ],
            "followup": (followup_status, json.loads(followup)),
            "clean": (clean_status, json.loads(clean_reply)),
        }

    @pytest.mark.parametrize("make_backend", _backends())
    def test_all_kinds_structured_and_deterministic(
        self, grid10, traffic_snapshot, profile, make_backend
    ):
        documents = [
            _cloak_doc(traffic_snapshot, profile, index) for index in range(6)
        ]
        with make_backend() as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            # Direct serving through the same batch path the front-end
            # dispatches on. This also spins the worker pool up *before*
            # any socket exists: cold-start latency is a start-up cost,
            # not a fault outcome, and must not skew the idle clocks.
            expected = [
                json.dumps(outcome, sort_keys=True)
                for outcome in service.handle_batch(documents)
            ]

            async def main():
                runs = []
                counters = []
                for _ in range(2):
                    async with FrontendServer(
                        service, batch_window_ms=1.0, idle_timeout_s=0.3
                    ) as server:
                        runs.append(
                            await self._run_scenario(server, documents)
                        )
                        counters.append(server.counters())
                return runs, counters

            runs, counters = asyncio.run(main())

        first, second = runs
        # Determinism: the whole observable surface — statuses, error
        # codes, reply bytes — is identical across the two passes.
        assert first == second
        assert first["statuses"] == [
            "stalled",
            "truncated",
            "corrupted",
            "dropped",
            "sent",
        ]
        # Stalled / truncated / dropped connections get no reply — the
        # server evicted or lost them, visibly, without hanging us.
        assert first["replies"][0] is None
        assert first["replies"][1] is None
        assert first["replies"][3] is None
        # The corrupted frame is answered with the structured code and an
        # unattributable null id (its request_id was scrambled too).
        corrupted = first["replies"][2]
        assert corrupted["request_id"] is None
        assert corrupted["outcome"]["error"]["code"] == MALFORMED_DOCUMENT
        # The dribbled frame and every clean frame are byte-identical to
        # direct serving — pathological chunking changes nothing.
        dribbled = first["replies"][4]
        assert dribbled["request_id"] == 4
        assert _canonical(dribbled["outcome"]) == expected[4]
        followup_status, followup = first["followup"]
        assert followup_status == "sent"
        assert followup["request_id"] == 99
        assert _canonical(followup["outcome"]) == expected[2]
        clean_status, clean_reply = first["clean"]
        assert clean_status == "sent"
        assert _canonical(clean_reply["outcome"]) == expected[5]
        # Server-side bookkeeping, per pass: the stall was an idle
        # eviction (the only one); the truncation a rejected torn frame;
        # the corruption a malformed strike.
        for passed in counters:
            assert passed["idle_timeouts"] == 1
            assert passed["connections_evicted"] == 1
            assert passed["malformed_frames"] == 1
            assert passed["frames_rejected"] == 2


class TestResilientClient:
    def test_rides_out_scripted_disconnects(
        self, grid10, traffic_snapshot, profile
    ):
        """Two mid-stream connection drops; both requests still complete
        byte-identically, with exactly two reconnects on the counter."""
        plan = FaultPlan(
            actions=(
                FaultAction(kind="drop_connection", connection=0, frame=0),
                FaultAction(kind="drop_connection", connection=0, frame=2),
            )
        )
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        documents = [
            _cloak_doc(traffic_snapshot, profile, index) for index in range(2)
        ]
        expected = [service.handle_json(json.dumps(doc)) for doc in documents]

        async def main():
            async with FrontendServer(service, batch_window_ms=1.0) as server:
                client = ResilientClient(
                    server.host,
                    server.port,
                    fault_injector=NetworkFaultInjector(plan),
                )
                outcomes = [await client.request(doc) for doc in documents]
                reconnects, retries = client.reconnects, client.retries
                await client.close()
                return outcomes, reconnects, retries

        outcomes, reconnects, retries = asyncio.run(main())
        assert [_canonical(outcome) for outcome in outcomes] == expected
        assert reconnects == 2
        assert retries == 2

    def test_retries_retryable_structured_errors(
        self, grid10, traffic_snapshot, profile
    ):
        """A structured ``overloaded`` outcome is retried (the request was
        shed, nothing ran); the retry serves normally."""
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        document = _cloak_doc(traffic_snapshot, profile, 0)
        # Before the patch: handle() itself serves through handle_batch.
        expected = json.dumps(
            json.loads(service.handle_json(json.dumps(document))),
            sort_keys=True,
        )
        original = service.handle_batch
        calls = {"count": 0}

        def flaky(documents):
            calls["count"] += 1
            if calls["count"] == 1:
                raise OverloadedError("induced shed for the retry test")
            return original(documents)

        service.handle_batch = flaky

        async def main():
            async with FrontendServer(service, batch_window_ms=1.0) as server:
                client = ResilientClient(server.host, server.port)
                outcome = await client.request(document)
                retries = client.retries
                await client.close()
                return outcome, retries

        outcome, retries = asyncio.run(main())
        assert _canonical(outcome) == expected
        assert retries == 1

    def test_non_retryable_errors_surface_immediately(
        self, grid10, traffic_snapshot
    ):
        """A malformed document would fail identically forever: no retry,
        no reconnect, the structured outcome comes straight back."""
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)

        async def main():
            async with FrontendServer(service, batch_window_ms=1.0) as server:
                client = ResilientClient(server.host, server.port)
                outcome = await client.request({"format": "repro.no_such_op"})
                reconnects, retries = client.reconnects, client.retries
                await client.close()
                return outcome, reconnects, retries

        outcome, reconnects, retries = asyncio.run(main())
        assert outcome["status"] == "error"
        assert outcome["error"]["code"] == MALFORMED_DOCUMENT
        assert reconnects == 0
        assert retries == 0

    def test_deadline_budget_bounds_the_whole_attempt(
        self, grid10, traffic_snapshot, profile
    ):
        """With the server wedged, a budgeted request returns a structured
        ``deadline_exceeded`` outcome within its budget — never a hang."""
        import threading

        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        gate = threading.Event()
        original = service.handle_batch

        def gated(documents):
            assert gate.wait(timeout=60), "test gate never released"
            return original(documents)

        service.handle_batch = gated
        document = _cloak_doc(traffic_snapshot, profile, 0)

        try:

            async def main():
                loop = asyncio.get_running_loop()
                async with FrontendServer(service, batch_window_ms=1.0) as server:
                    client = ResilientClient(server.host, server.port)
                    begin = loop.time()
                    outcome = await asyncio.wait_for(
                        client.request(document, deadline_ms=300.0), timeout=30
                    )
                    elapsed = loop.time() - begin
                    gate.set()  # un-wedge before the context drains
                    await client.close()
                    return outcome, elapsed

            outcome, elapsed = asyncio.run(main())
        finally:
            gate.set()
        assert outcome["status"] == "error"
        assert outcome["error"]["code"] == "deadline_exceeded"
        assert elapsed < 5.0

    def test_survives_server_restart_on_same_port(
        self, grid10, traffic_snapshot, profile
    ):
        """The example scenario: the server goes away between requests and
        comes back on the same port; the client reconnects and the second
        request is byte-identical to direct serving."""
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        documents = [
            _cloak_doc(traffic_snapshot, profile, index) for index in range(2)
        ]
        expected = [service.handle_json(json.dumps(doc)) for doc in documents]

        async def main():
            server_a = FrontendServer(service, batch_window_ms=1.0)
            await server_a.start()
            host, port = server_a.host, server_a.port
            client = ResilientClient(
                host,
                port,
                tolerance=TemporalTolerance(
                    max_defer_seconds=20.0,
                    retry_interval_seconds=0.05,
                    backoff_factor=2.0,
                    jitter_fraction=0.25,
                    jitter_seed=20170605,
                ),
            )
            first = await client.request(documents[0])
            await server_a.close()
            server_b = FrontendServer(service, host, port, batch_window_ms=1.0)
            await server_b.start()
            second = await asyncio.wait_for(client.request(documents[1]), 30)
            reconnects = client.reconnects
            await client.close()
            await server_b.close()
            return first, second, reconnects

        first, second, reconnects = asyncio.run(main())
        assert _canonical(first) == expected[0]
        assert _canonical(second) == expected[1]
        assert reconnects >= 1
