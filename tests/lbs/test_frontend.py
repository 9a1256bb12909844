"""Tests for :mod:`repro.lbs.frontend` — the asyncio TCP front-end.

The headline contract: a document served over the socket yields the
canonical-byte-identical outcome of calling
:meth:`AnonymizerService.handle_json` directly, for every wire format and
every execution backend (the multiprocessing start methods exercised come
from ``REPRO_TEST_START_METHODS``, as in ``test_backends``). Around it:
request multiplexing, batch coalescing, bounded-queue shedding, the
frame-level deadline default, stats over the wire, adversarial framing
input, fault injection through the socket, and the drain-on-close
guarantee.

``pytest-asyncio`` is not a dependency — every test drives its coroutine
through :func:`asyncio.run` explicitly.
"""

import asyncio
import json
import os
import signal
import struct
import subprocess
import sys
import threading

import pytest

from repro import KeyChain, PrivacyProfile
from repro.errors import ProfileError
from repro.lbs import (
    AnonymizerService,
    CloakRequest,
    CloakRequestDoc,
    DeanonymizeBatchDoc,
    DeanonymizeRequestDoc,
    FaultAction,
    FaultPlan,
    FrontendClient,
    FrontendServer,
    InlineBackend,
    ProcessPoolBackend,
    encode_frame,
)
from repro.lbs.faults import FAULT_PLAN_ENV, FaultyConnection
from repro.lbs.framing import FrameDecoder
from repro.lbs.wire import (
    DEANONYMIZE_REQUEST_FORMAT,
    HEALTH_FORMAT,
    HEALTH_REQUEST_FORMAT,
    MALFORMED_DOCUMENT,
    PING_FORMAT,
    PING_REQUEST_FORMAT,
    STATS_FORMAT,
    STATS_REQUEST_FORMAT,
    WIRE_VERSION,
)

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


def _cloak_doc(snapshot, profile, index, tag="fe"):
    user_id = snapshot.users()[index]
    chain = KeyChain.from_passphrases([f"{tag}{index}-1", f"{tag}{index}-2"])
    return CloakRequestDoc.from_request(
        CloakRequest(user_id=user_id, profile=profile, chain=chain)
    ).to_dict()


def _reversal_docs(network, snapshot, profile, count, tag="fepeel"):
    producer = AnonymizerService(network)
    producer.update_snapshot(snapshot)
    docs = []
    for index, user_id in enumerate(snapshot.users()[:count]):
        chain = KeyChain.from_passphrases([f"{tag}{index}-1", f"{tag}{index}-2"])
        envelope = producer.cloak(
            CloakRequest(user_id=user_id, profile=profile, chain=chain)
        )
        docs.append(
            DeanonymizeRequestDoc(
                envelope=envelope, keys=tuple(chain), target_level=0
            )
        )
    return docs


def _canonical(outcome: dict) -> str:
    """The canonical wire form outcomes are byte-compared in (matches
    ``AnonymizerService.handle_json``)."""
    return json.dumps(outcome, sort_keys=True)


def _stats_doc() -> dict:
    return {"format": STATS_REQUEST_FORMAT, "version": WIRE_VERSION}


def _ping_doc() -> dict:
    return {"format": PING_REQUEST_FORMAT, "version": WIRE_VERSION}


def _health_doc() -> dict:
    return {"format": HEALTH_REQUEST_FORMAT, "version": WIRE_VERSION}


async def _raw_connection(server):
    return await asyncio.open_connection(server.host, server.port)


async def _read_frame(reader, decoder=None) -> bytes:
    decoder = decoder or FrameDecoder()
    while True:
        frames = decoder.feed(await reader.read(1 << 16))
        if frames:
            return frames[0]


class TestByteIdentity:
    """Socket serving answers exactly what direct ``handle_json`` answers —
    per format, per backend, per start method."""

    @pytest.mark.parametrize("make_backend", _backends())
    def test_all_formats_match_direct_serving(
        self, grid10, traffic_snapshot, profile, make_backend
    ):
        peels = _reversal_docs(grid10, traffic_snapshot, profile, 3)
        documents = [
            _cloak_doc(traffic_snapshot, profile, 0),
            _cloak_doc(traffic_snapshot, profile, 1),
            _cloak_doc(traffic_snapshot, profile, 2),
            peels[0].to_dict(),
            DeanonymizeBatchDoc(items=tuple(peels[1:])).to_dict(),
        ]
        with make_backend() as backend:
            service = AnonymizerService(grid10, backend=backend)
            service.update_snapshot(traffic_snapshot)
            expected = [
                service.handle_json(json.dumps(doc)) for doc in documents
            ]

            async def main():
                async with FrontendServer(service, batch_window_ms=1.0) as server:
                    client = await FrontendClient.connect(server.host, server.port)
                    futures = [client.submit(doc) for doc in documents]
                    await client.drain()
                    outcomes = await asyncio.gather(*futures)
                    await client.close()
                    return outcomes

            outcomes = asyncio.run(main())
        assert [_canonical(outcome) for outcome in outcomes] == expected

    def test_submit_encoded_and_raw_reply_path(
        self, grid10, traffic_snapshot, profile
    ):
        """The bench fast path — pre-encoded requests, undecoded replies —
        is the same protocol, not a parallel one."""
        document = _cloak_doc(traffic_snapshot, profile, 0)
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        expected = service.handle_json(json.dumps(document))

        async def main():
            async with FrontendServer(service, batch_window_ms=1.0) as server:
                client = await FrontendClient.connect(server.host, server.port)
                payload = await client.submit_encoded(
                    json.dumps(document, separators=(",", ":")), raw=True
                )
                await client.close()
                return payload

        payload = asyncio.run(main())
        reply = json.loads(payload)
        assert reply["request_id"] == 1
        assert _canonical(reply["outcome"]) == expected

    def test_on_reply_streaming_mode_matches_future_path(
        self, grid10, traffic_snapshot, profile
    ):
        """The load-generator mode — synchronous ``on_reply`` callbacks,
        no futures — carries the same bytes as the awaited path."""
        documents = [
            _cloak_doc(traffic_snapshot, profile, index) for index in range(3)
        ]
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        expected = [service.handle_json(json.dumps(doc)) for doc in documents]

        async def main():
            async with FrontendServer(service, batch_window_ms=1.0) as server:
                client = await FrontendClient.connect(server.host, server.port)
                replies = {}
                done = asyncio.Event()
                for index, doc in enumerate(documents):
                    returned = client.submit_encoded(
                        json.dumps(doc, separators=(",", ":")),
                        raw=True,
                        on_reply=lambda payload, index=index: (
                            replies.__setitem__(index, payload),
                            done.set() if len(replies) == len(documents) else None,
                        ),
                    )
                    assert returned is None
                await asyncio.wait_for(done.wait(), timeout=30)
                await client.close()
                return replies

        replies = asyncio.run(main())
        for index, expected_json in enumerate(expected):
            reply = json.loads(replies[index])
            assert _canonical(reply["outcome"]) == expected_json

    def test_on_reply_gets_none_when_connection_dies(self, grid10):
        """A pending streaming request is told about transport failure the
        only way a callback can be: ``on_reply(None)``."""

        async def main():
            received = []
            waited = asyncio.Event()

            async def server_task(reader, writer):
                await reader.read(1 << 16)  # swallow the request, then drop
                writer.close()

            server = await asyncio.start_server(server_task, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await FrontendClient.connect("127.0.0.1", port)
            client.submit_encoded(
                '{"format":"repro.cloak_request"}',
                raw=True,
                on_reply=lambda payload: (received.append(payload), waited.set()),
            )
            await client.drain()
            await asyncio.wait_for(waited.wait(), timeout=30)
            await client.close()
            server.close()
            await server.wait_closed()
            return received

        received = asyncio.run(main())
        assert received == [None]


class TestMultiplexing:
    def test_interleaved_requests_demultiplex_by_id(
        self, grid10, traffic_snapshot, profile
    ):
        """Different formats in flight at once on one connection, each
        reply landing on its own future."""
        cloak = _cloak_doc(traffic_snapshot, profile, 0)
        missing = dict(cloak, user_id=10_000)
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)

        async def main():
            async with FrontendServer(service, batch_window_ms=5.0) as server:
                client = await FrontendClient.connect(server.host, server.port)
                futures = [
                    client.submit(cloak),
                    client.submit(missing),
                    client.submit(_stats_doc()),
                ]
                outcomes = await asyncio.gather(*futures)
                await client.close()
                return outcomes

        ok, bad, stats = asyncio.run(main())
        assert ok["status"] == "ok"
        assert bad["status"] == "error"
        assert bad["error"]["code"] == "mobility_unavailable"
        assert stats["format"] == STATS_FORMAT

    def test_string_request_ids_echo_verbatim(self, grid10, traffic_snapshot):
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)

        async def main():
            async with FrontendServer(service) as server:
                reader, writer = await _raw_connection(server)
                writer.write(
                    encode_frame(
                        json.dumps(
                            {"request_id": "alpha/7", "request": _stats_doc()}
                        )
                    )
                )
                reply = json.loads(await _read_frame(reader))
                writer.close()
                await writer.wait_closed()
                return reply

        reply = asyncio.run(main())
        assert reply["request_id"] == "alpha/7"
        assert reply["outcome"]["status"] == "ok"

    def test_unmatched_replies_are_kept_not_dropped(self):
        """A reply the client cannot attribute lands in ``unmatched``
        (bounded) instead of vanishing — the observable half of the
        de-mux contract when a server misbehaves."""

        async def main():
            async def misecho(reader, writer):
                decoder = FrameDecoder()
                frame = json.loads(await _read_frame(reader, decoder))
                writer.write(
                    encode_frame(
                        json.dumps(
                            {
                                "request_id": "not-yours",
                                "outcome": {"status": "ok"},
                            }
                        )
                    )
                )
                await writer.drain()

            server = await asyncio.start_server(misecho, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await FrontendClient.connect("127.0.0.1", port)
            future = client.submit(_stats_doc())
            for _ in range(200):
                if client.unmatched:
                    break
                await asyncio.sleep(0.01)
            unmatched = client.unmatched
            assert not future.done()
            await client.close()
            server.close()
            await server.wait_closed()
            return unmatched

        unmatched = asyncio.run(main())
        assert unmatched and unmatched[0]["request_id"] == "not-yours"


class TestCoalescing:
    def test_one_burst_becomes_one_batch(self, grid10, traffic_snapshot, profile):
        documents = [_cloak_doc(traffic_snapshot, profile, i) for i in range(6)]
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)

        async def main():
            async with FrontendServer(service, batch_window_ms=20.0) as server:
                client = await FrontendClient.connect(server.host, server.port)
                futures = [client.submit(doc) for doc in documents]
                outcomes = await asyncio.gather(*futures)
                stats = await client.stats()
                await client.close()
                return outcomes, stats

        outcomes, stats = asyncio.run(main())
        assert all(outcome["status"] == "ok" for outcome in outcomes)
        # One connection read delivers the whole burst, so one lane flush
        # serves all six — that is the coalescing win being measured by
        # the open-loop bench.
        assert stats["counters"]["batches_coalesced"] == 1
        assert stats["counters"]["requests_served"] == 6

    def test_batch_max_flushes_without_waiting(
        self, grid10, traffic_snapshot, profile
    ):
        documents = [_cloak_doc(traffic_snapshot, profile, i) for i in range(4)]
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)

        async def main():
            # A window of 10 s would stall the test if batch_max=2 did
            # not flush eagerly.
            async with FrontendServer(
                service, batch_window_ms=10_000.0, batch_max=2
            ) as server:
                client = await FrontendClient.connect(server.host, server.port)
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*[client.submit(d) for d in documents]),
                    timeout=30,
                )
                stats = await client.stats()
                await client.close()
                return outcomes, stats

        outcomes, stats = asyncio.run(main())
        assert all(outcome["status"] == "ok" for outcome in outcomes)
        assert stats["counters"]["batches_coalesced"] == 2

    def test_rejects_nonsensical_tuning(self, grid10):
        service = AnonymizerService(grid10)
        for kwargs in (
            {"batch_max": 0},
            {"batch_window_ms": -1.0},
            {"max_pending": 0},
            {"max_connection_pending": 0},
            {"serve_threads": 0},
            {"idle_timeout_s": 0.0},
            {"idle_timeout_s": -1.0},
            {"max_write_buffer_bytes": 0},
            {"drain_timeout_s": 0.0},
            {"max_malformed_frames": 0},
            {"drain_deadline_s": -1.0},
        ):
            with pytest.raises(ProfileError):
                FrontendServer(service, **kwargs)


class TestStatsOverWire:
    def test_merges_service_and_frontend_counters(
        self, grid10, traffic_snapshot, profile
    ):
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        document = _cloak_doc(traffic_snapshot, profile, 0)

        async def main():
            async with FrontendServer(service, batch_window_ms=1.0) as server:
                client = await FrontendClient.connect(server.host, server.port)
                await client.submit(document)
                stats = await client.stats()
                await client.close()
                return stats

        stats = asyncio.run(main())
        assert stats["format"] == STATS_FORMAT
        assert stats["version"] == WIRE_VERSION
        counters = stats["counters"]
        # Service-side counters...
        for key in (
            "requests_served",
            "failures",
            "reversals_served",
            "reversal_failures",
            "requests_shed",
            "worker_restarts",
            "inline_fallbacks",
            "inflight",
        ):
            assert key in counters, key
        # ...merged with the front-end's own.
        assert counters["connections"] == 1
        assert counters["frames_rejected"] == 0
        assert counters["batches_coalesced"] == 1
        assert counters["frontend_requests_shed"] == 0
        assert counters["frontend_pending"] == 0
        assert counters["requests_served"] == 1
        # The lifecycle counters ride along, all still zero on a clean run.
        for key in (
            "connections_evicted",
            "idle_timeouts",
            "expired_before_dispatch",
            "malformed_frames",
            "drained_inflight",
        ):
            assert counters[key] == 0, key


class TestOverload:
    def test_global_queue_bound_sheds_structured(
        self, grid10, traffic_snapshot, profile
    ):
        documents = [_cloak_doc(traffic_snapshot, profile, i) for i in range(5)]
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)

        async def main():
            async with FrontendServer(
                service, batch_window_ms=50.0, max_pending=2
            ) as server:
                client = await FrontendClient.connect(server.host, server.port)
                # One burst arrives in one connection read: the first two
                # are admitted into the (un-flushed) lane, the rest must
                # shed immediately rather than buffer without bound.
                futures = [client.submit(doc) for doc in documents]
                outcomes = await asyncio.gather(*futures)
                stats = await client.stats()
                await client.close()
                return outcomes, stats

        outcomes, stats = asyncio.run(main())
        served = [o for o in outcomes if o["status"] == "ok"]
        shed = [o for o in outcomes if o["status"] == "error"]
        assert len(served) == 2
        assert len(shed) == 3
        assert {o["error"]["code"] for o in shed} == {"overloaded"}
        assert stats["counters"]["frontend_requests_shed"] == 3
        # The service itself never saw the shed requests.
        assert stats["counters"]["requests_shed"] == 0
        assert stats["counters"]["requests_served"] == 2

    def test_per_connection_bound_protects_other_clients(
        self, grid10, traffic_snapshot, profile
    ):
        documents = [_cloak_doc(traffic_snapshot, profile, i) for i in range(4)]
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)

        async def main():
            async with FrontendServer(
                service,
                batch_window_ms=50.0,
                max_connection_pending=1,
                max_pending=100,
            ) as server:
                greedy = await FrontendClient.connect(server.host, server.port)
                polite = await FrontendClient.connect(server.host, server.port)
                greedy_futures = [greedy.submit(doc) for doc in documents]
                greedy_outcomes = await asyncio.gather(*greedy_futures)
                polite_outcome = await polite.submit(documents[0])
                await greedy.close()
                await polite.close()
                return greedy_outcomes, polite_outcome

        greedy_outcomes, polite_outcome = asyncio.run(main())
        assert [o["status"] for o in greedy_outcomes].count("ok") == 1
        shed = [o for o in greedy_outcomes if o["status"] == "error"]
        assert {o["error"]["code"] for o in shed} == {"overloaded"}
        # The per-connection cap never touched the second client.
        assert polite_outcome["status"] == "ok"


class TestAdversarialFraming:
    def test_oversized_frame_answered_and_connection_dropped(
        self, grid10, traffic_snapshot, profile
    ):
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        document = _cloak_doc(traffic_snapshot, profile, 0)

        async def main():
            async with FrontendServer(
                service, batch_window_ms=1.0, max_frame_bytes=1 << 12
            ) as server:
                bystander = await FrontendClient.connect(server.host, server.port)
                reader, writer = await _raw_connection(server)
                writer.write(struct.pack(">I", 1 << 20))
                reply = json.loads(
                    await _read_frame(reader, FrameDecoder(1 << 12))
                )
                trailing = await reader.read(1 << 16)
                # The hostile connection is answered once, then dropped...
                assert trailing == b""
                # ...and the bystander's connection never noticed.
                outcome = await bystander.submit(document)
                stats = await bystander.stats()
                writer.close()
                await bystander.close()
                return reply, outcome, stats

        reply, outcome, stats = asyncio.run(main())
        assert reply["request_id"] is None
        assert reply["outcome"]["error"]["code"] == MALFORMED_DOCUMENT
        assert outcome["status"] == "ok"
        assert stats["counters"]["frames_rejected"] == 1

    def test_garbage_json_keeps_connection_usable(self, grid10, traffic_snapshot):
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)

        async def main():
            async with FrontendServer(service) as server:
                reader, writer = await _raw_connection(server)
                decoder = FrameDecoder()
                writer.write(encode_frame(b"{definitely not json"))
                garbage_reply = json.loads(await _read_frame(reader, decoder))
                # The byte layer is intact — only the payload was bad —
                # so the same connection keeps serving.
                writer.write(
                    encode_frame(
                        json.dumps({"request_id": 2, "request": _stats_doc()})
                    )
                )
                next_reply = json.loads(await _read_frame(reader, decoder))
                writer.close()
                await writer.wait_closed()
                return garbage_reply, next_reply

        garbage_reply, next_reply = asyncio.run(main())
        assert garbage_reply["request_id"] is None
        assert garbage_reply["outcome"]["error"]["code"] == MALFORMED_DOCUMENT
        assert "not valid JSON" in garbage_reply["outcome"]["error"]["message"]
        assert next_reply["request_id"] == 2
        assert next_reply["outcome"]["status"] == "ok"

    @pytest.mark.parametrize(
        "payload",
        [
            b"[1,2,3]",
            b'{"request": {"format": "repro.stats_request", "version": 1}}',
            b'{"request_id": true, "request": {}}',
            b'{"request_id": {"nested": 1}, "request": {}}',
        ],
        ids=["non-object", "missing-id", "bool-id", "object-id"],
    )
    def test_unattributable_frames_answered_with_null_id(
        self, grid10, traffic_snapshot, payload
    ):
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)

        async def main():
            async with FrontendServer(service) as server:
                reader, writer = await _raw_connection(server)
                writer.write(encode_frame(payload))
                reply = json.loads(await _read_frame(reader))
                writer.close()
                await writer.wait_closed()
                return reply

        reply = asyncio.run(main())
        assert reply["request_id"] is None
        assert reply["outcome"]["status"] == "error"
        assert reply["outcome"]["error"]["code"] == MALFORMED_DOCUMENT

    @pytest.mark.parametrize(
        "raw_bytes",
        [b"\x00\x00", encode_frame(b'{"request_id":1}')[:-3]],
        ids=["truncated-prefix", "mid-frame-disconnect"],
    )
    def test_disconnect_inside_a_frame_is_counted_not_fatal(
        self, grid10, traffic_snapshot, profile, raw_bytes
    ):
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        document = _cloak_doc(traffic_snapshot, profile, 0)

        async def main():
            async with FrontendServer(service, batch_window_ms=1.0) as server:
                _, writer = await _raw_connection(server)
                writer.write(raw_bytes)
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                # The server is fully alive for the next client.
                client = await FrontendClient.connect(server.host, server.port)
                outcome = await client.submit(document)
                for _ in range(200):
                    stats = await client.stats()
                    if stats["counters"]["frames_rejected"]:
                        break
                    await asyncio.sleep(0.01)
                await client.close()
                return outcome, stats

        outcome, stats = asyncio.run(main())
        assert outcome["status"] == "ok"
        assert stats["counters"]["frames_rejected"] == 1


class TestDeadlinesAndFaults:
    def test_frame_deadline_reaches_serving(
        self, grid10, traffic_snapshot, profile, monkeypatch
    ):
        """A frame-level ``deadline_ms`` becomes the document's deadline;
        an injected delay (``REPRO_FAULT_PLAN`` semantics) then expires it
        into the structured code — observed through the socket."""
        plan = FaultPlan(
            actions=(
                FaultAction(kind="delay", delay_ms=10_000.0, op="cloak", item=0),
            )
        )
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        service = AnonymizerService(grid10, backend=InlineBackend())
        service.update_snapshot(traffic_snapshot)
        document = _cloak_doc(traffic_snapshot, profile, 0)
        assert "deadline_ms" not in document

        async def main():
            async with FrontendServer(service, batch_window_ms=1.0) as server:
                client = await FrontendClient.connect(server.host, server.port)
                expired = await client.submit(document, deadline_ms=50.0)
                # Without the frame deadline the same document sails
                # through — the delay only advances the serving clock.
                served = await client.submit(document)
                await client.close()
                return expired, served

        expired, served = asyncio.run(main())
        assert expired["status"] == "error"
        assert expired["error"]["code"] == "deadline_exceeded"
        assert served["status"] == "ok"

    def test_document_deadline_wins_over_frame_deadline(
        self, grid10, traffic_snapshot, profile
    ):
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        document = dict(
            _cloak_doc(traffic_snapshot, profile, 0), deadline_ms=60_000.0
        )

        async def main():
            async with FrontendServer(service, batch_window_ms=1.0) as server:
                client = await FrontendClient.connect(server.host, server.port)
                # A frame deadline of ~0 would expire anything it applied
                # to; the document's own generous deadline must win.
                outcome = await client.submit(document, deadline_ms=0.001)
                await client.close()
                return outcome

        outcome = asyncio.run(main())
        assert outcome["status"] == "ok"


class TestLifecycleHardening:
    def test_idle_connection_evicted_despite_trickled_bytes(
        self, grid10, traffic_snapshot, profile
    ):
        """Slow loris: a peer trickling partial-frame bytes never resets
        the idle clock — only a *completed* frame does — and the server is
        fully alive for the next client afterwards."""
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        document = _cloak_doc(traffic_snapshot, profile, 0)

        async def main():
            async with FrontendServer(
                service, batch_window_ms=1.0, idle_timeout_s=0.2
            ) as server:
                reader, writer = await _raw_connection(server)
                frame = encode_frame(
                    json.dumps({"request_id": 1, "request": _stats_doc()})
                )
                eof = asyncio.Event()

                async def watch():
                    try:
                        await reader.read(1 << 16)
                    except (ConnectionError, OSError):
                        pass
                    eof.set()

                watcher = asyncio.get_running_loop().create_task(watch())
                try:
                    # Never the last byte: the frame must never complete.
                    for index in range(len(frame) - 1):
                        writer.write(frame[index : index + 1])
                        await writer.drain()
                        await asyncio.sleep(0.03)
                        if eof.is_set():
                            break
                except (ConnectionError, OSError):
                    pass
                await asyncio.wait_for(eof.wait(), timeout=30)
                await watcher
                writer.close()
                # A fresh client connects and serves normally.
                client = await FrontendClient.connect(server.host, server.port)
                outcome = await client.submit(document)
                stats = await client.stats()
                await client.close()
                return outcome, stats

        outcome, stats = asyncio.run(main())
        assert outcome["status"] == "ok"
        assert stats["counters"]["idle_timeouts"] == 1
        assert stats["counters"]["connections_evicted"] == 1

    def test_malformed_strikes_cut_the_connection(self, grid10, traffic_snapshot):
        """Each malformed frame is answered; the strike that reaches the
        limit closes the connection (flushing that final error reply)."""
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)

        async def main():
            async with FrontendServer(
                service, max_malformed_frames=3
            ) as server:
                reader, writer = await _raw_connection(server)
                decoder = FrameDecoder()
                for _ in range(3):
                    writer.write(encode_frame(b"{definitely not json"))
                await writer.drain()
                replies = []
                while len(replies) < 3:
                    data = await asyncio.wait_for(reader.read(1 << 16), 30)
                    assert data, "connection closed before the third reply"
                    replies.extend(decoder.feed(data))
                trailing = await asyncio.wait_for(reader.read(1 << 16), 30)
                writer.close()
                client = await FrontendClient.connect(server.host, server.port)
                stats = await client.stats()
                await client.close()
                return replies, trailing, stats

        replies, trailing, stats = asyncio.run(main())
        for payload in replies:
            reply = json.loads(payload)
            assert reply["outcome"]["error"]["code"] == MALFORMED_DOCUMENT
        assert trailing == b""  # closed, not aborted: clean EOF after reply 3
        assert stats["counters"]["malformed_frames"] == 3
        assert stats["counters"]["frames_rejected"] == 3
        assert stats["counters"]["connections_evicted"] == 1

    def test_slow_reader_evicted_on_write_backlog(
        self, grid10, traffic_snapshot, profile
    ):
        """A peer that sends but never reads blows the write-backlog bound
        and is evicted; the server stays healthy for everyone else."""
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        document = _cloak_doc(traffic_snapshot, profile, 0)

        async def main():
            loop = asyncio.get_running_loop()
            async with FrontendServer(
                service, batch_window_ms=1.0, max_write_buffer_bytes=1 << 14
            ) as server:
                hog = await FaultyConnection.connect(
                    server.host, server.port, recv_buffer_bytes=2048
                )
                deadline_at = loop.time() + 30
                sent = 0
                # Flood stats requests and read nothing: replies pile up in
                # the hog's tiny kernel buffer, then the server's capped
                # send buffer, then the transport buffer — which trips the
                # bound.
                while server.counters()["connections_evicted"] == 0:
                    assert loop.time() < deadline_at, "hog was never evicted"
                    try:
                        await hog.send_frame(
                            {"request_id": sent, "request": _stats_doc()}
                        )
                    except (ConnectionError, OSError):
                        pass  # reset by the eviction racing our send
                    sent += 1
                await hog.close()
                client = await FrontendClient.connect(server.host, server.port)
                outcome = await client.submit(document)
                await client.close()
                return outcome, server.counters()

        outcome, counters = asyncio.run(main())
        assert outcome["status"] == "ok"
        assert counters["connections_evicted"] == 1
        assert counters["idle_timeouts"] == 0  # evicted for backlog, not idleness

    def test_stalled_reader_cannot_wedge_other_clients(
        self, grid10, traffic_snapshot, profile
    ):
        """Reply drains are per-connection and bounded: a stalled reader
        sharing a coalesced batch cannot delay the other connections'
        replies, and close() stays prompt."""
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        hog_doc = json.dumps(
            {"request_id": 0, "request": _cloak_doc(traffic_snapshot, profile, 0)}
        )
        documents = [
            _cloak_doc(traffic_snapshot, profile, index) for index in range(1, 4)
        ]

        async def main():
            server = FrontendServer(
                service,
                batch_window_ms=20.0,
                max_write_buffer_bytes=1 << 14,
                drain_timeout_s=0.3,
            )
            await server.start()
            hog = await FaultyConnection.connect(
                server.host, server.port, recv_buffer_bytes=2048
            )
            # One batch, two connections: 80 fat replies the hog will never
            # read, three the bystander is waiting on.
            for index in range(80):
                try:
                    await hog.send_frame(
                        json.dumps(
                            {
                                "request_id": index,
                                "request": _cloak_doc(
                                    traffic_snapshot, profile, index % 8
                                ),
                            }
                        )
                    )
                except (ConnectionError, OSError):
                    break
            bystander = await FrontendClient.connect(server.host, server.port)
            outcomes = await asyncio.wait_for(
                asyncio.gather(*[bystander.submit(d) for d in documents]),
                timeout=30,
            )
            await asyncio.wait_for(server.close(), timeout=30)
            await bystander.close()
            await hog.close()
            return outcomes, server.counters()

        outcomes, counters = asyncio.run(main())
        assert all(outcome["status"] == "ok" for outcome in outcomes)
        assert counters["connections_evicted"] == 1


class TestPingHealth:
    def test_ping_matches_direct_service_handle(self, grid10, traffic_snapshot):
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        expected = _canonical(service.handle(_ping_doc()))

        async def main():
            async with FrontendServer(service) as server:
                client = await FrontendClient.connect(server.host, server.port)
                outcome = await client.submit(_ping_doc())
                await client.close()
                return outcome

        outcome = asyncio.run(main())
        assert outcome["format"] == PING_FORMAT
        assert _canonical(outcome) == expected

    def test_probes_answer_before_admission(
        self, grid10, traffic_snapshot, profile
    ):
        """Ping and health must work exactly when the queues are full —
        they answer before the admission check that sheds everything
        else."""
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        documents = [_cloak_doc(traffic_snapshot, profile, i) for i in range(2)]

        async def main():
            server = FrontendServer(
                service, batch_window_ms=60_000.0, max_pending=1
            )
            await server.start()
            client = await FrontendClient.connect(server.host, server.port)
            blocked = client.submit(documents[0])  # admitted, parked in lane
            shed = await client.submit(documents[1])  # queue full
            ping = await client.submit(_ping_doc())
            health = await client.submit(_health_doc())
            close_task = asyncio.get_running_loop().create_task(server.close())
            outcome = await asyncio.wait_for(blocked, timeout=30)
            await asyncio.wait_for(close_task, timeout=30)
            await client.close()
            return shed, ping, health, outcome

        shed, ping, health, outcome = asyncio.run(main())
        assert shed["error"]["code"] == "overloaded"
        assert ping["status"] == "ok"
        assert health["format"] == HEALTH_FORMAT
        assert health["status"] == "ok"
        assert health["counters"]["frontend_pending"] == 1
        assert outcome["status"] == "ok"  # close() flushed the parked lane


class TestDeadlinePropagation:
    def test_expired_request_shed_before_dispatch(
        self, grid10, traffic_snapshot, profile
    ):
        """A request whose deadline expires while coalescing is answered
        with ``deadline_exceeded`` by the front-end — the engine never
        sees it."""
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        dispatched = []
        original = service.handle_batch

        def capture(documents):
            dispatched.extend(documents)
            return original(documents)

        service.handle_batch = capture
        document = _cloak_doc(traffic_snapshot, profile, 0)

        async def main():
            async with FrontendServer(service, batch_window_ms=150.0) as server:
                client = await FrontendClient.connect(server.host, server.port)
                outcome = await client.submit(document, deadline_ms=1.0)
                stats = await client.stats()
                await client.close()
                return outcome, stats

        outcome, stats = asyncio.run(main())
        assert outcome["status"] == "error"
        assert outcome["error"]["code"] == "deadline_exceeded"
        assert "front-end queue" in outcome["error"]["message"]
        assert dispatched == []
        assert stats["counters"]["expired_before_dispatch"] == 1

    def test_remaining_budget_forwarded_to_engine(
        self, grid10, traffic_snapshot, profile
    ):
        """A live request reaches the engine with only its *remaining*
        budget — the coalescing wait already subtracted — while a
        deadline-free request stays deadline-free."""
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        captured = []
        original = service.handle_batch

        def capture(documents):
            captured.extend(documents)
            return original(documents)

        service.handle_batch = capture
        document = _cloak_doc(traffic_snapshot, profile, 0)
        assert "deadline_ms" not in document

        async def main():
            async with FrontendServer(service, batch_window_ms=50.0) as server:
                client = await FrontendClient.connect(server.host, server.port)
                stamped = await client.submit(document, deadline_ms=60_000.0)
                bare = await client.submit(document)
                await client.close()
                return stamped, bare

        stamped, bare = asyncio.run(main())
        assert stamped["status"] == "ok" and bare["status"] == "ok"
        assert len(captured) == 2
        forwarded = captured[0]["deadline_ms"]
        # Shrunk by the ~50 ms coalescing window, but nowhere near spent.
        assert 55_000.0 < forwarded < 60_000.0
        assert "deadline_ms" not in captured[1]


class TestGracefulDrain:
    def _gated_service(self, grid10, traffic_snapshot):
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)
        started = threading.Event()
        gate = threading.Event()
        original = service.handle_batch

        def gated(documents):
            started.set()
            assert gate.wait(timeout=60), "test gate never released"
            return original(documents)

        service.handle_batch = gated
        return service, started, gate

    def test_drain_completes_inflight_and_sheds_new(
        self, grid10, traffic_snapshot, profile
    ):
        service, started, gate = self._gated_service(grid10, traffic_snapshot)
        documents = [_cloak_doc(traffic_snapshot, profile, i) for i in range(3)]

        try:

            async def main():
                server = FrontendServer(service, batch_window_ms=1.0)
                await server.start()
                client = await FrontendClient.connect(server.host, server.port)
                raw_reader, raw_writer = await _raw_connection(server)
                futures = [client.submit(doc) for doc in documents]
                await client.drain()
                while not started.is_set():
                    await asyncio.sleep(0.01)
                close_task = asyncio.get_running_loop().create_task(
                    server.close()
                )
                await asyncio.sleep(0.05)
                # The listener is down: new connections are refused...
                with pytest.raises(ConnectionError):
                    await FrontendClient.connect(server.host, server.port)
                # ...existing connections stay readable, but new work is
                # shed with the structured overload code...
                decoder = FrameDecoder()
                raw_writer.write(
                    encode_frame(
                        json.dumps(
                            {"request_id": "late", "request": documents[0]}
                        )
                    )
                )
                late = json.loads(await _read_frame(raw_reader, decoder))
                # ...and a health probe reports the drain in progress.
                raw_writer.write(
                    encode_frame(
                        json.dumps({"request_id": "h", "request": _health_doc()})
                    )
                )
                health = json.loads(await _read_frame(raw_reader, decoder))
                gate.set()
                await asyncio.wait_for(close_task, timeout=30)
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*futures), timeout=30
                )
                await client.close()
                raw_writer.close()
                return late, health, outcomes, server.counters()

            late, health, outcomes, counters = asyncio.run(main())
        finally:
            gate.set()
        assert late["outcome"]["error"]["code"] == "overloaded"
        assert health["outcome"]["status"] == "draining"
        assert all(outcome["status"] == "ok" for outcome in outcomes)
        assert counters["drained_inflight"] == 3
        assert counters["frontend_requests_shed"] == 1

    def test_drain_deadline_escalates_on_wedged_work(
        self, grid10, traffic_snapshot, profile
    ):
        """Work that outlives the drain deadline is cancelled: close()
        returns promptly and the abandoned clients see the connection
        close, not a hang."""
        service, started, gate = self._gated_service(grid10, traffic_snapshot)
        documents = [_cloak_doc(traffic_snapshot, profile, i) for i in range(3)]

        try:

            async def main():
                loop = asyncio.get_running_loop()
                server = FrontendServer(
                    service, batch_window_ms=1.0, drain_deadline_s=0.2
                )
                await server.start()
                client = await FrontendClient.connect(server.host, server.port)
                futures = [client.submit(doc) for doc in documents]
                await client.drain()
                while not started.is_set():
                    await asyncio.sleep(0.01)
                begin = loop.time()
                await asyncio.wait_for(server.close(), timeout=30)
                elapsed = loop.time() - begin
                results = await asyncio.wait_for(
                    asyncio.gather(*futures, return_exceptions=True), timeout=30
                )
                await client.close()
                return elapsed, results

            elapsed, results = asyncio.run(main())
        finally:
            gate.set()  # release the wedged executor thread
        assert elapsed < 5.0  # escalated at ~0.2 s, never waited the gate out
        assert all(isinstance(result, ConnectionError) for result in results)


class TestShutdown:
    def test_close_drains_pending_replies(self, grid10, traffic_snapshot, profile):
        documents = [_cloak_doc(traffic_snapshot, profile, i) for i in range(3)]
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)

        async def main():
            server = FrontendServer(service, batch_window_ms=60_000.0)
            await server.start()
            client = await FrontendClient.connect(server.host, server.port)
            futures = [client.submit(doc) for doc in documents]
            await client.drain()
            await asyncio.sleep(0.05)  # let the frames land in the lane
            # The window is a minute out — close() must flush the lane,
            # serve it, and write every reply before tearing down.
            await asyncio.wait_for(server.close(), timeout=30)
            outcomes = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=30
            )
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(
                    FrontendClient.connect(server.host, server.port), timeout=5
                )
            await client.close()
            return outcomes

        outcomes = asyncio.run(main())
        assert all(outcome["status"] == "ok" for outcome in outcomes)

    def test_close_is_idempotent(self, grid10):
        service = AnonymizerService(grid10)

        async def main():
            server = FrontendServer(service)
            await server.start()
            await server.close()
            await server.close()

        asyncio.run(main())

    def test_client_rejects_submits_after_close(self, grid10, traffic_snapshot):
        service = AnonymizerService(grid10)
        service.update_snapshot(traffic_snapshot)

        async def main():
            async with FrontendServer(service) as server:
                client = await FrontendClient.connect(server.host, server.port)
                await client.close()
                with pytest.raises(ConnectionError):
                    client.submit(_stats_doc())

        asyncio.run(main())


class TestConsoleEntry:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_serves_and_drains_on_signal(self, signum):
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(repo_src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.lbs.frontend",
                "--port",
                "0",
                "--grid-side",
                "6",
                "--batch-window-ms",
                "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            ready = proc.stdout.readline().split()
            assert ready[:1] == ["FRONTEND_READY"]
            host, port = ready[1], int(ready[2])

            async def roundtrip():
                client = await FrontendClient.connect(host, port)
                stats = await client.stats()
                await client.close()
                return stats

            stats = asyncio.run(roundtrip())
            assert stats["counters"]["connections"] == 1
            proc.send_signal(signum)
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert "draining" in out
        assert "Traceback" not in err

    def test_sigterm_completes_inflight_requests(self, profile):
        """SIGTERM with N requests parked behind a huge batch window:
        the drain flushes the lane, all N replies arrive, and the process
        exits 0 within its drain deadline."""
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(repo_src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.lbs.frontend",
                "--port",
                "0",
                "--grid-side",
                "6",
                "--batch-window-ms",
                "10000",
                "--drain-deadline-s",
                "20",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            ready = proc.stdout.readline().split()
            assert ready[:1] == ["FRONTEND_READY"]
            host, port = ready[1], int(ready[2])
            documents = [
                CloakRequestDoc.from_request(
                    CloakRequest(
                        user_id=user_id,
                        profile=profile,
                        chain=KeyChain.from_passphrases(
                            [f"sig{user_id}-1", f"sig{user_id}-2"]
                        ),
                    )
                ).to_dict()
                for user_id in range(4)
            ]

            async def drive():
                client = await FrontendClient.connect(host, port)
                futures = [client.submit(doc) for doc in documents]
                await client.drain()
                # The stats round-trip proves all four were admitted and
                # are parked in the lane before the signal goes out.
                stats = await client.stats()
                assert stats["counters"]["frontend_pending"] == 4
                proc.send_signal(signal.SIGTERM)
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*futures), timeout=30
                )
                await client.close()
                return outcomes

            outcomes = asyncio.run(drive())
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert all(outcome["status"] == "ok" for outcome in outcomes)
        assert proc.returncode == 0, err
        assert "draining" in out
        assert "Traceback" not in err


class TestConsoleArguments:
    """Bad numeric options are usage errors (exit 2 with a usage line),
    raised before any map is built or backend started."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--workers", "-3"],
            ["--backend", "process", "--workers", "0"],
            ["--batch-max", "0"],
            ["--max-pending", "0"],
            ["--max-connection-pending", "-1"],
            ["--max-inflight", "0"],
            ["--grid-side", "0"],
            ["--users-per-segment", "0"],
            ["--batch-max", "many"],
            ["--workers", "2"],
            ["--backend", "inline", "--workers", "1"],
            ["--backend", "thread"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_rejected_with_usage(self, argv, capsys):
        from repro.lbs.frontend import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro.lbs.frontend")
        assert "Traceback" not in err

    def test_workers_accepted_for_process_backend(self):
        from repro.lbs.frontend import _build_backend, _parser

        args = _parser().parse_args(["--backend", "process", "--workers", "3"])
        assert args.workers == 3
        backend = _build_backend(args)
        try:
            assert backend.max_workers == 3
        finally:
            backend.close()
