"""The asyncio TCP front-end of the anonymization service.

This is the subsystem that puts :class:`~repro.lbs.service.AnonymizerService`
on a socket — the paper's trusted anonymizer finally *serving*, not just
callable. One event loop multiplexes any number of client connections onto
one service; the blocking engine work runs off-loop so the socket plane
stays responsive while a batch cloaks.

**Frame protocol** (see :mod:`repro.lbs.framing` for the byte layer):
every frame payload is a JSON object. Requests:

    ``{"request_id": <int|str>, "request": <wire document>,
       "deadline_ms": <optional float>}``

``request`` is any document :meth:`AnonymizerService.handle` accepts — the
front-end adds no formats of its own except that ``repro.stats_request``
replies are enriched with the front-end's counters. A frame-level
``deadline_ms`` is a convenience default: it is copied into the inner
document when (and only when) that document carries none. Replies:

    ``{"request_id": <echoed>, "outcome": <outcome document>}``

**Multiplexing.** Requests on one connection are independent: many may be
in flight, and replies come back *as completed* — out of submission order —
correlated only by the echoed ``request_id`` (any JSON string or integer;
uniqueness is the client's business). Frames the server cannot attribute
(bad JSON, missing ``request_id``) are answered with ``request_id: null``
and a structured ``malformed_document`` outcome.

**Batch coalescing.** Single cloak and single reversal documents are not
served one by one: each lands in a per-format lane, and a lane is flushed
into one :meth:`AnonymizerService.handle_batch` call when it holds
``batch_max`` items, when ``batch_window_ms`` elapses since its first
item, or — the adaptive case — the moment the serving executor comes free
while earlier work had it busy (see the lane implementation notes). A
process-pool backend therefore pays its dispatch overhead once per
coalesced batch instead of once per connection round-trip, and saturated
batches grow toward ``batch_max`` on their own, which is what makes the
socket path's throughput track the raw ``cloak_batch`` numbers
(``BENCH_frontend.json``). Positional outcomes are de-multiplexed back to
their connections. Other formats (reversal batches, stats, unknown)
bypass the lanes and serve individually.

**Overload.** Two bounded queues guard admission *before* the service's
own ``max_inflight`` budget: a global cap (``max_pending``) and a
per-connection cap (``max_connection_pending``, so one greedy client
cannot starve the rest). A frame past either cap is shed immediately with
the structured ``overloaded`` code — same contract as service-level
shedding, one layer earlier.

**Deadline propagation.** A request carrying ``deadline_ms`` (on the
frame or the document) is stamped on arrival; at dispatch time the
front-end subtracts the queue/coalesce wait, sheds already-expired
requests with ``deadline_exceeded`` *before* they reach the executor, and
forwards only the *remaining* budget as the document's ``deadline_ms`` —
so the cooperative deadline the engine honors measures end-to-end time,
not just engine time.

**Connection lifecycle.** Every peer is assumed hostile until it behaves:
a connection that completes no frame within ``idle_timeout_s`` is closed
(slow-loris included — trickling bytes does not reset the clock, though a
peer still owed replies is never idle); a peer
that stops *reading* is evicted once its write backlog exceeds
``max_write_buffer_bytes`` or stays above the flow-control high-water
mark past ``drain_timeout_s`` (each connection drains independently, so
one stalled peer cannot wedge a coalesced batch's reply fan-out); a peer
that keeps sending malformed frames is cut off at
``max_malformed_frames`` strikes. Two probe ops answer *before*
admission, so they work under overload and during drain:
``repro.ping`` (liveness, served by the service) and
``repro.health_request`` (front-end counters + drain status).

**Shutdown.** :meth:`FrontendServer.close` (and SIGINT/SIGTERM on the
``python -m repro.lbs.frontend`` entry point) is a drain ladder, the
process-level mirror of the backends' teardown ladder: the listener
stops, new frames are shed with ``overloaded`` while existing connections
stay readable, queued lanes flush, and in-flight work gets
``drain_deadline_s`` to finish and write its replies — then the ladder
escalates, cancelling whatever remains and closing the connections
regardless.

Single-loop discipline: all server state — lanes, pending counts, counters
— is touched only from the event-loop thread, so the front-end needs no
locks; the service's own counters remain lock-guarded as before.

:class:`ResilientClient` is the client-side complement: reconnect with a
seeded exponential backoff (a :class:`~repro.lbs.deferral
.TemporalTolerance` wait schedule), a per-request deadline budget, and
safe-to-retry classification by structured error code — what lets a load
generator or example client ride out injected network faults and server
restarts.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import signal
import socket
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import (
    DeadlineExceededError,
    OverloadedError,
    ProfileError,
    ReverseCloakError,
    WireFormatError,
)
from .deferral import TemporalTolerance
from .faults import Deadline, NetworkFaultInjector
from .framing import DEFAULT_MAX_FRAME_BYTES, FrameDecoder, encode_frame
from .service import AnonymizerService
from .wire import (
    CLOAK_REQUEST_FORMAT,
    DEANONYMIZE_REQUEST_FORMAT,
    HEALTH_FORMAT,
    HEALTH_REQUEST_FORMAT,
    PING_REQUEST_FORMAT,
    STATS_REQUEST_FORMAT,
    WIRE_VERSION,
    OutcomeDoc,
)

__all__ = [
    "FrontendServer",
    "FrontendClient",
    "ResilientClient",
    "RETRYABLE_ERROR_CODES",
    "main",
]

#: Socket read granularity of both ends.
_READ_CHUNK = 1 << 16

#: Errors a write/drain on a dying peer surfaces; never fatal to the server.
_PEER_ERRORS = (ConnectionError, TimeoutError, OSError, RuntimeError)


class _Connection:
    """Per-connection server state: the write end, the bounded pending
    count, the malformed-frame strike count, and the closed latch that
    makes late replies no-ops."""

    __slots__ = ("writer", "pending", "strikes", "closed")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.pending = 0
        self.strikes = 0
        self.closed = False


class FrontendServer:
    """Serve one :class:`AnonymizerService` over TCP (see module docs).

    Args:
        service: The service to expose. The server does not own it — the
            caller still closes it (the ``__main__`` entry point does).
        host/port: Bind address; port ``0`` picks an ephemeral port
            (available as :attr:`port` after :meth:`start`).
        batch_window_ms: How long a coalescing lane may wait for company
            after its first request, in milliseconds. ``0`` still
            coalesces whatever one event-loop pass delivers together.
        batch_max: Lane flush threshold — a lane holding this many
            requests flushes immediately.
        max_frame_bytes: Per-frame payload cap, both directions.
        max_pending: Global bound on admitted-but-unanswered requests.
        max_connection_pending: The same bound per connection.
        serve_threads: Width of the off-loop executor the blocking
            service calls run on. The default of 1 serializes engine work
            (correct for CPU-bound cloaking under the GIL); raise it only
            for backends that block without computing.
        idle_timeout_s: Close any connection that completes no frame for
            this long (``None`` — the embedded-server default — never
            times out; the console entry point defaults to 300 s).
            Trickling partial bytes does not reset the clock, but a
            connection with in-flight requests is never idle — the clock
            restarts while replies are owed.
        max_write_buffer_bytes: Per-connection write-backlog bound, both
            kernel- and app-side: ``SO_SNDBUF`` is capped to it, and a
            connection whose transport buffer exceeds it is evicted.
        drain_timeout_s: How long one connection's reply drain may block
            after a batch fan-out before the peer is declared stalled and
            evicted. Per connection — a stalled peer never delays the
            others' backpressure.
        max_malformed_frames: Malformed-frame strikes (bad JSON, bad
            envelope) a connection survives; each strike is still
            answered with a structured error before the last one closes
            the connection.
        drain_deadline_s: Default budget :meth:`close` gives in-flight
            work before escalating (cancelling it). Also the SIGTERM
            drain budget of the console entry point.
    """

    def __init__(
        self,
        service: AnonymizerService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        batch_window_ms: float = 2.0,
        batch_max: int = 64,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_pending: int = 1024,
        max_connection_pending: int = 256,
        serve_threads: int = 1,
        idle_timeout_s: Optional[float] = None,
        max_write_buffer_bytes: int = 1 << 20,
        drain_timeout_s: float = 5.0,
        max_malformed_frames: int = 8,
        drain_deadline_s: float = 10.0,
    ) -> None:
        if batch_max < 1:
            raise ProfileError(f"batch_max must be >= 1, got {batch_max}")
        if batch_window_ms < 0:
            raise ProfileError(
                f"batch_window_ms must be >= 0, got {batch_window_ms}"
            )
        if max_pending < 1:
            raise ProfileError(f"max_pending must be >= 1, got {max_pending}")
        if max_connection_pending < 1:
            raise ProfileError(
                "max_connection_pending must be >= 1, "
                f"got {max_connection_pending}"
            )
        if serve_threads < 1:
            raise ProfileError(f"serve_threads must be >= 1, got {serve_threads}")
        if idle_timeout_s is not None and idle_timeout_s <= 0:
            raise ProfileError(
                f"idle_timeout_s must be positive, got {idle_timeout_s}"
            )
        if max_write_buffer_bytes < 1:
            raise ProfileError(
                "max_write_buffer_bytes must be >= 1, "
                f"got {max_write_buffer_bytes}"
            )
        if drain_timeout_s <= 0:
            raise ProfileError(
                f"drain_timeout_s must be positive, got {drain_timeout_s}"
            )
        if max_malformed_frames < 1:
            raise ProfileError(
                f"max_malformed_frames must be >= 1, got {max_malformed_frames}"
            )
        if drain_deadline_s < 0:
            raise ProfileError(
                f"drain_deadline_s must be >= 0, got {drain_deadline_s}"
            )
        self._service = service
        self._host = host
        self._port = port
        self._batch_window_s = batch_window_ms / 1000.0
        self._batch_max = batch_max
        self._max_frame_bytes = max_frame_bytes
        self._max_pending = max_pending
        self._max_connection_pending = max_connection_pending
        self._serve_threads = serve_threads
        self._idle_timeout_s = idle_timeout_s
        self._max_write_buffer_bytes = max_write_buffer_bytes
        self._drain_timeout_s = drain_timeout_s
        self._max_malformed_frames = max_malformed_frames
        self._drain_deadline_s = drain_deadline_s
        # Lane item: (connection, request_id, request, deadline stamp);
        # the stamp is (budget_ms, arrival time) or None for the common
        # deadline-free request.
        self._lanes: Dict[
            str, List[Tuple[_Connection, Any, dict, Optional[Tuple[float, float]]]]
        ] = {
            "cloak": [],
            "peel": [],
        }
        self._lane_timers: Dict[str, Optional[asyncio.TimerHandle]] = {
            "cloak": None,
            "peel": None,
        }
        self._pending = 0
        self._busy = 0  # executor jobs in flight (adaptive-flush signal)
        self._tasks: Set[asyncio.Task] = set()
        self._handlers: Set[asyncio.Task] = set()
        self._connections: Set[_Connection] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closing = False
        # Counters (event-loop thread only; merged into stats replies).
        self._connections_total = 0
        self._frames_rejected = 0
        self._batches_coalesced = 0
        self._requests_shed = 0
        self._connections_evicted = 0
        self._idle_timeouts = 0
        self._expired_before_dispatch = 0
        self._malformed_frames = 0
        self._drained_inflight = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when created with 0)."""
        return self._port

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("frontend server is already started")
        self._loop = asyncio.get_running_loop()
        self._closing = False
        self._executor = ThreadPoolExecutor(
            max_workers=self._serve_threads,
            thread_name_prefix="reversecloak-frontend",
        )
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("frontend server is not started")
        await self._server.serve_forever()

    async def close(self, drain_deadline_s: Optional[float] = None) -> None:
        """Drain and stop — the process-level teardown ladder.

        Rung by rung: the listener closes (no new connections), admission
        sheds every new frame with ``overloaded`` while existing
        connections stay readable, queued lanes flush, and in-flight work
        gets ``drain_deadline_s`` (default: the constructor's) to finish
        and write its replies. Work still running past the deadline is
        *cancelled* — its replies are abandoned, its clients see the
        connection close — because a wedged batch must not hold the
        process hostage. Idempotent. The wrapped service is *not* closed
        — its owner does that.
        """
        if self._server is None:
            return
        deadline_s = (
            self._drain_deadline_s if drain_deadline_s is None else drain_deadline_s
        )
        self._closing = True
        server, self._server = self._server, None
        server.close()
        for op in self._lanes:
            self._flush(op)
        deadline_at = self._loop.time() + deadline_s
        while self._tasks:
            remaining = deadline_at - self._loop.time()
            if remaining <= 0:
                break
            await asyncio.wait(set(self._tasks), timeout=remaining)
        escalated = bool(self._tasks)
        if escalated:
            # The drain deadline expired with work still in flight:
            # escalate. Cancelling the serving tasks abandons their
            # reply fan-out mid-air — the executor job itself cannot be
            # interrupted, so it is orphaned via cancel_futures below.
            for task in list(self._tasks):
                task.cancel()
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        for conn in list(self._connections):
            conn.closed = True
            conn.writer.close()
        self._connections.clear()
        # Closing the transports EOFs the per-connection reader loops;
        # wait for the handlers to unwind on their own (3.12's
        # wait_closed would do this for us, 3.11's does not — and either
        # way the transports must close first or the wait deadlocks).
        while self._handlers:
            await asyncio.gather(*list(self._handlers), return_exceptions=True)
        await server.wait_closed()
        if self._executor is not None:
            executor, self._executor = self._executor, None
            # After escalation the executor may hold a wedged job; waiting
            # for it would defeat the deadline we just enforced.
            executor.shutdown(wait=not escalated, cancel_futures=escalated)

    async def __aenter__(self) -> "FrontendServer":
        await self.start()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    def counters(self) -> dict:
        """The front-end's own counters (merged into ``repro.stats_request``
        replies served over the socket, returned verbatim by the
        ``repro.health_request`` op, namespaced ``frontend_*`` where a
        service counter of the same meaning exists).

        Lifecycle counters: ``connections_evicted`` counts every forcible
        disconnect (idle timeout, write-backlog bound, strike limit);
        ``idle_timeouts`` the subset evicted for idleness;
        ``malformed_frames`` the malformed-frame strikes (a subset of
        ``frames_rejected``, which also counts torn/oversized frames);
        ``expired_before_dispatch`` the requests shed with
        ``deadline_exceeded`` before reaching the executor;
        ``drained_inflight`` the in-flight replies completed while
        draining.
        """
        return {
            "connections": self._connections_total,
            "frames_rejected": self._frames_rejected,
            "batches_coalesced": self._batches_coalesced,
            "frontend_requests_shed": self._requests_shed,
            "frontend_pending": self._pending,
            "connections_evicted": self._connections_evicted,
            "idle_timeouts": self._idle_timeouts,
            "expired_before_dispatch": self._expired_before_dispatch,
            "malformed_frames": self._malformed_frames,
            "drained_inflight": self._drained_inflight,
        }

    # ------------------------------------------------------------------
    # connection plane
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._closing:
            writer.close()
            return
        handler = asyncio.current_task()
        if handler is not None:
            self._handlers.add(handler)
            handler.add_done_callback(self._handlers.discard)
        self._connections_total += 1
        conn = _Connection(writer)
        self._connections.add(conn)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                # Cap (never grow) the kernel send buffer so a stalled
                # peer's backlog surfaces in the transport buffer, where
                # the max_write_buffer_bytes bound can see it.
                if (
                    sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
                    > self._max_write_buffer_bytes
                ):
                    sock.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_SNDBUF,
                        self._max_write_buffer_bytes,
                    )
            except OSError:
                pass  # not a real socket (tests) or an exotic platform
        decoder = FrameDecoder(self._max_frame_bytes)
        last_frame_at = self._loop.time()
        try:
            # The loop runs even while draining: frames arriving then are
            # shed with ``overloaded`` by admission, and close() tears the
            # transport down when the drain finishes.
            while True:
                if self._idle_timeout_s is None:
                    data = await reader.read(_READ_CHUNK)
                else:
                    # Budget from the last *completed* frame, not the last
                    # byte: a peer trickling a frame forever (slow loris)
                    # runs out of budget like a silent one.
                    budget = self._idle_timeout_s - (
                        self._loop.time() - last_frame_at
                    )
                    if budget <= 0:
                        if conn.pending:
                            # A peer waiting on replies we owe it is not
                            # idle: restart the window, so slow serving
                            # cannot masquerade as peer idleness.
                            last_frame_at = self._loop.time()
                            continue
                        self._idle_timeouts += 1
                        self._evict(conn, abort=True)
                        break
                    try:
                        data = await asyncio.wait_for(
                            reader.read(_READ_CHUNK), budget
                        )
                    except asyncio.TimeoutError:
                        if conn.pending:
                            last_frame_at = self._loop.time()
                            continue
                        self._idle_timeouts += 1
                        self._evict(conn, abort=True)
                        break
                if not data:
                    if decoder.mid_frame:
                        # Truncated length prefix or mid-frame disconnect:
                        # nothing to answer (the peer is gone), but the
                        # event is visible in the counters.
                        self._frames_rejected += 1
                    break
                try:
                    frames = decoder.feed(data)
                except WireFormatError as exc:
                    # Oversized declaration. The stream cannot resync, so:
                    # one structured error frame, then drop the connection
                    # — the other clients never notice.
                    self._frames_rejected += 1
                    self._write_reply(
                        conn, None, OutcomeDoc.from_exception(exc).to_dict()
                    )
                    break
                if frames:
                    last_frame_at = self._loop.time()
                for payload in frames:
                    self._handle_frame(conn, payload)
                if conn.closed:
                    break  # evicted mid-burst (strike limit / backlog)
        except _PEER_ERRORS:
            pass  # peer vanished mid-read; replies still in flight no-op
        finally:
            conn.closed = True
            self._connections.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except _PEER_ERRORS:
                pass

    def _reject_malformed(
        self, conn: _Connection, request_id: Any, exc: WireFormatError
    ) -> None:
        """Answer one malformed frame and apply the strike ladder: a peer
        that keeps sending garbage is cut off at ``max_malformed_frames``
        (the final error reply still flushes — close, not abort)."""
        self._frames_rejected += 1
        self._malformed_frames += 1
        conn.strikes += 1
        self._write_reply(
            conn, request_id, OutcomeDoc.from_exception(exc).to_dict()
        )
        if conn.strikes >= self._max_malformed_frames:
            self._evict(conn, abort=False)

    def _handle_frame(self, conn: _Connection, payload: bytes) -> None:
        """Admit one frame: parse the envelope, shed or route (loop thread)."""
        try:
            frame = json.loads(payload)
        except ValueError as exc:
            self._reject_malformed(
                conn, None, WireFormatError(f"frame is not valid JSON: {exc}")
            )
            return
        if not isinstance(frame, dict):
            self._reject_malformed(
                conn,
                None,
                WireFormatError(
                    "frame must be a JSON object, "
                    f"got {type(frame).__name__}"
                ),
            )
            return
        request_id = frame.get("request_id")
        if isinstance(request_id, bool) or not isinstance(request_id, (str, int)):
            self._reject_malformed(
                conn,
                None,
                WireFormatError(
                    "frame carries no usable 'request_id' "
                    "(a JSON string or integer is required)"
                ),
            )
            return
        request = frame.get("request")
        deadline_ms = frame.get("deadline_ms")
        if (
            deadline_ms is not None
            and isinstance(request, dict)
            and request.get("deadline_ms") is None
        ):
            # Frame-level deadline propagates as the document default —
            # for batch documents this lands on the existing batch-level
            # default semantics (items with their own deadline keep it).
            request = dict(request)
            request["deadline_ms"] = deadline_ms
        kind = request.get("format") if isinstance(request, dict) else None
        if kind == PING_REQUEST_FORMAT or kind == HEALTH_REQUEST_FORMAT:
            # Probes answer *before* admission: liveness and drain status
            # must be observable exactly when the queues are full or the
            # server is draining — the moments a probe matters.
            if kind == PING_REQUEST_FORMAT:
                outcome = self._service.handle(request)
            else:
                outcome = {
                    "format": HEALTH_FORMAT,
                    "version": WIRE_VERSION,
                    "status": "draining" if self._closing else "ok",
                    "counters": self.counters(),
                }
            self._write_reply(conn, request_id, outcome)
            return
        if (
            self._closing
            or self._pending >= self._max_pending
            or conn.pending >= self._max_connection_pending
        ):
            self._requests_shed += 1
            self._write_reply(
                conn,
                request_id,
                OutcomeDoc.from_exception(
                    OverloadedError(
                        "front-end queue is full "
                        f"({self._pending}/{self._max_pending} pending, "
                        f"{conn.pending}/{self._max_connection_pending} on "
                        "this connection); shed — retry later"
                    )
                ).to_dict(),
            )
            return
        conn.pending += 1
        self._pending += 1
        stamp: Optional[Tuple[float, float]] = None
        if isinstance(request, dict):
            budget_ms = request.get("deadline_ms")
            if isinstance(budget_ms, (int, float)) and not isinstance(
                budget_ms, bool
            ):
                # Arrival stamp: dispatch subtracts the queue/coalesce
                # wait from this budget (end-to-end deadline semantics).
                stamp = (float(budget_ms), self._loop.time())
        if kind == CLOAK_REQUEST_FORMAT:
            self._enqueue("cloak", conn, request_id, request, stamp)
        elif kind == DEANONYMIZE_REQUEST_FORMAT:
            self._enqueue("peel", conn, request_id, request, stamp)
        elif kind == STATS_REQUEST_FORMAT:
            # Served on the loop thread: stats must merge the front-end
            # counters, which only this thread may read consistently. The
            # stats request releases its own admission slot *before* the
            # counters are read, so ``frontend_pending`` reports only the
            # other requests in flight.
            outcome = self._service.handle(request)
            conn.pending -= 1
            self._pending -= 1
            counters = outcome.get("counters")
            if isinstance(counters, dict):
                counters.update(self.counters())
            self._write_reply(conn, request_id, outcome)
        else:
            # Everything else — reversal *batch* documents, unknown
            # formats — serves individually off-loop, one task each.
            self._busy += 1
            self._spawn(self._run_single(conn, request_id, request, stamp))

    # ------------------------------------------------------------------
    # coalescing lanes
    # ------------------------------------------------------------------
    # Batching is adaptive: ``batch_window_ms`` and ``batch_max`` are
    # *upper bounds* on added latency and batch size, but while the
    # serving executor is busy with an earlier batch a lane simply keeps
    # accumulating (nothing could serve it sooner anyway), and the moment
    # the executor drains, whatever accumulated flushes at once. Under
    # light load this degenerates to the plain window/threshold scheme
    # (small batches, window-bounded latency); at saturation batches grow
    # to ``batch_max`` automatically, which is what amortizes a process
    # pool's per-dispatch cost and moves the open-loop saturation plateau
    # up to the closed-loop batch rate (see ``benchmarks/bench_frontend``).

    def _enqueue(
        self,
        op: str,
        conn: _Connection,
        request_id: Any,
        request: dict,
        stamp: Optional[Tuple[float, float]],
    ) -> None:
        lane = self._lanes[op]
        lane.append((conn, request_id, request, stamp))
        if len(lane) >= self._batch_max:
            self._flush(op)
        elif self._busy == 0 and self._lane_timers[op] is None:
            self._lane_timers[op] = self._loop.call_later(
                self._batch_window_s, self._flush, op
            )

    def _flush(self, op: str) -> None:
        timer = self._lane_timers[op]
        if timer is not None:
            timer.cancel()
            self._lane_timers[op] = None
        items = self._lanes[op]
        if not items:
            return
        self._lanes[op] = []
        self._batches_coalesced += 1
        self._busy += 1
        self._spawn(self._run_batch(items))

    def _after_job(self) -> None:
        """Executor-drain hook: flush what accumulated while it was busy."""
        self._busy -= 1
        if self._busy == 0 and not self._closing:
            for op in self._lanes:
                if self._lanes[op]:
                    self._flush(op)

    def _spawn(self, coro) -> None:
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _reap_expired(
        self,
        items: List[Tuple[_Connection, Any, dict, Optional[Tuple[float, float]]]],
    ) -> List[Tuple[_Connection, Any, dict]]:
        """Deadline propagation at the dispatch boundary (loop thread).

        For every stamped item, subtract the time spent queued/coalesced
        from its budget: an already-expired request is answered with
        ``deadline_exceeded`` here — the executor never sees it — and a
        live one is forwarded with only its *remaining* budget as
        ``deadline_ms``, so the engine's cooperative deadline measures
        end-to-end time.
        """
        now = self._loop.time()
        live: List[Tuple[_Connection, Any, dict]] = []
        for conn, request_id, request, stamp in items:
            if stamp is not None:
                budget_ms, arrival = stamp
                waited_ms = (now - arrival) * 1000.0
                remaining_ms = budget_ms - waited_ms
                if remaining_ms <= 0.0:
                    self._expired_before_dispatch += 1
                    self._finish(
                        conn,
                        request_id,
                        OutcomeDoc.from_exception(
                            DeadlineExceededError(
                                f"deadline of {budget_ms:g} ms expired "
                                f"after {waited_ms:.1f} ms in the "
                                "front-end queue"
                            )
                        ).to_dict(),
                    )
                    continue
                request = dict(request)
                request["deadline_ms"] = remaining_ms
            live.append((conn, request_id, request))
        return live

    async def _run_batch(
        self,
        items: List[Tuple[_Connection, Any, dict, Optional[Tuple[float, float]]]],
    ) -> None:
        touched = {conn for conn, _, _, _ in items}
        live = self._reap_expired(items)
        if not live:
            # Every item expired in the queue: nothing to dispatch, but
            # the busy count and the write backpressure still apply.
            self._after_job()
            await self._drain_writers(touched)
            return
        documents = [request for _, _, request in live]
        try:
            outcomes = await self._loop.run_in_executor(
                self._executor, self._service.handle_batch, documents
            )
        except asyncio.CancelledError:
            # Drain escalation: the fan-out is abandoned wholesale, and
            # the task must report cancelled, not done.
            raise
        except Exception as exc:  # the front-end outlives any request
            outcome = OutcomeDoc.from_exception(exc).to_dict()
            outcomes = [dict(outcome) for _ in live]
        finally:
            self._after_job()
        for (conn, request_id, _), outcome in zip(live, outcomes):
            self._finish(conn, request_id, outcome)
        await self._drain_writers(touched)

    async def _run_single(
        self,
        conn: _Connection,
        request_id: Any,
        request,
        stamp: Optional[Tuple[float, float]] = None,
    ) -> None:
        live = self._reap_expired([(conn, request_id, request, stamp)])
        if not live:
            self._after_job()
            await self._drain_writers((conn,))
            return
        _, _, request = live[0]
        try:
            outcome = await self._loop.run_in_executor(
                self._executor, self._service.handle, request
            )
        except asyncio.CancelledError:
            raise  # drain escalation; see _run_batch
        except Exception as exc:  # the front-end outlives any request
            outcome = OutcomeDoc.from_exception(exc).to_dict()
        finally:
            self._after_job()
        self._finish(conn, request_id, outcome)
        await self._drain_writers((conn,))

    # ------------------------------------------------------------------
    # replies
    # ------------------------------------------------------------------
    def _finish(self, conn: _Connection, request_id: Any, outcome: dict) -> None:
        """Release one admitted request and write its reply."""
        conn.pending -= 1
        self._pending -= 1
        if self._closing:
            self._drained_inflight += 1
        self._write_reply(conn, request_id, outcome)

    def _write_reply(
        self, conn: _Connection, request_id: Any, outcome: dict
    ) -> None:
        if conn.closed:
            return
        payload = json.dumps(
            {"request_id": request_id, "outcome": outcome},
            separators=(",", ":"),
        )
        try:
            frame = encode_frame(payload, self._max_frame_bytes)
        except WireFormatError as exc:
            # The outcome itself is too big for the frame limit: degrade
            # to a (small) structured error so the client is not starved.
            frame = encode_frame(
                json.dumps(
                    {
                        "request_id": request_id,
                        "outcome": OutcomeDoc.from_exception(exc).to_dict(),
                    },
                    separators=(",", ":"),
                ),
                self._max_frame_bytes,
            )
        try:
            conn.writer.write(frame)
        except _PEER_ERRORS:
            conn.closed = True
            return
        if (
            conn.writer.transport.get_write_buffer_size()
            > self._max_write_buffer_bytes
        ):
            # The peer stopped reading and its backlog blew the bound:
            # evict now rather than buffer without limit. (SO_SNDBUF is
            # capped to the same bound, so kernel + app backlog together
            # stay within a small multiple of it.)
            self._evict(conn, abort=True)

    def _evict(self, conn: _Connection, *, abort: bool) -> None:
        """Forcibly disconnect a misbehaving peer (idle timeout, write
        backlog, strike limit). ``abort`` drops buffered replies on the
        floor — right for a peer that is not reading; strike evictions
        close instead, so the final error reply still flushes."""
        if conn.closed:
            return
        conn.closed = True
        self._connections_evicted += 1
        self._connections.discard(conn)
        if abort:
            transport = conn.writer.transport
            if transport is not None:
                transport.abort()
        else:
            conn.writer.close()

    async def _drain_writers(self, conns) -> None:
        """Apply write backpressure after a burst of replies.

        Per connection and bounded: every writer drains *concurrently*,
        each given at most ``drain_timeout_s`` to sink below the
        flow-control high-water mark, so one stalled peer can neither
        wedge this serving task forever nor hold up the backpressure of
        the batch's other connections. A writer still clogged past the
        bound marks a peer that stopped reading — evicted; its replies
        were already written and are abandoned with the transport.
        """
        waiters = [
            self._drain_one(conn) for conn in conns if not conn.closed
        ]
        if waiters:
            await asyncio.gather(*waiters)

    async def _drain_one(self, conn: _Connection) -> None:
        try:
            await asyncio.wait_for(conn.writer.drain(), self._drain_timeout_s)
        except asyncio.TimeoutError:
            self._evict(conn, abort=True)
        except _PEER_ERRORS:
            conn.closed = True


def _scan_request_id(payload: bytes) -> Optional[int]:
    """Cheap integer ``request_id`` extraction from a compact reply frame.

    The server emits ``{"request_id":<id>,...}`` with the id first, so a
    client that only ever issues integer ids (this one) can demultiplex
    without parsing the whole outcome — the open-loop bench measures the
    socket, not ``json.loads``. Anything unexpected returns ``None`` and
    the caller falls back to a full parse.
    """
    prefix = b'{"request_id":'
    if not payload.startswith(prefix):
        return None
    cut = payload.find(b",", len(prefix))
    if cut < 0:
        cut = payload.find(b"}", len(prefix))
    if cut < 0:
        return None
    try:
        return int(payload[len(prefix) : cut])
    except ValueError:
        return None


class FrontendClient:
    """Asyncio client of the front-end: framing plus request multiplexing.

    Any number of requests may be in flight; the background reader task
    resolves each returned future from the reply's echoed ``request_id``.
    One event loop only (not thread-safe) — run several clients for
    several loops.

    Replies the client cannot attribute — the server answers rejected
    frames with ``request_id: null`` — accumulate in :attr:`unmatched`
    (bounded) instead of being dropped silently.
    """

    _UNMATCHED_KEPT = 32

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._max_frame_bytes = max_frame_bytes
        self._ids = itertools.count(1)
        # request_id -> (future-or-callback, raw, is_callback); entries are
        # popped as replies land, so the map's size is exactly the requests
        # currently in flight.
        self._pending: Dict[Any, Tuple[Any, bool, bool]] = {}
        self._unmatched: List[dict] = []
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_replies()
        )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> "FrontendClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, max_frame_bytes)

    async def __aenter__(self) -> "FrontendClient":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    @property
    def unmatched(self) -> List[dict]:
        """Recent reply frames with no in-flight ``request_id`` (copies)."""
        return list(self._unmatched)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def submit(
        self,
        document: dict,
        *,
        deadline_ms: Optional[float] = None,
        raw: bool = False,
    ) -> "asyncio.Future":
        """Send one request document; the future resolves to its outcome
        document (or, with ``raw``, to the undecoded reply payload bytes —
        the bench's fast path)."""
        request_id = next(self._ids)
        frame: dict = {"request_id": request_id, "request": document}
        if deadline_ms is not None:
            frame["deadline_ms"] = deadline_ms
        return self._submit(
            request_id, json.dumps(frame, separators=(",", ":")), raw
        )

    def submit_encoded(
        self,
        encoded_request: str,
        *,
        raw: bool = False,
        on_reply: Optional[Callable] = None,
    ):
        """:meth:`submit` for a pre-encoded request document (the open-loop
        bench encodes each distinct document once, then sends it thousands
        of times — the frame is assembled by concatenation).

        With ``on_reply``, no future is created at all: the callable is
        invoked synchronously from the reader task with the reply (the raw
        payload bytes under ``raw``, the outcome document otherwise), and
        ``submit_encoded`` returns ``None``. This is the load-generator
        mode — per-request futures and their ``call_soon`` resolution
        machinery cost real CPU at tens of thousands of requests, which on
        a shared benchmark box is charged against the server. If the
        connection dies before the reply arrives, ``on_reply`` receives
        ``None``.
        """
        request_id = next(self._ids)
        payload = '{"request_id":%d,"request":%s}' % (request_id, encoded_request)
        return self._submit(request_id, payload, raw, on_reply)

    def _submit(
        self,
        request_id: int,
        payload: str,
        raw: bool,
        on_reply: Optional[Callable] = None,
    ):
        if self._closed:
            raise ConnectionError("frontend client is closed")
        if self._reader_task.done():
            # The reply stream already ended (server gone, reset, bad
            # frame): a write here would be silently swallowed by the dead
            # transport and the future would never resolve. Fail fast —
            # ResilientClient turns this into a reconnect.
            raise ConnectionError("frontend connection is no longer readable")
        if on_reply is not None:
            self._pending[request_id] = (on_reply, raw, True)
            future = None
        else:
            future = asyncio.get_running_loop().create_future()
            self._pending[request_id] = (future, raw, False)
        try:
            self._writer.write(encode_frame(payload, self._max_frame_bytes))
        except Exception:
            self._pending.pop(request_id, None)
            raise
        return future

    async def request(
        self, document: dict, *, deadline_ms: Optional[float] = None
    ) -> dict:
        """Send one request and await its outcome document."""
        return await self.submit(document, deadline_ms=deadline_ms)

    async def stats(self) -> dict:
        """The server's merged counters (service + front-end)."""
        outcome = await self.request(
            {"format": STATS_REQUEST_FORMAT, "version": WIRE_VERSION}
        )
        return outcome

    async def drain(self) -> None:
        await self._writer.drain()

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    async def _read_replies(self) -> None:
        decoder = FrameDecoder(self._max_frame_bytes)
        try:
            while True:
                data = await self._reader.read(_READ_CHUNK)
                if not data:
                    self._fail_pending(
                        ConnectionError("server closed the connection")
                    )
                    return
                for payload in decoder.feed(data):
                    self._on_reply(payload)
        except (WireFormatError, *(_PEER_ERRORS)) as exc:
            self._fail_pending(ConnectionError(f"reply stream broke: {exc!r}"))

    def _on_reply(self, payload: bytes) -> None:
        request_id = _scan_request_id(payload)
        entry = (
            self._pending.pop(request_id, None) if request_id is not None else None
        )
        if entry is not None and entry[1]:
            if entry[2]:
                entry[0](payload)
            elif not entry[0].done():
                entry[0].set_result(payload)
            return
        try:
            frame = json.loads(payload)
        except ValueError:
            frame = None
        if not isinstance(frame, dict):
            if entry is None:
                self._note_unmatched(
                    {"outcome": None, "raw": payload.decode("utf-8", "replace")}
                )
            elif entry[2]:
                entry[0](None)
            elif not entry[0].done():
                entry[0].set_exception(
                    WireFormatError("reply frame is not a JSON object")
                )
            return
        if entry is None:
            reply_id = frame.get("request_id")
            entry = (
                self._pending.pop(reply_id, None) if reply_id is not None else None
            )
        if entry is None:
            self._note_unmatched(frame)
            return
        target, raw, is_callback = entry
        if is_callback:
            target(payload if raw else frame.get("outcome"))
        elif not target.done():
            target.set_result(payload if raw else frame.get("outcome"))

    def _note_unmatched(self, frame: dict) -> None:
        self._unmatched.append(frame)
        del self._unmatched[: -self._UNMATCHED_KEPT]

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for target, _raw, is_callback in pending.values():
            if is_callback:
                target(None)
            elif not target.done():
                target.set_exception(exc)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            if not self._reader_task.cancelled():
                # The cancellation is close()'s own, not the reader's we
                # just requested: propagate it.
                raise
        except Exception:
            pass
        self._fail_pending(ConnectionError("frontend client closed"))
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except _PEER_ERRORS:
            pass


#: Structured error codes a :class:`ResilientClient` may transparently
#: retry: the request was shed before execution (``overloaded``) or its
#: worker died before producing a result (``worker_crashed``) — re-sending
#: cannot double-apply anything. Codes like ``malformed_document`` or
#: ``tolerance_exceeded`` would fail identically on every retry and are
#: surfaced immediately.
RETRYABLE_ERROR_CODES = frozenset({"overloaded", "worker_crashed"})


class ResilientClient:
    """A self-healing front-end client: reconnect, bounded retry, budget.

    Wire faults — the connection dying mid-request, the server
    restarting, admission shedding under load — surface from
    :class:`FrontendClient` as ``ConnectionError`` or structured
    retryable outcomes. This wrapper absorbs them:

    * **Reconnect with seeded exponential backoff.** The wait sequence is
      ``tolerance.wait_schedule()`` — the same deterministic,
      jitter-seeded schedule temporal deferral uses — so two runs of a
      faulted scenario retry at identical instants.
    * **Safe-to-retry classification.** Transport failures are always
      retried (every wire format the service exposes is stateless and
      idempotent); structured errors are retried only when their code is
      in ``retryable_codes`` (default :data:`RETRYABLE_ERROR_CODES`).
      Anything else comes back immediately — retrying a malformed
      document would fail the same way forever.
    * **Per-request deadline budget.** ``deadline_ms`` bounds the whole
      attempt loop — connect, send, await, every backoff wait — and the
      *remaining* budget travels as the frame deadline, so the server
      sheds work this client has already given up on. Exhaustion returns
      a structured ``deadline_exceeded`` outcome, never a hang.

    ``fault_injector`` threads a :class:`~repro.lbs.faults
    .NetworkFaultInjector` into the send path for deterministic testing:
    a matching ``drop_connection`` action aborts the live transport just
    before that request, exactly the fault this class exists to survive.
    (The byte-mangling kinds belong to
    :class:`~repro.lbs.faults.FaultyConnection` — a resilient client
    never sends broken bytes on purpose.)

    One event loop only, like :class:`FrontendClient`. Not a connection
    pool: requests share one connection, re-established on demand.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tolerance: Optional[TemporalTolerance] = None,
        retryable_codes: frozenset = RETRYABLE_ERROR_CODES,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        fault_injector: Optional[NetworkFaultInjector] = None,
        connection_index: int = 0,
    ) -> None:
        self._host = host
        self._port = port
        self._tolerance = tolerance or TemporalTolerance(
            max_defer_seconds=5.0,
            retry_interval_seconds=0.05,
            backoff_factor=2.0,
            jitter_fraction=0.25,
            jitter_seed=20170605,
        )
        self._retryable_codes = retryable_codes
        self._max_frame_bytes = max_frame_bytes
        self._injector = fault_injector
        self._connection_index = connection_index
        self._frame_ordinal = 0
        self._client: Optional[FrontendClient] = None
        self._closed = False
        #: Connections re-established after a failure (counter).
        self.reconnects = 0
        #: Requests re-sent after a retryable failure (counter).
        self.retries = 0

    async def __aenter__(self) -> "ResilientClient":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    async def _ensure_client(self) -> FrontendClient:
        if self._client is None:
            client = await FrontendClient.connect(
                self._host, self._port, self._max_frame_bytes
            )
            self._client = client
            if self.reconnects or self._frame_ordinal:
                self.reconnects += 1
        return self._client

    async def _discard_client(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            await client.close()

    @staticmethod
    def _error_code(outcome) -> Optional[str]:
        if not isinstance(outcome, dict) or outcome.get("status") != "error":
            return None
        error = outcome.get("error")
        return error.get("code") if isinstance(error, dict) else None

    async def request(
        self, document: dict, *, deadline_ms: Optional[float] = None
    ) -> dict:
        """Send one request document and return its outcome document,
        retrying across connection loss and retryable error codes within
        the backoff schedule and the optional ``deadline_ms`` budget."""
        if self._closed:
            raise ConnectionError("resilient client is closed")
        deadline = Deadline.start(deadline_ms)
        schedule = self._tolerance.wait_schedule()
        attempt = 0
        while True:
            failure: Any = None
            remaining_s = deadline.remaining_s()
            if remaining_s is not None and remaining_s <= 0:
                return self._deadline_outcome(deadline_ms)
            try:
                client = await self._ensure_client()
                if self._injector is not None:
                    action = self._injector.take(
                        self._connection_index, self._frame_ordinal
                    )
                    if action is not None and action.kind == "drop_connection":
                        # Scripted mid-stream connection loss: the abort
                        # fails this request's future, which is exactly
                        # the reconnect path under test.
                        client._writer.transport.abort()
                self._frame_ordinal += 1
                budget_ms = (
                    None if remaining_s is None else remaining_s * 1000.0
                )
                future = client.submit(document, deadline_ms=budget_ms)
                if remaining_s is None:
                    outcome = await future
                else:
                    outcome = await asyncio.wait_for(future, remaining_s)
            except asyncio.TimeoutError:
                # Budget exhausted awaiting the reply. The reply may yet
                # arrive; a fresh connection is the only consistent state.
                await self._discard_client()
                return self._deadline_outcome(deadline_ms)
            except (WireFormatError, *_PEER_ERRORS) as exc:
                await self._discard_client()
                failure = exc
            else:
                code = self._error_code(outcome)
                if code not in self._retryable_codes:
                    return outcome
                failure = outcome
            if attempt >= len(schedule) or deadline.expired:
                if isinstance(failure, dict):
                    return failure  # the last structured (retryable) error
                raise ConnectionError(
                    f"request failed after {attempt} retries: {failure!r}"
                )
            wait_s = schedule[attempt]
            remaining_s = deadline.remaining_s()
            if remaining_s is not None:
                wait_s = min(wait_s, max(0.0, remaining_s))
            await asyncio.sleep(wait_s)
            self.retries += 1
            attempt += 1

    @staticmethod
    def _deadline_outcome(deadline_ms: Optional[float]) -> dict:
        return OutcomeDoc.from_exception(
            DeadlineExceededError(
                f"deadline of {deadline_ms:g} ms exhausted before a "
                "front-end reply arrived"
            )
        ).to_dict()

    async def stats(self) -> dict:
        return await self.request(
            {"format": STATS_REQUEST_FORMAT, "version": WIRE_VERSION}
        )

    async def health(self) -> dict:
        return await self.request(
            {"format": HEALTH_REQUEST_FORMAT, "version": WIRE_VERSION}
        )

    async def close(self) -> None:
        self._closed = True
        await self._discard_client()


# ----------------------------------------------------------------------
# console entry point
# ----------------------------------------------------------------------
def _build_backend(args):
    from .backends import InlineBackend, ProcessPoolBackend

    if args.backend == "inline":
        return InlineBackend()
    return ProcessPoolBackend(args.workers, start_method=args.start_method)


def _positive_int(text: str) -> int:
    """argparse type of the count options: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lbs.frontend",
        description=(
            "Serve the ReverseCloak anonymizer over TCP "
            "(length-prefixed JSON frames; see repro.lbs.frontend docs). "
            "Serves a synthetic grid map with a uniform population — the "
            "demo/bench deployment; embed FrontendServer for real maps."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="0 picks an ephemeral port, printed on the FRONTEND_READY line",
    )
    parser.add_argument(
        "--backend",
        choices=("inline", "process"),
        default="inline",
        help="execution backend the coalesced batches run on",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="process pool width (process backend only)",
    )
    parser.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method of the process backend",
    )
    parser.add_argument("--batch-window-ms", type=float, default=2.0)
    parser.add_argument("--batch-max", type=_positive_int, default=64)
    parser.add_argument("--max-pending", type=_positive_int, default=1024)
    parser.add_argument(
        "--max-connection-pending", type=_positive_int, default=256
    )
    parser.add_argument(
        "--idle-timeout-s",
        type=float,
        default=300.0,
        help=(
            "evict connections that complete no frame for this long; "
            "0 disables the timeout"
        ),
    )
    parser.add_argument(
        "--drain-deadline-s",
        type=float,
        default=10.0,
        help=(
            "how long SIGTERM/SIGINT lets in-flight requests finish "
            "before escalating"
        ),
    )
    parser.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=None,
        help="service-level admission budget (default: unbounded)",
    )
    parser.add_argument(
        "--grid-side",
        type=_positive_int,
        default=24,
        help="side of the demo grid map",
    )
    parser.add_argument(
        "--users-per-segment",
        type=_positive_int,
        default=2,
        help="demo population density",
    )
    return parser


async def _serve(args, service: AnonymizerService) -> None:
    server = FrontendServer(
        service,
        args.host,
        args.port,
        batch_window_ms=args.batch_window_ms,
        batch_max=args.batch_max,
        max_pending=args.max_pending,
        max_connection_pending=args.max_connection_pending,
        idle_timeout_s=args.idle_timeout_s or None,
        drain_deadline_s=args.drain_deadline_s,
    )
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    # Signal handlers are installed *before* the readiness line: a
    # supervisor that signals as soon as it reads the line must land on
    # the drain path, never on a default KeyboardInterrupt.
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    # Machine-parseable readiness line first (the example client and the
    # tests wait for it), human summary second.
    print(f"FRONTEND_READY {server.host} {server.port}", flush=True)
    print(
        f"serving a {args.grid_side}x{args.grid_side} grid on the "
        f"{args.backend} backend at {server.host}:{server.port} "
        f"(batch window {args.batch_window_ms:g} ms, batch max "
        f"{args.batch_max}); SIGINT/SIGTERM drains and exits",
        flush=True,
    )
    try:
        await stop.wait()
    finally:
        print("draining in-flight batches...", flush=True)
        await server.close()
        counters = server.counters()
        print(
            f"served {counters['connections']} connection(s), "
            f"{counters['batches_coalesced']} coalesced batch(es); bye",
            flush=True,
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    from ..mobility.snapshot import PopulationSnapshot
    from ..roadnet.generators import grid_network

    parser = _parser()
    args = parser.parse_args(argv)
    if args.workers is not None and args.backend == "inline":
        parser.error("--workers applies only to --backend process")
    network = grid_network(args.grid_side, args.grid_side)
    snapshot = PopulationSnapshot.from_counts(
        {
            segment_id: args.users_per_segment
            for segment_id in network.segment_ids()
        }
    )
    service = AnonymizerService(
        network, backend=_build_backend(args), max_inflight=args.max_inflight
    )
    service.update_snapshot(snapshot)
    try:
        asyncio.run(_serve(args, service))
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
