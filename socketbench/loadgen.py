"""Load generator of the socket benchmark: server process, client, phases.

:class:`ServerProcess` starts ``launcher.py`` as a child process, waits for
its readiness line, reads its CPU time and peak RSS from ``/proc``, and
kills and reaps it on every exit path. It also dies with the generator:
its standard input is a pipe from here, and the launcher drains and exits
when that pipe closes, however the generator ended.

:class:`Load` is the client: one event loop, a fixed number of loopback
connections, pre-encoded request documents framed by hand, and replies
matched by their integer ``request_id``. Every reply is checked by the
workload's :class:`~workloads.Traffic` the moment it arrives.

Phases: :meth:`Load.burst` (send a set at once, wait for all),
:meth:`Load.sequential` (one request in flight), :meth:`Load.closed_loop`
(a fixed number in flight) and :meth:`Load.open_loop` (seeded Poisson
arrivals; each request timed from its scheduled send instant, so a stall
is charged to every request it delays).
"""

from __future__ import annotations

import asyncio
import bisect
import os
import random
import selectors
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from workloads import Key, Traffic, WrongReply

HERE = Path(__file__).resolve().parent
_HEADER = struct.Struct(">I")
_ID_PREFIX = b'{"request_id":'
_STATS_ID = -1
_STATS_FRAME = b'{"request_id":-1,"request":{"format":"repro.stats_request","version":1}}'
#: Seconds a phase waits for its last replies before counting them unanswered.
DRAIN_TIMEOUT_S = 20.0


class ServerProcess:
    """One server child process (see module docs). A context manager:
    leaving the block always kills and reaps it."""

    def __init__(self, workload: str, spans_path: Optional[str] = None) -> None:
        command = [sys.executable, str(HERE / "launcher.py"), "--workload", workload]
        if spans_path is not None:
            command += ["--spans", spans_path]
        self.spawned_at = time.monotonic()
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(HERE.parent),
        )
        self.port = 0
        self.build_s = 0.0

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *_exc) -> None:
        self.kill()

    def wait_ready(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError("server gave no readiness line in time")
                line = self.proc.stdout.readline().decode()
                if not line:
                    raise RuntimeError(f"server exited with {self.proc.wait()}")
                if line.startswith("SOCKETBENCH_READY "):
                    _, port, build_s = line.split()
                    self.port, self.build_s = int(port), float(build_s)
                    return

    def cpu_seconds(self) -> float:
        """User + system CPU of every live thread, in seconds."""
        total = 0
        task_dir = f"/proc/{self.proc.pid}/task"
        for task in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{task}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except OSError:
                continue  # the thread ended between listdir and open
        return total / 1e9

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, timeout: float = 30.0) -> None:
        """Close the server's stdin (its drain-and-exit signal) and reap it."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


class _Connection(asyncio.Protocol):
    def __init__(self, load: "Load") -> None:
        self._load = load
        self._buffer = bytearray()
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        now = time.monotonic()
        buffer = self._buffer
        buffer += data
        offset = 0
        size = len(buffer)
        while size - offset >= 4:
            (length,) = _HEADER.unpack_from(buffer, offset)
            if size - offset - 4 < length:
                break
            self._load.on_reply(bytes(buffer[offset + 4 : offset + 4 + length]), now, self)
            offset += 4 + length
        del buffer[:offset]

    def connection_lost(self, exc) -> None:
        self._load.lost = True


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (an infinite value stays
    infinite rather than turning the interpolation into NaN)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    if position == low or ordered[high] == ordered[low]:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Phase:
    """What one phase sent and got back (ids ``first .. first+sent-1``)."""

    name: str
    offered_rps: float
    first: int
    sent: int = 0
    ok: int = 0
    failed: int = 0
    unanswered: int = 0
    t0: float = 0.0
    t1: float = 0.0
    aborted: bool = False
    latencies_ms: List[float] = field(default_factory=list)
    lags_ms: List[float] = field(default_factory=list)
    backlog: List[int] = field(default_factory=list)

    def p(self, q: float) -> float:
        """Latency quantile in ms; a failed or unanswered request counts
        as missing every limit (infinite latency)."""
        missing = [float("inf")] * (self.failed + self.unanswered)
        return quantile(self.latencies_ms + missing, q)

    def summary(self) -> str:
        return (
            f"{self.name}: offered {self.offered_rps:.1f} req/s, sent {self.sent}, "
            f"ok {self.ok}, failed {self.failed}, unanswered {self.unanswered}"
            + (", ABORTED (backlog)" if self.aborted else "")
            + (
                f", p50 {self.p(0.5):.2f} ms, p99 {self.p(0.99):.2f} ms, "
                f"lag p99 {quantile(self.lags_ms, 0.99):.2f} ms "
                f"max {max(self.lags_ms):.2f} ms"
                if self.lags_ms
                else ""
            )
        )


class Load:
    """The benchmark client (see module docs)."""

    def __init__(self, traffic: Traffic) -> None:
        self.traffic = traffic
        self.connections: List[_Connection] = []
        self.keys: List[Key] = []
        self.due: List[float] = []
        self.sent_at: List[float] = []
        self.done: List[Optional[float]] = []
        self.ok: List[bool] = []
        self.outstanding = 0
        self.lost = False
        self.wrong: Optional[str] = None
        self._drained: Optional[asyncio.Event] = None
        self._stats: Optional[asyncio.Future] = None
        # Closed loop: the key stream each reply draws its successor from,
        # until the given instant.
        self._closed_stream = None
        self._closed_until = 0.0

    async def connect(self, port: int, count: int) -> None:
        loop = asyncio.get_running_loop()
        for _ in range(count):
            _, protocol = await loop.create_connection(
                lambda: _Connection(self), "127.0.0.1", port
            )
            self.connections.append(protocol)

    def close(self) -> None:
        for connection in self.connections:
            if connection.transport is not None:
                connection.transport.close()

    # ------------------------------------------------------------------
    # requests and replies
    # ------------------------------------------------------------------
    def send(self, key: Key, due: float, connection: _Connection) -> None:
        request_id = len(self.keys)
        body = b'{"request_id":%d,"request":%s}' % (request_id, self.traffic.docs[key])
        self.keys.append(key)
        self.due.append(due)
        self.done.append(None)
        self.ok.append(False)
        self.outstanding += 1
        connection.transport.write(_HEADER.pack(len(body)) + body)
        self.sent_at.append(time.monotonic())

    def on_reply(self, payload: bytes, now: float, connection: _Connection) -> None:
        if not payload.startswith(_ID_PREFIX):
            self._fail(f"unattributable reply: {payload[:120]!r}")
            return
        cut = payload.find(b",", len(_ID_PREFIX))
        try:
            request_id = int(payload[len(_ID_PREFIX) : cut])
        except ValueError:
            self._fail(f"unattributable reply: {payload[:120]!r}")
            return
        if request_id == _STATS_ID:
            if self._stats is not None and not self._stats.done():
                self._stats.set_result(payload)
            return
        if not 0 <= request_id < len(self.keys) or self.done[request_id] is not None:
            self._fail(f"reply to unknown or answered request {request_id}")
            return
        self.done[request_id] = now
        self.outstanding -= 1
        try:
            self.ok[request_id] = self.traffic.check(
                self.keys[request_id], Traffic.outcome_of(payload)
            )
        except WrongReply as exc:
            self._fail(str(exc))
        if self._closed_stream is not None and now < self._closed_until:
            key = next(self._closed_stream, None)
            if key is not None:
                self.send(key, time.monotonic(), connection)
        if self.outstanding == 0 and self._drained is not None:
            self._drained.set()

    def _fail(self, message: str) -> None:
        if self.wrong is None:
            self.wrong = message

    async def drain(self, timeout: float = DRAIN_TIMEOUT_S) -> None:
        """Wait until every request sent so far is answered (or timeout)."""
        if self.outstanding == 0:
            return
        self._drained = asyncio.Event()
        try:
            await asyncio.wait_for(self._drained.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            self._drained = None

    async def stats(self) -> dict:
        """The server's merged counters via ``repro.stats_request``."""
        import json

        self._stats = asyncio.get_running_loop().create_future()
        self.connections[0].transport.write(_HEADER.pack(len(_STATS_FRAME)) + _STATS_FRAME)
        payload = await asyncio.wait_for(self._stats, DRAIN_TIMEOUT_S)
        return json.loads(payload)["outcome"]["counters"]

    def _settle(self, phase: Phase) -> Phase:
        """Tally a finished phase from the per-request records."""
        for request_id in range(phase.first, phase.first + phase.sent):
            done = self.done[request_id]
            if done is None:
                phase.unanswered += 1
            elif self.ok[request_id]:
                phase.ok += 1
                phase.latencies_ms.append((done - self.due[request_id]) * 1000.0)
            else:
                phase.failed += 1
        return phase

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    async def burst(self, keys: Sequence[Key], name: str = "warmup") -> Phase:
        phase = Phase(name, 0.0, len(self.keys))
        phase.t0 = time.monotonic()
        for index, key in enumerate(keys):
            self.send(key, time.monotonic(), self.connections[index % len(self.connections)])
        phase.sent = len(keys)
        await self.drain()
        phase.t1 = time.monotonic()
        return self._settle(phase)

    async def sequential(self, keys: Sequence[Key], name: str = "count") -> Phase:
        phase = Phase(name, 0.0, len(self.keys))
        phase.t0 = time.monotonic()
        for key in keys:
            self.send(key, time.monotonic(), self.connections[0])
            phase.sent += 1
            await self.drain()
            if self.wrong is not None:
                break
        phase.t1 = time.monotonic()
        return self._settle(phase)

    async def closed_loop(
        self,
        keys: Sequence[Key],
        depth: int,
        settle: float,
        windows: int,
        window_s: float,
        server: ServerProcess,
    ) -> "ClosedLoop":
        """Keep ``depth`` requests in flight per connection: ``settle``
        seconds unmeasured (lazy caches fill), then ``windows`` windows of
        ``window_s`` seconds, each sampling OK replies and server CPU."""
        phase = Phase("closed", 0.0, len(self.keys))
        phase.t0 = time.monotonic()
        self._closed_stream = iter(keys)
        self._closed_until = phase.t0 + settle + windows * window_s
        for connection in self.connections:
            for _ in range(depth):
                self.send(next(self._closed_stream), time.monotonic(), connection)
        samples = []
        try:
            for boundary in range(windows + 1):
                await asyncio.sleep(
                    max(0.0, phase.t0 + settle + boundary * window_s - time.monotonic())
                )
                samples.append((time.monotonic(), server.cpu_seconds()))
        finally:
            self._closed_stream = None
        phase.t1 = samples[-1][0]
        phase.sent = len(self.keys) - phase.first
        await self.drain()
        self._settle(phase)
        done = sorted(
            self.done[request_id]
            for request_id in range(phase.first, phase.first + phase.sent)
            if self.ok[request_id]
        )
        return ClosedLoop(phase, samples, done)

    async def open_loop(
        self,
        name: str,
        rate: float,
        seconds: float,
        arrival_seed: str,
        key_seed: str,
        max_backlog: int,
    ) -> Phase:
        """Seeded Poisson arrivals at ``rate`` for ``seconds``; stops early
        (``aborted``) if more than ``max_backlog`` requests are in flight."""
        rng = random.Random(arrival_seed)
        offsets: List[float] = []
        clock = rng.expovariate(rate)
        while clock < seconds:
            offsets.append(clock)
            clock += rng.expovariate(rate)
        keys = self.traffic.stream(key_seed, len(offsets))
        phase = Phase(name, rate, len(self.keys))
        connections = self.connections
        width = len(connections)
        start = time.monotonic() + 0.005
        phase.t0 = start
        index = 0
        total = len(offsets)
        while index < total:
            now = time.monotonic()
            while index < total and start + offsets[index] <= now:
                due = start + offsets[index]
                self.send(keys[index], due, connections[index % width])
                phase.lags_ms.append((self.sent_at[-1] - due) * 1000.0)
                index += 1
            phase.backlog.append(self.outstanding)
            if self.outstanding > max_backlog or self.wrong is not None or self.lost:
                phase.aborted = True
                break
            if index < total:
                await asyncio.sleep(start + offsets[index] - time.monotonic())
        phase.t1 = time.monotonic()
        phase.sent = index
        await self.drain()
        return self._settle(phase)


@dataclass
class ClosedLoop:
    """A closed-loop phase, its (time, server CPU seconds) samples at
    window boundaries and the arrival times of its OK replies.

    Replies come back a coalesced batch at a time, so a count of replies
    per window moves in steps of a whole batch. A window's rate is taken
    between its first and last reply instead: the replies after the first
    arrival, over the time from the first arrival to the last.
    """

    phase: Phase
    samples: List[tuple]
    done: List[float]

    def windows(self) -> List[tuple]:
        """(req/s, server CPU-ms per request) of every window."""
        result = []
        for (t0, cpu0), (t1, cpu1) in zip(self.samples, self.samples[1:]):
            low = bisect.bisect_left(self.done, t0)
            high = bisect.bisect_left(self.done, t1)
            times = self.done[low:high]
            if len(times) < 2 or times[-1] == times[0]:
                raise RuntimeError("a closed-loop window saw fewer than two reply batches")
            after_first = len(times) - bisect.bisect_right(times, times[0])
            rate = after_first / (times[-1] - times[0])
            result.append((rate, (cpu1 - cpu0) / (t1 - t0) / rate * 1000.0))
        return result

    @property
    def throughput_rps(self) -> float:
        return statistics.median(rate for rate, _ in self.windows())

    @property
    def cpu_ms_per_request(self) -> float:
        return statistics.median(cpu for _, cpu in self.windows())
