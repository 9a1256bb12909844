"""Socket-level benchmark of the ReverseCloak serving stack.

One run starts the real server (``launcher.py``) in its own process and
drives it from this process over two loopback connections with one
workload's traffic (see ``workloads.py``), checking every reply.

Untraced (``--trace 0``), a run measures the end-to-end metrics, the
ones that hold steady from run to run on a shared 2-vCPU host: set-up
time over several server starts, server CPU per request over ``--seconds``
of closed loop (a median over windows), and the server's peak RSS.

Traced (``--trace 1``), a run first drives an untraced server with rounds
of closed loop (throughput) and seeded open-loop Poisson traffic: latency
at the workload's fixed ``lo`` and ``hi`` rates and the highest rate on a
fixed geometric ladder that meets the workload's p99 limit (``slo_rps``).
These wall-clock figures swing with the host's load by more than any
end-to-end bound allows, so they are reported here, without a bound. It
then serves the same traffic on a server whose layer calls are wrapped
(``tracer.py``) and reports per-layer self times, work counts and the
tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. A wrong reply makes the run
exit 1. Run from the repository root::

    python3 socketbench/run.py --workload cloak --seed 1 --seconds 20 --trace 0
    python3 socketbench/run.py --workload all --seed 1 --seconds 20 --trace 1
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from loadgen import ClosedLoop, Load, Phase, ServerProcess, quantile  # noqa: E402
from tracer import GC_SPAN, PRF_SPANS, SEAL_SPANS, Spans  # noqa: E402
from workloads import WORKLOADS, Traffic, Workload, WrongReply  # noqa: E402

#: Loopback connections (one per CPU of the reference 2-CPU machine).
CONNECTIONS = 2
#: Requests in flight per connection in the closed loop: the front-end's
#: default ``batch_max`` (64) split over the connections.
CLOSED_DEPTH = 32
#: Unmeasured start of each closed-loop phase (the first fills lazy
#: caches, the others the pipeline); the measured part is split into
#: windows of about ``WINDOW_S`` (several reply batches even on the
#: slowest workload) and throughput and CPU are medians over them.
SETTLE_S = 1.0
RESETTLE_S = 0.25
WINDOW_S = 2.0
#: Open-loop rounds of a traced run (also the ``slo_rps`` search steps).
ROUNDS = 4
#: Server starts per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: The fixed rate ladder of ``slo_rps``: ``SLO_BASE * SLO_STEP ** i``.
SLO_BASE = 10.0
SLO_STEP = 1.05
#: Open-loop phases stop early past this many requests in flight (below
#: the front-end's per-connection admission bound, so nothing is shed).
MAX_BACKLOG = 384
#: A rung's backlog "grows" when its second half averages more than this
#: multiple of its first half (plus two requests).
BACKLOG_GROWTH = 1.5
#: Requests of the traced run's sequential count pass, per workload.
COUNT_PASS = {"cloak": 200, "peel": 160, "mixed": 120}
#: Shares of a latency round (``--seconds`` / :data:`ROUNDS`) per phase:
#: the closed loop, each open-loop block, the ladder step.
SHARE_CLOSED = 0.3
SHARE_OPEN = 0.25
SHARE_SLO = 0.2
#: Shares of ``--seconds`` per phase of the traced server.
TRACED_CLOSED = 0.1
TRACED_OPEN = 0.25


def declared_metrics(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares (the one list both sides read)."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[kind]}


#: Per-request work counts each workload must exercise (traced run).
MUST_WORK = {
    "cloak": ("engine.anonymizes", "expansion.steps", "region_state.adds", "prf.digests"),
    "peel": ("engine.deanonymizes", "reversal.peels", "reversal.candidates", "prf.digests"),
    "mixed": (
        "engine.anonymizes",
        "engine.deanonymizes",
        "expansion.steps",
        "region_state.adds",
        "reversal.peels",
        "reversal.candidates",
        "prf.digests",
    ),
}
#: Counts predicted to be exactly zero.
MUST_IDLE = {"cloak": ("reversal.peels", "engine.deanonymizes"), "peel": ("engine.anonymizes",)}


def _host_steal() -> Tuple[float, float]:
    """(now, CPU-seconds the hypervisor took from this machine so far):
    the noise a run suffered, logged per phase."""
    with open("/proc/stat") as handle:
        steal_ticks = float(handle.readline().split()[8])
    return time.monotonic(), steal_ticks / os.sysconf("SC_CLK_TCK") / (os.cpu_count() or 1)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class RunFailed(Exception):
    """The run cannot produce a valid measurement."""


class Run:
    """Bookkeeping shared by every phase of one run."""

    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.phases: List[Phase] = []
        self.traffic = Traffic(workload, seed)
        self._steal = _host_steal()

    def sub_seed(self, *parts) -> str:
        """A seed for one stream of this run (``random.Random`` hashes
        strings deterministically, unlike ``hash``)."""
        return "/".join(map(str, (self.seed, self.workload.name) + parts))

    def account(self, load: Load, phase: Phase) -> Phase:
        self.attempted += phase.sent
        self.failed += phase.failed + phase.unanswered
        self.phases.append(phase)
        steal = _host_steal()
        share = (steal[1] - self._steal[1]) / max(1e-9, steal[0] - self._steal[0])
        self._steal = steal
        log(f"[{self.workload.name} seed={self.seed}] {phase.summary()}; host steal {share:.1%}")
        if load.wrong is not None:
            raise WrongReply(load.wrong)
        if load.lost:
            raise RunFailed("the server closed a connection")
        return phase

    async def start(self, server: ServerProcess) -> Tuple[Load, float]:
        """Wait for the server, connect, answer the warm-up pass; returns
        the client and the set-up time (spawn until warm-up answered)."""
        await asyncio.get_running_loop().run_in_executor(None, server.wait_ready)
        load = Load(self.traffic)
        await load.connect(server.port, CONNECTIONS)
        self.account(load, await load.burst(self.traffic.warmup_keys()))
        return load, time.monotonic() - server.spawned_at

    async def closed(
        self, load: Load, server: ServerProcess, settle: float, seconds: float
    ) -> ClosedLoop:
        """``settle`` unmeasured seconds, then ``seconds`` measured in
        windows of about :data:`WINDOW_S`."""
        windows = max(1, round(seconds / WINDOW_S))
        keys = self.traffic.stream(
            self.sub_seed("closed", len(self.phases)), int(3000 * (settle + seconds)) + 1000
        )
        result = await load.closed_loop(
            keys, CLOSED_DEPTH, settle, windows, seconds / windows, server
        )
        self.account(load, result.phase)
        log(
            f"[{self.workload.name} seed={self.seed}] closed: {result.throughput_rps:.1f} "
            f"req/s, {result.cpu_ms_per_request:.3f} server CPU-ms/req"
        )
        return result

    async def open(self, load: Load, name: str, rate: float, seconds: float) -> Phase:
        phase = await load.open_loop(
            name,
            rate,
            seconds,
            self.sub_seed("arrivals", name, rate),
            self.sub_seed("keys", name, rate),
            MAX_BACKLOG,
        )
        return self.account(load, phase)


def passes(phase: Phase, limit_ms: float) -> bool:
    """A rung passes: nothing failed, p99 within the limit, and the
    backlog did not grow across the step."""
    if phase.aborted or phase.failed or phase.unanswered or not phase.sent:
        return False
    if phase.p(0.99) > limit_ms:
        return False
    half = len(phase.backlog) // 2
    first = statistics.fmean(phase.backlog[:half]) if half else 0.0
    second = statistics.fmean(phase.backlog[half:]) if half else 0.0
    return second <= BACKLOG_GROWTH * first + 2.0


def rung(index: int) -> float:
    return SLO_BASE * SLO_STEP**index


def rung_below(rate: float) -> int:
    return int(math.floor(math.log(rate / SLO_BASE) / math.log(SLO_STEP) + 1e-9))


async def untraced(run: Run) -> Dict[str, float]:
    """Set-up samples, then ``--seconds`` of closed loop on one server
    (server CPU per request: a median over windows)."""
    workload = run.workload
    setups: List[float] = []
    for _ in range(SETUP_SAMPLES - 1):
        with ServerProcess(workload.name) as server:
            load, setup = await run.start(server)
            setups.append(setup)
            load.close()
            server.stop()
    with ServerProcess(workload.name) as server:
        load, setup = await run.start(server)
        setups.append(setup)
        closed = await run.closed(load, server, SETTLE_S, run.seconds)
        rss_mb = server.peak_rss_mb()
        load.close()
        server.stop()
    verified = run.traffic.verify_cloaks()
    log(f"[{workload.name} seed={run.seed}] {verified} distinct cloak envelopes peeled back")
    return {
        "setup_s": statistics.median(setups),
        "server_cpu_ms": closed.cpu_ms_per_request,
        "rss_mb": rss_mb,
    }


async def open_loop_rounds(run: Run, load: Load, server: ServerProcess) -> Dict[str, float]:
    """:data:`ROUNDS` rounds, each a closed-loop window, a ``lo`` block, a
    ``hi`` block and one step of the ``slo_rps`` ladder search; latency
    percentiles pool each rate's blocks."""
    workload = run.workload
    block = run.seconds / ROUNDS
    limit = workload.p99_limit_ms
    closed: List[ClosedLoop] = []
    blocks: Dict[str, List[Phase]] = {"lo": [], "hi": []}
    good, bad = -1, 0
    before = after = None
    for index in range(ROUNDS):
        settle = SETTLE_S if index == 0 else RESETTLE_S
        closed.append(await run.closed(load, server, settle, SHARE_CLOSED * block))
        for name, rate in (("lo", workload.lo_rps), ("hi", workload.hi_rps)):
            if index == 0 and name == "lo":
                before = await load.stats()
            phase = await run.open(load, f"{name}{index}", rate, SHARE_OPEN * block)
            if index == 0 and name == "lo":
                after = await load.stats()
            blocks[name].append(phase)
            if index == 0 and passes(phase, limit):
                good = max(good, rung_below(rate))
        if index == 0:
            # slo_rps: binary search between a passing rung and one past
            # the closed-loop capacity.
            bad = rung_below(closed[0].throughput_rps * SLO_STEP) + 1
            if good < 0:
                bad = min(bad, rung_below(workload.lo_rps) + 1)
        if bad - good > 1:
            middle = (good + bad) // 2
            phase = await run.open(load, f"slo{index}", rung(middle), SHARE_SLO * block)
            good, bad = (middle, bad) if passes(phase, limit) else (good, middle)
    while bad - good > 1:  # the bracket was wider than the rounds
        middle = (good + bad) // 2
        phase = await run.open(load, "slo", rung(middle), SHARE_SLO * block)
        good, bad = (middle, bad) if passes(phase, limit) else (good, middle)
    if good < 0:
        raise RunFailed("no rung of the SLO ladder passes")
    lo0 = blocks["lo"][0]
    lags = [lag for phase in blocks["lo"] for lag in phase.lags_ms]
    shed = sum(after[name] - before[name] for name in ("frontend_requests_shed", "requests_shed"))
    metrics = {
        "slo_rps": rung(good),
        "throughput_rps": statistics.median(
            rate for result in closed for rate, _ in result.windows()
        ),
        "frontend.batch_size": lo0.sent
        / max(1, after["batches_coalesced"] - before["batches_coalesced"]),
        "frontend.shed_frac": shed / max(1, lo0.sent),
        "gen.lag_p99_ms": quantile(lags, 0.99),
        "gen.lag_max_ms": max(lags),
    }
    for name, phases in blocks.items():
        pooled = Phase(name, phases[0].offered_rps, 0)
        for phase in phases:
            pooled.latencies_ms += phase.latencies_ms
            pooled.failed += phase.failed + phase.unanswered
        metrics[f"p50_ms.{name}"] = pooled.p(0.5)
        metrics[f"p99_ms.{name}"] = pooled.p(0.99)
    return metrics


async def traced(run: Run) -> Dict[str, float]:
    """Open-loop latency rounds on an untraced server, then a count pass,
    a closed loop and a ``lo`` block on a traced one; per-layer metrics
    from the spans."""
    workload = run.workload
    closed_s = TRACED_CLOSED * run.seconds
    lo_s = TRACED_OPEN * run.seconds
    with ServerProcess(workload.name) as server:
        load, _ = await run.start(server)
        metrics = await open_loop_rounds(run, load, server)
        load.close()
        server.stop()

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".socketbench-") as scratch:
        spans_path = str(Path(scratch) / "spans.npz")
        with ServerProcess(workload.name, spans_path) as server:
            load, _ = await run.start(server)
            count_keys = run.traffic.stream(run.sub_seed("count"), COUNT_PASS[workload.name])
            count = run.account(load, await load.sequential(count_keys))
            slow = await run.closed(load, server, SETTLE_S, closed_s)
            lo_traced = await run.open(load, "lo-traced", workload.lo_rps, lo_s)
            build_s = server.build_s
            load.close()
            server.stop()
        spans = Spans(spans_path)
    faults = spans.check()
    if faults:
        raise RunFailed("span bookkeeping: " + "; ".join(faults))

    # Work counts: the sequential pass (one request per batch, so they
    # repeat exactly for a seed).
    window = spans.window(count.t0, count.t1)
    requests = count.sent
    peels = spans.calls(window, "reversal.peel_level")
    metrics.update(
        {
            "framing.req_bytes": spans.counted(window, "framing.feed") / requests,
            "framing.reply_bytes": spans.counted(window, "framing.encode") / requests,
            "engine.anonymizes": spans.calls(window, "engine.anonymize") / requests,
            "engine.deanonymizes": spans.calls(window, "engine.deanonymize") / requests,
            "expansion.steps": spans.calls(window, "rge.forward_step") / requests,
            "region_state.adds": spans.calls(window, "region_state.add") / requests,
            "reversal.peels": peels / requests,
            "reversal.candidates": spans.counted(window, "rge.backward_anchors") / max(1, peels),
            "prf.digests": spans.counted(window, *PRF_SPANS) / requests,
            "prf.key_builds": spans.calls(window, "prf.key_state") / requests,
        }
    )

    # Times: the traced open-loop phase at the lo rate (the last phase).
    window = spans.window(lo_traced.t0, math.inf)
    served = lo_traced.ok

    def per_request(*names: str) -> float:
        return spans.self_seconds(window, *names) * 1e6 / served

    def per_call(*names: str) -> float:
        calls = spans.calls(window, *names)
        return spans.self_seconds(window, *names) * 1e6 / calls if calls else 0.0

    durations, sizes = spans.batches(window)
    sealed = spans.under(window, "envelope.level_mac", "engine.anonymize").sum()
    seal_s = sum(
        float(spans.self_time[spans.under(window, name, "engine.anonymize")].sum())
        for name in SEAL_SPANS
    )
    metrics.update(
        {
            "framing.decode_us": per_request("framing.feed"),
            "framing.encode_us": per_request("framing.encode"),
            "service.batch_ms": float(durations.mean()) * 1e3,
            "service.busy_frac": float(durations.sum()) / (lo_traced.t1 - lo_traced.t0),
            "frontend.wait_ms": statistics.fmean(lo_traced.latencies_ms)
            - float((durations * sizes).sum() / sizes.sum()) * 1e3,
            "backends.self_us": per_request(
                "backends.cloak_batch_raw", "backends.deanonymize_batch_raw"
            ),
            "wire.parse_us": per_request("wire.cloak_parse", "wire.peel_parse"),
            "wire.build_us": per_request("wire.build"),
            "engine.anonymize_us": per_call("engine.anonymize"),
            "engine.deanonymize_us": per_call("engine.deanonymize"),
            "expansion.step_us": per_call("rge.forward_step"),
            "region_state.add_us": per_call("region_state.add"),
            "reversal.peel_us": per_call("reversal.peel_level"),
            "envelope.seal_us": seal_s * 1e6 / sealed if sealed else 0.0,
            "envelope.parse_us": per_call("envelope.parse"),
            "prf.digest_us": per_request(*PRF_SPANS),
            "gc.pause_us": per_request(GC_SPAN),
            "gc.full_ms": spans.full_collection_ms(),
            "roadnet.build_s": build_s,
            "trace.overhead_frac": 1.0 - slow.throughput_rps / metrics["throughput_rps"],
        }
    )
    missing = [name for name in MUST_WORK[workload.name] if metrics[name] <= 0]
    busy = [name for name in MUST_IDLE.get(workload.name, ()) if metrics[name] != 0]
    if missing or busy:
        raise RunFailed(
            f"trace self-check: no work in {missing}, unexpected work in {busy}"
        )
    return metrics


def run_one(name: str, seed: int, seconds: float, trace: bool) -> Tuple[dict, int]:
    run = Run(WORKLOADS[name], seed, seconds)
    correct = True
    metrics: Dict[str, float] = {}
    # The generator's own collector pauses would show up as send lag and
    # reply latency: freeze the set-up heap and collect only between runs.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        metrics = asyncio.run(traced(run) if trace else untraced(run))
    except WrongReply as exc:
        log(f"[{name} seed={seed}] WRONG REPLY: {exc}")
        correct = False
    finally:
        gc.enable()
        gc.unfreeze()
    units = declared_metrics("per_layer" if trace else "end_to_end")
    error_frac = run.failed / max(1, run.attempted)
    if trace:
        metrics["error_frac"] = error_frac
    if correct and set(metrics) != set(units):
        raise RunFailed(f"computed {sorted(metrics)}, declared {sorted(units)}")
    for metric in units:
        if metric in metrics:
            log(f"[{name} seed={seed}] {metric} = {metrics[metric]:.6g} {units[metric]}")
    if not trace:
        log(f"[{name} seed={seed}] error_frac = {error_frac:.6g} fraction")
    result = {
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
            if metric in metrics
        },
    }
    return result, 0 if correct else 1


def _terminate(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so every server is killed and reaped.
    signal.signal(signal.SIGTERM, _terminate)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        result, code = run_one(name, args.seed, args.seconds, bool(args.trace))
        status = max(status, code)
        if len(names) == 1:
            combined = result
            break
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
