"""Serving-backend benchmark: inline vs sharded process pool — cloaking and
batched de-anonymization.

Measures ``AnonymizerService.cloak_batch`` requests/sec on the trajectory
workload (10k-segment map, 64-request batches; small map with ``--quick``)
across the execution backends at several worker widths, asserting
byte-identical envelopes between every backend and sequential single-request
serving. The process-pool rows are the cross-process path, where each
worker holds its own engine against a per-batch snapshot shipped as wire
documents.

The PR 5 reversal section measures ``AnonymizerService.deanonymize_batch``
peels/sec over the same envelopes, in hint and search modes, across the
same backends — the first time the system's slowest serving operation
rides the execution seam at all. Reversal is snapshot-free pure CPU, so
process-pool shards genuinely parallelise it on multi-core hardware (a
1-CPU container measures the wire overhead floor instead — the number to
beat is inline).

The PR 6 faulted section prices supervision: the same cloaking workload
runs through the process pool clean and then under a deterministic fault
plan crashing worker 0 once per 100 batches (``repro.lbs.faults``); the
run asserts faulted throughput stays at or above 0.8x clean, so the
recovery machinery can never silently become the bottleneck.

Timing is steady-state: each backend serves one warm-up batch first (pool
spawn and the one-time snapshot ship are start-up costs, not per-batch
costs) and the recorded number is the best of ``--repeats`` batches.

Writes ``BENCH_serving.json`` at the repo root (``BENCH_serving.quick.json``
for ``--quick`` CI smoke runs, which never clobber the committed full-sweep
baseline) and the usual ``benchmarks/results/`` table artifacts.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_serving.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_serving.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro import (
    AnonymizerService,
    KeyChain,
    PopulationSnapshot,
    PrivacyProfile,
    grid_network,
)
from repro.bench import ResultTable
from repro.lbs import (
    CloakRequest,
    DeanonymizeRequestDoc,
    FaultAction,
    FaultPlan,
    InlineBackend,
    OutcomeDoc,
    ProcessPoolBackend,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

FULL_MAP_SIDE, FULL_MAP_SEGMENTS = 71, 9940
QUICK_MAP_SIDE, QUICK_MAP_SEGMENTS = 16, 480
FULL_BATCH = 64
QUICK_BATCH = 12
FULL_WIDTHS = (1, 4, 8)
QUICK_WIDTHS = (1, 2)
#: The PR 6 fault workload: worker 0 crashes once per this many batches
#: (``incarnation: null``, so every respawned incarnation re-arms it).
FAULT_CRASH_EVERY = 100
#: One timed pass covers exactly one crash interval, and the recorded
#: throughput is the best of this many passes over one long-lived pool —
#: the same best-of idiom as the backend sweeps, so one-sided container
#: noise (a slow pass) cannot fail the ratio assertion.
FAULT_REPEATS = 3
#: Supervised recovery must keep faulted throughput at or above this
#: fraction of the clean run — the fault-tolerance overhead budget.
FAULTED_MIN_RATIO = 0.8


def _best_batch_ms(service, requests, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        service.cloak_batch(requests)
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def bench_serving(quick: bool, repeats: int) -> list:
    side = QUICK_MAP_SIDE if quick else FULL_MAP_SIDE
    segments = QUICK_MAP_SEGMENTS if quick else FULL_MAP_SEGMENTS
    batch_size = QUICK_BATCH if quick else FULL_BATCH
    widths = QUICK_WIDTHS if quick else FULL_WIDTHS
    network = grid_network(side, side)
    snapshot = PopulationSnapshot.from_counts(
        {segment_id: 2 for segment_id in network.segment_ids()}
    )
    # The PR 2 batch workload: modest per-request regions, so throughput
    # measures serving overheads and scaling, not one giant expansion.
    profile = PrivacyProfile.uniform(
        levels=2, base_k=20, k_step=20, base_l=3, l_step=1, max_segments=80
    )
    requests = [
        CloakRequest(
            user_id=user_id,
            profile=profile,
            chain=KeyChain.from_passphrases([f"b{user_id}-1", f"b{user_id}-2"]),
        )
        for user_id in snapshot.users()[:batch_size]
    ]

    reference = AnonymizerService(network)
    reference.update_snapshot(snapshot)
    sequential = [reference.cloak(request).to_json() for request in requests]
    sequential_ms = _best_batch_ms(
        reference, requests, repeats
    )  # inline backend == sequential serving

    def backend_rows(label: str, make_backend, widths) -> list:
        rows = []
        for width in widths:
            with make_backend(width) as backend:
                service = AnonymizerService(network, backend=backend)
                service.update_snapshot(snapshot)
                warm = service.cloak_batch(requests)
                produced = [outcome.envelope.to_json() for outcome in warm]
                assert produced == sequential, (
                    f"{label}@{width} diverged from sequential serving"
                )
                batch_ms = _best_batch_ms(service, requests, repeats)
            rows.append(
                {
                    "map_segments": segments,
                    "batch_size": batch_size,
                    "backend": label,
                    "workers": width,
                    "batch_ms": round(batch_ms, 3),
                    "throughput_rps": round(batch_size / (batch_ms / 1000.0), 1),
                    "speedup_vs_sequential": round(sequential_ms / batch_ms, 2),
                }
            )
            print(
                f"{label} workers={width}: {batch_ms:.2f} ms/batch "
                f"({batch_size / (batch_ms / 1000.0):.0f} req/s)"
            )
        return rows

    rows = backend_rows("inline", lambda _w: InlineBackend(), (1,))
    rows += backend_rows(
        "process", lambda w: ProcessPoolBackend(w, start_method="fork"), widths
    )
    return rows


def _best_reversal_ms(service, requests, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        service.deanonymize_batch(requests)
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def bench_reversal_serving(quick: bool, repeats: int) -> list:
    """The PR 5 section: batched de-anonymization across the backends."""
    side = QUICK_MAP_SIDE if quick else FULL_MAP_SIDE
    segments = QUICK_MAP_SEGMENTS if quick else FULL_MAP_SEGMENTS
    batch_size = QUICK_BATCH if quick else FULL_BATCH
    widths = QUICK_WIDTHS if quick else FULL_WIDTHS
    network = grid_network(side, side)
    snapshot = PopulationSnapshot.from_counts(
        {segment_id: 2 for segment_id in network.segment_ids()}
    )
    profile = PrivacyProfile.uniform(
        levels=2, base_k=20, k_step=20, base_l=3, l_step=1, max_segments=80
    )
    producer = AnonymizerService(network)
    producer.update_snapshot(snapshot)
    batches = {}
    for mode in ("hint", "search"):
        requests = []
        for user_id in snapshot.users()[:batch_size]:
            chain = KeyChain.from_passphrases(
                [f"r{user_id}-1", f"r{user_id}-2"]
            )
            envelope = producer.cloak(
                CloakRequest(user_id=user_id, profile=profile, chain=chain)
            )
            requests.append(
                DeanonymizeRequestDoc(
                    envelope=envelope,
                    keys=tuple(chain),
                    target_level=0,
                    mode=mode,
                )
            )
        batches[mode] = requests

    reference = AnonymizerService(network)
    sequential = {
        mode: [
            OutcomeDoc.from_result(
                reference.deanonymize(
                    r.envelope, r.key_map(), r.target_level, mode=mode
                )
            ).to_json()
            for r in requests
        ]
        for mode, requests in batches.items()
    }

    def backend_rows(label: str, make_backend, widths) -> list:
        rows = []
        for width in widths:
            for mode, requests in batches.items():
                with make_backend(width) as backend:
                    service = AnonymizerService(network, backend=backend)
                    warm = service.deanonymize_batch(requests)
                    produced = [
                        OutcomeDoc.from_result(outcome.result).to_json()
                        for outcome in warm
                    ]
                    assert produced == sequential[mode], (
                        f"reversal {label}@{width}/{mode} diverged from "
                        "sequential serving"
                    )
                    batch_ms = _best_reversal_ms(service, requests, repeats)
                rows.append(
                    {
                        "map_segments": segments,
                        "batch_size": batch_size,
                        "backend": label,
                        "workers": width,
                        "mode": mode,
                        "batch_ms": round(batch_ms, 3),
                        "throughput_rps": round(
                            batch_size / (batch_ms / 1000.0), 1
                        ),
                    }
                )
                print(
                    f"reversal {label} workers={width} mode={mode}: "
                    f"{batch_ms:.2f} ms/batch "
                    f"({batch_size / (batch_ms / 1000.0):.0f} peels/s)"
                )
        return rows

    rows = backend_rows("inline", lambda _w: InlineBackend(), (1,))
    rows += backend_rows(
        "process", lambda w: ProcessPoolBackend(w, start_method="fork"), widths
    )
    return rows


def bench_faulted_serving(quick: bool) -> dict:
    """The PR 6 section: serving throughput while workers keep crashing.

    Runs the cloaking workload through a 2-shard process pool twice —
    clean, then under a deterministic fault plan that kills worker 0 once
    per :data:`FAULT_CRASH_EVERY` batches (every incarnation re-arms, so
    the crashes repeat for the whole run) — and asserts that supervised
    recovery keeps faulted throughput at or above
    :data:`FAULTED_MIN_RATIO` of clean. Each recorded number is the best
    of :data:`FAULT_REPEATS` timed passes of one crash interval each, so
    every faulted pass pays exactly one crash-and-recover. Every outcome
    of every faulted batch must still succeed: recovery, not degradation,
    is what is being priced here.
    """
    side = QUICK_MAP_SIDE if quick else FULL_MAP_SIDE
    segments = QUICK_MAP_SEGMENTS if quick else FULL_MAP_SEGMENTS
    batch_size = QUICK_BATCH if quick else FULL_BATCH
    batches = FAULT_CRASH_EVERY
    network = grid_network(side, side)
    snapshot = PopulationSnapshot.from_counts(
        {segment_id: 2 for segment_id in network.segment_ids()}
    )
    profile = PrivacyProfile.uniform(
        levels=2, base_k=20, k_step=20, base_l=3, l_step=1, max_segments=80
    )
    requests = [
        CloakRequest(
            user_id=user_id,
            profile=profile,
            chain=KeyChain.from_passphrases([f"f{user_id}-1", f"f{user_id}-2"]),
        )
        for user_id in snapshot.users()[:batch_size]
    ]
    plan = FaultPlan(
        actions=(
            FaultAction(
                kind="kill_worker",
                worker=0,
                chunk=FAULT_CRASH_EVERY - 1,
                op="cloak",
                incarnation=None,
            ),
        )
    )

    def run_throughput(fault_plan):
        with ProcessPoolBackend(
            2,
            start_method="fork",
            fault_plan=fault_plan,
            retry_backoff_s=0.01,
        ) as backend:
            service = AnonymizerService(network, backend=backend)
            service.update_snapshot(snapshot)
            # Pool spawn and the one-time snapshot ship are start-up costs.
            assert all(o.ok for o in service.cloak_batch(requests))
            best_rps = 0.0
            for _ in range(FAULT_REPEATS):
                start = time.perf_counter()
                for _ in range(batches):
                    outcomes = service.cloak_batch(requests)
                    assert all(o.ok for o in outcomes), (
                        "faulted serving must recover, not fail outcomes"
                    )
                elapsed = time.perf_counter() - start
                best_rps = max(best_rps, batches * batch_size / elapsed)
            restarts = backend.worker_restarts
            fallbacks = backend.inline_fallbacks
        return best_rps, restarts, fallbacks

    clean_rps, _, _ = run_throughput(None)
    faulted_rps, restarts, fallbacks = run_throughput(plan)
    assert restarts >= FAULT_REPEATS, "the fault plan must fire every pass"
    assert fallbacks == 0, "crash-per-100-batches must recover, not degrade"
    ratio = faulted_rps / clean_rps
    print(
        f"faulted serving: clean {clean_rps:.0f} req/s, "
        f"faulted {faulted_rps:.0f} req/s "
        f"({ratio:.2f}x, {restarts} supervised restarts)"
    )
    assert ratio >= FAULTED_MIN_RATIO, (
        f"faulted throughput {faulted_rps:.0f} req/s fell below "
        f"{FAULTED_MIN_RATIO:.0%} of clean {clean_rps:.0f} req/s"
    )
    return {
        "map_segments": segments,
        "batch_size": batch_size,
        "batches_per_pass": batches,
        "repeats": FAULT_REPEATS,
        "crash_every_batches": FAULT_CRASH_EVERY,
        "clean_rps": round(clean_rps, 1),
        "faulted_rps": round(faulted_rps, 1),
        "faulted_vs_clean": round(ratio, 3),
        "worker_restarts": restarts,
        "min_ratio": FAULTED_MIN_RATIO,
    }


def run(quick: bool, repeats: int) -> dict:
    rows = bench_serving(quick, repeats)
    reversal_rows = bench_reversal_serving(quick, repeats)
    faulted = bench_faulted_serving(quick)

    table = ResultTable(
        "BENCH_SERVING",
        "cloak_batch throughput by execution backend (best-of-%d)" % repeats,
        [
            "map_segments",
            "batch_size",
            "backend",
            "workers",
            "batch_ms",
            "throughput_rps",
            "speedup_vs_sequential",
        ],
    )
    for row in rows:
        table.add_row(**row)
    table.print_and_save()

    reversal_table = ResultTable(
        "BENCH_SERVING_REVERSAL",
        "deanonymize_batch throughput by execution backend (best-of-%d)"
        % repeats,
        [
            "map_segments",
            "batch_size",
            "backend",
            "workers",
            "mode",
            "batch_ms",
            "throughput_rps",
        ],
    )
    for row in reversal_rows:
        reversal_table.add_row(**row)
    reversal_table.print_and_save()

    def best_for(backend: str, min_workers: int = 1) -> dict:
        candidates = [
            row
            for row in rows
            if row["backend"] == backend and row["workers"] >= min_workers
        ]
        return max(candidates, key=lambda row: row["throughput_rps"])

    def reversal_best(backend: str, mode: str, min_workers: int = 1) -> dict:
        candidates = [
            row
            for row in reversal_rows
            if row["backend"] == backend
            and row["mode"] == mode
            and row["workers"] >= min_workers
        ]
        return max(candidates, key=lambda row: row["throughput_rps"])

    inline = best_for("inline")
    process = best_for("process")
    scaled_width = 4 if not quick else 2
    process_scaled = best_for("process", min_workers=scaled_width)
    reversal_summary = {}
    for mode in ("hint", "search"):
        r_inline = reversal_best("inline", mode)
        r_process = reversal_best("process", mode, min_workers=scaled_width)
        reversal_summary[mode] = {
            "inline_rps": r_inline["throughput_rps"],
            "process_rps_at_scaled_width": r_process["throughput_rps"],
            "process_scaled_width": r_process["workers"],
            "process_vs_inline": round(
                r_process["throughput_rps"] / r_inline["throughput_rps"], 3
            ),
        }
    return {
        "benchmark": "bench_serving",
        "quick": quick,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "serving": rows,
        "reversal_serving": reversal_rows,
        "faulted_serving": faulted,
        "summary": {
            "inline_rps": inline["throughput_rps"],
            "best_process_rps": process["throughput_rps"],
            "best_process_workers": process["workers"],
            "process_rps_at_scaled_width": process_scaled["throughput_rps"],
            "process_scaled_width": process_scaled["workers"],
            "reversal": reversal_summary,
            "faulted_vs_clean": faulted["faulted_vs_clean"],
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small map / small batch CI smoke"
    )
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    document = run(quick=args.quick, repeats=args.repeats)
    name = "BENCH_serving.quick.json" if args.quick else "BENCH_serving.json"
    out = REPO_ROOT / name
    out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
