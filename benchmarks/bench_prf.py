"""PRF-plane benchmark.

Two measurements:

1. **Draw microbench** — per-call ``keyed_draw`` vs the batched plane
   (``LevelDraws`` sequential serving and raw ``prf_block``), plus the
   stdlib ``hmac.new`` construction the seed used, in ns/draw.
2. **Anonymize** — RGE and RPLE through the engine (which draws every
   level through one ``LevelDraws`` buffer) at the trajectory workload
   (10k-segment map, ~500-segment regions; small map with ``--quick``).

Batch-serving throughput lives in ``bench_serving.py``.

Writes ``BENCH_prf.json`` at the repo root (``BENCH_prf.quick.json`` for
``--quick`` CI smoke runs, which never clobber the committed full-sweep
baseline) and the usual ``benchmarks/results/`` table artifacts.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_prf.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_prf.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import hashlib
import hmac
import json
import time
from pathlib import Path

from repro import (
    KeyChain,
    PopulationSnapshot,
    PrivacyProfile,
    ReverseCloakEngine,
    ReversiblePreassignmentExpansion,
    grid_network,
)
from repro.bench import ResultTable
from repro.core.algorithm import LevelDraws, keyed_draw
from repro.keys import AccessKey, prf_block

REPO_ROOT = Path(__file__).resolve().parents[1]

FULL_MAP_SIDE, FULL_MAP_SEGMENTS = 71, 9940
QUICK_MAP_SIDE, QUICK_MAP_SEGMENTS = 16, 480
FULL_REGION = 500
QUICK_REGION = 40
FULL_DRAWS = 4096
QUICK_DRAWS = 512


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def profile_for_region(target: int) -> PrivacyProfile:
    return PrivacyProfile.uniform(
        levels=2,
        base_k=max(4, target // 2),
        k_step=target - max(4, target // 2),
        base_l=3,
        l_step=1,
        max_segments=2 * target,
    )


def bench_draws(count: int, repeats: int) -> dict:
    """ns/draw for every PRF call plane (identical output values)."""
    key = AccessKey.from_passphrase(1, "bench-prf-draws")
    domain = b"reversecloak|level=1|transitions"
    indices = [step << 24 for step in range(1, count + 1)]

    def stdlib_hmac() -> None:
        for index in indices:
            hmac.new(
                key.material, domain + index.to_bytes(8, "big"), hashlib.sha256
            ).digest()

    def per_call() -> None:
        for step in range(1, count + 1):
            keyed_draw(key, step)

    def level_draws() -> None:
        draws = LevelDraws(key)
        for step in range(1, count + 1):
            draws.draw(step)

    def raw_block() -> None:
        prf_block(key.material, domain, indices)

    reference = [keyed_draw(key, step) for step in range(1, count + 1)]
    assert list(prf_block(key.material, domain, indices)) == reference
    draws = LevelDraws(key)
    assert [draws.draw(step) for step in range(1, count + 1)] == reference

    out = {}
    for name, fn in (
        ("stdlib_hmac_ns", stdlib_hmac),
        ("per_call_ns", per_call),
        ("level_draws_ns", level_draws),
        ("prf_block_ns", raw_block),
    ):
        out[name] = round(_best(fn, repeats) * 1e6 / count, 1)
    out["draws"] = count
    out["batched_vs_per_call"] = round(out["per_call_ns"] / out["prf_block_ns"], 2)
    out["batched_vs_stdlib"] = round(out["stdlib_hmac_ns"] / out["prf_block_ns"], 2)
    return out


def bench_anonymize(quick: bool, repeats: int) -> list:
    side = QUICK_MAP_SIDE if quick else FULL_MAP_SIDE
    segments = QUICK_MAP_SEGMENTS if quick else FULL_MAP_SEGMENTS
    target = QUICK_REGION if quick else FULL_REGION
    network = grid_network(side, side)
    snapshot = PopulationSnapshot.from_counts(
        {sid: 1 for sid in network.segment_ids()}
    )
    user = network.segment_ids()[len(network.segment_ids()) // 2]
    chain = KeyChain.from_passphrases(["bench-prf-1", "bench-prf-2"])
    profile = profile_for_region(target)
    rows = []
    for algo_name, algorithm in (
        ("rge", None),
        ("rple", ReversiblePreassignmentExpansion.for_network(network)),
    ):
        engine = ReverseCloakEngine(network, algorithm)
        envelope = engine.anonymize(user, snapshot, profile, chain)
        anon_ms = _best(
            lambda: engine.anonymize(user, snapshot, profile, chain), repeats
        )
        rows.append(
            {
                "map_segments": segments,
                "region_segments": len(envelope.region),
                "algorithm": algo_name,
                "anon_ms": round(anon_ms, 3),
            }
        )
        print(
            f"anonymize map={segments} region={len(envelope.region)} "
            f"algo={algo_name}: {anon_ms:.2f} ms"
        )
    return rows


def run(quick: bool, repeats: int) -> dict:
    draw_stats = bench_draws(QUICK_DRAWS if quick else FULL_DRAWS, repeats)
    print(
        "draws: stdlib %(stdlib_hmac_ns)s ns, per-call %(per_call_ns)s ns, "
        "LevelDraws %(level_draws_ns)s ns, prf_block %(prf_block_ns)s ns"
        % draw_stats
    )
    anon_rows = bench_anonymize(quick, repeats)

    table = ResultTable(
        "BENCH_PRF",
        "Anonymize on the batched PRF plane (best-of-%d, ms)" % repeats,
        ["map_segments", "region_segments", "algorithm", "anon_ms"],
    )
    for row in anon_rows:
        table.add_row(**row)
    table.print_and_save()

    return {
        "benchmark": "bench_prf",
        "quick": quick,
        "repeats": repeats,
        "draws": draw_stats,
        "anonymize": anon_rows,
        "summary": {
            "anonymize_ms": {row["algorithm"]: row["anon_ms"] for row in anon_rows},
            "draw_batched_vs_percall": draw_stats["batched_vs_per_call"],
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small map / few draws CI smoke"
    )
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    document = run(quick=args.quick, repeats=args.repeats)
    name = "BENCH_prf.quick.json" if args.quick else "BENCH_prf.json"
    out = REPO_ROOT / name
    out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
