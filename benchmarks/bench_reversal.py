"""De-anonymization scaling benchmark: the reversal plane's trajectory.

Dedicated reversal rows (PR 4): hint-mode and search-mode peeling across
map and region sizes, for both algorithms, on the engine's one production
path — one checkpoint/rollback region state per peel, cross-budget
hypothesis/interval memos, compiled CSR network. Every timed peel is first
checked to recover the user's segment.

Writes ``BENCH_reversal.json`` at the repo root (the machine-readable
trajectory future PRs diff against) plus the usual ``ResultTable``
artifacts. Search mode is measured at the capped region size only — it is
hypothesis-enumeration over blind envelopes and grows sharply with region
size (see ``bench_expansion.SEARCH_REGION_CAP``).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_reversal.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_reversal.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro import (
    KeyChain,
    PopulationSnapshot,
    ReverseCloakEngine,
    ReversiblePreassignmentExpansion,
    grid_network,
)
from repro.bench import ResultTable

from bench_expansion import (
    FULL_MAPS,
    FULL_REGIONS,
    QUICK_MAPS,
    QUICK_REGIONS,
    SEARCH_REGION_CAP,
    _time,
    profile_for_region,
    search_profile_for_region,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def run(quick: bool, repeats: int) -> dict:
    maps = QUICK_MAPS if quick else FULL_MAPS
    regions = QUICK_REGIONS if quick else FULL_REGIONS
    table = ResultTable(
        "BENCH_REVERSAL",
        "De-anonymize scaling (best-of-%d, ms)" % repeats,
        ["map_segments", "region_segments", "algorithm", "hint_ms", "search_ms"],
    )
    rows = []
    # Same keyed workload as bench_expansion, so the search sweep point
    # here is directly comparable with the BENCH_expansion.json history
    # (the PR 4 acceptance numbers reference that trajectory).
    chain = KeyChain.from_passphrases(["bench-x-1", "bench-x-2"])
    for side, segment_count in maps:
        network = grid_network(side, side)
        snapshot = PopulationSnapshot.from_counts(
            {sid: 1 for sid in network.segment_ids()}
        )
        user = network.segment_ids()[len(network.segment_ids()) // 2]
        algorithms = {
            "rge": None,
            "rple": ReversiblePreassignmentExpansion.for_network(network),
        }
        for target in regions:
            profile = profile_for_region(target)
            for algo_name, algorithm in algorithms.items():
                engine = ReverseCloakEngine(network, algorithm)
                envelope = engine.anonymize(user, snapshot, profile, chain)
                region_segments = len(envelope.region)

                result = engine.deanonymize(envelope, chain, 0, mode="hint")
                assert result.region_at(0) == (user,)
                hint_ms = _time(
                    lambda: engine.deanonymize(envelope, chain, 0, mode="hint"),
                    repeats,
                )
                search_ms = None
                if target <= SEARCH_REGION_CAP:
                    search_chain = KeyChain.from_passphrases(["bench-x-s"])
                    blind = engine.anonymize(
                        user,
                        snapshot,
                        search_profile_for_region(target),
                        search_chain,
                        include_hints=False,
                    )
                    truth = engine.deanonymize(blind, search_chain, 0, mode="search")
                    assert truth.region_at(0) == (user,)
                    search_ms = _time(
                        lambda: engine.deanonymize(
                            blind, search_chain, 0, mode="search"
                        ),
                        repeats,
                    )
                row = {
                    "map_segments": segment_count,
                    "region_segments": region_segments,
                    "algorithm": algo_name,
                    "hint_ms": round(hint_ms, 3),
                    "search_ms": None if search_ms is None else round(search_ms, 3),
                }
                rows.append(row)
                table.add_row(**row)
                label = (
                    f"map={segment_count} region={region_segments} algo={algo_name}:"
                    f" hint {hint_ms:.1f} ms"
                )
                if search_ms is not None:
                    label += f", search {search_ms:.1f} ms"
                print(label)
    table.print_and_save()
    smallest = min(m for _, m in maps)
    sweep = {
        row["algorithm"]: row
        for row in rows
        if row["map_segments"] == smallest and row["search_ms"] is not None
    }
    return {
        "benchmark": "bench_reversal",
        "quick": quick,
        "repeats": repeats,
        "rows": rows,
        "summary": {
            # The PR 4 acceptance point: search-mode reversal at the
            # smallest sweep map, capped region size (historically the
            # 1k-segment grid, 40-segment regions).
            "search_sweep_map_segments": smallest,
            "search_ms": {
                name: row["search_ms"] for name, row in sweep.items()
            },
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small map / small regions CI smoke"
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    document = run(quick=args.quick, repeats=args.repeats)
    # Quick (CI-smoke) runs must not clobber the committed full-sweep
    # baseline that future PRs diff against.
    name = "BENCH_reversal.quick.json" if args.quick else "BENCH_reversal.json"
    out = REPO_ROOT / name
    out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
