"""Expansion/peel scaling benchmark of the engine's production path.

Times anonymize and de-anonymize (hint and search mode) across map sizes
(~1k/5k/10k segments) and region sizes, for both algorithms. Each measured
envelope is first checked against the cache-free reference of
``tests/reference.py`` on the smallest map, so the timed path is the one
the differential tests pin. Writes:

* ``BENCH_expansion.json`` at the repo root — machine-readable trajectory
  for future PRs to diff against;
* ``benchmarks/results/bench_expansion.{txt,csv}`` — the usual
  :class:`ResultTable` artifacts.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_expansion.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_expansion.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import (
    KeyChain,
    PopulationSnapshot,
    PrivacyProfile,
    ReverseCloakEngine,
    ReversibleGlobalExpansion,
    ReversiblePreassignmentExpansion,
    grid_network,
)
from repro.bench import ResultTable

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tests"))

import reference  # noqa: E402

#: (grid side, segment count) — grids of n*n junctions have 2n(n-1) segments.
FULL_MAPS = ((23, 1012), (51, 5100), (71, 9940))
QUICK_MAPS = ((16, 480),)

#: Target region sizes (the profile's k with one user per segment).
FULL_REGIONS = (40, 120, 250, 500)
QUICK_REGIONS = (20, 40)

#: Search-mode reversal is exponential-ish in the worst case; cap the
#: region size it is measured at so the benchmark stays bounded.
SEARCH_REGION_CAP = 40


def _time(fn, repeats: int) -> float:
    """Best-of-N wall time in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def profile_for_region(target: int) -> PrivacyProfile:
    """Two keyed levels whose k forces the region to ~``target`` segments
    (the snapshot holds one user per segment)."""
    return PrivacyProfile.uniform(
        levels=2,
        base_k=max(4, target // 2),
        k_step=target - max(4, target // 2),
        base_l=3,
        l_step=1,
        max_segments=2 * target,
    )


def search_profile_for_region(target: int) -> PrivacyProfile:
    """One keyed level for the search-mode reversal measurement — search
    over stacked blind levels is ambiguity-dominated (it can hit the branch
    cap on unlucky keys, see E17), which would measure collision handling
    rather than peel scaling."""
    return PrivacyProfile.uniform(
        levels=1, base_k=target, k_step=1, base_l=3, l_step=1,
        max_segments=2 * target,
    )


def run(quick: bool, repeats: int) -> dict:
    maps = QUICK_MAPS if quick else FULL_MAPS
    regions = QUICK_REGIONS if quick else FULL_REGIONS
    table = ResultTable(
        "BENCH_EXPANSION",
        "Anonymize/de-anonymize scaling (best-of-%d, ms)" % repeats,
        [
            "map_segments",
            "region_segments",
            "algorithm",
            "anon_ms",
            "hint_ms",
            "search_ms",
        ],
    )
    rows = []
    chain = KeyChain.from_passphrases(["bench-x-1", "bench-x-2"])
    for side, segment_count in maps:
        network = grid_network(side, side)
        snapshot = PopulationSnapshot.from_counts(
            {sid: 1 for sid in network.segment_ids()}
        )
        user = network.segment_ids()[len(network.segment_ids()) // 2]
        algorithms = {
            "rge": ReversibleGlobalExpansion(),
            "rple": ReversiblePreassignmentExpansion.for_network(network),
        }
        for target in regions:
            profile = profile_for_region(target)
            for algo_name, algorithm in algorithms.items():
                fast = ReverseCloakEngine(network, algorithm)
                envelope = fast.anonymize(user, snapshot, profile, chain)
                if segment_count == maps[0][1]:
                    assert envelope == reference.anonymize(
                        network, algorithm, user, snapshot, profile, chain
                    ).envelope
                region_segments = len(envelope.region)

                anon_ms = _time(
                    lambda: fast.anonymize(user, snapshot, profile, chain), repeats
                )
                hint_ms = _time(
                    lambda: fast.deanonymize(envelope, chain, 0, mode="hint"),
                    repeats,
                )
                search_ms = None
                if target <= SEARCH_REGION_CAP:
                    search_chain = KeyChain.from_passphrases(["bench-x-s"])
                    blind = fast.anonymize(
                        user,
                        snapshot,
                        search_profile_for_region(target),
                        search_chain,
                        include_hints=False,
                    )
                    search_ms = _time(
                        lambda: fast.deanonymize(
                            blind, search_chain, 0, mode="search"
                        ),
                        repeats,
                    )
                row = {
                    "map_segments": segment_count,
                    "region_segments": region_segments,
                    "algorithm": algo_name,
                    "anon_ms": round(anon_ms, 3),
                    "hint_ms": round(hint_ms, 3),
                    "search_ms": None if search_ms is None else round(search_ms, 3),
                }
                rows.append(row)
                table.add_row(**row)
                print(
                    f"map={segment_count} region={region_segments} "
                    f"algo={algo_name}: anonymize {anon_ms:.1f} ms, "
                    f"hint peel {hint_ms:.1f} ms"
                )
    table.print_and_save()
    largest = max(m for _, m in maps)
    biggest_regions = [
        row
        for row in rows
        if row["map_segments"] == largest
        and row["region_segments"]
        >= max(r["region_segments"] for r in rows if r["map_segments"] == largest)
    ]
    return {
        "benchmark": "bench_expansion",
        "quick": quick,
        "repeats": repeats,
        "rows": rows,
        "summary": {
            "largest_map_segments": largest,
            "anonymize_ms_at_largest_map_largest_region": {
                row["algorithm"]: row["anon_ms"] for row in biggest_regions
            },
            "hint_ms_at_largest_map_largest_region": {
                row["algorithm"]: row["hint_ms"] for row in biggest_regions
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
    name = "BENCH_expansion.quick.json" if args.quick else "BENCH_expansion.json"
    out = REPO_ROOT / name
    out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
