"""What a server loads: neither numpy nor scipy, on a grid or atlanta map.

numpy serves the simulator, POI and benchmark-workload code alone, and
scipy nothing in ``src/`` at all: the Delaunay maps behind ``atlanta_like``
draw and triangulate in pure Python. Every server, CLI run and spawned
process-pool worker imports ``repro``, so a stray module-level import of
either is paid at every cold start. The probe runs in a fresh interpreter:
this test process has long since loaded both.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = textwrap.dedent(
    """
    import sys

    import repro
    import repro.lbs
    import repro.lbs.frontend
    from repro import (
        AnonymizerService,
        CloakRequest,
        KeyChain,
        PopulationSnapshot,
        PrivacyProfile,
        atlanta_like,
        grid_network,
    )

    def serve(network):
        snapshot = PopulationSnapshot.from_counts(
            {segment_id: 2 for segment_id in network.segment_ids()}
        )
        service = AnonymizerService(network)
        service.update_snapshot(snapshot)
        profile = PrivacyProfile.uniform(
            levels=2, base_k=6, k_step=6, base_l=3, l_step=1, max_segments=40
        )
        chain = KeyChain.from_passphrases(["surface-1", "surface-2"])
        user_id = snapshot.users()[7]
        envelope = service.cloak(
            CloakRequest(user_id=user_id, profile=profile, chain=chain)
        )
        result = service.deanonymize(envelope, chain, 0, mode="hint")
        assert result.region_at(0) == (snapshot.segment_of(user_id),)
        service.close()

    serve(grid_network(9, 9))
    print("serving:", sorted(m for m in ("numpy", "scipy") if m in sys.modules))

    serve(atlanta_like(scale=0.05))
    print("atlanta:", sorted(m for m in ("numpy", "scipy") if m in sys.modules))

    import repro.bench.workloads
    print("workloads:", sorted(m for m in ("numpy", "scipy") if m in sys.modules))
    """
)


def test_serving_loads_neither_numpy_nor_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    assert "serving: []" in lines, completed.stdout
    assert "atlanta: []" in lines, completed.stdout
    # Positive control: the probe sees numpy once a module imports it.
    assert "workloads: ['numpy']" in lines, completed.stdout
