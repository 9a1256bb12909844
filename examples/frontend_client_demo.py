#!/usr/bin/env python3
"""Network front-end demo: drive a live anonymizer server over TCP —
and survive it going away.

The other examples call :class:`AnonymizerService` in process. This one
speaks to it the way a deployment would: it launches
``python -m repro.lbs.frontend`` as a separate process and connects a
:class:`~repro.lbs.ResilientClient` over the socket. The resilient
client is the deployment-shaped client — reconnect with deterministic
backoff, bounded retry of retryable structured errors, optional
per-request deadline budgets — so the demo can do what a
``FrontendClient`` demo cannot: **restart the server mid-stream** and
keep serving. The script cloaks half its users, SIGTERMs the server (a
graceful drain: in-flight work finishes, then exit 0), starts a fresh
server on the same port, and cloaks the rest through the same client
object, which quietly re-establishes the connection. A peel, a
``health`` probe, and a clean SIGINT drain round out the wire protocol.

Run:  python examples/frontend_client_demo.py
"""

import asyncio
import os
import signal
import socket
import subprocess
import sys

# Make the repo importable for both this script and the spawned server,
# whether or not the package is installed.
_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src")
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import KeyChain, PrivacyProfile  # noqa: E402
from repro.lbs import ResilientClient  # noqa: E402
from repro.lbs.wire import (  # noqa: E402
    CLOAK_REQUEST_FORMAT,
    DEANONYMIZE_REQUEST_FORMAT,
    WIRE_VERSION,
)

N_USERS = 6


def free_port() -> int:
    """Reserve an ephemeral port number the restarted server can reuse."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def launch_server(port: int) -> subprocess.Popen:
    """Start the front-end on ``port`` and wait for its readiness line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.lbs.frontend",
            "--port", str(port),
            "--backend", "process",
            "--workers", "2",
            "--grid-side", "12",
            "--batch-window-ms", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    ready = proc.stdout.readline().split()
    if ready[:1] != ["FRONTEND_READY"]:
        raise RuntimeError(f"server failed to start: {proc.stderr.read()}")
    return proc


def cloak_document(user_id: int, profile: PrivacyProfile, chain: KeyChain) -> dict:
    """A cloak request in its wire form, as a remote client would build it."""
    return {
        "format": CLOAK_REQUEST_FORMAT,
        "version": WIRE_VERSION,
        "user_id": user_id,
        "profile": profile.to_dict(),
        "chain": chain.to_dict(),
    }


def describe(user_id: int, outcome: dict) -> None:
    envelope = outcome["envelope"]
    levels = ", ".join(
        f"L{spec['level']}(k={spec['k']})" for spec in envelope["levels"]
    )
    print(
        f"  user {user_id}: published region of "
        f"{len(envelope['region'])} segment(s); sealed levels {levels}"
    )


async def drive(host: str, port: int, restart_server) -> None:
    profile = PrivacyProfile.uniform(
        levels=3, base_k=4, k_step=4, base_l=2, l_step=1, max_segments=60
    )
    chains = {
        user_id: KeyChain.from_passphrases(
            [f"demo-{user_id}-L{level}" for level in range(3)]
        )
        for user_id in range(N_USERS)
    }
    half = N_USERS // 2

    async with ResilientClient(host, port) as client:
        # Act one: ordinary serving. One connection, requests multiplexed
        # by echoed request_id, coalesced into batched backend calls.
        outcomes = {}
        for user_id in range(half):
            outcomes[user_id] = await client.request(
                cloak_document(user_id, profile, chains[user_id])
            )
        print(f"cloaked users 0..{half - 1} against the first server:")
        for user_id in range(half):
            describe(user_id, outcomes[user_id])

        # Act two: the server goes away — gracefully — and a replacement
        # comes up on the same port. The client object stays; its next
        # request finds the dead connection and re-establishes it.
        restart_server()
        print("server restarted; same client keeps serving:")
        for user_id in range(half, N_USERS):
            outcomes[user_id] = await client.request(
                cloak_document(user_id, profile, chains[user_id])
            )
            describe(user_id, outcomes[user_id])
        print(f"client reconnects: {client.reconnects} (retries: {client.retries})")

        # Reverse one cloak served by the *first* server with keys held
        # locally: envelopes are self-describing, so the replacement
        # server peels them identically.
        target = 0
        peel = await client.request(
            {
                "format": DEANONYMIZE_REQUEST_FORMAT,
                "version": WIRE_VERSION,
                "envelope": outcomes[target]["envelope"],
                "keys": [key.to_dict() for key in chains[target]],
                "target_level": 0,
            }
        )
        region = peel["result"]["regions"]["0"]
        print(f"peeled user {target} back to level 0: segment(s) {region}")

        health = await client.health()
        print(f"health: {health['status']}; front-end counters:")
        for key in (
            "connections",
            "batches_coalesced",
            "connections_evicted",
            "idle_timeouts",
            "frames_rejected",
            "frontend_requests_shed",
        ):
            print(f"  {key}: {health['counters'][key]}")


def main() -> int:
    port = free_port()
    procs = [launch_server(port)]
    print(f"front-end listening on 127.0.0.1:{port}")

    def restart_server():
        # SIGTERM drains: stop accepting, finish in-flight, exit 0.
        procs[-1].send_signal(signal.SIGTERM)
        out, _err = procs[-1].communicate(timeout=30)
        print(
            f"first server drained and exited {procs[-1].returncode} "
            f"({'draining reported' if 'draining' in out else 'no drain log'})"
        )
        procs.append(launch_server(port))

    try:
        asyncio.run(drive("127.0.0.1", port, restart_server))

        # A clean shutdown of the replacement: SIGINT drains like SIGTERM.
        procs[-1].send_signal(signal.SIGINT)
        out, _err = procs[-1].communicate(timeout=30)
        print(f"second server drained and exited {procs[-1].returncode}")
        sys.stdout.write(out)
        return procs[-1].returncode or 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


if __name__ == "__main__":
    raise SystemExit(main())
