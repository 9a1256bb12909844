"""Server process of the socket benchmark.

Starts the real serving stack for one workload in its own process: the
workload's map and population snapshot, an :class:`AnonymizerService` and a
:class:`FrontendServer`, both with default arguments (inline backend, 2 ms
lane window, ``batch_max`` 64), on an ephemeral loopback port. Prints one
readiness line, ``SOCKETBENCH_READY <port> <roadnet build seconds>``, then
serves until its standard input closes (or SIGTERM/SIGINT), drains and
exits — so it also goes away when the generator dies.

With ``--spans PATH`` the layer functions are wrapped first (see
:mod:`tracer`) and the spans are written to ``PATH`` at exit.

Run from the repository root::

    python3 socketbench/launcher.py --workload cloak
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro import AnonymizerService  # noqa: E402
from repro.lbs import FrontendServer  # noqa: E402

import tracer as layer_tracer  # noqa: E402
from workloads import WORKLOADS, build_network, build_snapshot  # noqa: E402


async def _serve(service: AnonymizerService, build_s: float) -> None:
    server = FrontendServer(service)
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)

    def on_stdin() -> None:
        if not os.read(sys.stdin.fileno(), 4096):
            loop.remove_reader(sys.stdin.fileno())
            stop.set()

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    print(f"SOCKETBENCH_READY {server.port} {build_s:.6f}", flush=True)
    try:
        await stop.wait()
    finally:
        await server.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--spans", default=None, help="trace and write spans here")
    args = parser.parse_args()
    tracer = layer_tracer.install() if args.spans else None
    started = time.monotonic()
    network = build_network(WORKLOADS[args.workload].map_name)
    network.compiled()
    build_s = time.monotonic() - started
    service = AnonymizerService(network)
    try:
        service.update_snapshot(build_snapshot(network))
        asyncio.run(_serve(service, build_s))
    finally:
        service.close()
        if tracer is not None:
            tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
