"""Server launcher for the benchmark: one process per server role.

    python perfbench/server_proc.py single SNAPSHOT --ready-file F [--update-after N]
    python perfbench/server_proc.py worker SNAPSHOT --ready-file F [--update-after N]
    python perfbench/server_proc.py router --ready-file F --worker-port P

``single`` is ``PredictionService.from_snapshot`` behind a
``PredictionServer`` (what ``repro serve`` runs); ``worker`` is
``repro.serve.shard.worker.run_worker`` for shard 0 of 1 (what
``repro shard-worker`` runs); ``router`` is a ``RouterServer`` over one
already-running worker.  Each binds an ephemeral port, writes it to the
ready file, and serves until SIGTERM.  With ``--trace-out PATH`` the
layer functions are wrapped with spans (:mod:`spans`) before anything is
built, and the spans are written to ``PATH`` on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, install  # noqa: E402


def _publish_port(ready_file: str, port: int) -> None:
    tmp = ready_file + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(f"{port}\n")
    os.replace(tmp, ready_file)


async def _serve(args) -> None:
    from repro.serve.server import PredictionServer, PredictionService, ServeConfig

    config = ServeConfig(update_after=args.update_after)
    if args.role == "worker":
        from repro.serve.shard.worker import run_worker

        await run_worker(args.snapshot, 0, 1, ready_file=args.ready_file, config=config)
        return
    if args.role == "router":
        from repro.serve.shard.router import RouterConfig, RouterServer, RouterService

        service = RouterService(RouterConfig(num_shards=1))
        server = RouterServer(service)
        await server.start()
        service.attach_shard(0, "127.0.0.1", args.worker_port)
    else:
        service = PredictionService.from_snapshot(args.snapshot, config)
        server = PredictionServer(service)
        await server.start()
    _publish_port(args.ready_file, server.port)
    await server.run_forever(handle_signals=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("single", "worker", "router"))
    parser.add_argument("snapshot", nargs="?")
    parser.add_argument("--ready-file", required=True)
    parser.add_argument("--worker-port", type=int)
    parser.add_argument("--update-after", type=int)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        install(tracer)
    try:
        asyncio.run(_serve(args))
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
