"""repro.serve.shard — sharded multi-process serving.

Scales :mod:`repro.serve` past one CPU by partitioning the fleet over
``N`` shard-worker processes behind a router front-end:

* :class:`~repro.serve.shard.ring.HashRing` — deterministic consistent
  hashing of object ids onto shards (the single source of placement
  truth for the router, the workers, and snapshot splitting);
* :mod:`~repro.serve.shard.snapshot` — split a fleet snapshot into
  per-shard snapshots and merge them back;
* :mod:`~repro.serve.shard.worker` — one shard-worker process: the
  existing :class:`~repro.serve.server.PredictionService` over the
  shard's slice of the fleet, speaking the same JSON-over-HTTP protocol
  on a local socket;
* :mod:`~repro.serve.shard.forwarding` — bounded per-shard forwarding
  queues with priority order and eviction at capacity;
* :mod:`~repro.serve.shard.router` — the router: HTTP front-end whose
  admission controller is its one shedding policy; it forwards
  single-object requests to the owning shard byte-for-byte,
  scatter-gathers fleet-wide requests, aggregates shard metrics, and
  degrades (stale cache → 503 + Retry-After) when a shard is down;
* :mod:`~repro.serve.shard.cluster` — worker lifecycle: spawn,
  readiness, crash restart with backoff, graceful SIGTERM drain.

Run a sharded deployment from the CLI::

    repro fit bus*.csv -o fleet_snapshot --period 24
    repro shard-serve fleet_snapshot --shards 4 --port 8080
    repro loadgen 127.0.0.1:8080 --input bus1.csv --requests 2000

With every shard healthy the router's responses are byte-identical to a
single-process ``repro serve`` over the same snapshot
(``benchmarks/bench_serve_shard.py`` proves it with SHA-256
fingerprints).
"""

from ..._lazy import lazy_exports

_EXPORTS = {
    ".cluster": ("ShardCluster", "WorkerHandle"),
    ".forwarding": (
        "ForwardQueue",
        "QueueFullError",
        "ShardForwarder",
        "ShardTransportError",
    ),
    ".ring": ("HashRing",),
    ".router": ("RouterConfig", "RouterServer", "RouterService"),
    ".snapshot": (
        "SHARD_MANIFEST",
        "merge_snapshot",
        "read_shard_manifest",
        "split_snapshot",
    ),
    ".worker": ("load_shard_fleet", "run_worker"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
