"""repro.serve — the asyncio prediction service.

Turns the offline reproduction into a queryable system: a stdlib-only
JSON-over-HTTP server (:mod:`~repro.serve.server`) over one or more
fitted models, with per-object streaming ingest, request batching
(:mod:`~repro.serve.batching`), an LRU+TTL prediction cache
(:mod:`~repro.serve.cache`), operational metrics
(:mod:`~repro.serve.metrics`), and a load generator
(:mod:`~repro.serve.loadgen`).

The stack is hardened for hostile traffic: admission control with
per-class slots, watermark shedding and per-client rate limits
(:mod:`~repro.serve.admission`), per-request deadlines with a graceful
degradation ladder (stale cache -> motion-only -> 503), a background
refit scheduler with retry/backoff/dead-lettering
(:mod:`~repro.serve.refit`), HTTP read limits, and seeded fault
injection for resilience drills (:mod:`~repro.serve.chaos`).  With
chaos off and default limits the hardening layer is invisible:
responses are byte-identical to a plain predict call.

Beyond one process, :mod:`~repro.serve.shard` partitions a fleet over
N shard-worker processes behind a consistent-hash router
(``repro shard-serve --shards N``), preserving the same wire protocol
and the same byte-identity guarantee.

Run one from the CLI::

    repro fit route.csv -o snapshot --period 24
    repro serve snapshot --port 8080
    repro loadgen 127.0.0.1:8080 --input route.csv --object-id route --requests 500
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".admission": ("AdmissionController", "AdmissionDecision", "TokenBucket"),
    ".batching": ("RequestBatcher",),
    ".cache": ("PredictionCache",),
    ".chaos": ("ChaosConfig", "FaultInjector"),
    ".handlers": (
        "ApiError",
        "prediction_to_dict",
        "render_predict_all_body",
        "render_predict_body",
    ),
    ".httpclient": ("HttpClient",),
    ".loadgen": (
        "LoadReport",
        "PredictQuery",
        "build_workload",
        "ingest_stream",
        "run_loadgen",
    ),
    ".metrics": (
        "DEFAULT_LATENCY_BUCKETS",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "merge_dumps",
    ),
    ".refit": ("RefitScheduler",),
    ".server": ("PredictionServer", "PredictionService", "ServeConfig"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
