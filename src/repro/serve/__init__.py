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

from .admission import AdmissionController, AdmissionDecision, TokenBucket
from .batching import RequestBatcher
from .cache import PredictionCache
from .chaos import ChaosConfig, FaultInjector
from .handlers import (
    ApiError,
    prediction_to_dict,
    render_predict_all_body,
    render_predict_body,
)
from .loadgen import (
    HttpClient,
    LoadReport,
    PredictQuery,
    build_workload,
    ingest_stream,
    run_loadgen,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_dumps,
)
from .refit import RefitScheduler
from .server import PredictionServer, PredictionService, ServeConfig

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ApiError",
    "ChaosConfig",
    "Counter",
    "FaultInjector",
    "RefitScheduler",
    "TokenBucket",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "HttpClient",
    "LoadReport",
    "MetricsRegistry",
    "PredictQuery",
    "PredictionCache",
    "PredictionServer",
    "PredictionService",
    "RequestBatcher",
    "ServeConfig",
    "build_workload",
    "ingest_stream",
    "merge_dumps",
    "prediction_to_dict",
    "render_predict_all_body",
    "render_predict_body",
    "run_loadgen",
]
