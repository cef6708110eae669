"""Load generator: replay a trajectory workload against a live server.

Closes the serving loop: ``repro fit`` fits a fleet, ``repro serve``
exposes it, and ``repro loadgen`` (or :func:`run_loadgen` in-process)
fires a realistic query stream at it and reports what an operator cares
about — sustained requests/sec and the latency tail.

The workload is drawn from a trajectory (the same CSV the model was
mined from, or a freshly synthesised scenario): each query takes a
``window``-long slice of consecutive fixes as the recent movements and
asks for the location 1..``max_horizon`` steps past the slice.  Queries
are sampled *with replacement* from a bounded pool of distinct slices —
exactly how production traffic repeats itself — so the server's cache
has something to hit; ``distinct=requests`` makes every query unique
(cache-defeating worst case for A/B runs).

Latencies are recorded raw and summarised exactly (no histogram error),
which also cross-checks the server's bucket-estimated p95 at
``/metrics``.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

import numpy as np

from ..trajectory.trajectory import Trajectory
from .httpclient import HttpClient

__all__ = [
    "PredictQuery",
    "LoadReport",
    "build_workload",
    "run_loadgen",
    "ingest_stream",
]


@dataclass(frozen=True)
class PredictQuery:
    """One ``POST /predict`` call: a recent window and a future time.

    ``deadline_ms`` rides along in the payload (the server degrades
    rather than blocking past it) and defines this query's goodput bar:
    a response counts as *good* only if it arrives in time.
    """

    object_id: str
    recent: tuple[tuple[int, float, float], ...]
    query_time: int
    k: int | None = None
    deadline_ms: float | None = None

    def payload(self) -> dict:
        body: dict = {
            "object_id": self.object_id,
            "recent": [list(fix) for fix in self.recent],
            "query_time": self.query_time,
        }
        if self.k is not None:
            body["k"] = self.k
        if self.deadline_ms is not None:
            body["deadline_ms"] = self.deadline_ms
        return body


@dataclass
class LoadReport:
    """Throughput/latency summary of one load-generation run.

    Beyond the headline numbers, a resilience run is self-describing:
    ``status_counts`` is the full status-code histogram (503 = shed,
    429 = rate-limited), ``degraded`` counts fallback-quality answers,
    ``transport_errors`` counts dropped/failed connections, and
    ``class_latencies_ms`` splits latencies per request class so a
    predict/ingest mix can be read apart.
    """

    requests: int
    errors: int
    elapsed: float
    cache_hits: int
    latencies_ms: list[float] = field(repr=False)
    status_counts: dict[int, int] = field(default_factory=dict)
    class_latencies_ms: dict[str, list[float]] = field(
        default_factory=dict, repr=False
    )
    degraded: int = 0
    transport_errors: int = 0
    deadline_misses: int = 0
    good: int = 0
    #: latencies keyed by the responding shard (``X-Shard`` header);
    #: empty against a single-process server, which sends no such header
    shard_latencies_ms: dict[str, list[float]] = field(
        default_factory=dict, repr=False
    )
    #: status-code histogram per responding shard
    shard_status_counts: dict[str, dict[int, int]] = field(
        default_factory=dict
    )

    @property
    def throughput(self) -> float:
        """Successful requests per second."""
        ok = self.requests - self.errors
        return ok / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def shed(self) -> int:
        """Responses shed by admission control (HTTP 503)."""
        return self.status_counts.get(503, 0)

    @property
    def rate_limited(self) -> int:
        """Responses refused by the per-client rate limiter (HTTP 429)."""
        return self.status_counts.get(429, 0)

    @property
    def goodput_ratio(self) -> float:
        """Fraction of requests answered full-quality and in deadline."""
        return self.good / self.requests if self.requests else 0.0

    def percentile(self, p: float, request_class: str | None = None) -> float:
        samples = (
            self.latencies_ms
            if request_class is None
            else self.class_latencies_ms.get(request_class, [])
        )
        if not samples:
            return 0.0
        return float(np.percentile(np.asarray(samples), p))

    def format(self) -> str:
        lines = [
            f"{self.requests} requests in {self.elapsed:.2f}s "
            f"({self.throughput:.0f} req/s), {self.errors} errors, "
            f"{self.cache_hits} cache hits",
            f"latency ms: p50={self.percentile(50):.2f} "
            f"p95={self.percentile(95):.2f} p99={self.percentile(99):.2f} "
            f"max={max(self.latencies_ms, default=0.0):.2f}",
        ]
        if self.status_counts:
            histogram = " ".join(
                f"{status}:{count}"
                for status, count in sorted(self.status_counts.items())
            )
            lines.append(f"status codes: {histogram}")
        if (
            self.shed
            or self.rate_limited
            or self.degraded
            or self.transport_errors
            or self.deadline_misses
        ):
            lines.append(
                f"resilience: shed={self.shed} rate_limited={self.rate_limited} "
                f"degraded={self.degraded} transport_errors="
                f"{self.transport_errors} deadline_misses="
                f"{self.deadline_misses} goodput={self.goodput_ratio:.1%}"
            )
        for request_class in sorted(self.class_latencies_ms):
            if len(self.class_latencies_ms) > 1:
                lines.append(
                    f"{request_class} ms: "
                    f"p50={self.percentile(50, request_class):.2f} "
                    f"p95={self.percentile(95, request_class):.2f} "
                    f"p99={self.percentile(99, request_class):.2f}"
                )
        for shard in sorted(self.shard_latencies_ms):
            samples = np.asarray(self.shard_latencies_ms[shard])
            statuses = " ".join(
                f"{status}:{count}"
                for status, count in sorted(
                    self.shard_status_counts.get(shard, {}).items()
                )
            )
            lines.append(
                f"shard {shard}: {len(samples)} responses, "
                f"p50={float(np.percentile(samples, 50)):.2f} "
                f"p95={float(np.percentile(samples, 95)):.2f} "
                f"p99={float(np.percentile(samples, 99)):.2f} ms"
                + (f" [{statuses}]" if statuses else "")
            )
        return "\n".join(lines)


def build_workload(
    trajectory: Trajectory,
    *,
    object_id: str = "default",
    requests: int = 500,
    window: int = 4,
    max_horizon: int = 5,
    distinct: int = 50,
    k: int | None = None,
    deadline_ms: float | None = None,
    rng: np.random.Generator | None = None,
) -> list[PredictQuery]:
    """Sample a predict workload from a trajectory (see module docstring)."""
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if len(trajectory) < window:
        raise ValueError(
            f"trajectory of {len(trajectory)} fixes is shorter than the "
            f"window ({window})"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    distinct = max(1, min(distinct, requests))

    pool: list[PredictQuery] = []
    positions = trajectory.positions
    start_time = trajectory.start_time
    for _ in range(distinct):
        end = int(rng.integers(window - 1, len(trajectory)))
        recent = tuple(
            (start_time + i, float(positions[i, 0]), float(positions[i, 1]))
            for i in range(end - window + 1, end + 1)
        )
        horizon = int(rng.integers(1, max_horizon + 1))
        pool.append(
            PredictQuery(
                object_id=object_id,
                recent=recent,
                query_time=start_time + end + horizon,
                k=k,
                deadline_ms=deadline_ms,
            )
        )
    choices = rng.integers(0, len(pool), size=requests)
    return [pool[i] for i in choices]


async def run_loadgen(
    host: str,
    port: int,
    workload: list[PredictQuery],
    concurrency: int = 8,
    chaos=None,
    client_id: str | None = "loadgen",
) -> LoadReport:
    """Fire ``workload`` at the server from ``concurrency`` connections.

    Each connection identifies itself with an ``X-Client-Id`` header
    (``{client_id}-{worker}``; ``client_id=None`` omits it) so per-client
    rate limits see stable identities.  ``chaos`` plugs in a
    :class:`~repro.serve.chaos.FaultInjector` on the *client* side:
    slow sends (dribbled request bytes) and abrupt disconnects between
    requests, exercising the server's read timeouts and half-open
    connection handling.  A query is *good* when it came back 200,
    full-quality (not ``degraded``), and — if it carried a deadline —
    within that deadline.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    queue: asyncio.Queue[PredictQuery] = asyncio.Queue()
    for query in workload:
        queue.put_nowait(query)

    latencies_ms: list[float] = []
    predict_latencies: list[float] = []
    status_counts: dict[int, int] = {}
    shard_latencies: dict[str, list[float]] = {}
    shard_statuses: dict[str, dict[int, int]] = {}
    counters = {
        "errors": 0,
        "cache_hits": 0,
        "degraded": 0,
        "transport_errors": 0,
        "deadline_misses": 0,
        "good": 0,
    }

    async def worker(index: int) -> None:
        client = HttpClient(host, port)
        await client.connect()
        request_headers = (
            {"X-Client-Id": f"{client_id}-{index}"}
            if client_id is not None
            else None
        )
        try:
            while True:
                try:
                    query = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                send_delay_s = 0.0
                if chaos is not None:
                    if chaos.should_drop():
                        # Abrupt client disconnect: the server must reap
                        # the half-open connection without fuss.
                        await client.close()
                    send_delay_s = chaos.slow_client_s()
                started = time.perf_counter()
                try:
                    status, headers, body = await client.request(
                        "POST",
                        "/predict",
                        query.payload(),
                        headers=request_headers,
                        send_delay_s=send_delay_s,
                    )
                except (ConnectionError, OSError, asyncio.IncompleteReadError):
                    counters["errors"] += 1
                    counters["transport_errors"] += 1
                    await client.close()
                    await client.connect()
                    continue
                latency_ms = (time.perf_counter() - started) * 1000.0
                latencies_ms.append(latency_ms)
                predict_latencies.append(latency_ms)
                status_counts[status] = status_counts.get(status, 0) + 1
                shard = headers.get("x-shard")
                if shard is not None:
                    shard_latencies.setdefault(shard, []).append(latency_ms)
                    per_shard = shard_statuses.setdefault(shard, {})
                    per_shard[status] = per_shard.get(status, 0) + 1
                degraded = headers.get("x-degraded") == "true"
                in_deadline = (
                    query.deadline_ms is None or latency_ms <= query.deadline_ms
                )
                if not in_deadline:
                    counters["deadline_misses"] += 1
                if status != 200:
                    counters["errors"] += 1
                else:
                    if degraded:
                        counters["degraded"] += 1
                    elif in_deadline:
                        counters["good"] += 1
                    if headers.get("x-cache") == "hit":
                        counters["cache_hits"] += 1
        finally:
            await client.close()

    started = time.perf_counter()
    await asyncio.gather(
        *(
            worker(i)
            for i in range(min(concurrency, len(workload) or 1))
        )
    )
    elapsed = time.perf_counter() - started
    return LoadReport(
        requests=len(workload),
        errors=counters["errors"],
        elapsed=elapsed,
        cache_hits=counters["cache_hits"],
        latencies_ms=latencies_ms,
        status_counts=status_counts,
        class_latencies_ms={"predict": predict_latencies},
        degraded=counters["degraded"],
        transport_errors=counters["transport_errors"],
        deadline_misses=counters["deadline_misses"],
        good=counters["good"],
        shard_latencies_ms=shard_latencies,
        shard_status_counts=shard_statuses,
    )


async def ingest_stream(
    host: str,
    port: int,
    object_id: str,
    fixes: list[tuple[int, float, float]],
    chunk: int = 32,
) -> int:
    """POST a fix stream to ``/ingest`` in chunks; returns fixes accepted."""
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    client = HttpClient(host, port)
    await client.connect()
    accepted = 0
    try:
        for i in range(0, len(fixes), chunk):
            batch = [list(fix) for fix in fixes[i : i + chunk]]
            status, _, body = await client.request(
                "POST",
                "/ingest",
                {"object_id": object_id, "fixes": batch},
            )
            if status != 200:
                raise RuntimeError(
                    f"/ingest returned {status}: {body.decode('utf-8', 'replace')}"
                )
            accepted += json.loads(body)["accepted"]
    finally:
        await client.close()
    return accepted
