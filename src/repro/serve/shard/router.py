"""The shard router: one HTTP front door over N shard workers.

:class:`RouterService` duck-types the service surface that
:class:`~repro.serve.server.PredictionServer` drives (``config``,
``metrics``, ``admission``, ``chaos``, ``drain``), so
:class:`RouterServer` inherits the whole hardened HTTP front-end —
keep-alive framing, read limits, slow-loris reaping, admission control
with watermarks and per-client rate limits (the router's only shedding
policy; per-shard queues merely bound a slow shard) — and only swaps
request *handling* for request *forwarding*:

* ``POST /predict`` / ``POST /ingest`` — consistent-hash the object id,
  forward the request **byte-for-byte** through the owning shard's
  bounded priority queue, and pass the worker's response bytes straight
  back (plus an ``X-Shard`` header).  With every shard healthy the
  router is a transparent pipe: response bodies are byte-identical to a
  single-process server over the same fleet.
* ``POST /predict_all`` / ``GET /objects`` — scatter to every shard,
  gather, merge in sorted object-id order (the workers render sorted
  slices through the same canonical encoder, so the merged body is
  byte-identical to the single-process answer; a shard outage marks the
  response ``"partial": true`` instead of failing it).
* ``GET /metrics`` — the router's own registry merged with every
  shard's ``/metrics.json`` dump (counters/gauges sum, histograms sum
  per bucket), one fleet-wide Prometheus exposition.
* ``GET /healthz`` — shard health rollup from the background probes.

Failure handling mirrors the PR 6 degradation ladder, one tier up: a
shard that sheds answers ``503 + Retry-After``; a shard that is dead or
unreachable degrades a predict to the router's **stale response cache**
(the last full-quality body served for the same object and request
bytes, replayed with ``"degraded": true``) and only 503s when there is
nothing to fall back on.  Ingests never retry blindly and never serve
stale — they fail fast and honestly.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
from contextlib import suppress
from dataclasses import dataclass

from ..admission import AdmissionController
from ..cache import PredictionCache
from ..handlers import ApiError, encode_json, _object_id, _parse_body
from ..httpclient import HttpClient
from ..metrics import MetricsRegistry, merge_dumps
from ..server import PredictionServer, ServeConfig
from .forwarding import ForwardQueue, QueueFullError, ShardForwarder, ShardTransportError
from .ring import DEFAULT_REPLICAS, HashRing

__all__ = ["RouterConfig", "RouterService", "RouterServer"]

_JSON = "application/json"

_log = logging.getLogger(__name__)

#: what a failed health probe raises: transport errors (``ConnectionError``
#: and socket errors are ``OSError``; a short read is an ``EOFError``), the
#: probe timeout, and an unparseable status line or ``Content-Length``
_PROBE_FAILURES = (OSError, EOFError, asyncio.TimeoutError, ValueError, IndexError)

#: response headers forwarded from a worker back to the client
_PASSTHROUGH_HEADERS = ("x-cache", "x-degraded", "retry-after")


@dataclass(frozen=True)
class RouterConfig:
    """Router-tier knobs (the front-end HTTP/admission knobs stay in
    :class:`~repro.serve.server.ServeConfig`)."""

    #: shard count; must match the worker fleet and any split snapshot
    num_shards: int
    #: consistent-hash virtual nodes per shard
    replicas: int = DEFAULT_REPLICAS
    #: consistent-hash namespace
    salt: str = "hpm-ring"
    #: bounded depth of each shard's forwarding queue
    queue_depth: int = 128
    #: keep-alive connections pumping each shard's queue
    pump_concurrency: int = 4
    #: seconds a forwarded request may wait end-to-end before failover
    forward_timeout: float = 15.0
    #: seconds between health probes per shard
    probe_interval: float = 0.25
    #: per-probe timeout
    probe_timeout: float = 1.0
    #: consecutive probe failures before a shard is marked down
    probe_fail_threshold: int = 3
    #: router-side stale-response cache (the failover rung) capacity
    stale_cache_entries: int = 2048
    #: stale-cache TTL in seconds (entries older than this still serve
    #: as *stale* failover answers until evicted by capacity)
    stale_cache_ttl: float | None = 30.0


@dataclass
class _ShardState:
    shard_id: int
    host: str
    port: int
    forwarder: ShardForwarder
    healthy: bool = True
    consecutive_failures: int = 0
    objects: int = 0
    probe_task: asyncio.Task | None = None
    probe_client: HttpClient | None = None
    #: set on teardown; ends the probe loop even when Python 3.11's
    #: ``wait_for`` swallows the cancellation of a probe that just finished
    stopped: bool = False


class RouterService:
    """Forwarding core behind a :class:`RouterServer` front-end."""

    def __init__(
        self,
        router_config: RouterConfig,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.router_config = router_config
        self.config = config or ServeConfig()
        self.metrics = metrics or MetricsRegistry()
        self.chaos = None  # the router never injects faults itself
        self.ring = HashRing(
            router_config.num_shards,
            replicas=router_config.replicas,
            salt=router_config.salt,
        )
        self.admission = AdmissionController(
            {
                "predict": self.config.max_inflight_predict,
                "ingest": self.config.max_inflight_ingest,
                "background": self.config.refit_concurrency,
            },
            high_watermark=self.config.high_watermark,
            low_watermark=self.config.low_watermark,
            client_rate=self.config.client_rate,
            client_burst=self.config.client_burst,
            retry_after=self.config.retry_after,
            metrics=self.metrics,
        )
        self._shards: dict[int, _ShardState] = {}
        self._stale = PredictionCache(
            max_entries=router_config.stale_cache_entries,
            ttl=router_config.stale_cache_ttl,
            metrics=None,  # its hit rate is not the predict cache's
        )
        self.metrics.gauge(
            "router_shards_total", help="shards the ring routes onto"
        ).set(router_config.num_shards)
        self._gauge_healthy()

    # ------------------------------------------------------------------
    # shard lifecycle (driven by ShardCluster callbacks)
    # ------------------------------------------------------------------
    def attach_shard(self, shard_id: int, host: str, port: int) -> None:
        """Register a (re)started worker and begin forwarding to it."""
        if not 0 <= shard_id < self.ring.num_shards:
            raise ValueError(
                f"shard id {shard_id} outside ring of {self.ring.num_shards}"
            )
        old = self._shards.pop(shard_id, None)
        if old is not None:
            asyncio.ensure_future(self._teardown(old))
        forwarder = ShardForwarder(
            shard_id,
            host,
            port,
            queue=ForwardQueue(self.router_config.queue_depth),
            concurrency=self.router_config.pump_concurrency,
            metrics=self.metrics,
        )
        forwarder.start()
        state = _ShardState(shard_id, host, port, forwarder)
        state.probe_client = HttpClient(host, port)
        state.probe_task = asyncio.ensure_future(self._probe_loop(state))
        self._shards[shard_id] = state
        self.metrics.counter("router_shard_attach_total").inc()
        self._gauge_healthy()

    def detach_shard(self, shard_id: int) -> None:
        """Stop forwarding to a dead worker; queued jobs fail fast."""
        state = self._shards.pop(shard_id, None)
        if state is None:
            return
        asyncio.ensure_future(self._teardown(state))
        self.metrics.counter("router_shard_detach_total").inc()
        self._gauge_healthy()

    async def _teardown(self, state: _ShardState) -> None:
        state.stopped = True
        if state.probe_task is not None:
            state.probe_task.cancel()
            # A probe loop that died of a bug has logged it already.
            await asyncio.gather(state.probe_task, return_exceptions=True)
        if state.probe_client is not None:
            await state.probe_client.close()
        await state.forwarder.stop()

    def shard_states(self) -> dict[int, dict]:
        """Operator view of every attached shard (for tests/healthz)."""
        return {
            shard_id: {
                "host": state.host,
                "port": state.port,
                "healthy": state.healthy,
                "objects": state.objects,
                "queue_depth": state.forwarder.queue.depth(),
            }
            for shard_id, state in sorted(self._shards.items())
        }

    # ------------------------------------------------------------------
    # health probing
    # ------------------------------------------------------------------
    async def _probe_loop(self, state: _ShardState) -> None:
        config = self.router_config
        while not state.stopped:
            try:
                status, _, body = await asyncio.wait_for(
                    state.probe_client.request("GET", "/healthz"),
                    config.probe_timeout,
                )
                if status != 200:
                    raise ConnectionError(f"healthz returned {status}")
                state.consecutive_failures = 0
                if not state.healthy:
                    state.healthy = True
                    self.metrics.counter("router_shard_recovered_total").inc()
                    self._gauge_healthy()
                with suppress(ValueError, KeyError, TypeError):
                    state.objects = int(json.loads(body)["objects"])
            except _PROBE_FAILURES:
                await state.probe_client.close()
                state.consecutive_failures += 1
                if (
                    state.healthy
                    and state.consecutive_failures
                    >= config.probe_fail_threshold
                ):
                    state.healthy = False
                    self.metrics.counter("router_shard_down_total").inc()
                    self._gauge_healthy()
            except Exception:
                # A bug in the probe is not a shard failure: say so, stop.
                _log.exception("health probe of shard %d failed", state.shard_id)
                raise
            await asyncio.sleep(config.probe_interval)

    def _gauge_healthy(self) -> None:
        self.metrics.gauge(
            "router_shards_healthy", help="attached shards passing probes"
        ).set(sum(1 for s in self._shards.values() if s.healthy))

    # ------------------------------------------------------------------
    # request handling (RouterServer._dispatch lands here)
    # ------------------------------------------------------------------
    async def handle(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, str, bytes, dict[str, str]]:
        path = path.split("?", 1)[0]
        try:
            if (method, path) == ("POST", "/predict"):
                return await self._forward_single(path, body, "predict")
            if (method, path) == ("POST", "/ingest"):
                return await self._forward_single(path, body, "ingest")
            if (method, path) == ("POST", "/predict_all"):
                return await self._predict_all(body)
            if (method, path) == ("GET", "/objects"):
                return await self._objects()
            if (method, path) == ("GET", "/healthz"):
                return self._healthz()
            if (method, path) == ("GET", "/metrics"):
                return await self._metrics_text()
            if (method, path) == ("GET", "/metrics.json"):
                return await self._metrics_json()
        except ApiError as exc:
            extra = {}
            if exc.retry_after is not None:
                extra["Retry-After"] = _fmt_seconds(exc.retry_after)
            return exc.status, _JSON, encode_json({"error": exc.message}), extra
        known = {
            "/predict",
            "/ingest",
            "/predict_all",
            "/objects",
            "/healthz",
            "/metrics",
            "/metrics.json",
        }
        if path in known:
            return 405, _JSON, encode_json({"error": "method not allowed"}), {}
        return 404, _JSON, encode_json({"error": f"no route {path}"}), {}

    async def _forward_single(
        self, path: str, body: bytes, request_class: str
    ) -> tuple[int, str, bytes, dict[str, str]]:
        payload = _parse_body(body)
        object_id = _object_id(payload)
        shard_id = self.ring.shard_for(object_id)
        stale_key = (object_id, hashlib.sha1(body).digest())
        generation = self._stale.generation(object_id)
        state = self._shards.get(shard_id)

        if state is not None and state.healthy:
            try:
                status, headers, response = await state.forwarder.submit(
                    "POST",
                    path,
                    body,
                    priority=request_class,
                    timeout=self.router_config.forward_timeout,
                )
            except QueueFullError as exc:
                self.metrics.counter("router_shed_total").inc()
                raise ApiError(
                    503,
                    f"shard {shard_id} overloaded ({exc.reason})",
                    retry_after=self.config.retry_after,
                ) from None
            except (
                ShardTransportError,
                asyncio.TimeoutError,
                TimeoutError,
            ):
                self.metrics.counter("router_failover_total").inc()
            else:
                extra = {"X-Shard": str(shard_id)}
                for name in _PASSTHROUGH_HEADERS:
                    if name in headers:
                        extra[_canonical_header(name)] = headers[name]
                if status == 200 and request_class == "predict":
                    if headers.get("x-degraded") != "true":
                        self._stale.put(stale_key, response, generation)
                elif status == 200 and request_class == "ingest":
                    # The object's window moved; stale answers for the
                    # old window would outlive their usefulness.
                    self._stale.invalidate(object_id)
                return status, _JSON, response, extra

        # Shard down or unreachable: the router-tier degradation ladder.
        if request_class == "predict":
            stale, _ = self._stale.lookup(stale_key)
            if stale is not None:
                self.metrics.counter("router_degraded_total").inc()
                degraded = json.loads(stale)
                degraded["degraded"] = True
                return (
                    200,
                    _JSON,
                    encode_json(degraded),
                    {
                        "X-Shard": str(shard_id),
                        "X-Cache": "stale",
                        "X-Degraded": "true",
                    },
                )
        self.metrics.counter("router_unavailable_total").inc()
        raise ApiError(
            503,
            f"shard {shard_id} unavailable for object {object_id!r}",
            retry_after=self.config.retry_after,
        )

    # ------------------------------------------------------------------
    # scatter-gather
    # ------------------------------------------------------------------
    async def _scatter(
        self,
        method: str,
        path: str,
        bodies: dict[int, bytes],
        priority: str = "background",
    ) -> tuple[dict[int, bytes], list[int]]:
        """Fan a request out to shards; returns (200 bodies, failed ids)."""

        async def one(shard_id: int, body: bytes):
            state = self._shards.get(shard_id)
            if state is None or not state.healthy:
                return shard_id, None
            try:
                status, _, response = await state.forwarder.submit(
                    method,
                    path,
                    body,
                    priority=priority,
                    timeout=self.router_config.forward_timeout,
                )
            except (
                QueueFullError,
                ShardTransportError,
                asyncio.TimeoutError,
                TimeoutError,
            ):
                return shard_id, None
            return shard_id, response if status == 200 else None

        results = await asyncio.gather(
            *(one(shard_id, body) for shard_id, body in bodies.items())
        )
        ok = {shard_id: resp for shard_id, resp in results if resp is not None}
        failed = sorted(shard_id for shard_id, resp in results if resp is None)
        if failed:
            self.metrics.counter("router_partial_total").inc()
        return ok, failed

    async def _objects(self) -> tuple[int, str, bytes, dict[str, str]]:
        bodies = {shard_id: b"" for shard_id in self._shards}
        ok, failed = await self._scatter("GET", "/objects", bodies)
        rows = []
        for response in ok.values():
            rows.extend(json.loads(response)["objects"])
        rows.sort(key=lambda row: row["object_id"])
        payload: dict = {"objects": rows}
        if failed or len(ok) < self.ring.num_shards:
            payload["partial"] = True
        return 200, _JSON, encode_json(payload), {}

    async def _predict_all(
        self, body: bytes
    ) -> tuple[int, str, bytes, dict[str, str]]:
        payload = _parse_body(body)
        query_time = payload.get("query_time")
        if not isinstance(query_time, int):
            raise ApiError(400, "query_time must be an integer")
        recents = payload.get("recents")
        if recents is None:
            # Tracker-backed sweep: every shard scores its own windows.
            bodies = {shard_id: body for shard_id in self._shards}
        else:
            if not isinstance(recents, dict):
                raise ApiError(
                    400, "recents must map object ids to [[t, x, y], ...]"
                )
            groups: dict[int, dict] = {}
            for object_id, fixes in recents.items():
                if not isinstance(object_id, str) or not object_id:
                    raise ApiError(400, "recents keys must be non-empty strings")
                groups.setdefault(self.ring.shard_for(object_id), {})[
                    object_id
                ] = fixes
            bodies = {
                shard_id: encode_json(
                    {"query_time": query_time, "recents": group}
                )
                for shard_id, group in groups.items()
            }
        ok, failed = await self._scatter(
            "POST", "/predict_all", bodies, priority="predict"
        )
        results: list[dict] = []
        unknown: list[str] = []
        for response in ok.values():
            parsed = json.loads(response)
            results.extend(parsed["results"])
            unknown.extend(parsed.get("unknown", ()))
        results.sort(key=lambda row: row["object_id"])
        merged: dict = {"query_time": query_time, "results": results}
        if unknown:
            merged["unknown"] = sorted(unknown)
        if failed or (bodies and not ok and recents):
            merged["partial"] = True
        return 200, _JSON, encode_json(merged), {}

    # ------------------------------------------------------------------
    # metrics + health
    # ------------------------------------------------------------------
    async def _shard_dumps(self) -> tuple[list[dict], int]:
        bodies = {shard_id: b"" for shard_id in self._shards}
        ok, _ = await self._scatter("GET", "/metrics.json", bodies)
        return [json.loads(response) for response in ok.values()], len(ok)

    async def _metrics_text(self) -> tuple[int, str, bytes, dict[str, str]]:
        dumps, reached = await self._shard_dumps()
        merged = merge_dumps([self.metrics.dump(), *dumps])
        text = (
            f"# router: aggregated {reached}/{self.ring.num_shards} "
            "shard registries plus the router's own\n"
            + merged.render_text()
        )
        return 200, "text/plain; version=0.0.4", text.encode("utf-8"), {}

    async def _metrics_json(self) -> tuple[int, str, bytes, dict[str, str]]:
        dumps, _ = await self._shard_dumps()
        merged = merge_dumps([self.metrics.dump(), *dumps])
        return 200, _JSON, encode_json(merged.dump()), {}

    def _healthz(self) -> tuple[int, str, bytes, dict[str, str]]:
        healthy = sum(1 for s in self._shards.values() if s.healthy)
        total = self.ring.num_shards
        payload = {
            "status": "ok" if healthy == total else "degraded",
            "objects": sum(s.objects for s in self._shards.values()),
            "shards": {"healthy": healthy, "total": total},
        }
        return 200, _JSON, encode_json(payload), {}

    # ------------------------------------------------------------------
    # lifecycle glue for PredictionServer
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Nothing queues beyond in-flight forwards, which handlers await."""

    async def stop(self) -> None:
        """Tear down probes and forwarders for every shard."""
        for shard_id in list(self._shards):
            state = self._shards.pop(shard_id)
            await self._teardown(state)
        self._gauge_healthy()


class RouterServer(PredictionServer):
    """The router's HTTP front-end: PredictionServer's hardened socket
    machinery and admission gate, dispatching into a
    :class:`RouterService` instead of local handlers."""

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, str, bytes, dict[str, str]]:
        return await self.service.handle(method, path, body)

    async def close(self) -> None:
        await super().close()
        await self.service.stop()


def _canonical_header(lower_name: str) -> str:
    """``x-cache`` → ``X-Cache`` (the wire casing the server emits)."""
    return "-".join(part.capitalize() for part in lower_name.split("-"))


def _fmt_seconds(seconds: float) -> str:
    return (
        str(int(seconds))
        if float(seconds).is_integer()
        else f"{seconds:.3f}"
    )
