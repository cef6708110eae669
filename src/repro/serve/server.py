"""The asyncio prediction service: state, batching, cache, HTTP front.

Two layers:

* :class:`PredictionService` — the protocol-free application core.  It
  owns the fleet, the per-object :class:`~repro.core.online.OnlineTracker`
  ingest state, the prediction cache, the request batcher, the
  admission controller, the refit scheduler, and the metrics registry.
  All shared state is guarded by the fleet's per-object locks (see the
  concurrency contract in :mod:`repro.core.fleet`).  A lone predict —
  no batch running or queued for its object, and the object's lock
  free on a non-blocking try — runs its model pass inline on
  the event loop; otherwise the pass goes through the request batcher
  to the loop's default executor, so the loop never waits on a lock a
  refit holds.  ``serve_predict_path_total_{inline,executor}`` count
  the two paths.
* :class:`PredictionServer` — a minimal stdlib HTTP/1.1 front-end over
  ``asyncio.start_server`` (keep-alive, Content-Length framing; no
  chunked encoding, TLS, or HTTP/2 — put a real proxy in front for
  that).  Routing and wire format live in :mod:`repro.serve.handlers`.

Robustness model (the admission/degradation ladder)
---------------------------------------------------
Every external request is classified (``predict`` or ``ingest``) and
must pass :class:`~repro.serve.admission.AdmissionController` before any
work is scheduled: over-rate clients get ``429``, full classes and
watermark overload get ``503 + Retry-After``.  Admitted predicts carry a
deadline (request ``deadline_ms`` or ``ServeConfig.default_deadline_ms``)
enforced across the batch wait and executor hop; on deadline expiry the
service degrades instead of hanging: a stale cache entry (response
marked ``"degraded": true``) → a motion-function-only prediction → 503.
An inline pass is not cut off: a deadline already expired on arrival
degrades before it, but one that expires during the pass does not stop
it.  Nor is an executor pass: the timeout abandons the wait, and the
pass runs to completion.
Background refits run under :class:`~repro.serve.refit.RefitScheduler`
(bounded concurrency, coalescing, backoff retry, dead-lettering) and
yield to foreground traffic during shedding.  With
``ServeConfig.chaos`` set, a seeded
:class:`~repro.serve.chaos.FaultInjector` perturbs the request path for
resilience drills; with chaos off and default limits the service's
responses are byte-identical to the pre-hardening stack.

Typical embedding (the ``repro serve`` CLI does exactly this)::

    fleet = FleetPredictionModel(config)
    fleet.fit({"bus42": history})
    service = PredictionService(fleet, ServeConfig())
    server = PredictionServer(service, host="0.0.0.0", port=8080)
    asyncio.run(server.run_forever())
"""

from __future__ import annotations

import asyncio
import time
from contextlib import suppress
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..trajectory.point import TimedPoint
from .admission import AdmissionController
from .batching import RequestBatcher
from .cache import Doorkeeper, PredictionCache
from .chaos import ChaosConfig, FaultInjector
from .handlers import ApiError, encode_json, route
from .metrics import (
    FIT_PHASE_BUCKETS,
    FIT_PHASES,
    InstrumentMemo,
    MetricsRegistry,
)
from .refit import RefitScheduler

if TYPE_CHECKING:
    from ..core.fleet import FleetPredictionModel
    from ..core.online import OnlineTracker

__all__ = ["ServeConfig", "PredictionService", "PredictionServer"]


def prime_plan_queries(pairs, metrics=None) -> int:
    """Score a batch's FQP lookups in one kernel call.

    Delegates to :func:`repro.core.scorekernel.prime_plan_queries`.  It
    is a name of this module, which imports no part of the model stack,
    so that the shard router (a :class:`PredictionServer` without
    models) never loads numpy; the kernel module is imported on the
    first batch of a process that holds models.
    """
    from ..core.scorekernel import prime_plan_queries as prime

    return prime(pairs, metrics=metrics)


@dataclass(frozen=True)
class ServeConfig:
    """Operator-tunable serving knobs (CLI flags map 1:1 onto these).

    The admission/deadline/hardening defaults are deliberately generous:
    they bound pathological behaviour (storms, slow-loris clients,
    runaway refits) without ever firing under healthy traffic, so the
    default configuration serves byte-identical responses to the
    pre-hardening stack.
    """

    #: answer-cache capacity.  An answer is stored on its query's second
    #: sighting; a 64 KiB doorkeeper remembers first sightings and is
    #: cleared after ``4 * cache_entries`` of them.
    cache_entries: int = 4096
    cache_ttl: float | None = 30.0
    cache_quantum: float = 1.0
    max_batch: int = 32
    update_after: int | None = None
    enable_cache: bool = True
    # --- admission control ---
    #: max in-flight predict requests before shedding with 503
    max_inflight_predict: int = 256
    #: max in-flight ingest requests before shedding with 503
    max_inflight_ingest: int = 128
    #: total depth that trips shedding mode (0 disables the watermark)
    high_watermark: int = 320
    #: total depth at which shedding mode clears (hysteresis)
    low_watermark: int = 160
    #: per-client token-bucket refill rate in req/s (0 disables)
    client_rate: float = 0.0
    #: per-client token-bucket capacity (burst allowance)
    client_burst: float = 20.0
    #: Retry-After seconds advertised on shed (503) responses
    retry_after: float = 1.0
    # --- deadlines & degradation ---
    #: server-side default predict deadline; ``None`` disables
    default_deadline_ms: float | None = 10_000.0
    # --- background refits ---
    #: how trackers treat fixes non-contiguous with the history: "reject"/"pad"
    gap_policy: str = "reject"
    #: refits running concurrently
    refit_concurrency: int = 2
    #: failed attempts before an object dead-letters
    refit_max_retries: int = 5
    #: first-retry backoff in seconds (doubles per attempt)
    refit_base_delay: float = 0.05
    #: backoff ceiling in seconds
    refit_max_delay: float = 5.0
    #: jitter factor on the backoff (0 = deterministic)
    refit_jitter: float = 0.25
    #: seed for the backoff-jitter RNG
    refit_seed: int = 0
    # --- HTTP hardening ---
    #: request line + headers byte budget (431 beyond it)
    max_header_bytes: int = 16_384
    #: header count budget (431 beyond it)
    max_headers: int = 100
    #: request body byte budget (413 beyond it)
    max_body_bytes: int = 1_048_576
    #: seconds a connection may sit idle mid-read before being reaped
    idle_timeout: float | None = 60.0
    # --- fault injection ---
    #: seeded fault plan; ``None`` (production) injects nothing
    chaos: ChaosConfig | None = field(default=None)


class PredictionService:
    """Application core behind the HTTP handlers.

    Parameters
    ----------
    fleet:
        Fitted per-object models (a single-model deployment is a fleet
        of one).  The service binds its metrics registry to the fleet,
        instrumenting every model's predict hot path.
    config:
        Serving knobs; ``ServeConfig()`` defaults are sensible.
    metrics:
        Optional shared registry (a fresh one is created by default).
    """

    def __init__(
        self,
        fleet: FleetPredictionModel,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.fleet = fleet
        self.config = config or ServeConfig()
        self.metrics = metrics or MetricsRegistry()
        # Request-path instruments, looked up once per name.
        self._instruments = InstrumentMemo(self.metrics)
        fleet.bind_metrics(self.metrics)
        # Register the fit-phase histograms with fit-scale buckets before
        # any name-only get-or-create can claim them with latency buckets.
        for phase in FIT_PHASES:
            self.metrics.histogram(
                f"fit_phase_seconds_{phase}",
                help=f"seconds spent in the {phase} fit phase",
                buckets=FIT_PHASE_BUCKETS,
            )
        # Same pre-registration for the query-kernel batch-size histogram,
        # which needs count-scale buckets.
        from ..core.scorekernel import KERNEL_BATCH_BUCKETS

        self.metrics.histogram(
            "predict_kernel_batch_size",
            help="FQP lookups scored per kernel invocation",
            buckets=KERNEL_BATCH_BUCKETS,
        )
        # Replay the fleet's recorded fit-phase timings into the registry:
        # warmed-up models were fitted before this registry existed (in a
        # worker, a CLI fit run, or a snapshot write), so /metrics would
        # otherwise never show where their fit time went.
        for object_id in fleet.object_ids():
            model = fleet[object_id]
            model._observe_fit_phases(self.metrics)
        self.cache = PredictionCache(
            max_entries=self.config.cache_entries,
            ttl=self.config.cache_ttl,
            quantum=self.config.cache_quantum,
            metrics=self.metrics,
        )
        self._doorkeeper = Doorkeeper(reset_after=4 * self.config.cache_entries)
        self.batcher = RequestBatcher(
            self._execute_batch,
            max_batch=self.config.max_batch,
            metrics=self.metrics,
        )
        for path in ("inline", "executor"):
            self.metrics.counter(
                f"serve_predict_path_total_{path}",
                help=f"model passes run on the {path} path",
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
        self.refits = RefitScheduler(
            self._execute_refit,
            max_concurrency=self.config.refit_concurrency,
            max_retries=self.config.refit_max_retries,
            base_delay=self.config.refit_base_delay,
            max_delay=self.config.refit_max_delay,
            jitter=self.config.refit_jitter,
            seed=self.config.refit_seed,
            admission=self.admission,
            metrics=self.metrics,
        )
        self.chaos: FaultInjector | None = (
            FaultInjector(self.config.chaos, metrics=self.metrics)
            if self.config.chaos is not None and self.config.chaos.active
            else None
        )
        self.trackers: dict[str, OnlineTracker] = {}
        self.metrics.gauge(
            "serve_objects", help="objects with a fitted model"
        ).set(len(fleet))

    @classmethod
    def from_snapshot(
        cls,
        snapshot_dir,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
        warmup_workers: int | None = None,
    ) -> "PredictionService":
        """Build a service from a fleet snapshot directory.

        ``warmup_workers`` parallelises the per-object restores
        (see :func:`repro.core.persistence.load_fleet`) so a large
        snapshot warms up in a fraction of the serial time before the
        first request is accepted.
        """
        from ..core.persistence import load_fleet

        fleet = load_fleet(snapshot_dir, max_workers=warmup_workers)
        return cls(fleet, config, metrics)

    # ------------------------------------------------------------------
    # predict path
    # ------------------------------------------------------------------
    async def predict(
        self,
        object_id: str,
        recent: list[tuple[int, float, float]] | None,
        query_time: int,
        k: int | None = None,
        deadline_ms: float | None = None,
    ):
        """Answer one predictive query.

        Returns ``(predictions, cached, degraded)``.  ``deadline_ms``
        overrides ``ServeConfig.default_deadline_ms``; when the deadline
        expires before an executor pass completes (or before the request
        arrives here), the answer walks the degradation ladder (stale
        cache → motion-only → 503) instead of blocking forever.  A pass
        that runs inline is never cut off.
        """
        if object_id not in self.fleet:
            raise ApiError(404, f"unknown object {object_id!r}")
        if recent is not None:
            window = [TimedPoint(t, x, y) for t, x, y in recent]
        else:
            tracker = self.trackers.get(object_id)
            if tracker is None or not tracker.window:
                raise ApiError(
                    400,
                    f"no recent movements supplied and object {object_id!r} "
                    "has no ingested fixes",
                )
            window = tracker.window
        self._instruments.counter("serve_predict_requests_total").inc()

        key = self.cache.make_key(object_id, window, query_time, k)
        # Read before the model pass: a refit that commits and
        # invalidates meanwhile makes ``put`` drop this answer.
        generation = self.cache.generation(object_id)
        stale = None
        if self.config.enable_cache:
            # Stale-while-refit read: a TTL-expired value rides along as
            # the degradation ladder's first rung in case the fresh
            # model pass below blows its deadline.
            value, fresh = self.cache.lookup(key)
            if fresh:
                return value, True, False
            stale = value

        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        deadline = (
            time.monotonic() + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )

        request = (tuple(p.as_tuple() for p in window), query_time, k)
        try:
            predictions = await self._predict_within(
                object_id, request, deadline
            )
        except (asyncio.TimeoutError, TimeoutError):
            self._instruments.counter("serve_deadline_timeouts_total").inc()
            return self._degraded_answer(object_id, window, query_time, stale)
        # Admit on the second sighting: most queries are never repeated,
        # so a first answer is not stored.  A stored (stale) entry is
        # refreshed.
        if self.config.enable_cache and (
            stale is not None or self._doorkeeper.offer(key)
        ):
            self.cache.put(key, predictions, generation)
        return predictions, False, False

    async def _predict_within(self, object_id, request, deadline):
        """One model pass, honouring ``deadline`` (monotonic seconds).

        A lone predict — no batch running or queued for the object, and
        its lock free on a non-blocking try — runs its pass right here on
        the event loop: no executor hop and no task wrappers, the answer
        the batcher would give.  Anything else (a refit commit or another
        thread holds the lock, or a batch is in flight) goes through the
        :class:`RequestBatcher` and its deadline-bounded wait.
        """
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # Pre-expired (e.g. overload delayed admission): degrade
                # without queueing more work behind the congestion.
                raise asyncio.TimeoutError
        if self.batcher.idle(object_id):
            lock = self.fleet.object_lock(object_id)
            if lock.acquire(blocking=False):
                try:
                    (predictions,) = self._execute_batch(object_id, [request])
                finally:
                    lock.release()
                self._instruments.counter("serve_predict_path_total_inline").inc()
                return predictions
        self._instruments.counter("serve_predict_path_total_executor").inc()
        # Shield the shared batch future: a deadline on *this* waiter
        # must not cancel the result out from under coalesced twins.
        shared = asyncio.shield(self.batcher.submit(object_id, request))
        if remaining is None:
            return await shared
        return await asyncio.wait_for(shared, timeout=remaining)

    def _degraded_answer(self, object_id, window, query_time, stale):
        """The graceful-degradation ladder, cheapest viable rung first.

        1. The TTL-expired cache value captured for exactly this query
           before the model pass — stale beats absent under overload.
        2. A motion-function-only prediction: no pattern scoring, no
           executor hop; needs the object lock, taken *non-blocking* so
           an event-loop caller can never stall behind a slow refit.
        3. Give up: 503 with Retry-After.

        Degraded responses carry ``"degraded": true`` so clients and the
        load generator can separate full-quality answers from fallbacks.
        """
        if stale is not None:
            self._instruments.counter("serve_degraded_total").inc()
            self._instruments.counter("serve_degraded_total_stale").inc()
            return stale, True, True
        lock = self.fleet.object_lock(object_id)
        if lock.acquire(blocking=False):
            try:
                model = self.fleet[object_id]
                prediction = model.prepare(window).motion_prediction(query_time)
            finally:
                lock.release()
            self._instruments.counter("serve_degraded_total").inc()
            self._instruments.counter("serve_degraded_total_motion").inc()
            return [prediction], False, True
        raise ApiError(
            503,
            f"deadline exceeded for object {object_id!r} and no degraded "
            "answer is available",
            retry_after=self.config.retry_after,
        )

    def _execute_batch(self, object_id: str, requests):
        """One model pass for a whole batch.

        Runs on the executor for a batch, or inline on the event loop for
        a lone request that found the object's lock free.

        Requests that share a recent window — the common case when a hot
        object is probed at many query times — share one prepared query
        plan, so region mapping, premise-key encoding and motion-function
        fitting happen once per distinct window instead of once per
        request.  All the batch's FQP lookups are additionally scored in
        one kernel invocation before answering (``prime_plan_queries``).
        Answers are byte-identical to per-request ``fleet.predict`` calls.
        """
        results = []
        # One lock acquisition covers the whole batch.
        with self.fleet.object_lock(object_id):
            model = self.fleet[object_id]
            plans: dict = {}
            parsed = []
            for recent_tuple, query_time, k in requests:
                plan = plans.get(recent_tuple)
                if plan is None:
                    window = [TimedPoint(t, x, y) for t, x, y in recent_tuple]
                    plan = plans[recent_tuple] = model.prepare(window)
                parsed.append((plan, query_time, k))
            if len(parsed) > 1:
                prime_plan_queries(
                    ((plan, query_time) for plan, query_time, _k in parsed),
                    metrics=self.metrics,
                )
            for plan, query_time, k in parsed:
                results.append(model.predict_prepared(plan, query_time, k))
        self._instruments.counter("fleet_predict_total").inc(len(requests))
        return results

    async def predict_all(
        self,
        recents: dict[str, list[tuple[int, float, float]]] | None,
        query_time: int,
    ) -> tuple[dict, list[str]]:
        """Top-1 predictions for many objects at one query time.

        ``recents`` maps object ids to recent windows; ``None`` scores
        every object with a non-empty ingest-fed tracker window.
        Returns ``(predictions_by_id, unknown_ids)`` — ids the fleet
        doesn't know are reported, not fatal, so the shard router can
        scatter a request and merge per-shard answers.  The batch runs
        on the executor (serial per object, under each object's lock)
        and skips the prediction cache: fleet-wide sweeps would only
        churn it.
        """
        unknown: list[str] = []
        windows: dict[str, list[TimedPoint]] = {}
        if recents is None:
            for object_id, tracker in self.trackers.items():
                if object_id in self.fleet and tracker.window:
                    windows[object_id] = tracker.window
        else:
            for object_id, fixes in recents.items():
                if object_id not in self.fleet:
                    unknown.append(object_id)
                else:
                    windows[object_id] = [
                        TimedPoint(t, x, y) for t, x, y in fixes
                    ]
        self._instruments.counter("serve_predict_all_requests_total").inc()
        if not windows:
            return {}, sorted(unknown)
        results = await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.fleet.predict_all(windows, query_time)
        )
        self._instruments.counter("fleet_predict_total").inc(len(results))
        return results, sorted(unknown)

    # ------------------------------------------------------------------
    # ingest path
    # ------------------------------------------------------------------
    async def ingest(
        self, object_id: str, fixes: list[tuple[int, float, float]]
    ) -> dict:
        """Stream fixes into the object's tracker; maybe schedule a refit."""
        if object_id not in self.fleet:
            raise ApiError(404, f"unknown object {object_id!r}")
        tracker = self.trackers.get(object_id)
        if tracker is None:
            from ..core.online import OnlineTracker

            tracker = OnlineTracker(
                self.fleet[object_id],
                update_after=self.config.update_after,
                lock=self.fleet.object_lock(object_id),
                gap_policy=self.config.gap_policy,
            )
            self.trackers[object_id] = tracker
        for t, x, y in fixes:
            tracker.observe(t, x, y)
        self._instruments.counter("serve_ingest_fixes_total").inc(len(fixes))
        # Stale the object's cached answers: the window has moved.
        self.cache.invalidate(object_id)

        refit_scheduled = False
        if tracker.update_due:
            refit_scheduled = self.refits.request(object_id, tracker)
        return {
            "object_id": object_id,
            "accepted": len(fixes),
            "pending": tracker.pending_count,
            "window": len(tracker.window),
            "refit_scheduled": refit_scheduled,
        }

    async def _execute_refit(self, object_id: str, tracker) -> None:
        """One ``flush_updates`` pass (the paper's dynamic-update path).

        Runs under the :class:`RefitScheduler`, which owns retries,
        backoff, and the dead-letter accounting; an exception here marks
        the attempt failed and the tracker's pending fixes stay buffered
        for the retry.
        """
        flushed = await asyncio.get_running_loop().run_in_executor(
            None, tracker.flush_updates
        )
        self.metrics.counter("serve_refit_fixes_total").inc(flushed)
        stats = tracker.model.last_refit_stats_
        if flushed and stats is not None:
            self.metrics.counter(f"serve_refit_mode_total_{stats.mode}").inc()
            self.metrics.counter(f"serve_refit_index_total_{stats.index}").inc()
            if stats.fallback is not None:
                self.metrics.counter(
                    f"serve_refit_fallback_total_{stats.fallback}"
                ).inc()
        # The refreshed corpus may answer differently.
        self.cache.invalidate(object_id)

    async def drain(self) -> None:
        """Complete pending batches and refits (shutdown/tests).

        Loops until the refit scheduler is quiescent, so an ingest that
        races with shutdown extends the drain instead of leaking work.
        """
        await self.batcher.drain()
        await self.refits.drain()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def objects_summary(self) -> list[dict]:
        rows = []
        for object_id in self.fleet.object_ids():
            model = self.fleet[object_id]
            tracker = self.trackers.get(object_id)
            rows.append(
                {
                    "object_id": object_id,
                    "patterns": model.pattern_count,
                    "regions": len(model.regions_),
                    "window": len(tracker.window) if tracker else 0,
                    "pending": tracker.pending_count if tracker else 0,
                }
            )
        return rows


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: per-path request counter names, by path
_PATH_COUNTERS = {
    path: f"serve_http_requests_total_{path.strip('/')}"
    for path in (
        "/predict",
        "/ingest",
        "/predict_all",
        "/objects",
        "/healthz",
        "/metrics",
    )
}

#: externally admitted request classes by (method, path)
_REQUEST_CLASSES = {
    ("POST", "/predict"): "predict",
    ("POST", "/ingest"): "ingest",
    ("POST", "/predict_all"): "predict",
}


class _HttpLimitError(Exception):
    """A request exceeded a hardening limit; answer ``status`` and close."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class PredictionServer:
    """Keep-alive HTTP/1.1 front-end for a :class:`PredictionService`.

    Shutdown comes in two grades: :meth:`close` is the abrupt test-suite
    path (drop connections, cancel handlers), :meth:`shutdown` is the
    production SIGTERM path — stop accepting, let in-flight requests
    finish (keep-alive clients are told ``Connection: close`` on their
    last response), drain pending batches and the refit scheduler, and
    only then tear sockets down.  ``run_forever(handle_signals=True)``
    wires SIGTERM/SIGINT to :meth:`shutdown`, which is how both the
    single-process CLI and the shard workers exit without dropping work.
    """

    def __init__(
        self,
        service: PredictionService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._instruments = InstrumentMemo(service.metrics)
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()
        self._draining = False
        self._stop_event: asyncio.Event | None = None

    async def start(self) -> None:
        """Bind and start accepting; ``port=0`` picks an ephemeral port."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting, drain in-flight work, drop connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.drain()
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
        for task in list(self._handlers):
            task.cancel()
        await asyncio.gather(*self._handlers, return_exceptions=True)
        self._handlers.clear()

    def request_shutdown(self) -> None:
        """Ask ``run_forever`` to exit gracefully (signal-handler safe)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def shutdown(self, grace: float = 5.0) -> None:
        """Graceful stop: drain in-flight requests and background work.

        1. Close the listening socket — no new connections.
        2. Mark the server draining: every connection handler finishes
           its current request, answers it with ``Connection: close``,
           and exits; wait up to ``grace`` seconds for that.
        3. Drain the service — pending prediction batches complete and
           the :class:`~repro.serve.refit.RefitScheduler` runs to
           quiescence, so an ingest accepted before the signal still
           lands in the model.
        4. Force-close whatever is left (slow-loris stragglers).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._draining = True
        deadline = time.monotonic() + max(0.0, grace)
        while self._handlers and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        await self.service.drain()
        await self.close()

    async def run_forever(
        self, *, handle_signals: bool = False, grace: float = 5.0
    ) -> None:
        """Start (if needed) and serve until cancelled or signalled.

        With ``handle_signals=True``, SIGTERM and SIGINT trigger a
        graceful :meth:`shutdown` with ``grace`` seconds of drain
        instead of killing the loop mid-request.
        """
        import signal as _signal

        if self._server is None:
            await self.start()
        self._stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed: list = []
        if handle_signals:
            for sig in (_signal.SIGTERM, _signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.request_shutdown)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread or unsupported platform
        serve_task = asyncio.ensure_future(self._server.serve_forever())
        stop_task = asyncio.ensure_future(self._stop_event.wait())
        try:
            await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            stopped = self._stop_event.is_set()
            for task in (serve_task, stop_task):
                task.cancel()
            await asyncio.gather(
                serve_task, stop_task, return_exceptions=True
            )
            for sig in installed:
                with suppress(NotImplementedError, RuntimeError, ValueError):
                    loop.remove_signal_handler(sig)
            self._stop_event = None
            if stopped:
                await self.shutdown(grace)
            else:
                await self.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        metrics = self._instruments
        chaos = self.service.chaos
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except asyncio.TimeoutError:
                    # Idle or slow-loris connection: reap it quietly.
                    metrics.counter("serve_idle_timeouts_total").inc()
                    break
                except _HttpLimitError as exc:
                    metrics.counter("serve_http_limit_total").inc()
                    metrics.counter(
                        f"serve_http_limit_total_{exc.status}"
                    ).inc()
                    self._write_response(
                        writer,
                        exc.status,
                        "application/json",
                        encode_json({"error": exc.message}),
                        {},
                        keep_alive=False,
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request

                if chaos is not None:
                    delay = chaos.latency_s()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    if chaos.should_drop():
                        break  # abrupt close, no response bytes

                started = time.perf_counter()
                bare = path.split("?", 1)[0]
                request_class = _REQUEST_CLASSES.get((method, bare))
                admitted = False
                if request_class is not None:
                    decision = self.service.admission.try_acquire(
                        request_class, self._client_id(headers, writer)
                    )
                    if not decision.admitted:
                        self._write_response(
                            writer,
                            decision.status,
                            "application/json",
                            encode_json({"error": decision.reason}),
                            {"Retry-After": _fmt_retry(decision.retry_after)},
                            keep_alive=True,
                        )
                        await writer.drain()
                        continue
                    admitted = True
                try:
                    try:
                        if chaos is not None:
                            chaos.raise_for_error()
                        status, ctype, payload, extra = await self._dispatch(
                            method, path, body
                        )
                    except Exception as exc:  # handler bug: answer, keep serving
                        metrics.counter("serve_http_errors_total").inc()
                        status, ctype, extra = 500, "application/json", {}
                        payload = (
                            b'{"error":"internal server error: '
                            + type(exc).__name__.encode("ascii", "replace")
                            + b'"}'
                        )
                finally:
                    if admitted:
                        self.service.admission.release(request_class)
                metrics.counter("serve_http_requests_total").inc()
                path_counter = _PATH_COUNTERS.get(bare)
                if path_counter is not None:
                    metrics.counter(path_counter).inc()
                metrics.histogram("serve_http_request_seconds").observe(
                    time.perf_counter() - started
                )
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                    and not self._draining
                )
                self._write_response(
                    writer, status, ctype, payload, extra, keep_alive
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        except asyncio.CancelledError:
            # Server shutdown: end the connection quietly instead of
            # letting the cancellation escape into asyncio's protocol
            # callback (which would log it as an error).
            pass
        finally:
            if task is not None:
                self._handlers.discard(task)
            self._connections.discard(writer)
            writer.close()
            with suppress(OSError):
                await writer.wait_closed()

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, str, bytes, dict[str, str]]:
        """Route one parsed request; the shard router front-end overrides
        this to forward instead of handling locally."""
        return await route(self.service, method, path, body)

    @staticmethod
    def _client_id(headers: dict[str, str], writer: asyncio.StreamWriter) -> str:
        """Rate-limit key: ``X-Client-Id`` header, else the peer address."""
        client = headers.get("x-client-id")
        if client:
            return client
        peer = writer.get_extra_info("peername")
        if isinstance(peer, (tuple, list)) and peer:
            return str(peer[0])
        return "unknown"

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request under the hardening limits.

        One deadline (``ServeConfig.idle_timeout``) covers the whole
        request — request line, headers and body — so a client trickling
        header lines cannot hold a connection past it.  Raises
        :class:`_HttpLimitError` (431/413/400) when a budget is exceeded
        and :class:`asyncio.TimeoutError` when the deadline passes.
        """
        return await asyncio.wait_for(
            self._read_request_unbounded(reader),
            self.service.config.idle_timeout,
        )

    async def _read_request_unbounded(self, reader: asyncio.StreamReader):
        config = self.service.config
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None  # closed between requests or mid-head
        except asyncio.LimitOverrunError:
            raise _HttpLimitError(431, "request head too long") from None
        # Request line and header lines with their CRLFs; not the blank line.
        header_bytes = len(head) - 2
        if header_bytes > config.max_header_bytes:
            raise _HttpLimitError(
                431,
                f"request head of {header_bytes} bytes exceeds the "
                f"{config.max_header_bytes}-byte header budget",
            )
        request_line, *lines = head[:-4].decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) < 2:
            return None
        if len(lines) > config.max_headers:
            raise _HttpLimitError(
                431, f"more than {config.max_headers} request headers"
            )
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for raw in lines:
            name, _, value = raw.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", 0) or 0)
        except ValueError:
            raise _HttpLimitError(400, "bad Content-Length header") from None
        if length > config.max_body_bytes:
            raise _HttpLimitError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{config.max_body_bytes}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        payload: bytes,
        extra_headers: dict[str, str],
        keep_alive: bool,
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in extra_headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + payload)


def _fmt_retry(seconds: float) -> str:
    """Retry-After value: fractional seconds, trimmed for whole numbers."""
    return (
        str(int(seconds))
        if float(seconds).is_integer()
        else f"{seconds:.3f}"
    )
