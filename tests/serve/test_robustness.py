"""Robustness suite: admission, deadlines, refit lifecycle, fault drills.

Covers the serve hardening layer end to end: the token-bucket /
watermark admission controller, HTTP read limits (431/413/idle reaping),
deadline propagation with the stale → motion → 503 degradation ladder,
the refit scheduler's retry/backoff/dead-letter lifecycle (including the
old drain/ingest race and the lost-pending-fixes bug), and the seeded
fault injector.  Anything that can be pinned deterministically is — fake
clocks, zero jitter, probability-1 fault plans.
"""

import asyncio
import contextlib
import json
import threading
import time

import pytest

from repro.serve import (
    AdmissionController,
    ChaosConfig,
    FaultInjector,
    HttpClient,
    LoadReport,
    MetricsRegistry,
    PredictionServer,
    PredictionService,
    RefitScheduler,
    ServeConfig,
    TokenBucket,
)
from repro.serve.chaos import ChaosError

from tests.serve.conftest import (
    LockHolder,
    commuter_base,
    gate_execute,
    start_gated_batch,
    wait_submitted,
)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def serve_test(fleet, config, scenario):
    """Run ``scenario(service, server, client)`` against a live server."""

    async def body():
        service = PredictionService(fleet, config)
        server = PredictionServer(service)
        await server.start()
        client = HttpClient("127.0.0.1", server.port)
        try:
            return await scenario(service, server, client)
        finally:
            await client.close()
            await server.close()

    return asyncio.run(body())


def new_day_window(history, length=4):
    base = commuter_base()
    start = len(history)
    return [
        (start + i, float(base[i][0]) + 1.0, float(base[i][1]) + 1.0)
        for i in range(length)
    ]


def predict_payload(history, **extra):
    recent = new_day_window(history)
    payload = {
        "object_id": "default",
        "recent": [list(f) for f in recent],
        "query_time": recent[-1][0] + 3,
    }
    payload.update(extra)
    return payload


def slow_execute(service, delay):
    """Make every model pass take ``delay`` seconds (executor-side)."""
    original = service.batcher.execute

    def slowed(object_id, requests):
        time.sleep(delay)
        return original(object_id, requests)

    service.batcher.execute = slowed
    return original


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ----------------------------------------------------------------------
# token bucket + admission controller (pure units, fake clock)
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, now=clock())
        assert [bucket.try_acquire(clock()) for _ in range(3)] == [0.0] * 3
        wait = bucket.try_acquire(clock())
        assert wait == pytest.approx(0.5)  # 1 token at 2/s
        clock.advance(0.5)
        assert bucket.try_acquire(clock()) == 0.0

    def test_does_not_exceed_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, now=clock())
        clock.advance(60.0)
        assert bucket.try_acquire(clock()) == 0.0
        assert bucket.try_acquire(clock()) == 0.0
        assert bucket.try_acquire(clock()) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0, now=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0, now=0.0)


class TestAdmissionController:
    def test_class_capacity_sheds_with_503(self):
        controller = AdmissionController({"predict": 2})
        assert controller.try_acquire("predict").admitted
        assert controller.try_acquire("predict").admitted
        decision = controller.try_acquire("predict")
        assert not decision.admitted
        assert decision.status == 503
        assert decision.retry_after > 0
        assert controller.shed == 1
        controller.release("predict")
        assert controller.try_acquire("predict").admitted

    def test_watermark_hysteresis(self):
        controller = AdmissionController(
            {"predict": 100, "ingest": 100},
            high_watermark=4,
            low_watermark=2,
        )
        for _ in range(4):
            assert controller.try_acquire("predict").admitted
        # At the high watermark: lower-priority classes shed...
        assert not controller.try_acquire("ingest").admitted
        assert controller.shedding
        # ...while predict (highest priority) is still admitted.
        assert controller.try_acquire("predict").admitted
        # Draining below high but above low keeps shedding (hysteresis).
        controller.release("predict")
        controller.release("predict")
        assert controller.depth() == 3
        assert not controller.try_acquire("ingest").admitted
        # At the low watermark shedding clears.
        controller.release("predict")
        assert not controller.shedding
        assert controller.try_acquire("ingest").admitted

    def test_rate_limit_answers_429_with_exact_wait(self):
        clock = FakeClock()
        controller = AdmissionController(
            {}, client_rate=10.0, client_burst=1.0, clock=clock
        )
        assert controller.try_acquire("predict", "alice").admitted
        decision = controller.try_acquire("predict", "alice")
        assert not decision.admitted
        assert decision.status == 429
        assert decision.retry_after == pytest.approx(0.1)
        # Another client has their own bucket.
        assert controller.try_acquire("predict", "bob").admitted
        clock.advance(0.1)
        assert controller.try_acquire("predict", "alice").admitted
        assert controller.rate_limited == 1

    def test_client_table_is_lru_bounded(self):
        clock = FakeClock()
        controller = AdmissionController(
            {}, client_rate=1.0, client_burst=1.0, max_clients=2, clock=clock
        )
        for name in ("a", "b", "c"):
            controller.try_acquire("predict", name)
        assert len(controller._buckets) == 2
        # "a" was evicted: it gets a fresh (full) bucket again.
        assert controller.try_acquire("predict", "a").admitted

    def test_depth_gauges_read_every_class_count(self):
        registry = MetricsRegistry()
        controller = AdmissionController({"predict": 3}, metrics=registry)

        def gauges():
            return {
                name: entry["value"]
                for name, entry in registry.snapshot().items()
                if name.startswith("serve_queue_depth")
            }

        assert gauges() == {}
        steps = [
            ("acquire", "predict"),
            ("acquire", "predict"),
            ("acquire", "ingest"),
            ("release", "predict"),
            ("acquire", "predict"),
            ("acquire", "predict"),
            ("acquire", "predict"),  # shed: at capacity, no gauge change
            ("acquire", "audit"),  # a class first seen at admission
            ("release", "ingest"),
            ("release", "audit"),
            ("release", "predict"),
            ("release", "predict"),
            ("release", "predict"),
        ]
        for action, request_class in steps:
            if action == "acquire":
                controller.try_acquire(request_class)
            else:
                controller.release(request_class)
            want = {
                f"serve_queue_depth_{name}": count
                for name, count in controller.inflight.items()
            }
            want["serve_queue_depth"] = sum(controller.inflight.values())
            assert gauges() == want
            assert controller.depth() == want["serve_queue_depth"]
        assert set(gauges().values()) == {0}

    def test_release_without_acquire_raises(self):
        controller = AdmissionController({})
        with pytest.raises(RuntimeError):
            controller.release("predict")

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            AdmissionController({}, high_watermark=4, low_watermark=4)


# ----------------------------------------------------------------------
# refit scheduler (pure asyncio units)
# ----------------------------------------------------------------------
class TestRefitScheduler:
    def run(self, coroutine):
        return asyncio.run(coroutine)

    def test_success_and_coalescing(self):
        async def body():
            calls = []
            release = asyncio.Event()

            async def execute(object_id, payload):
                if object_id == "blocker":
                    await release.wait()
                calls.append((object_id, payload))

            scheduler = RefitScheduler(
                execute, max_concurrency=1, jitter=0.0
            )
            assert scheduler.request("blocker", None) is True
            assert scheduler.request("bus", "p1") is True
            # "bus" is queued (the slot is taken): repeats are no-ops.
            assert scheduler.request("bus", "p2") is False
            release.set()
            await scheduler.drain()
            assert calls == [("blocker", None), ("bus", "p1")]
            assert scheduler.completed == 2
            assert scheduler.quiescent

        self.run(body())

    def test_dirty_rerun_when_requested_mid_flight(self):
        async def body():
            release = asyncio.Event()
            calls = []

            async def execute(object_id, payload):
                calls.append(payload)
                if len(calls) == 1:
                    await release.wait()

            scheduler = RefitScheduler(execute, jitter=0.0)
            scheduler.request("bus", "first")
            await asyncio.sleep(0)  # let the first run start
            assert scheduler.request("bus", "second") is True  # dirty mark
            release.set()
            await scheduler.drain()
            assert calls == ["first", "second"]
            assert scheduler.completed == 2

        self.run(body())

    def test_flaky_execute_retries_until_success(self):
        async def body():
            attempts = []

            async def execute(object_id, payload):
                attempts.append(object_id)
                if len(attempts) <= 2:
                    raise RuntimeError("transient")

            scheduler = RefitScheduler(
                execute, base_delay=0.005, jitter=0.0, max_retries=5
            )
            scheduler.request("bus", None)
            await scheduler.drain()
            assert len(attempts) == 3
            assert scheduler.retries == 2
            assert scheduler.completed == 1
            assert not scheduler.dead_letters

        self.run(body())

    def test_dead_letter_after_max_retries(self):
        async def body():
            attempts = []

            async def execute(object_id, payload):
                attempts.append(object_id)
                raise RuntimeError("permanent")

            scheduler = RefitScheduler(
                execute, base_delay=0.005, jitter=0.0, max_retries=3
            )
            scheduler.request("bus", None)
            await scheduler.drain()
            assert len(attempts) == 3
            assert scheduler.dead_letters == {"bus": 1}
            assert scheduler.quiescent
            # The next request starts a fresh attempt cycle.
            assert scheduler.request("bus", None) is True
            await scheduler.drain()
            assert scheduler.dead_letters == {"bus": 2}

        self.run(body())

    def test_bounded_concurrency(self):
        async def body():
            running = {"now": 0, "peak": 0}

            async def execute(object_id, payload):
                running["now"] += 1
                running["peak"] = max(running["peak"], running["now"])
                await asyncio.sleep(0.01)
                running["now"] -= 1

            scheduler = RefitScheduler(execute, max_concurrency=2, jitter=0.0)
            for i in range(6):
                scheduler.request(f"obj{i}", None)
            await scheduler.drain()
            assert scheduler.completed == 6
            assert running["peak"] <= 2

        self.run(body())

    def test_drain_waits_for_work_scheduled_during_drain(self):
        """The old race: an ingest racing drain() left an unawaited task."""

        async def body():
            calls = []

            async def execute(object_id, payload):
                calls.append(object_id)
                await asyncio.sleep(0.01)
                if object_id == "first":
                    # Work arrives *while drain is awaiting us* — drain
                    # must loop until this one finishes too.
                    scheduler.request("second", None)

            scheduler = RefitScheduler(execute, jitter=0.0)
            scheduler.request("first", None)
            await scheduler.drain()
            assert calls == ["first", "second"]
            assert scheduler.quiescent

        self.run(body())

    def test_each_failure_is_logged_with_its_exception(self, caplog):
        async def body():
            async def execute(object_id, payload):
                raise RuntimeError(f"refit bug for {object_id}")

            scheduler = RefitScheduler(
                execute, base_delay=0.005, jitter=0.0, max_retries=2
            )
            scheduler.request("bus", None)
            await scheduler.drain()
            return scheduler

        with caplog.at_level("WARNING", logger="repro.serve.refit"):
            scheduler = self.run(body())
        records = [r for r in caplog.records if r.name == "repro.serve.refit"]
        assert [(r.levelname, r.attempt, r.dead_lettered) for r in records] == [
            ("WARNING", 1, False),
            ("ERROR", 2, True),
        ]
        for record in records:
            assert record.object_id == "bus"
            assert "'bus'" in record.getMessage()
            assert record.exc_info[0] is RuntimeError
        assert "RuntimeError: refit bug for bus" in caplog.text
        assert "dead-lettered" in records[1].getMessage()
        # The counters are unchanged by the logging.
        assert scheduler.failures == 2
        assert scheduler.retries == 1
        assert scheduler.dead_letters == {"bus": 1}

    def test_no_unretrieved_task_exceptions(self):
        """A failing refit must never trip asyncio's unretrieved-exception
        reporter (the old fire-and-forget bug)."""

        async def body():
            unhandled = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )

            async def execute(object_id, payload):
                raise RuntimeError("boom")

            scheduler = RefitScheduler(
                execute, base_delay=0.001, jitter=0.0, max_retries=2
            )
            scheduler.request("bus", None)
            await scheduler.drain()
            return unhandled

        unhandled = self.run(body())
        import gc

        gc.collect()  # unretrieved-exception reports fire on task GC
        assert unhandled == []

    def test_validation(self):
        async def noop(object_id, payload):
            pass

        with pytest.raises(ValueError):
            RefitScheduler(noop, max_concurrency=0)
        with pytest.raises(ValueError):
            RefitScheduler(noop, max_retries=0)
        with pytest.raises(ValueError):
            RefitScheduler(noop, base_delay=1.0, max_delay=0.5)
        with pytest.raises(ValueError):
            RefitScheduler(noop, jitter=-1.0)


# ----------------------------------------------------------------------
# refit lifecycle through the service (the real flush_updates path)
# ----------------------------------------------------------------------
class TestServiceRefits:
    def test_flaky_flush_eventually_flushes(self, fleet, history):
        """Regression: a transient flush failure used to strand the
        tracker's pending fixes forever."""
        fixes = new_day_window(history, length=12)

        async def scenario(service, server, client):
            # First chunk stays under update_after: the tracker exists but
            # no refit is dispatched yet, so the flaky wrapper below is in
            # place before the scheduler ever calls flush_updates.
            status, _, body = await client.request(
                "POST",
                "/ingest",
                {"object_id": "default", "fixes": [list(f) for f in fixes[:5]]},
            )
            assert status == 200
            assert json.loads(body)["refit_scheduled"] is False
            tracker = service.trackers["default"]
            original = tracker.flush_updates
            calls = {"n": 0}

            def flaky():
                calls["n"] += 1
                if calls["n"] <= 2:
                    raise RuntimeError("transient store outage")
                return original()

            tracker.flush_updates = flaky
            status, _, body = await client.request(
                "POST",
                "/ingest",
                {"object_id": "default", "fixes": [list(f) for f in fixes[5:]]},
            )
            assert status == 200
            assert json.loads(body)["refit_scheduled"] is True
            await service.drain()
            assert calls["n"] == 3
            assert tracker.pending_count == 0  # flushed at last
            snapshot = service.metrics.snapshot()
            assert snapshot["serve_refits_total"]["value"] == 1
            assert snapshot["serve_refit_retries_total"]["value"] == 2
            assert snapshot["serve_refit_errors_total"]["value"] == 2
            assert "serve_refit_dead_letter_total" not in snapshot

        # NOTE: the flaky wrapper is installed after ingest scheduled the
        # refit but before the executor ran it (drain hasn't started).
        serve_test(
            fleet,
            ServeConfig(
                update_after=10, refit_base_delay=0.005, refit_jitter=0.0
            ),
            scenario,
        )

    def test_dead_letter_visible_at_metrics(self, fleet, history):
        fixes = new_day_window(history, length=12)

        async def scenario(service, server, client):
            await client.request(
                "POST",
                "/ingest",
                {"object_id": "default", "fixes": [list(f) for f in fixes[:5]]},
            )
            tracker = service.trackers["default"]

            def always_fails():
                raise RuntimeError("permanent corruption")

            tracker.flush_updates = always_fails
            await client.request(
                "POST",
                "/ingest",
                {"object_id": "default", "fixes": [list(f) for f in fixes[5:]]},
            )
            await service.drain()
            assert tracker.pending_count == len(fixes)  # fixes retained
            assert service.refits.dead_letters == {"default": 1}
            status, _, body = await client.request("GET", "/metrics")
            text = body.decode("utf-8")
            assert "serve_refit_dead_letter_total 1" in text
            assert "serve_refit_retries_total 2" in text

        serve_test(
            fleet,
            ServeConfig(
                update_after=10,
                refit_base_delay=0.005,
                refit_jitter=0.0,
                refit_max_retries=3,
            ),
            scenario,
        )

    def test_ingest_during_drain_is_not_lost(self, fleet, history):
        """The service-level drain/ingest race: a refit scheduled while
        drain() is in flight still completes before drain returns."""
        fixes = new_day_window(history, length=24)

        async def scenario(service, server, client):
            first, second = fixes[:12], fixes[12:]
            await service.ingest("default", first)
            drain_task = asyncio.create_task(service.drain())
            await asyncio.sleep(0)  # drain is now awaiting the first refit
            await service.ingest("default", second)
            await drain_task
            tracker = service.trackers["default"]
            assert tracker.pending_count == 0
            assert service.refits.quiescent
            assert service.refits.completed >= 2

        serve_test(fleet, ServeConfig(update_after=10), scenario)


# ----------------------------------------------------------------------
# HTTP admission: shedding and rate limiting over real sockets
# ----------------------------------------------------------------------
class TestHttpAdmission:
    def test_predict_overload_sheds_503_with_retry_after(self, fleet, history):
        payload = predict_payload(history)

        async def scenario(service, server, client):
            # A refit stand-in holds the object lock, so the first predict
            # waits on the executor and keeps the only slot.
            holder = LockHolder(service)
            other = HttpClient("127.0.0.1", server.port)
            try:
                first = asyncio.create_task(
                    client.request("POST", "/predict", payload)
                )
                await wait_submitted(service, 1)  # first holds the only slot
                status, headers, body = await other.request(
                    "POST", "/predict", payload
                )
                assert status == 503
                assert headers["retry-after"] == "1"
                assert "queue full" in json.loads(body)["error"]
                holder.release()
                status_first, _, _ = await first
                assert status_first == 200
            finally:
                holder.release()
                await other.close()
            snapshot = service.metrics.snapshot()
            assert snapshot["serve_shed_total"]["value"] == 1
            assert snapshot["serve_shed_total_predict"]["value"] == 1

        serve_test(
            fleet,
            ServeConfig(max_inflight_predict=1, enable_cache=False),
            scenario,
        )

    def test_rate_limit_by_client_id_header(self, fleet, history):
        payload = predict_payload(history)

        async def scenario(service, server, client):
            statuses = []
            for _ in range(4):
                status, headers, _ = await client.request(
                    "POST",
                    "/predict",
                    payload,
                    headers={"X-Client-Id": "greedy"},
                )
                statuses.append(status)
                if status == 429:
                    assert float(headers["retry-after"]) > 0
            assert statuses.count(200) == 2
            assert statuses.count(429) == 2
            # A different client id is not throttled.
            status, _, _ = await client.request(
                "POST", "/predict", payload, headers={"X-Client-Id": "calm"}
            )
            assert status == 200
            snapshot = service.metrics.snapshot()
            assert snapshot["serve_rate_limited_total"]["value"] == 2

        serve_test(
            fleet,
            ServeConfig(client_rate=0.001, client_burst=2.0),
            scenario,
        )

    def test_queue_depth_gauge_returns_to_zero(self, fleet, history):
        payload = predict_payload(history)

        async def scenario(service, server, client):
            status, _, _ = await client.request("POST", "/predict", payload)
            assert status == 200
            snapshot = service.metrics.snapshot()
            assert snapshot["serve_queue_depth"]["value"] == 0
            assert snapshot["serve_queue_depth_predict"]["value"] == 0

        serve_test(fleet, ServeConfig(), scenario)


# ----------------------------------------------------------------------
# HTTP hardening: header/body limits and the idle reaper
# ----------------------------------------------------------------------
class TestReadLimits:
    @staticmethod
    async def raw_exchange(port, raw_bytes):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(raw_bytes)
        await writer.drain()
        response = await reader.read(4096)
        writer.close()
        await writer.wait_closed()
        return response

    def test_oversized_header_answers_431(self, fleet):
        async def scenario(service, server, client):
            raw = (
                b"GET /healthz HTTP/1.1\r\n"
                b"X-Big: " + b"a" * 2048 + b"\r\n\r\n"
            )
            response = await self.raw_exchange(server.port, raw)
            assert response.startswith(b"HTTP/1.1 431 ")
            snapshot = service.metrics.snapshot()
            assert snapshot["serve_http_limit_total_431"]["value"] == 1

        serve_test(fleet, ServeConfig(max_header_bytes=1024), scenario)

    def test_too_many_headers_answers_431(self, fleet):
        async def scenario(service, server, client):
            raw = b"GET /healthz HTTP/1.1\r\n"
            for i in range(12):
                raw += b"X-H%d: v\r\n" % i
            raw += b"\r\n"
            response = await self.raw_exchange(server.port, raw)
            assert response.startswith(b"HTTP/1.1 431 ")

        serve_test(fleet, ServeConfig(max_headers=10), scenario)

    def test_oversized_body_answers_413_without_reading_it(self, fleet):
        async def scenario(service, server, client):
            raw = (
                b"POST /predict HTTP/1.1\r\n"
                b"Content-Length: 1000000\r\n\r\n"
            )  # no body bytes sent at all
            response = await self.raw_exchange(server.port, raw)
            assert response.startswith(b"HTTP/1.1 413 ")
            snapshot = service.metrics.snapshot()
            assert snapshot["serve_http_limit_total_413"]["value"] == 1

        serve_test(fleet, ServeConfig(max_body_bytes=4096), scenario)

    def test_bad_content_length_answers_400(self, fleet):
        async def scenario(service, server, client):
            raw = (
                b"POST /predict HTTP/1.1\r\n"
                b"Content-Length: banana\r\n\r\n"
            )
            response = await self.raw_exchange(server.port, raw)
            assert response.startswith(b"HTTP/1.1 400 ")

        serve_test(fleet, ServeConfig(), scenario)

    def test_slow_loris_is_reaped(self, fleet):
        async def scenario(service, server, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # A request line that never finishes.
            writer.write(b"GET /healthz")
            await writer.drain()
            data = await asyncio.wait_for(reader.read(100), timeout=2.0)
            assert data == b""  # server closed on us, no response
            writer.close()
            await writer.wait_closed()
            snapshot = service.metrics.snapshot()
            assert snapshot["serve_idle_timeouts_total"]["value"] == 1

        serve_test(fleet, ServeConfig(idle_timeout=0.1), scenario)

    def test_header_trickle_is_reaped_by_one_request_deadline(self, fleet):
        """One header line every 0.1 s never idles a single read past
        0.2 s; the per-request deadline still reaps the connection."""

        async def scenario(service, server, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"GET /healthz HTTP/1.1\r\n")
            started = time.monotonic()
            data = None
            for i in range(15):  # a 1.5 s probe
                try:
                    data = await asyncio.wait_for(reader.read(100), 0.1)
                except asyncio.TimeoutError:
                    writer.write(b"X-Trickle-%d: v\r\n" % i)
                    continue
                except ConnectionResetError:
                    data = b""  # closed with trickled bytes still unread
                break
            held = time.monotonic() - started
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()
            assert data == b""  # server closed on us, no response
            assert held < 1.0
            snapshot = service.metrics.snapshot()
            assert snapshot["serve_idle_timeouts_total"]["value"] == 1

        serve_test(fleet, ServeConfig(idle_timeout=0.2), scenario)

    def test_slow_but_complete_request_still_served(self, fleet, history):
        payload = predict_payload(history)

        async def scenario(service, server, client):
            status, _, _ = await client.request(
                "POST", "/predict", payload, send_delay_s=0.05
            )
            assert status == 200

        serve_test(fleet, ServeConfig(idle_timeout=0.5), scenario)


# ----------------------------------------------------------------------
# deadlines and the degradation ladder
# ----------------------------------------------------------------------
class TestDeadlineDegradation:
    def test_bad_deadline_rejected(self, fleet, history):
        async def scenario(service, server, client):
            for bad in (0, -5, "soon", True):
                status, _, body = await client.request(
                    "POST",
                    "/predict",
                    predict_payload(history, deadline_ms=bad),
                )
                assert status == 400
                assert "deadline_ms" in json.loads(body)["error"]

        serve_test(fleet, ServeConfig(), scenario)

    def test_fast_request_with_deadline_is_byte_identical(self, fleet, history):
        payload = predict_payload(history)

        async def scenario(service, server, client):
            _, _, plain = await client.request("POST", "/predict", payload)
            service.cache.clear()
            _, headers, with_deadline = await client.request(
                "POST", "/predict", dict(payload, deadline_ms=5000)
            )
            assert plain == with_deadline
            assert "x-degraded" not in headers

        serve_test(fleet, ServeConfig(), scenario)

    def test_stale_cache_rung(self, fleet, history):
        payload = predict_payload(history)

        async def scenario(service, server, client):
            # Warm the cache with a full-quality answer: an answer is
            # stored on its query's second sighting.
            for _ in range(2):
                status, _, fresh_body = await client.request(
                    "POST", "/predict", payload
                )
                assert status == 200
            # Let the entry expire, then hold the object lock (a refit
            # commit stand-in) past the deadline of the next pass.
            service.cache.clock = lambda: time.monotonic() + 3600.0
            holder = LockHolder(service)
            try:
                status, headers, body = await client.request(
                    "POST", "/predict", dict(payload, deadline_ms=60)
                )
            finally:
                holder.release()
            assert status == 200
            assert headers["x-degraded"] == "true"
            assert headers["x-cache"] == "stale"
            degraded = json.loads(body)
            assert degraded["degraded"] is True
            fresh = json.loads(fresh_body)
            assert degraded["predictions"] == fresh["predictions"]
            snapshot = service.metrics.snapshot()
            assert snapshot["serve_degraded_total_stale"]["value"] == 1
            assert snapshot["serve_deadline_timeouts_total"]["value"] == 1

        serve_test(fleet, ServeConfig(cache_ttl=30.0), scenario)

    def test_motion_only_rung(self, fleet, history):
        payload = predict_payload(history)

        async def scenario(service, server, client):
            # A gated batch keeps the object busy with the lock free, so
            # the predict queues behind it and falls to the motion rung.
            blocker, release = await start_gated_batch(
                service,
                "default",
                [tuple(f) for f in payload["recent"]],
                payload["query_time"] + 1,
            )
            try:
                status, headers, body = await client.request(
                    "POST", "/predict", dict(payload, deadline_ms=60)
                )
            finally:
                release.set()
            await blocker
            assert status == 200
            assert headers["x-degraded"] == "true"
            assert headers["x-cache"] == "miss"
            degraded = json.loads(body)
            assert degraded["degraded"] is True
            assert len(degraded["predictions"]) == 1
            assert degraded["predictions"][0]["method"] == "motion"
            snapshot = service.metrics.snapshot()
            assert snapshot["serve_degraded_total_motion"]["value"] == 1

        serve_test(fleet, ServeConfig(enable_cache=False), scenario)

    def test_503_rung_when_object_lock_is_held(self, fleet, history):
        payload = predict_payload(history)

        async def scenario(service, server, client):
            slow_execute(service, 0.3)
            lock = service.fleet.object_lock("default")
            held = threading.Event()
            release = threading.Event()

            def hold_lock():
                with lock:
                    held.set()
                    release.wait(timeout=5.0)

            blocker = threading.Thread(target=hold_lock)
            blocker.start()
            held.wait(timeout=5.0)
            try:
                status, headers, body = await client.request(
                    "POST", "/predict", dict(payload, deadline_ms=60)
                )
                assert status == 503
                assert float(headers["retry-after"]) > 0
                assert "deadline exceeded" in json.loads(body)["error"]
            finally:
                release.set()
                blocker.join()

        serve_test(fleet, ServeConfig(enable_cache=False), scenario)

    def test_deadline_timeout_does_not_break_coalesced_twin(
        self, fleet, history
    ):
        """A deadline cancelling one waiter must not cancel the shared
        batch future out from under an identical coalesced request.

        A gated pass keeps the object's batch running; the patient and
        hasty twins then share the queued batch behind it.  The blocker
        reaches the executor because a refit stand-in holds the object
        lock when it arrives, and lets go once the pass has started.
        """
        payload = predict_payload(history)
        blocker_payload = dict(payload, query_time=payload["query_time"] + 1)

        async def scenario(service, server, client):
            started, release = gate_execute(service)
            holder = LockHolder(service)
            loop = asyncio.get_running_loop()
            clients = [HttpClient("127.0.0.1", server.port) for _ in range(2)]
            try:
                blocker = asyncio.create_task(
                    client.request("POST", "/predict", blocker_payload)
                )
                assert await loop.run_in_executor(None, started.wait, 10.0)
                holder.release()
                patient = asyncio.create_task(
                    clients[0].request("POST", "/predict", payload)
                )

                async def patient_queued():
                    while service.batcher.submitted < 2:
                        await asyncio.sleep(0.001)

                await asyncio.wait_for(patient_queued(), 10.0)
                status_hasty, headers_hasty, _ = await clients[1].request(
                    "POST", "/predict", dict(payload, deadline_ms=50)
                )
                assert service.batcher.coalesced == 1
                assert not patient.done()
                release.set()
                status_patient, headers_patient, _ = await patient
                status_blocker, _, _ = await blocker
            finally:
                holder.release()
                release.set()
                for other in clients:
                    await other.close()
            assert status_hasty == 200
            assert headers_hasty.get("x-degraded") == "true"
            assert status_patient == 200
            assert "x-degraded" not in headers_patient
            assert status_blocker == 200
            # Blocker alone, then the twins' shared batch.
            assert service.batcher.batches == 2

        serve_test(fleet, ServeConfig(enable_cache=False), scenario)


# ----------------------------------------------------------------------
# chaos: the seeded fault injector
# ----------------------------------------------------------------------
class TestChaos:
    def test_plan_is_deterministic(self):
        plan = ChaosConfig(
            seed=42,
            latency_probability=0.3,
            error_probability=0.2,
            drop_probability=0.1,
        )

        def sample(injector):
            out = []
            for _ in range(50):
                out.append(injector.latency_s())
                out.append(injector.should_drop())
                try:
                    injector.raise_for_error()
                    out.append(False)
                except ChaosError:
                    out.append(True)
            return out

        assert sample(FaultInjector(plan)) == sample(FaultInjector(plan))

    def test_inert_by_default(self):
        config = ChaosConfig()
        assert not config.active
        injector = FaultInjector(config)
        assert injector.latency_s() == 0.0
        assert not injector.should_drop()
        injector.raise_for_error()  # must not raise

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(error_probability=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(latency_ms=-1.0)

    def test_injected_handler_errors_answer_500(self, fleet, history):
        payload = predict_payload(history)
        plan = ChaosConfig(seed=7, error_probability=1.0)

        async def scenario(service, server, client):
            status, _, body = await client.request("POST", "/predict", payload)
            assert status == 500
            assert "ChaosError" in json.loads(body)["error"]
            assert service.chaos.injected["error"] == 1
            snapshot = service.metrics.snapshot()
            assert snapshot["serve_chaos_injected_total_error"]["value"] == 1
            assert snapshot["serve_http_errors_total"]["value"] == 1

        serve_test(fleet, ServeConfig(chaos=plan), scenario)

    def test_injected_drops_close_the_connection(self, fleet, history):
        payload = predict_payload(history)
        plan = ChaosConfig(seed=7, drop_probability=1.0)

        async def scenario(service, server, client):
            with pytest.raises((ConnectionError, OSError)):
                await client.request("POST", "/predict", payload)
            assert service.chaos.injected["drop"] == 1

        serve_test(fleet, ServeConfig(chaos=plan), scenario)

    def test_chaos_off_service_has_no_injector(self, fleet):
        async def scenario(service, server, client):
            assert service.chaos is None

        serve_test(fleet, ServeConfig(), scenario)


# ----------------------------------------------------------------------
# load report breakdown
# ----------------------------------------------------------------------
class TestLoadReport:
    def make_report(self):
        return LoadReport(
            requests=10,
            errors=3,
            elapsed=1.0,
            cache_hits=2,
            latencies_ms=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            status_counts={200: 7, 503: 2, 429: 1},
            class_latencies_ms={"predict": [1.0, 2.0], "ingest": [10.0]},
            degraded=1,
            transport_errors=1,
            deadline_misses=2,
            good=5,
        )

    def test_breakdown_properties(self):
        report = self.make_report()
        assert report.shed == 2
        assert report.rate_limited == 1
        assert report.goodput_ratio == 0.5
        assert report.percentile(50, "ingest") == 10.0

    def test_format_is_self_describing(self):
        text = self.make_report().format()
        assert "status codes: 200:7 429:1 503:2" in text
        assert "shed=2" in text
        assert "rate_limited=1" in text
        assert "degraded=1" in text
        assert "goodput=50.0%" in text
        assert "ingest ms:" in text
