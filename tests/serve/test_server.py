"""End-to-end serve tests: real sockets, real model, real bytes.

Each test stands up a :class:`PredictionServer` on an ephemeral port
inside ``asyncio.run``, drives it over HTTP with the loadgen client, and
shuts it down cleanly.  The headline assertions mirror the subsystem's
contract: served predictions are byte-identical to direct in-process
``predict`` calls, the cache actually hits, and `/metrics` reports it
all.
"""

import asyncio
import json
import threading

import pytest

from repro import FleetPredictionModel
from repro.serve import (
    HttpClient,
    PredictionServer,
    PredictionService,
    ServeConfig,
    build_workload,
    ingest_stream,
    render_predict_body,
    run_loadgen,
)

from tests.serve.conftest import (
    PERIOD,
    LockHolder,
    commuter_base,
    gate_execute,
    wait_submitted,
)


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
    """Fixes continuing the route on a fresh day after the history."""
    base = commuter_base()
    start = len(history)
    return [
        (start + i, float(base[i][0]) + 1.0, float(base[i][1]) + 1.0)
        for i in range(length)
    ]


class TestEndpoints:
    def test_healthz_and_objects(self, fleet, history):
        async def scenario(service, server, client):
            status, _, body = await client.request("GET", "/healthz")
            assert status == 200
            assert json.loads(body) == {"status": "ok", "objects": 1}

            status, _, body = await client.request("GET", "/objects")
            assert status == 200
            rows = json.loads(body)["objects"]
            assert rows[0]["object_id"] == "default"
            assert rows[0]["patterns"] > 0

        serve_test(fleet, ServeConfig(), scenario)

    def test_error_paths(self, fleet):
        async def scenario(service, server, client):
            status, _, body = await client.request("GET", "/nope")
            assert status == 404

            status, _, body = await client.request("GET", "/predict")
            assert status == 405

            status, _, body = await client.request("POST", "/predict", {})
            assert status == 400
            assert "query_time" in json.loads(body)["error"]

            status, _, body = await client.request(
                "POST",
                "/predict",
                {"object_id": "ghost", "query_time": 10_000,
                 "recent": [[9_990, 0.0, 0.0]]},
            )
            assert status == 404

            # Query time in the past of the window -> model ValueError -> 400.
            status, _, body = await client.request(
                "POST",
                "/predict",
                {"object_id": "default", "query_time": 1,
                 "recent": [[9_990, 0.0, 0.0]]},
            )
            assert status == 400

        serve_test(fleet, ServeConfig(), scenario)


class TestPredict:
    def test_served_bytes_match_direct_predict(self, fleet, history):
        """The acceptance bar: HTTP body == canonical direct-call bytes."""
        recent = new_day_window(history)
        query_time = recent[-1][0] + 3

        async def scenario(service, server, client):
            bodies = []
            for k in (None, 3):
                payload = {
                    "object_id": "default",
                    "recent": [list(f) for f in recent],
                    "query_time": query_time,
                }
                if k is not None:
                    payload["k"] = k
                status, headers, body = await client.request(
                    "POST", "/predict", payload
                )
                assert status == 200
                bodies.append((k, headers, body))
            return bodies

        bodies = serve_test(fleet, ServeConfig(update_after=None), scenario)
        from repro.trajectory.point import TimedPoint

        window = [TimedPoint(t, x, y) for t, x, y in recent]
        for k, headers, body in bodies:
            direct = fleet["default"].predict(window, query_time, k)
            assert body == render_predict_body("default", query_time, direct)
        # Pattern-based answers (not just motion fallback) went over the wire.
        assert b'"method":"fqp"' in bodies[0][2]

    def test_cache_hit_on_repeat_and_header(self, fleet, history):
        recent = new_day_window(history)
        payload = {
            "object_id": "default",
            "recent": [list(f) for f in recent],
            "query_time": recent[-1][0] + 3,
        }

        async def scenario(service, server, client):
            # Warm-up: an answer is stored on its query's second sighting.
            await client.request("POST", "/predict", payload)
            _, first_headers, first_body = await client.request(
                "POST", "/predict", payload
            )
            _, second_headers, second_body = await client.request(
                "POST", "/predict", payload
            )
            assert first_headers["x-cache"] == "miss"
            assert second_headers["x-cache"] == "hit"
            assert first_body == second_body
            assert service.cache.hits == 1

        serve_test(fleet, ServeConfig(), scenario)

    def test_refit_during_model_pass_does_not_cache_stale_answer(
        self, fleet, history
    ):
        """An invalidation that lands while a model pass is on the
        executor must keep that pass's (pre-invalidation) answer out of
        the cache."""
        recent = new_day_window(history)
        query_time = recent[-1][0] + 3

        async def scenario():
            service = PredictionService(fleet, ServeConfig())
            started, release = gate_execute(service)
            # A refit stand-in holds the lock, so the pass goes to the
            # executor; it lets go once the pass has started.
            holder = LockHolder(service)
            pending = asyncio.ensure_future(
                service.predict("default", recent, query_time)
            )
            loop = asyncio.get_running_loop()
            try:
                assert await loop.run_in_executor(None, started.wait, 10.0)
            finally:
                holder.release()
            # What a refit does once it has committed its new corpus.
            service.cache.invalidate("default")
            release.set()
            _, cached, _ = await pending
            assert not cached
            entries = len(service.cache)
            _, cached_again, _ = await service.predict(
                "default", recent, query_time
            )
            await service.drain()
            return entries, cached_again

        entries, second_cached = asyncio.run(scenario())
        assert entries == 0
        assert second_cached is False

    @pytest.mark.parametrize(
        "fix",
        [
            (None, float("inf"), 1.0),
            (None, 1.0, float("-inf")),
            (None, float("nan"), 1.0),
            (None, 1e300, 1.0),
            (10**30, 1.0, 1.0),
        ],
        ids=["inf", "neg-inf", "nan", "huge-x", "huge-t"],
    )
    def test_non_finite_or_out_of_range_window_is_a_4xx(
        self, fleet, history, fix
    ):
        recent = new_day_window(history)
        t, x, y = fix
        t = recent[-1][0] + 1 if t is None else t
        payload = {
            "object_id": "default",
            "recent": [list(f) for f in recent] + [[t, x, y]],
            "query_time": t + 3,
        }

        async def scenario(service, server, client):
            status, _, body = await client.request("POST", "/predict", payload)
            return status, json.loads(body)

        for config in (ServeConfig(), ServeConfig(enable_cache=False)):
            status, body = serve_test(fleet, config, scenario)
            assert 400 <= status < 500, body
            assert "error" in body


class TestPredictPath:
    """Where a model pass runs: inline on the loop, or on the executor."""

    @staticmethod
    def path_counts(service):
        snapshot = service.metrics.snapshot()
        return tuple(
            snapshot[f"serve_predict_path_total_{path}"]["value"]
            for path in ("inline", "executor")
        )

    @staticmethod
    def direct_body(fleet, recent, query_time):
        from repro.trajectory.point import TimedPoint

        window = [TimedPoint(t, x, y) for t, x, y in recent]
        direct = fleet["default"].predict(window, query_time)
        return render_predict_body("default", query_time, direct)

    def test_path_counters_are_always_exported(self, fleet):
        async def scenario(service, server, client):
            _, _, body = await client.request("GET", "/metrics")
            return body.decode("utf-8")

        text = serve_test(fleet, ServeConfig(), scenario)
        assert "serve_predict_path_total_inline 0" in text
        assert "serve_predict_path_total_executor 0" in text

    def test_lone_predict_runs_inline_on_the_loop_thread(self, fleet, history):
        recent = new_day_window(history)
        query_time = recent[-1][0] + 3

        async def scenario():
            service = PredictionService(fleet, ServeConfig(enable_cache=False))
            execute = service._execute_batch
            threads = []

            def recording(object_id, requests):
                threads.append(threading.get_ident())
                return execute(object_id, requests)

            service._execute_batch = recording
            service.batcher.execute = recording
            predictions, cached, degraded = await service.predict(
                "default", recent, query_time
            )
            await service.drain()
            return service, threads, threading.get_ident(), predictions

        service, threads, loop_thread, predictions = asyncio.run(scenario())
        assert threads == [loop_thread]
        assert self.path_counts(service) == (1, 0)
        assert service.batcher.submitted == 0
        assert render_predict_body(
            "default", query_time, predictions
        ) == self.direct_body(fleet, recent, query_time)

    def test_lock_held_falls_back_to_executor_with_identical_answer(
        self, fleet, history
    ):
        recent = new_day_window(history)
        query_time = recent[-1][0] + 3
        payload = {
            "object_id": "default",
            "recent": [list(f) for f in recent],
            "query_time": query_time,
        }

        async def scenario(service, server, client):
            holder = LockHolder(service)
            try:
                pending = asyncio.create_task(
                    client.request("POST", "/predict", payload)
                )
                await wait_submitted(service, 1)
                assert not pending.done()
                assert self.path_counts(service) == (0, 1)
            finally:
                holder.release()
            status, headers, body = await pending
            assert status == 200
            assert "x-degraded" not in headers
            return body

        body = serve_test(fleet, ServeConfig(enable_cache=False), scenario)
        assert body == self.direct_body(fleet, recent, query_time)

    def test_pre_expired_deadline_degrades_to_motion(self, fleet, history):
        recent = new_day_window(history)
        query_time = recent[-1][0] + 3

        async def scenario():
            service = PredictionService(fleet, ServeConfig(enable_cache=False))
            answer = await service.predict(
                "default", recent, query_time, deadline_ms=0.0
            )
            return service, answer

        service, (predictions, cached, degraded) = asyncio.run(scenario())
        assert degraded is True and cached is False
        assert [p.method for p in predictions] == ["motion"]
        assert self.path_counts(service) == (0, 0)
        assert service.batcher.submitted == 0
        snapshot = service.metrics.snapshot()
        assert snapshot["serve_deadline_timeouts_total"]["value"] == 1
        assert snapshot["serve_degraded_total_motion"]["value"] == 1


class TestIngest:
    def test_ingest_feeds_tracker_and_serves_windowless_predicts(
        self, fleet, history
    ):
        fixes = new_day_window(history, length=6)

        async def scenario(service, server, client):
            accepted = await ingest_stream(
                "127.0.0.1", server.port, "default", fixes, chunk=4
            )
            assert accepted == len(fixes)

            # Predict with no explicit window: the tracker supplies it.
            status, _, body = await client.request(
                "POST",
                "/predict",
                {"object_id": "default", "query_time": fixes[-1][0] + 3},
            )
            assert status == 200
            tracker = service.trackers["default"]
            assert tracker.pending_count == len(fixes)

            payload = json.loads(body)
            direct = fleet.predict(
                "default", tracker.window, fixes[-1][0] + 3
            )
            assert payload["predictions"][0]["x"] == direct[0].location.x

        serve_test(fleet, ServeConfig(update_after=None), scenario)

    def test_ingest_invalidates_cache(self, fleet, history):
        fixes = new_day_window(history, length=6)

        async def scenario(service, server, client):
            await ingest_stream(
                "127.0.0.1", server.port, "default", fixes[:4]
            )
            payload = {"object_id": "default", "query_time": fixes[-1][0] + 5}
            # Warm-up: an answer is stored on its query's second sighting.
            await client.request("POST", "/predict", payload)
            _, h1, _ = await client.request("POST", "/predict", payload)
            _, h2, _ = await client.request("POST", "/predict", payload)
            assert (h1["x-cache"], h2["x-cache"]) == ("miss", "hit")

            # New fixes shift the window: the cached answer must die.
            await ingest_stream(
                "127.0.0.1", server.port, "default", fixes[4:]
            )
            _, h3, _ = await client.request("POST", "/predict", payload)
            assert h3["x-cache"] == "miss"
            assert service.cache.invalidations > 0

        serve_test(fleet, ServeConfig(update_after=None), scenario)

    def test_background_refit_runs_when_due(self, fleet, history):
        fixes = new_day_window(history, length=12)

        async def scenario(service, server, client):
            status, _, body = await client.request(
                "POST",
                "/ingest",
                {"object_id": "default", "fixes": [list(f) for f in fixes]},
            )
            assert status == 200
            assert json.loads(body)["refit_scheduled"] is True
            await service.drain()
            tracker = service.trackers["default"]
            assert tracker.pending_count == 0  # flushed into the model
            snapshot = service.metrics.snapshot()
            assert snapshot["serve_refits_total"]["value"] == 1
            assert snapshot["serve_refit_fixes_total"]["value"] == len(fixes)
            assert len(fleet["default"].history_) == len(history) + len(fixes)

        serve_test(fleet, ServeConfig(update_after=10), scenario)

    def test_full_refit_after_n_deltas_through_ingest(self, fleet, history):
        """``refit_full_every=2``, applied at startup as ``repro serve
        --refit-full-every 2`` does: two delta refits, then a full one,
        then deltas again.  The model keeps the one staleness count."""
        fleet.override_refit_policy(refit_full_every=2)
        base = commuter_base()

        async def scenario(service, server, client):
            modes = []
            for day in range(4):
                t0 = len(history) + day * PERIOD
                fixes = [
                    [t0 + i, float(base[i][0]) + 1.0, float(base[i][1]) + 1.0]
                    for i in range(PERIOD)
                ]
                status, _, _ = await client.request(
                    "POST", "/ingest", {"object_id": "default", "fixes": fixes}
                )
                assert status == 200
                await service.drain()
                stats = fleet["default"].last_refit_stats_
                modes.append((stats.mode, stats.fallback))
            counters = service.metrics.snapshot()
            return modes, counters["serve_refit_mode_total_full"]["value"]

        modes, full_refits = serve_test(
            fleet, ServeConfig(update_after=PERIOD), scenario
        )
        assert modes == [
            ("delta", None),
            ("delta", None),
            ("full", "staleness"),
            ("delta", None),
        ]
        assert full_refits == 1

    def test_out_of_order_fix_rejected(self, fleet, history):
        fixes = new_day_window(history, length=2)

        async def scenario(service, server, client):
            await ingest_stream("127.0.0.1", server.port, "default", fixes)
            status, _, body = await client.request(
                "POST",
                "/ingest",
                {"object_id": "default", "fixes": [list(fixes[0])]},
            )
            assert status == 400
            assert "not after" in json.loads(body)["error"]

        serve_test(fleet, ServeConfig(), scenario)


class TestLoadgenRoundTrip:
    def test_500_requests_with_cache_hits_and_metrics(self, fleet, history):
        """Acceptance: >= 500 predicts in one process, hit-rate > 0 at
        /metrics, and spot-checked byte-identical serving."""
        workload = build_workload(
            history, requests=500, window=4, max_horizon=5, distinct=40
        )

        async def scenario(service, server, client):
            report = await run_loadgen(
                "127.0.0.1", server.port, workload, concurrency=8
            )
            status, _, metrics_body = await client.request("GET", "/metrics")
            assert status == 200
            return report, metrics_body.decode("utf-8")

        report, metrics_text = serve_test(fleet, ServeConfig(), scenario)

        assert report.requests == 500
        assert report.errors == 0
        assert report.cache_hits > 0
        assert report.throughput > 0
        assert report.percentile(50) <= report.percentile(95)

        # Cache hits are reported at /metrics and match the client's view.
        metrics = {}
        for line in metrics_text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                metrics[name] = float(value)
        assert metrics["serve_cache_hits_total"] == report.cache_hits
        assert metrics["serve_cache_hits_total"] > 0
        # Latency histograms counted every request and every model pass.
        assert metrics["serve_http_request_seconds_count"] >= 500
        assert metrics['serve_http_request_seconds_bucket{le="+Inf"}'] >= 500
        assert metrics["model_predict_seconds_count"] > 0
        assert (
            metrics["model_predict_seconds_count"]
            == metrics["fleet_predict_total"]
        )
        # Every served answer was either a cache hit or a model pass.
        assert (
            metrics["serve_cache_hits_total"]
            + metrics["serve_cache_misses_total"]
            == 500
        )

    def test_served_workload_matches_direct_calls(self, fleet, history):
        """Every distinct workload query byte-compares to a direct call."""
        workload = build_workload(
            history, requests=40, window=4, max_horizon=5, distinct=10
        )
        distinct = {q.recent: q for q in workload}.values()

        async def scenario(service, server, client):
            out = []
            for query in distinct:
                status, _, body = await client.request(
                    "POST", "/predict", query.payload()
                )
                assert status == 200
                out.append((query, body))
            return out

        from repro.trajectory.point import TimedPoint

        served = serve_test(fleet, ServeConfig(update_after=None), scenario)
        for query, body in served:
            window = [TimedPoint(t, x, y) for t, x, y in query.recent]
            direct = fleet["default"].predict(window, query.query_time, query.k)
            assert body == render_predict_body(
                query.object_id, query.query_time, direct
            )


class TestSnapshotWarmup:
    def test_from_snapshot_parallel_warmup(self, fleet, tmp_path):
        """from_snapshot with warm-up workers serves the same fleet."""
        from repro.core.persistence import save_fleet
        from repro.serve import PredictionService

        snapshot = tmp_path / "snapshot"
        save_fleet(fleet, snapshot)
        service = PredictionService.from_snapshot(snapshot, warmup_workers=2)
        assert service.fleet.object_ids() == fleet.object_ids()
        assert service.fleet.total_patterns() == fleet.total_patterns()
        assert service.metrics.gauge("serve_objects").value == len(fleet)

    def test_restore_and_predict_never_import_scipy(
        self, fleet, history, tmp_path
    ):
        """Serving needs numpy only: a snapshot restore and a predict run
        in a fresh interpreter never load scipy."""
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.core.persistence import save_fleet

        snapshot = tmp_path / "snapshot"
        save_fleet(fleet, snapshot)
        recent = new_day_window(history)
        script = (
            "import asyncio, sys\n"
            "from repro.serve import PredictionService\n"
            "service = PredictionService.from_snapshot(sys.argv[1])\n"
            "async def main():\n"
            f"    answer = await service.predict('default', {recent!r}, "
            f"{recent[-1][0] + 3})\n"
            "    await service.drain()\n"
            "    return answer\n"
            "predictions, _cached, _degraded = asyncio.run(main())\n"
            "assert predictions\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(snapshot)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
            check=True,
        )
        assert result.stdout.strip() == "[]"
