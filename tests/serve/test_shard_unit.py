"""Sharded-serving units: queues, metric merging, snapshots, router.

The router tests run a real :class:`RouterService` against *in-process*
:class:`PredictionServer` workers (real sockets, no subprocesses — the
multi-process path lives in ``test_shard_e2e.py``) and assert the
headline contract: routed responses are byte-identical to a
single-process server over the whole fleet, and a dead shard degrades
through the stale-response cache before 503ing.
"""

import asyncio
import json

import pytest

from repro import FleetPredictionModel, TimedPoint
from repro.core.persistence import load_fleet, save_fleet
from repro.serve import (
    MetricsRegistry,
    PredictionServer,
    PredictionService,
    ServeConfig,
    merge_dumps,
)
from repro.serve.handlers import encode_json, route
from repro.serve.shard import (
    HashRing,
    RouterConfig,
    RouterService,
    load_shard_fleet,
    merge_snapshot,
    read_shard_manifest,
    split_snapshot,
)
from repro.serve.shard.forwarding import (
    FORWARD_PRIORITIES,
    ForwardJob,
    ForwardQueue,
    QueueFullError,
)

from tests.serve.conftest import commuter_base, commuter_history

NUM_OBJECTS = 4
OBJECT_IDS = [f"bus-{i}" for i in range(NUM_OBJECTS)]


@pytest.fixture(scope="module")
def multi_fleet(hpm_config) -> FleetPredictionModel:
    fleet = FleetPredictionModel(hpm_config)
    fleet.fit(
        {
            object_id: commuter_history(num_days=20, seed=11 + i)
            for i, object_id in enumerate(OBJECT_IDS)
        }
    )
    return fleet


def sub_fleet(fleet: FleetPredictionModel, object_ids) -> FleetPredictionModel:
    part = FleetPredictionModel(fleet.config)
    for object_id in object_ids:
        part.adopt_object(object_id, fleet[object_id])
    return part


def recent_window(length: int = 4) -> list[list[float]]:
    base = commuter_base()
    start = 20 * len(base)  # a fresh day after the 20-day history
    return [
        [start + i, float(base[i][0]) + 1.0, float(base[i][1]) + 1.0]
        for i in range(length)
    ]


def predict_body(object_id: str) -> bytes:
    window = recent_window()
    return encode_json(
        {
            "object_id": object_id,
            "recent": window,
            "query_time": int(window[-1][0]) + 3,
        }
    )


# ----------------------------------------------------------------------
# ForwardQueue
# ----------------------------------------------------------------------
def make_job(priority: str) -> ForwardJob:
    return ForwardJob(
        priority=FORWARD_PRIORITIES[priority],
        method="POST",
        path="/predict",
        body=b"{}",
        future=asyncio.get_event_loop().create_future(),
    )


class TestForwardQueue:
    def test_priority_order_predict_before_ingest_before_background(self):
        async def body():
            queue = ForwardQueue(max_depth=8)
            background = make_job("background")
            ingest = make_job("ingest")
            predict = make_job("predict")
            for job in (background, ingest, predict):
                queue.offer(job)
            assert await queue.take() is predict
            assert await queue.take() is ingest
            assert await queue.take() is background

        asyncio.run(body())

    def test_ingest_near_capacity_is_queued_behind_predicts(self):
        """Below capacity nothing is shed (that is the admission
        controller's job): an ingest offered at 3/4 of capacity waits
        behind the queued predicts."""

        async def body():
            queue = ForwardQueue(max_depth=8)
            predicts = [make_job("predict") for _ in range(6)]
            for job in predicts:
                queue.offer(job)
            ingest = make_job("ingest")
            queue.offer(ingest)
            assert queue.depth() == 7
            taken = [await queue.take() for _ in range(7)]
            assert taken == predicts + [ingest]

        asyncio.run(body())

    def test_eviction_fails_newest_lowest_priority_job(self):
        async def body():
            queue = ForwardQueue(max_depth=3)
            victim_old = make_job("background")
            victim_new = make_job("background")
            keeper = make_job("predict")
            for job in (victim_old, keeper, victim_new):
                queue.offer(job)
            queue.offer(make_job("predict"))  # evicts the *newest* background
            assert victim_new.future.done()
            with pytest.raises(QueueFullError, match="evicted"):
                victim_new.future.result()
            assert not victim_old.future.done()
            # At capacity a background arrival has no lower-priority
            # victim to evict, so it is refused.
            with pytest.raises(QueueFullError, match="queue full"):
                queue.offer(make_job("background"))
            assert queue.stats == {"offered": 5, "shed_full": 1, "evicted": 1}
            # take() skips the evicted corpse silently.
            taken = [await queue.take() for _ in range(3)]
            assert victim_new not in taken
            assert taken[-1] is victim_old

        asyncio.run(body())

    def test_full_queue_of_equals_refuses_new_arrivals(self):
        async def body():
            queue = ForwardQueue(max_depth=2)
            queue.offer(make_job("predict"))
            queue.offer(make_job("predict"))
            # No lower-priority victim available: refuse, evict nothing.
            with pytest.raises(QueueFullError, match="queue full"):
                queue.offer(make_job("predict"))
            assert queue.depth() == 2

        asyncio.run(body())

    def test_close_fails_everything_queued(self):
        async def body():
            queue = ForwardQueue(max_depth=4)
            jobs = [make_job("predict") for _ in range(3)]
            for job in jobs:
                queue.offer(job)
            queue.close()
            for job in jobs:
                with pytest.raises(QueueFullError, match="closed"):
                    job.future.result()
            with pytest.raises(QueueFullError):
                queue.offer(make_job("predict"))
            with pytest.raises(asyncio.CancelledError):
                await queue.take()

        asyncio.run(body())

    def test_bad_max_depth_raises(self):
        with pytest.raises(ValueError, match="max_depth"):
            ForwardQueue(max_depth=0)


# ----------------------------------------------------------------------
# metrics merging
# ----------------------------------------------------------------------
class TestMergeDumps:
    def test_counters_gauges_histograms_sum(self):
        shards = []
        for i in range(3):
            registry = MetricsRegistry()
            registry.counter("requests_total").inc(10 * (i + 1))
            registry.gauge("serve_objects").set(i + 1)
            histogram = registry.histogram("latency", buckets=(0.1, 1.0))
            histogram.observe(0.05)
            histogram.observe(5.0)
            shards.append(registry.dump())
        merged = merge_dumps(shards)
        assert merged.counter("requests_total").value == 60
        assert merged.gauge("serve_objects").value == 6
        histogram = merged.histogram("latency", buckets=(0.1, 1.0))
        assert histogram.raw_counts() == [3, 0, 3]
        assert histogram.count == 6

    def test_mismatched_histogram_buckets_refuse_to_merge(self):
        a = MetricsRegistry()
        a.histogram("latency", buckets=(0.1, 1.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("latency", buckets=(0.5, 2.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            merge_dumps([a.dump(), b.dump()])

    def test_dump_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(2)
        registry.histogram("h").observe(0.3)
        wire = json.loads(encode_json(registry.dump()))
        merged = merge_dumps([wire])
        assert merged.counter("n").value == 2


# ----------------------------------------------------------------------
# snapshot split / merge and filtered loads
# ----------------------------------------------------------------------
class TestShardSnapshots:
    def test_split_matches_ring_and_merge_round_trips(
        self, multi_fleet, tmp_path
    ):
        plain = tmp_path / "plain"
        sharded = tmp_path / "sharded"
        merged_dir = tmp_path / "merged"
        save_fleet(multi_fleet, plain)

        placement = split_snapshot(plain, sharded, num_shards=2)
        ring = HashRing(2)
        for shard_id, object_ids in placement.items():
            for object_id in object_ids:
                assert ring.shard_for(object_id) == shard_id
        manifest = read_shard_manifest(sharded)
        assert manifest["num_shards"] == 2
        assert manifest["objects_total"] == NUM_OBJECTS

        merged_ids = merge_snapshot(sharded, merged_dir)
        assert merged_ids == sorted(OBJECT_IDS)
        reloaded = load_fleet(merged_dir)
        assert reloaded.object_ids() == multi_fleet.object_ids()
        # The round-tripped models answer identically.
        window = [
            TimedPoint(int(t), x, y) for t, x, y in recent_window()
        ]
        query_time = window[-1].t + 3
        recents = {object_id: window for object_id in OBJECT_IDS}
        before = multi_fleet.predict_all(recents, query_time)
        after = reloaded.predict_all(recents, query_time)
        assert {k: v.location for k, v in before.items()} == {
            k: v.location for k, v in after.items()
        }

    def test_load_shard_fleet_from_sharded_and_plain_snapshots(
        self, multi_fleet, tmp_path
    ):
        plain = tmp_path / "plain"
        sharded = tmp_path / "sharded"
        save_fleet(multi_fleet, plain)
        placement = split_snapshot(plain, sharded, num_shards=2)
        for shard_id in (0, 1):
            from_sharded = load_shard_fleet(sharded, shard_id, 2)
            from_plain = load_shard_fleet(plain, shard_id, 2)
            assert from_sharded.object_ids() == placement[shard_id]
            assert from_plain.object_ids() == placement[shard_id]

    def test_load_shard_fleet_rejects_mismatched_ring(
        self, multi_fleet, tmp_path
    ):
        plain = tmp_path / "plain"
        sharded = tmp_path / "sharded"
        save_fleet(multi_fleet, plain)
        split_snapshot(plain, sharded, num_shards=2)
        with pytest.raises(ValueError, match="split for ring"):
            load_shard_fleet(sharded, 0, 3)

    def test_worker_prewarms_its_locate_memos(
        self, multi_fleet, tmp_path, monkeypatch
    ):
        """A shard worker is warm when it reports ready, like a service
        built with ``PredictionService.from_snapshot``."""
        from repro.serve.shard import worker

        plain = tmp_path / "plain"
        save_fleet(multi_fleet, plain)
        loaded = []

        def recording_load(*args, **kwargs):
            loaded.append(load_shard_fleet(*args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(worker, "load_shard_fleet", recording_load)
        ready = tmp_path / "ready"

        async def scenario():
            task = asyncio.ensure_future(
                worker.run_worker(plain, 0, 1, ready_file=ready)
            )
            try:
                while not ready.exists():
                    assert not task.done(), task
                    await asyncio.sleep(0.01)
            finally:
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)

        asyncio.run(scenario())
        (fleet,) = loaded
        assert fleet.object_ids() == sorted(OBJECT_IDS)
        for object_id in fleet.object_ids():
            assert len(fleet[object_id].regions_._locate_cache) > 0

    def test_split_merge_identity(self, multi_fleet, tmp_path):
        from repro.core.fingerprint import model_fingerprint

        plain = tmp_path / "plain"
        sharded = tmp_path / "sharded"
        merged_dir = tmp_path / "merged"
        save_fleet(multi_fleet, plain)
        split_snapshot(plain, sharded, num_shards=3)

        # Each shard dir is itself a loadable snapshot.
        shard0 = json.loads(
            (sharded / "shard_0000" / "manifest.json").read_text()
        )
        assert shard0["format_version"] == 3

        reference = {
            oid: model_fingerprint(multi_fleet[oid])
            for oid in multi_fleet.object_ids()
        }
        seen = {}
        for shard_id in range(3):
            worker_fleet = load_shard_fleet(sharded, shard_id, 3)
            for oid in worker_fleet.object_ids():
                seen[oid] = model_fingerprint(worker_fleet[oid])
        assert seen == reference

        merge_snapshot(sharded, merged_dir)
        merged = load_fleet(merged_dir)
        assert {
            oid: model_fingerprint(merged[oid]) for oid in merged.object_ids()
        } == reference

    def test_load_fleet_object_ids_filter(self, multi_fleet, tmp_path):
        plain = tmp_path / "plain"
        save_fleet(multi_fleet, plain)
        subset = load_fleet(plain, object_ids=["bus-1", "bus-3"])
        assert subset.object_ids() == ["bus-1", "bus-3"]
        assert len(load_fleet(plain, object_ids=[])) == 0
        with pytest.raises(ValueError, match="not in the snapshot manifest"):
            load_fleet(plain, object_ids=["ghost"])


# ----------------------------------------------------------------------
# RouterService over in-process workers
# ----------------------------------------------------------------------
NUM_SHARDS = 2


def router_test(multi_fleet, scenario, **router_kwargs):
    """Run ``scenario(router, full_service)`` with live in-process workers."""

    async def body():
        ring = HashRing(NUM_SHARDS)
        groups = ring.assignments(OBJECT_IDS)
        servers = []
        router = RouterService(
            RouterConfig(
                num_shards=NUM_SHARDS, probe_interval=0.05, **router_kwargs
            )
        )
        full_service = PredictionService(multi_fleet, ServeConfig())
        try:
            for shard_id in range(NUM_SHARDS):
                service = PredictionService(
                    sub_fleet(multi_fleet, groups[shard_id]), ServeConfig()
                )
                server = PredictionServer(service)
                await server.start()
                servers.append(server)
                router.attach_shard(shard_id, "127.0.0.1", server.port)
            return await scenario(router, full_service)
        finally:
            await router.stop()
            for server in servers:
                await server.close()
            await full_service.drain()

    return asyncio.run(body())


class TestRouterService:
    def test_predict_routes_by_ring_and_matches_single_process_bytes(
        self, multi_fleet
    ):
        async def scenario(router, full_service):
            ring = router.ring
            for object_id in OBJECT_IDS:
                body = predict_body(object_id)
                status, _, routed, headers = await router.handle(
                    "POST", "/predict", body
                )
                expected_status, _, expected, _ = await route(
                    full_service, "POST", "/predict", body
                )
                assert (status, routed) == (expected_status, expected)
                assert headers["X-Shard"] == str(ring.shard_for(object_id))

        router_test(multi_fleet, scenario)

    def test_objects_and_predict_all_merge_byte_identically(self, multi_fleet):
        async def scenario(router, full_service):
            status, _, merged, _ = await router.handle("GET", "/objects", b"")
            _, _, expected, _ = await route(full_service, "GET", "/objects", b"")
            assert status == 200
            assert merged == expected

            window = recent_window()
            recents = {object_id: window for object_id in OBJECT_IDS}
            recents["ghost"] = window  # unknown everywhere, never fatal
            body = encode_json(
                {"query_time": int(window[-1][0]) + 3, "recents": recents}
            )
            status, _, merged, _ = await router.handle(
                "POST", "/predict_all", body
            )
            _, _, expected, _ = await route(
                full_service, "POST", "/predict_all", body
            )
            assert status == 200
            assert merged == expected
            assert json.loads(merged)["unknown"] == ["ghost"]

        router_test(multi_fleet, scenario)

    def test_metrics_aggregates_every_shard_registry(self, multi_fleet):
        async def scenario(router, full_service):
            for object_id in OBJECT_IDS:
                await router.handle("POST", "/predict", predict_body(object_id))
            status, content_type, text, _ = await router.handle(
                "GET", "/metrics", b""
            )
            assert status == 200 and content_type.startswith("text/plain")
            exposition = text.decode()
            assert exposition.startswith("# router: aggregated 2/2")
            for line in exposition.splitlines():
                if line.startswith("serve_predict_requests_total "):
                    assert float(line.split()[-1]) == len(OBJECT_IDS)
                    break
            else:
                pytest.fail("merged exposition lost the shard counters")

            status, _, dump_body, _ = await router.handle(
                "GET", "/metrics.json", b""
            )
            merged = merge_dumps([json.loads(dump_body)])
            assert merged.counter("serve_predict_requests_total").value == len(
                OBJECT_IDS
            )

        router_test(multi_fleet, scenario)

    def test_healthz_rolls_up_shard_status(self, multi_fleet):
        async def scenario(router, full_service):
            await asyncio.sleep(0.2)  # let probes report object counts
            _, _, body, _ = await router.handle("GET", "/healthz", b"")
            payload = json.loads(body)
            assert payload["status"] == "ok"
            assert payload["shards"] == {"healthy": 2, "total": 2}
            assert payload["objects"] == NUM_OBJECTS

        router_test(multi_fleet, scenario)

    def test_dead_shard_serves_stale_then_503(self, multi_fleet):
        async def scenario(router, full_service):
            cached_id, fresh_id = OBJECT_IDS[0], OBJECT_IDS[1]
            body = predict_body(cached_id)
            status, _, full_quality, _ = await router.handle(
                "POST", "/predict", body
            )
            assert status == 200

            for shard_id in range(NUM_SHARDS):
                router.detach_shard(shard_id)

            status, _, stale, headers = await router.handle(
                "POST", "/predict", body
            )
            assert status == 200
            assert headers["X-Cache"] == "stale"
            assert headers["X-Degraded"] == "true"
            degraded = json.loads(stale)
            assert degraded.pop("degraded") is True
            assert degraded == json.loads(full_quality)

            status, _, refused, headers = await router.handle(
                "POST", "/predict", predict_body(fresh_id)
            )
            assert status == 503
            assert "Retry-After" in headers
            assert "unavailable" in json.loads(refused)["error"]

            _, _, health, _ = await router.handle("GET", "/healthz", b"")
            assert json.loads(health)["status"] == "degraded"

        router_test(multi_fleet, scenario)

    def test_unknown_routes_mirror_single_process_statuses(self, multi_fleet):
        async def scenario(router, full_service):
            status, _, _, _ = await router.handle("GET", "/nowhere", b"")
            assert status == 404
            status, _, _, _ = await router.handle("GET", "/predict", b"")
            assert status == 405
            status, _, body, _ = await router.handle("POST", "/predict", b"{}")
            assert status == 400
            assert "query_time" in json.loads(body)["error"]

        router_test(multi_fleet, scenario)


class _ScriptedProbeClient:
    """Stands in for a shard's probe client; every request raises ``exc``."""

    def __init__(self, exc: Exception):
        self.exc = exc
        self.requests = 0

    async def request(self, method, path):
        self.requests += 1
        raise self.exc

    async def close(self):
        pass


class TestRouterProbes:
    def probe_with(self, exc: Exception):
        """Attach one shard whose probes raise ``exc``; report the outcome."""

        async def body():
            router = RouterService(
                RouterConfig(
                    num_shards=1, probe_interval=0.01, probe_fail_threshold=1
                )
            )
            router.attach_shard(0, "127.0.0.1", 9)
            state = router._shards[0]
            client = state.probe_client = _ScriptedProbeClient(exc)
            try:
                for _ in range(100):
                    if state.probe_task.done() or not state.healthy:
                        break
                    await asyncio.sleep(0.01)
                return (
                    client.requests,
                    state.healthy,
                    state.probe_task.done(),
                    router.metrics.counter("router_shard_down_total").value,
                )
            finally:
                await router.stop()

        return asyncio.run(body())

    def test_transport_failure_marks_the_shard_down(self):
        requests, healthy, stopped, down = self.probe_with(
            ConnectionRefusedError("refused")
        )
        assert requests >= 1
        assert (healthy, stopped, down) == (False, False, 1)

    def test_probe_bug_is_logged_and_not_counted_as_a_shard_failure(
        self, caplog
    ):
        with caplog.at_level("ERROR", logger="repro.serve.shard.router"):
            requests, healthy, stopped, down = self.probe_with(
                TypeError("probe bug")
            )
        assert requests == 1
        assert (healthy, stopped, down) == (True, True, 0)
        assert "health probe of shard 0 failed" in caplog.text
        assert "TypeError: probe bug" in caplog.text
