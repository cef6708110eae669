"""Unit tests for the LRU + TTL prediction cache and its admission."""

import asyncio
import os
import subprocess
import sys
import time

import pytest

from repro.serve import PredictionService, ServeConfig
from repro.serve.cache import Doorkeeper, PredictionCache
from repro.serve.metrics import MetricsRegistry
from repro.trajectory.point import TimedPoint
from tests.serve.conftest import commuter_base


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def window(*coords):
    return [TimedPoint(t, float(x), float(y)) for t, x, y in coords]


class TestKeys:
    def test_jitter_below_quantum_maps_to_same_key(self):
        cache = PredictionCache(quantum=10.0)
        a = cache.make_key("o", window((1, 100.0, 200.0)), 7, None)
        b = cache.make_key("o", window((1, 102.0, 198.0)), 7, None)
        assert a == b

    def test_distinct_dimensions_distinct_keys(self):
        cache = PredictionCache(quantum=1.0)
        base = window((1, 10.0, 10.0))
        key = cache.make_key("o", base, 7, None)
        assert cache.make_key("other", base, 7, None) != key
        assert cache.make_key("o", base, 8, None) != key
        assert cache.make_key("o", base, 7, 3) != key
        assert cache.make_key("o", window((2, 10.0, 10.0)), 7, None) != key
        assert cache.make_key("o", window((1, 10.0, 11.0)), 7, None) != key
        longer = window((1, 10.0, 10.0), (2, 10.0, 10.0))
        assert cache.make_key("o", longer, 7, None) != key


class TestLruTtl:
    def test_round_trip_and_hit_accounting(self):
        cache = PredictionCache(clock=FakeClock())
        key = cache.make_key("o", window((1, 0, 0)), 5, None)
        assert cache.get(key) is None
        cache.put(key, "answer", 0)
        assert cache.get(key) == "answer"
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = PredictionCache(max_entries=2, ttl=None)
        k1, k2, k3 = (("o", (), t, None) for t in (1, 2, 3))
        cache.put(k1, "a", 0)
        cache.put(k2, "b", 0)
        assert cache.get(k1) == "a"  # touch k1 so k2 becomes LRU
        cache.put(k3, "c", 0)
        assert cache.get(k2) is None
        assert cache.get(k1) == "a"
        assert cache.get(k3) == "c"
        assert cache.evictions == 1

    def test_ttl_expiry(self):
        clock = FakeClock()
        cache = PredictionCache(ttl=10.0, clock=clock)
        key = ("o", (), 5, None)
        cache.put(key, "answer", 0)
        clock.advance(9.9)
        assert cache.get(key) == "answer"
        clock.advance(0.2)
        assert cache.get(key) is None
        assert cache.expirations == 1
        assert len(cache) == 0

    def test_invalidate_drops_only_that_object(self):
        cache = PredictionCache(ttl=None)
        cache.put(("a", (), 1, None), "x", 0)
        cache.put(("a", (), 2, None), "y", 0)
        cache.put(("b", (), 1, None), "z", 0)
        assert cache.invalidate("a") == 2
        assert cache.get(("a", (), 1, None)) is None
        assert cache.get(("b", (), 1, None)) == "z"
        assert cache.invalidate("missing") == 0

    def test_put_after_invalidation_is_dropped(self):
        cache = PredictionCache(ttl=None)
        key = ("a", b"", 1, None)
        generation = cache.generation("a")
        cache.invalidate("a")
        cache.put(key, "computed before the invalidation", generation)
        assert cache.get(key) is None
        cache.put(key, "fresh", cache.generation("a"))
        assert cache.get(key) == "fresh"
        # Other objects' generations are untouched.
        assert cache.generation("b") == 0

    def test_metrics_wiring(self):
        registry = MetricsRegistry()
        cache = PredictionCache(max_entries=1, ttl=None, metrics=registry)
        cache.put(("a", (), 1, None), "x", 0)
        cache.get(("a", (), 1, None))
        cache.get(("a", (), 2, None))
        cache.put(("a", (), 2, None), "y", 0)  # evicts the first entry
        snap = registry.snapshot()
        assert snap["serve_cache_hits_total"]["value"] == 1
        assert snap["serve_cache_misses_total"]["value"] == 1
        assert snap["serve_cache_evictions_total"]["value"] == 1
        assert snap["serve_cache_entries"]["value"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionCache(max_entries=0)
        with pytest.raises(ValueError):
            PredictionCache(ttl=0)
        with pytest.raises(ValueError):
            PredictionCache(quantum=0)


# ----------------------------------------------------------------------
# second-sighting admission
# ----------------------------------------------------------------------
def key(i, object_id="o"):
    return (object_id, i.to_bytes(8, "little"), i, None)


class TestDoorkeeper:
    def test_second_offer_of_a_key_reports_seen(self):
        keeper = Doorkeeper(reset_after=100)
        assert keeper.offer(key(1)) is False
        assert keeper.offer(key(2)) is False
        assert keeper.offer(key(1)) is True
        assert keeper.offer(key(1)) is True

    def test_cleared_after_reset_after_first_sightings(self):
        keeper = Doorkeeper(reset_after=3)
        assert [keeper.offer(key(i)) for i in (1, 2, 3)] == [False] * 3
        assert keeper.offer(key(1)) is True
        # The fourth first sighting clears the table, then marks itself.
        assert keeper.offer(key(4)) is False
        assert keeper.offer(key(1)) is False
        assert keeper.offer(key(4)) is True

    def test_any_object_id_hashes(self):
        keeper = Doorkeeper(reset_after=10)
        odd = ("\ud800 lone surrogate", b"", 1, 3)
        assert keeper.offer(odd) is False
        assert keeper.offer(odd) is True

    def test_validation(self):
        with pytest.raises(ValueError):
            Doorkeeper(reset_after=0)

    def test_answers_do_not_depend_on_the_hash_seed(self):
        """The table is indexed by CRC-32, so which distinct keys collide
        is the same in every interpreter."""
        code = (
            "from repro.serve.cache import Doorkeeper\n"
            "keeper = Doorkeeper(10**9)\n"
            "print([i for i in range(40000) if keeper.offer("
            "(f'bus-{i % 16}', i.to_bytes(8, 'little'), i, None))])\n"
        )
        outputs = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                 env.get("PYTHONPATH", "")]
            )
            result = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(result.stdout)
        (collisions,) = outputs
        assert collisions.strip() != "[]"  # some distinct keys share a bit


def day_window(history, length=4):
    """Fixes continuing the commuter route on a fresh day."""
    base = commuter_base()
    start = len(history)
    return [
        (start + i, float(base[i][0]) + 1.0, float(base[i][1]) + 1.0)
        for i in range(length)
    ]


def run_service(fleet, scenario, **config):
    async def body():
        service = PredictionService(fleet, ServeConfig(**config))
        try:
            return await scenario(service)
        finally:
            await service.drain()

    return asyncio.run(body())


class TestSecondSightingAdmission:
    def test_first_sighting_not_stored_second_stored_third_hits(
        self, fleet, history
    ):
        recent = day_window(history)
        query_time = recent[-1][0] + 3

        async def scenario(service):
            seen = []
            for _ in range(3):
                answer, cached, degraded = await service.predict(
                    "default", recent, query_time
                )
                seen.append((answer, cached, degraded, len(service.cache)))
            return seen

        first, second, third = run_service(fleet, scenario)
        assert first[1:] == (False, False, 0)
        assert second[1:] == (False, False, 1)
        assert third[1:] == (True, False, 1)
        assert first[0] == second[0] == third[0]

    def test_stored_key_is_refreshed(self, fleet, history):
        """An expired entry is replaced by the recomputed answer even
        when the doorkeeper no longer remembers its key."""
        recent = day_window(history)
        query_time = recent[-1][0] + 3

        async def scenario(service):
            for _ in range(2):
                await service.predict("default", recent, query_time)
            assert len(service.cache) == 1
            service._doorkeeper = Doorkeeper(reset_after=16)
            service.cache.clock = lambda: time.monotonic() + 3600.0
            _, refreshed, _ = await service.predict("default", recent, query_time)
            _, hit, _ = await service.predict("default", recent, query_time)
            return refreshed, hit, service.cache.expirations

        refreshed, hit, expirations = run_service(fleet, scenario, cache_ttl=30.0)
        assert (refreshed, hit) == (False, True)
        assert expirations == 1

    def test_refit_invalidation_drops_admitted_entries(self, fleet, history):
        recent = day_window(history)
        fixes = [list(f) for f in day_window(history, length=6)]
        query_time = recent[-1][0] + 3

        async def scenario(service):
            for _ in range(2):
                await service.predict("default", recent, query_time)
            assert len(service.cache) == 1
            accepted = await service.ingest("default", fixes)
            assert accepted["refit_scheduled"] is True
            await service.drain()
            stored_after_refit = len(service.cache)
            _, cached, _ = await service.predict("default", recent, query_time)
            return stored_after_refit, cached, service.cache.invalidations

        stored, cached, invalidations = run_service(
            fleet, scenario, update_after=len(fixes)
        )
        assert stored == 0
        assert cached is False
        assert invalidations >= 1

    def test_cache_off_offers_nothing(self, fleet, history):
        recent = day_window(history)

        async def scenario(service):
            for _ in range(3):
                _, cached, _ = await service.predict(
                    "default", recent, recent[-1][0] + 3
                )
                assert cached is False
            return len(service.cache), service._doorkeeper.offer(
                service.cache.make_key(
                    "default",
                    [TimedPoint(*f) for f in recent],
                    recent[-1][0] + 3,
                    None,
                )
            )

        assert run_service(fleet, scenario, enable_cache=False) == (0, False)
