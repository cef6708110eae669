"""Unit tests for the LRU + TTL prediction cache."""

import pytest

from repro.serve.cache import PredictionCache
from repro.serve.metrics import MetricsRegistry
from repro.trajectory.point import TimedPoint


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
