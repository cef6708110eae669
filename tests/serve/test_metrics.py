"""Unit tests for the metrics registry: counters, gauges, histograms."""

import sys
import threading

import pytest

from repro.serve.metrics import (
    Counter,
    Gauge,
    Histogram,
    InstrumentMemo,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("requests")
        assert c.value == 0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_thread_safety(self):
        c = Counter("x")

        def spin():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("objects")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4


class TestHistogram:
    def test_bucket_assignment_is_cumulative(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        counts = dict(h.bucket_counts())
        assert counts[1.0] == 2  # 0.5 and the boundary value 1.0
        assert counts[2.0] == 3
        assert counts[4.0] == 4
        assert counts[float("inf")] == 5
        assert h.count == 5
        assert h.total == pytest.approx(106.0)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("x", buckets=())

    def test_quantiles_interpolate(self):
        h = Histogram("lat", buckets=(10.0, 20.0, 40.0))
        for _ in range(50):
            h.observe(5.0)  # first bucket
        for _ in range(50):
            h.observe(15.0)  # second bucket
        # p50 sits at the first/second bucket boundary.
        assert h.quantile(0.5) == pytest.approx(10.0)
        # p99 interpolates inside (10, 20].
        assert 10.0 < h.quantile(0.99) <= 20.0
        p = h.percentiles()
        assert set(p) == {"p50", "p95", "p99"}
        assert p["p50"] <= p["p95"] <= p["p99"]

    def test_quantile_of_empty_histogram(self):
        assert Histogram("x", buckets=(1.0,)).quantile(0.95) == 0.0

    def test_overflow_quantile_reports_top_bound(self):
        h = Histogram("x", buckets=(1.0, 2.0))
        h.observe(50.0)
        assert h.quantile(0.99) == 2.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert "a" in r

    def test_type_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(TypeError):
            r.gauge("a")

    def test_concurrent_get_or_create_makes_one_instrument_per_name(self):
        """Existing names are read without the lock; creations race
        under it.  Threads asking for the same new names must all get
        one instrument per name, so no increment is lost."""
        r = MetricsRegistry()
        names = [f"c{i}" for i in range(50)]
        start = threading.Barrier(8)

        def spin():
            start.wait(timeout=10)
            for _ in range(20):
                for name in names:
                    r.counter(name).inc()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=spin) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert {name: r.counter(name).value for name in names} == {
            name: 160 for name in names
        }

    def test_instrument_memo_registers_a_name_on_first_use(self):
        r = MetricsRegistry()
        memo = InstrumentMemo(r)
        assert "hits" not in r
        hits = memo.counter("hits")
        assert "hits" in r
        assert memo.counter("hits") is hits is r.counter("hits")
        memo.gauge("size", help="entries").set(3)
        assert r.dump()["size"] == {"type": "gauge", "help": "entries", "value": 3}
        assert memo.histogram("seconds") is r.histogram("seconds")
        assert sorted(r.snapshot()) == ["hits", "seconds", "size"]

    def test_snapshot_shapes(self):
        r = MetricsRegistry()
        r.counter("c").inc(2)
        r.gauge("g").set(7)
        r.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = r.snapshot()
        assert snap["c"] == {"type": "counter", "value": 2}
        assert snap["g"] == {"type": "gauge", "value": 7}
        assert snap["h"]["type"] == "histogram"
        assert snap["h"]["count"] == 1

    def test_render_text_exposition(self):
        r = MetricsRegistry()
        r.counter("requests_total", help="total requests").inc(3)
        r.histogram("latency_seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = r.render_text()
        assert "# HELP requests_total total requests" in text
        assert "# TYPE requests_total counter" in text
        assert "requests_total 3" in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 1' in text
        assert "latency_seconds_count 1" in text
        assert text.endswith("\n")
