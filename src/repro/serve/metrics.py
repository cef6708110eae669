"""Operational metrics: counters, gauges, fixed-bucket histograms.

The serving layer needs cheap, dependency-free telemetry — request
counts, cache hit rates, and latency distributions — exposed both as a
Python snapshot (for tests and the load generator) and as a
Prometheus-style text exposition at ``GET /metrics``.

Everything here is stdlib-only and thread-safe: instruments take a lock
per observation, so they can be shared between the asyncio event loop
and executor threads running model passes.  Core model code accepts any
object with this registry's ``counter``/``histogram`` methods (duck
typed), so :mod:`repro.core` never imports this module.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InstrumentMemo",
    "MetricsRegistry",
    "merge_dumps",
    "DEFAULT_LATENCY_BUCKETS",
    "FIT_PHASE_BUCKETS",
    "FIT_PHASES",
]

#: Upper bounds (seconds) for latency histograms: 100µs .. 10s, roughly
#: logarithmic, fine enough that p99 interpolation is meaningful for
#: sub-millisecond model passes and whole-request round-trips alike.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    10.0,
)

#: The training pipeline's phase names, in execution order: frequent-region
#: discovery (``cluster``), pattern mining (``mine``) and key-table and
#: score-kernel construction (``index``).  Each lands in a ``fit_phase_seconds_{phase}``
#: histogram when a registry is bound during fit or snapshot warm-up.
FIT_PHASES: tuple[str, ...] = ("cluster", "mine", "index")

#: Upper bounds (seconds) for the fit-phase histograms.  Fitting is
#: seconds-to-minutes work, not microseconds, so the request-latency
#: buckets would lump every sample into the top bucket; these run 1ms
#: (trivial toy fits) up to 120s (large per-object histories).
FIT_PHASE_BUCKETS: tuple[float, ...] = (
    0.001,
    0.01,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    120.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A value that can go up and down (e.g. tracked objects, cache size)."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self._value})"


class Histogram:
    """Fixed-bucket histogram with quantile estimates.

    Observations land in the first bucket whose upper bound is >= the
    value; an implicit +inf bucket catches the rest.  Quantiles are
    estimated by linear interpolation inside the winning bucket (the
    Prometheus ``histogram_quantile`` rule), which is exact enough for
    p50/p95/p99 dashboards without storing raw samples.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.name = name
        self.help = help
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for the +inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def raw_counts(self) -> list[int]:
        """Non-cumulative per-bucket counts, the +inf bucket last."""
        with self._lock:
            return list(self._counts)

    def merge_counts(
        self, counts: Sequence[int], total: float, count: int
    ) -> None:
        """Fold another histogram's raw state into this one.

        Used when aggregating shard registries: the other histogram must
        share this one's bucket bounds (``counts`` has one entry per
        bound plus the +inf bucket).
        """
        if len(counts) != len(self._counts):
            raise ValueError(
                f"histogram {self.name!r}: cannot merge {len(counts)} bucket "
                f"counts into {len(self._counts)} buckets"
            )
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += int(c)
            self._sum += float(total)
            self._count += int(count)

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, +inf last."""
        with self._lock:
            counts = list(self._counts)
        cumulative = []
        running = 0
        for bound, count in zip((*self.buckets, float("inf")), counts):
            running += count
            cumulative.append((bound, running))
        return cumulative

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        target = q * self._count
        cumulative = self.bucket_counts()
        previous_bound = 0.0
        previous_running = 0
        for bound, running in cumulative:
            if running >= target:
                if bound == float("inf"):
                    # No upper bound to interpolate against; report the
                    # largest finite bound as the floor estimate.
                    return self.buckets[-1]
                in_bucket = running - previous_running
                if in_bucket == 0:
                    return bound
                fraction = (target - previous_running) / in_bucket
                return previous_bound + fraction * (bound - previous_bound)
            previous_bound = bound
            previous_running = running
        return self.buckets[-1]

    def percentiles(self) -> dict[str, float]:
        """The dashboard trio: p50, p95, p99."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, count={self._count})"


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    ``registry.counter("x")`` always returns the same instrument, so hot
    paths may look instruments up by name without holding references.
    Asking for an existing name with a different instrument type raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, **kwargs):
        # Names are never removed, so an existing one is read without the
        # lock (a dict read is atomic); only a creation takes it.
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = cls(name, **kwargs)
                    self._instruments[name] = instrument
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help=help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help=help, buckets=buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self) -> dict[str, dict]:
        """All instruments as plain dicts (for tests and JSON endpoints)."""
        out: dict[str, dict] = {}
        for name, instrument in sorted(self._instruments.items()):
            if isinstance(instrument, Counter):
                out[name] = {"type": "counter", "value": instrument.value}
            elif isinstance(instrument, Gauge):
                out[name] = {"type": "gauge", "value": instrument.value}
            else:
                out[name] = {
                    "type": "histogram",
                    "count": instrument.count,
                    "sum": instrument.total,
                    **instrument.percentiles(),
                }
        return out

    def dump(self) -> dict[str, dict]:
        """Full mergeable state, JSON-safe (served at ``GET /metrics.json``).

        Unlike :meth:`snapshot` this keeps histogram bucket bounds and
        raw per-bucket counts, so a set of dumps from different
        processes can be folded into one registry with
        :func:`merge_dumps` without losing quantile accuracy.
        """
        out: dict[str, dict] = {}
        for name, instrument in sorted(self._instruments.items()):
            if isinstance(instrument, Counter):
                out[name] = {
                    "type": "counter",
                    "help": instrument.help,
                    "value": instrument.value,
                }
            elif isinstance(instrument, Gauge):
                out[name] = {
                    "type": "gauge",
                    "help": instrument.help,
                    "value": instrument.value,
                }
            else:
                out[name] = {
                    "type": "histogram",
                    "help": instrument.help,
                    "buckets": list(instrument.buckets),
                    "counts": instrument.raw_counts(),
                    "sum": instrument.total,
                    "count": instrument.count,
                }
        return out

    def merge_dump(self, dump: dict[str, dict]) -> None:
        """Fold one :meth:`dump` into this registry.

        Counters and gauges add (a fleet-wide gauge like
        ``serve_objects`` is the sum of the shards' values); histograms
        add bucket-by-bucket and must share bounds.
        """
        for name, entry in dump.items():
            kind = entry.get("type")
            if kind == "counter":
                self.counter(name, help=entry.get("help", "")).inc(
                    float(entry["value"])
                )
            elif kind == "gauge":
                self.gauge(name, help=entry.get("help", "")).inc(
                    float(entry["value"])
                )
            elif kind == "histogram":
                histogram = self.histogram(
                    name,
                    help=entry.get("help", ""),
                    buckets=tuple(entry["buckets"]),
                )
                if list(histogram.buckets) != [
                    float(b) for b in entry["buckets"]
                ]:
                    raise ValueError(
                        f"histogram {name!r}: shard bucket bounds differ "
                        "from the aggregate's"
                    )
                histogram.merge_counts(
                    entry["counts"], entry["sum"], entry["count"]
                )
            else:
                raise ValueError(
                    f"metric {name!r}: unknown instrument type {kind!r}"
                )

    def render_text(self) -> str:
        """Prometheus-style text exposition (served at ``GET /metrics``)."""
        lines: list[str] = []
        for name, instrument in sorted(self._instruments.items()):
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            if isinstance(instrument, Counter):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {_fmt(instrument.value)}")
            elif isinstance(instrument, Gauge):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {_fmt(instrument.value)}")
            else:
                lines.append(f"# TYPE {name} histogram")
                for bound, running in instrument.bucket_counts():
                    label = "+Inf" if bound == float("inf") else _fmt(bound)
                    lines.append(f'{name}_bucket{{le="{label}"}} {running}')
                lines.append(f"{name}_sum {_fmt(instrument.total)}")
                lines.append(f"{name}_count {instrument.count}")
                for key, value in instrument.percentiles().items():
                    lines.append(
                        f'{name}_quantile{{q="{key}"}} {_fmt(value)}'
                    )
        return "\n".join(lines) + "\n"


class InstrumentMemo:
    """One registry's instruments, each memoised by name on first use.

    A hot path that asks for the same names on every request holds one
    of these instead of asking the registry each time.  A name still
    enters the registry only when it is first asked for, so what
    ``/metrics`` lists is the same as with direct registry calls.
    """

    __slots__ = ("registry", "_counters", "_gauges", "_histograms")

    def __init__(self, registry) -> None:
        self.registry = registry
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            instrument = self._counters[name] = self.registry.counter(name)
            return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            instrument = self._gauges[name] = self.registry.gauge(name, help)
            return instrument

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            instrument = self._histograms[name] = self.registry.histogram(name)
            return instrument


def merge_dumps(dumps: Sequence[dict]) -> MetricsRegistry:
    """Aggregate registry dumps from several processes into one registry.

    The router's merged ``/metrics`` view is built this way: its own
    registry's dump plus one fetched from each shard worker.  Counters
    and gauges sum; histograms sum per bucket (identical bounds
    required, which holds for homogeneous workers).
    """
    merged = MetricsRegistry()
    for dump in dumps:
        merged.merge_dump(dump)
    return merged


def _fmt(value: float) -> str:
    """Render a float without a trailing ``.0`` for whole numbers."""
    return str(int(value)) if float(value).is_integer() else repr(value)
