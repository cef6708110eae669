"""Admission control: bounded per-class slots, watermarks, rate limits.

The serve process has one event loop and one executor; without admission
control an ingest storm or a misbehaving client consumes both and every
request — including the cheap cached predicts the fleet dashboard needs
— times out together.  This module decides, *before* any model work is
scheduled, whether a request may enter the system:

* **Per-class bounded slots.**  Every in-flight request holds a slot in
  its class (``predict``, ``ingest``, ``background``).  A class at
  capacity sheds new arrivals immediately with ``503 + Retry-After``
  instead of queueing them into oblivion.
* **Watermark backpressure with hysteresis.**  When the *total* depth
  crosses ``high_watermark`` the controller enters shedding mode and
  only the highest-priority class (predict) is admitted; it leaves
  shedding mode once depth falls to ``low_watermark``.  The gap between
  the watermarks prevents flapping at the boundary.
* **Per-client token buckets.**  Requests are attributed to a client
  (``X-Client-Id`` header, falling back to the peer address) and each
  client refills at ``rate`` tokens/sec up to ``burst``.  An empty
  bucket answers ``429 + Retry-After`` with the exact time until the
  next token.  The client table is LRU-bounded so an address scan
  cannot grow it without bound.

Everything is synchronous and O(1) per decision — admission runs on the
event loop for every request, so it must never block or allocate
per-request state beyond the slot count.  The clock is injectable for
deterministic tests.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from .metrics import Gauge, InstrumentMemo

__all__ = [
    "AdmissionDecision",
    "AdmissionController",
    "TokenBucket",
    "REQUEST_CLASSES",
]

#: Request classes in priority order: under watermark shedding only the
#: first class is still admitted.  ``background`` is the refit scheduler's
#: class — model refreshes yield to foreground traffic.
REQUEST_CLASSES: tuple[str, ...] = ("predict", "ingest", "background")


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/sec, capacity ``burst``.

    ``try_acquire`` either takes a token (returns 0.0) or returns the
    seconds until one will be available, which maps directly onto a
    ``Retry-After`` header.
    """

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = now

    def try_acquire(self, now: float, tokens: float = 1.0) -> float:
        """Take ``tokens`` if available; returns 0.0 on success, else the
        seconds to wait before this acquire would succeed."""
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now
        if self.tokens >= tokens:
            self.tokens -= tokens
            return 0.0
        return (tokens - self.tokens) / self.rate


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission check.

    ``admitted`` requests hold a slot that the caller must return via
    :meth:`AdmissionController.release`; rejected requests carry the
    HTTP status to answer with and a ``Retry-After`` hint in seconds.
    """

    admitted: bool
    status: int = 200
    retry_after: float = 0.0
    reason: str = ""


_ADMIT = AdmissionDecision(True)


class AdmissionController:
    """Slot accounting + watermark shedding + per-client rate limits.

    Parameters
    ----------
    capacities:
        Max in-flight requests per class, e.g. ``{"predict": 64,
        "ingest": 32, "background": 2}``.  Classes not listed are
        unlimited.
    high_watermark / low_watermark:
        Total-depth hysteresis band for shedding mode (see module
        docstring).  ``high_watermark=0`` disables watermark shedding.
    client_rate / client_burst:
        Token-bucket refill rate and capacity per client id;
        ``client_rate=0`` disables rate limiting.
    retry_after:
        Baseline ``Retry-After`` seconds for shed responses (rate-limit
        responses report the exact bucket wait instead).
    max_clients:
        LRU bound on the per-client bucket table.
    clock:
        Monotonic time source (injectable for tests).
    metrics:
        Optional :class:`~repro.serve.metrics.MetricsRegistry`; shed /
        rate-limit counters and depth gauges are maintained when given.
    """

    def __init__(
        self,
        capacities: dict[str, int] | None = None,
        *,
        high_watermark: int = 0,
        low_watermark: int = 0,
        client_rate: float = 0.0,
        client_burst: float = 10.0,
        retry_after: float = 1.0,
        max_clients: int = 4096,
        clock: Callable[[], float] = time.monotonic,
        metrics=None,
    ):
        if high_watermark and low_watermark >= high_watermark:
            raise ValueError(
                f"low_watermark ({low_watermark}) must be below "
                f"high_watermark ({high_watermark})"
            )
        if client_rate < 0:
            raise ValueError(f"client_rate must be >= 0, got {client_rate}")
        self.capacities = dict(capacities or {})
        for name, cap in self.capacities.items():
            if cap < 1:
                raise ValueError(f"capacity for {name!r} must be >= 1, got {cap}")
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.client_rate = client_rate
        self.client_burst = client_burst
        self.retry_after = retry_after
        self.max_clients = max_clients
        self.clock = clock
        self.metrics = metrics
        self._instruments = (
            InstrumentMemo(metrics) if metrics is not None else None
        )
        # Per-class depth gauges, made on the first depth change.
        self._depth_gauges: dict[str, Gauge] = {}
        self.inflight: dict[str, int] = {name: 0 for name in REQUEST_CLASSES}
        self._depth = 0
        self.shedding = False
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self.shed = 0
        self.rate_limited = 0
        self.admitted = 0

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def try_acquire(
        self, request_class: str, client_id: str | None = None
    ) -> AdmissionDecision:
        """Admit or reject one request of ``request_class``.

        Checks run cheapest-first: rate limit, own-class capacity, then
        the watermark.  On admission the class's in-flight count is
        incremented; the caller owns a :meth:`release`.
        """
        if request_class not in self.inflight:
            self.inflight[request_class] = 0

        if client_id is not None and self.client_rate > 0:
            wait = self._bucket(client_id).try_acquire(self.clock())
            if wait > 0.0:
                self.rate_limited += 1
                self._count("serve_rate_limited_total")
                return AdmissionDecision(
                    False,
                    status=429,
                    retry_after=math.ceil(wait * 1000.0) / 1000.0,
                    reason=f"client {client_id!r} over rate limit",
                )

        capacity = self.capacities.get(request_class)
        if capacity is not None and self.inflight[request_class] >= capacity:
            return self._shed(
                request_class,
                f"{request_class} queue full ({capacity} in flight)",
            )

        if self.high_watermark:
            depth = self.depth()
            if self.shedding and depth <= self.low_watermark:
                self.shedding = False
            if not self.shedding and depth >= self.high_watermark:
                self.shedding = True
            if self.shedding and request_class != REQUEST_CLASSES[0]:
                return self._shed(
                    request_class,
                    f"shedding above high watermark "
                    f"({depth}/{self.high_watermark} in flight)",
                )

        self.inflight[request_class] += 1
        self._depth += 1
        self.admitted += 1
        self._gauge_depth(request_class)
        return _ADMIT

    def release(self, request_class: str) -> None:
        """Return the slot held by an admitted request."""
        count = self.inflight.get(request_class, 0)
        if count <= 0:
            raise RuntimeError(f"release without acquire for {request_class!r}")
        self.inflight[request_class] = count - 1
        self._depth -= 1
        if (
            self.shedding
            and self.high_watermark
            and self._depth <= self.low_watermark
        ):
            self.shedding = False
        self._gauge_depth(request_class)

    def depth(self) -> int:
        """Total in-flight requests across every class."""
        return self._depth

    def stats(self) -> dict[str, float]:
        return {
            "depth": self.depth(),
            "shedding": self.shedding,
            "admitted": self.admitted,
            "shed": self.shed,
            "rate_limited": self.rate_limited,
            "clients": len(self._buckets),
            **{f"inflight_{k}": v for k, v in self.inflight.items()},
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _bucket(self, client_id: str) -> TokenBucket:
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(self.client_rate, self.client_burst, self.clock())
            self._buckets[client_id] = bucket
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(client_id)
        return bucket

    def _shed(self, request_class: str, reason: str) -> AdmissionDecision:
        self.shed += 1
        self._count("serve_shed_total")
        self._count(f"serve_shed_total_{request_class}")
        return AdmissionDecision(
            False, status=503, retry_after=self.retry_after, reason=reason
        )

    def _count(self, name: str) -> None:
        if self._instruments is not None:
            self._instruments.counter(name).inc()

    def _gauge_depth(self, request_class: str) -> None:
        """Publish the total depth and ``request_class``'s in-flight count.

        Only the class that changed is set.  Every class's gauge is made
        on the first call, and a class that appears later gets its gauge
        on the next call, so each always reads its class's count.
        """
        instruments = self._instruments
        if instruments is None:
            return
        gauges = self._depth_gauges
        if len(gauges) != len(self.inflight):
            for name, count in self.inflight.items():
                if name not in gauges:
                    gauges[name] = instruments.gauge(f"serve_queue_depth_{name}")
                    gauges[name].set(count)
        instruments.gauge(
            "serve_queue_depth", help="in-flight requests, all classes"
        ).set(self._depth)
        gauges[request_class].set(self.inflight[request_class])

    def __repr__(self) -> str:
        return (
            f"AdmissionController(depth={self.depth()}, "
            f"shedding={self.shedding}, shed={self.shed})"
        )
