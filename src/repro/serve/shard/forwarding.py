"""Per-shard forwarding: bounded priority queues + connection pumps.

The router must never let one slow or dead shard absorb unbounded
memory or drag every other shard's traffic down.  Each shard gets:

* a :class:`ForwardQueue` — a bounded priority queue: predicts outrank
  ingests outrank background scatter work; at capacity a
  higher-priority arrival **evicts** the newest lowest-priority queued
  job (which fails fast with a shed) instead of being refused.  The
  bound only isolates one slow shard; load shedding is the router's
  admission controller's job (per-class slots, the total-depth
  watermark, per-client rate limits).
* a :class:`ShardForwarder` — a small pool of pump tasks, each owning
  one keep-alive HTTP connection to the worker, draining the queue in
  priority order.  Transport failures reconnect and retry once for
  idempotent predict-class jobs; ingest jobs fail straight back to the
  caller (a blind retry could double-apply fixes).

Every job resolves: forwarded, evicted, shed, failed on transport, or
cancelled at shutdown.  Nothing is silently dropped.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field

from ..httpclient import HttpClient

__all__ = [
    "FORWARD_PRIORITIES",
    "ForwardJob",
    "ForwardQueue",
    "QueueFullError",
    "ShardForwarder",
    "ShardTransportError",
]

#: job priorities, lower number = served first
FORWARD_PRIORITIES = {"predict": 0, "ingest": 1, "background": 2}


class QueueFullError(Exception):
    """The shard's forwarding queue refused the job (shed/evicted)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class ShardTransportError(Exception):
    """The worker connection failed and the job could not be retried."""


@dataclass
class ForwardJob:
    priority: int
    method: str
    path: str
    body: bytes
    headers: dict[str, str] | None = None
    future: asyncio.Future = field(default_factory=lambda: asyncio.get_event_loop().create_future())

    @property
    def retryable(self) -> bool:
        """Only predict-class jobs are safe to replay after a transport
        failure — re-sending an ingest could double-apply fixes."""
        return self.priority == FORWARD_PRIORITIES["predict"]


class ForwardQueue:
    """Bounded priority queue that evicts the lowest priority at capacity."""

    def __init__(self, max_depth: int = 128):
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self._entries: list[tuple[int, int, ForwardJob]] = []
        self._seq = itertools.count()
        self._available = asyncio.Event()
        self._closed = False
        self.stats = {"offered": 0, "shed_full": 0, "evicted": 0}

    def depth(self) -> int:
        return len(self._entries)

    def offer(self, job: ForwardJob) -> None:
        """Enqueue ``job`` or raise :class:`QueueFullError`.

        An eviction fails the victim's future with ``QueueFullError``
        ("evicted"), so its waiter gets an immediate shed response
        rather than a timeout.
        """
        if self._closed:
            raise QueueFullError("queue closed")
        self.stats["offered"] += 1
        if len(self._entries) >= self.max_depth:
            victim_index = self._worst_index()
            victim = (
                self._entries[victim_index][2]
                if victim_index is not None
                else None
            )
            if victim is None or victim.priority <= job.priority:
                self.stats["shed_full"] += 1
                raise QueueFullError("queue full")
            del self._entries[victim_index]
            self.stats["evicted"] += 1
            if not victim.future.done():
                victim.future.set_exception(QueueFullError("evicted"))
        self._entries.append((job.priority, next(self._seq), job))
        self._entries.sort(key=lambda entry: entry[:2])
        self._available.set()

    def _worst_index(self) -> int | None:
        """The newest lowest-priority live entry (the eviction victim)."""
        worst: tuple[int, int] | None = None
        worst_index: int | None = None
        for i, (priority, seq, job) in enumerate(self._entries):
            if job.future.done():
                continue
            key = (priority, seq)
            if worst is None or key > worst:
                worst, worst_index = key, i
        return worst_index

    async def take(self) -> ForwardJob:
        """Wait for and remove the highest-priority oldest live job."""
        while True:
            while not self._entries:
                if self._closed:
                    raise asyncio.CancelledError
                self._available.clear()
                await self._available.wait()
            _, _, job = self._entries.pop(0)
            if job.future.done():
                continue  # evicted or abandoned while queued
            return job

    def close(self) -> None:
        """Refuse new work and fail everything still queued."""
        self._closed = True
        for _, _, job in self._entries:
            if not job.future.done():
                job.future.set_exception(QueueFullError("queue closed"))
        self._entries.clear()
        self._available.set()


class ShardForwarder:
    """Pump a shard's :class:`ForwardQueue` over pooled connections."""

    def __init__(
        self,
        shard_id: int,
        host: str,
        port: int,
        *,
        queue: ForwardQueue | None = None,
        concurrency: int = 4,
        metrics=None,
    ):
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.queue = queue or ForwardQueue()
        self.concurrency = concurrency
        self.metrics = metrics
        self._pumps: list[asyncio.Task] = []
        self._stopped = False

    def start(self) -> None:
        if self._pumps:
            raise RuntimeError(f"forwarder for shard {self.shard_id} already started")
        self._pumps = [
            asyncio.ensure_future(self._pump())
            for _ in range(self.concurrency)
        ]

    async def submit(
        self,
        method: str,
        path: str,
        body: bytes,
        *,
        priority: str = "predict",
        headers: dict[str, str] | None = None,
        timeout: float | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """Forward one request; returns ``(status, headers, body)``.

        Raises :class:`QueueFullError` when the shard's queue sheds the
        job and :class:`ShardTransportError` (or ``TimeoutError``) when
        the worker cannot be reached.
        """
        if self._stopped:
            raise ShardTransportError(f"shard {self.shard_id} forwarder stopped")
        job = ForwardJob(
            priority=FORWARD_PRIORITIES[priority],
            method=method,
            path=path,
            body=body,
            headers=headers,
            future=asyncio.get_running_loop().create_future(),
        )
        self.queue.offer(job)
        self._count("router_forward_total")
        started = time.perf_counter()
        try:
            if timeout is not None:
                result = await asyncio.wait_for(
                    asyncio.shield(job.future), timeout
                )
            else:
                result = await job.future
        except (asyncio.TimeoutError, TimeoutError):
            # Stop a pump from wasting a connection turn on it later.
            if not job.future.done():
                job.future.cancel()
            self._count("router_forward_timeout_total")
            raise
        if self.metrics is not None:
            self.metrics.histogram("router_forward_seconds").observe(
                time.perf_counter() - started
            )
        return result

    async def _pump(self) -> None:
        client = HttpClient(self.host, self.port)
        try:
            while not self._stopped:
                try:
                    job = await self.queue.take()
                except asyncio.CancelledError:
                    return
                await self._run_job(client, job)
        finally:
            await client.close()

    async def _run_job(self, client: HttpClient, job: ForwardJob) -> None:
        attempts = 2 if job.retryable else 1
        for attempt in range(attempts):
            try:
                result = await client.request_raw(
                    job.method, job.path, job.body, headers=job.headers
                )
            except (
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
                EOFError,
            ) as exc:
                await client.close()
                self._count("router_forward_transport_errors_total")
                if attempt + 1 < attempts and not job.future.done():
                    self._count("router_forward_retries_total")
                    continue
                if not job.future.done():
                    job.future.set_exception(
                        ShardTransportError(
                            f"shard {self.shard_id} "
                            f"({self.host}:{self.port}): {exc!r}"
                        )
                    )
                return
            if not job.future.done():
                job.future.set_result(result)
            return

    async def stop(self) -> None:
        """Fail queued jobs, cancel pumps, close connections."""
        self._stopped = True
        self.queue.close()
        for pump in self._pumps:
            pump.cancel()
        await asyncio.gather(*self._pumps, return_exceptions=True)
        self._pumps.clear()

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()
            self.metrics.counter(f"{name}_shard_{self.shard_id}").inc()
