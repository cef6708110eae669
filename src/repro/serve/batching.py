"""Request batching: group-commit concurrent predict calls per key.

The serving layer answers a lone predict inline on the event loop and
hands a predict to the batcher only when it cannot: its object's lock
is held (a refit commit) or a batch for the object is already queued or
running (:meth:`RequestBatcher.idle` tells the two apart).  Those
requests pile up behind one another, and executing each as its own
executor job would pay the lock-acquire / thread-handoff cost per
request and re-walk shared per-object state.  The batcher runs them as
batches instead — one executor pass per batch, one lock acquisition,
one model context — without ever holding a request back to wait for
company (group commit, Nagle off):

* Each key has at most one executing batch.  A submit for an idle key
  starts a batch on the next event-loop iteration, so requests from the
  same tick still join it, and a lone request runs at once.
* Requests that arrive while a batch executes queue into the next
  batch, which starts the moment the running one finishes.  A queued
  batch holds at most ``max_batch`` distinct requests; beyond that the
  queue grows another batch.
* Identical requests inside a queued batch are deduplicated: they share
  a single computation and its result.  A request never joins a batch
  that is already executing.

The executed callable is synchronous (model passes are CPU work); it
runs on the event loop's default executor so the loop stays responsive.
An executor error fails only that batch's waiters; the key's next batch
still runs.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Hashable, Sequence

__all__ = ["RequestBatcher"]


class _Lane:
    """One key's work: queued batches and the task draining them."""

    __slots__ = ("queue", "task")

    def __init__(self) -> None:
        # Each batch maps request -> future; dicts keep arrival order
        # and dedupe twins.
        self.queue: deque[dict[Hashable, asyncio.Future]] = deque()
        self.task: asyncio.Task | None = None


class RequestBatcher:
    """Group-commit concurrent ``submit`` calls per key into batched passes.

    Parameters
    ----------
    execute:
        ``execute(key, requests) -> list[result]`` — synchronous, called
        with the batch's distinct requests in arrival order; must return
        one result per request.  Runs in the default executor.
    max_batch:
        Most distinct requests one batch holds.
    metrics:
        Optional :class:`~repro.serve.metrics.MetricsRegistry` for batch
        size / coalescing telemetry.
    """

    def __init__(
        self,
        execute: Callable[[Hashable, Sequence[Hashable]], Sequence[Any]],
        max_batch: int = 32,
        metrics=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.execute = execute
        self.max_batch = max_batch
        self.metrics = metrics
        self._lanes: dict[Hashable, _Lane] = {}
        self.submitted = 0
        self.coalesced = 0
        self.batches = 0

    async def submit(self, key: Hashable, request: Hashable) -> Any:
        """Queue ``request`` under ``key``; resolves with its result."""
        self.submitted += 1
        if self.metrics is not None:
            self.metrics.counter("serve_batch_submitted_total").inc()
        loop = asyncio.get_running_loop()
        lane = self._lanes.get(key)
        if lane is None:
            # The lane's task first runs on the next loop iteration, so
            # submits from this tick still join its first batch.
            lane = self._lanes[key] = _Lane()
            lane.task = loop.create_task(self._run_lane(key, lane))
        for batch in lane.queue:
            future = batch.get(request)
            if future is not None:
                # A twin request is already queued: share its result.
                self.coalesced += 1
                if self.metrics is not None:
                    self.metrics.counter("serve_batch_coalesced_total").inc()
                return await future
        if not lane.queue or len(lane.queue[-1]) >= self.max_batch:
            lane.queue.append({})
        future = lane.queue[-1][request] = loop.create_future()
        return await future

    def idle(self, key: Hashable) -> bool:
        """Whether ``key`` has no queued or executing batch."""
        return key not in self._lanes

    async def drain(self) -> None:
        """Wait until no key has queued or executing work."""
        while self._lanes:
            await asyncio.wait([lane.task for lane in self._lanes.values()])

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    async def _run_lane(self, key: Hashable, lane: _Lane) -> None:
        try:
            while lane.queue:
                await self._run(key, lane.queue.popleft())
        finally:
            del self._lanes[key]

    async def _run(
        self, key: Hashable, batch: dict[Hashable, asyncio.Future]
    ) -> None:
        requests = list(batch)
        self.batches += 1
        if self.metrics is not None:
            self.metrics.counter("serve_batches_total").inc()
            self.metrics.histogram(
                "serve_batch_size",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128),
            ).observe(len(requests))
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                None, self.execute, key, requests
            )
            if len(results) != len(requests):
                raise RuntimeError(
                    f"batch execute returned {len(results)} results "
                    f"for {len(requests)} requests"
                )
        except Exception as exc:  # propagate to every waiter
            for future in batch.values():
                if not future.done():
                    future.set_exception(exc)
            return
        for future, result in zip(batch.values(), results):
            if not future.done():
                future.set_result(result)
