"""Background refit scheduling: coalescing, retry with backoff, drain.

The ingest path used to spawn one fire-and-forget ``asyncio.Task`` per
object the moment its tracker crossed ``update_after``.  Under an ingest
storm that meant an unbounded number of concurrent whole-model refits
competing with the predict path for executor threads — and a refit that
raised left its exception in an unawaited task ("Task exception was
never retrieved") with the tracker's pending fixes stranded forever.

:class:`RefitScheduler` replaces that dict of tasks with an explicit
lifecycle per object::

    idle -> queued -> running -+-> idle            (success)
              ^                |
              |   (backoff)    v
              +---- waiting <- failed              (attempt < max_retries)
                               |
                               +-> dead-letter -> idle   (attempts exhausted)

* **Coalescing** — at most one queued entry per object.  A refit request
  arriving while that object's refit is *running* sets a dirty flag so
  one more run happens afterwards (new fixes arrived mid-flush); a
  request while it is queued or in backoff is a no-op.
* **Bounded concurrency** — at most ``max_concurrency`` refits run at
  once; everything else waits in FIFO order.  When an
  :class:`~repro.serve.admission.AdmissionController` is attached, each
  dispatch also needs a ``background`` slot, so refits yield to
  foreground traffic during watermark shedding.
* **Retry with jittered exponential backoff** — a failed refit re-queues
  after ``base_delay * 2**attempt`` (capped at ``max_delay``) times a
  deterministic jitter factor drawn from a seeded RNG.  After
  ``max_retries`` failures the object lands in the dead-letter counter
  (``serve_refit_dead_letter_total``) and goes idle; the *next* ingest
  trigger starts a fresh attempt cycle.
* **Clean drain** — :meth:`drain` waits until the scheduler is truly
  quiescent: no running task, no queued entry, no backoff timer, and no
  dirty re-run — looping as long as new work keeps arriving, which
  closes the old race where an ingest during drain scheduled a task
  nobody awaited.

Every task created here has a done-callback that retrieves its result,
so no exception can ever go unobserved; failures are counted, logged
with their traceback through this module's logger, and retried.
"""

from __future__ import annotations

import asyncio
import logging
import random
import time
from typing import Awaitable, Callable

__all__ = ["RefitScheduler"]

_log = logging.getLogger(__name__)

# lifecycle states (kept as strings for cheap introspection in tests)
_QUEUED = "queued"
_RUNNING = "running"
_WAITING = "waiting"  # backoff timer pending


class _Entry:
    __slots__ = ("state", "attempts", "dirty", "payload", "timer")

    def __init__(self, payload) -> None:
        self.state = _QUEUED
        self.attempts = 0
        self.dirty = False
        self.payload = payload
        self.timer: asyncio.TimerHandle | None = None


class RefitScheduler:
    """Run per-object refits with bounded concurrency and retries.

    Parameters
    ----------
    execute:
        ``async execute(object_id, payload) -> None`` — performs one
        refit (typically ``run_in_executor(None, tracker.flush_updates)``
        plus bookkeeping).  An exception marks the attempt failed.
    max_concurrency:
        Refits running at once.
    max_retries:
        Failed attempts before an object dead-letters (the first run
        plus ``max_retries - 1`` retries).
    base_delay / max_delay:
        Exponential backoff bounds in seconds.
    jitter:
        Backoff is multiplied by ``1 + jitter * rng.random()``; 0
        disables jitter (deterministic tests).
    seed:
        Seeds the private jitter RNG (reproducible fault drills).
    admission:
        Optional :class:`~repro.serve.admission.AdmissionController`;
        each running refit holds a ``background`` slot and dispatch is
        deferred while the controller refuses one.
    metrics:
        Optional registry for refit counters/gauges.
    """

    def __init__(
        self,
        execute: Callable[[str, object], Awaitable[None]],
        *,
        max_concurrency: int = 2,
        max_retries: int = 5,
        base_delay: float = 0.05,
        max_delay: float = 5.0,
        jitter: float = 0.25,
        seed: int = 0,
        admission=None,
        metrics=None,
    ):
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        if base_delay < 0 or max_delay < base_delay:
            raise ValueError(
                f"need 0 <= base_delay <= max_delay, got "
                f"{base_delay}/{max_delay}"
            )
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.execute = execute
        self.max_concurrency = max_concurrency
        self.max_retries = max_retries
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self.admission = admission
        self.metrics = metrics
        self._rng = random.Random(seed)
        self._entries: dict[str, _Entry] = {}
        self._queue: list[str] = []
        self._tasks: dict[str, asyncio.Task] = {}
        self._deferred: asyncio.TimerHandle | None = None
        self._changed: asyncio.Event = asyncio.Event()
        self.dead_letters: dict[str, int] = {}
        self.completed = 0
        self.retries = 0
        self.failures = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def request(self, object_id: str, payload) -> bool:
        """Ask for a refit of ``object_id``; returns True if newly scheduled.

        ``payload`` is handed to ``execute`` (the serve layer passes the
        object's tracker).  Coalescing rules are in the module docstring.
        """
        entry = self._entries.get(object_id)
        if entry is not None:
            if entry.state == _RUNNING and not entry.dirty:
                # New data arrived mid-refit: run once more afterwards.
                entry.dirty = True
                entry.payload = payload
                return True
            return False
        entry = _Entry(payload)
        self._entries[object_id] = entry
        self._queue.append(object_id)
        self._count("serve_refits_scheduled_total")
        self._maybe_dispatch()
        return True

    def _maybe_dispatch(self) -> None:
        while self._queue and len(self._tasks) < self.max_concurrency:
            if self.admission is not None:
                decision = self.admission.try_acquire("background")
                if not decision.admitted:
                    # Foreground pressure: try again shortly instead of
                    # spinning; drain() keeps waiting meanwhile.
                    self._defer_dispatch(max(decision.retry_after, 0.05))
                    return
            object_id = self._queue.pop(0)
            entry = self._entries[object_id]
            entry.state = _RUNNING
            task = asyncio.get_running_loop().create_task(
                self._run(object_id, entry),
                name=f"refit:{object_id}",
            )
            self._tasks[object_id] = task
            # Always retrieve the result so no exception is ever dropped.
            task.add_done_callback(self._task_done(object_id))
        self._gauges()

    def _defer_dispatch(self, delay: float) -> None:
        if self._deferred is not None:
            return
        loop = asyncio.get_running_loop()

        def retry() -> None:
            self._deferred = None
            self._maybe_dispatch()
            self._wake()

        self._deferred = loop.call_later(delay, retry)

    def _task_done(self, object_id: str):
        def callback(task: asyncio.Task) -> None:
            self._tasks.pop(object_id, None)
            if self.admission is not None:
                self.admission.release("background")
            if not task.cancelled() and task.exception() is not None:
                # _run handles its own failures; anything surfacing here
                # is a scheduler bug — count it, never lose it silently.
                self._count("serve_refit_unexpected_errors_total")
                self._entries.pop(object_id, None)
            self._maybe_dispatch()
            self._wake()

        return callback

    async def _run(self, object_id: str, entry: _Entry) -> None:
        started = time.perf_counter()
        try:
            await self.execute(object_id, entry.payload)
        except asyncio.CancelledError:
            self._entries.pop(object_id, None)
            raise
        except Exception:
            self.failures += 1
            entry.attempts += 1
            self._count("serve_refit_errors_total")
            dead = entry.attempts >= self.max_retries
            _log.log(
                logging.ERROR if dead else logging.WARNING,
                "refit of object %r failed on attempt %d of %d; %s",
                object_id,
                entry.attempts,
                self.max_retries,
                "dead-lettered" if dead else "will retry",
                exc_info=True,
                extra={
                    "object_id": object_id,
                    "attempt": entry.attempts,
                    "dead_lettered": dead,
                },
            )
            if dead:
                self._dead_letter(object_id, entry)
            else:
                self._schedule_retry(object_id, entry)
            return
        self.completed += 1
        self._count("serve_refits_total")
        self._observe_seconds(time.perf_counter() - started)
        if entry.dirty:
            # Fixes arrived while we flushed: start a fresh cycle.
            entry.dirty = False
            entry.attempts = 0
            entry.state = _QUEUED
            self._queue.append(object_id)
        else:
            self._entries.pop(object_id, None)

    def _schedule_retry(self, object_id: str, entry: _Entry) -> None:
        delay = min(
            self.max_delay, self.base_delay * (2 ** (entry.attempts - 1))
        )
        delay *= 1.0 + self.jitter * self._rng.random()
        entry.state = _WAITING
        self.retries += 1
        self._count("serve_refit_retries_total")
        loop = asyncio.get_running_loop()

        def requeue() -> None:
            entry.timer = None
            if self._entries.get(object_id) is entry:
                entry.state = _QUEUED
                self._queue.append(object_id)
                self._maybe_dispatch()
                self._wake()

        entry.timer = loop.call_later(delay, requeue)

    def _dead_letter(self, object_id: str, entry: _Entry) -> None:
        self.dead_letters[object_id] = self.dead_letters.get(object_id, 0) + 1
        self._count("serve_refit_dead_letter_total")
        self._entries.pop(object_id, None)
        self._gauges()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def quiescent(self) -> bool:
        """True when nothing is running, queued, or waiting on backoff."""
        return not self._entries and not self._tasks and self._deferred is None

    async def drain(self) -> None:
        """Wait until the scheduler is quiescent (shutdown/tests).

        Loops as long as refits keep completing, retrying, or being
        scheduled — an ingest racing with drain extends the wait instead
        of leaking an unawaited task.
        """
        while not self.quiescent:
            self._changed.clear()
            self._maybe_dispatch()
            if self.quiescent:
                break
            await self._changed.wait()

    def cancel(self) -> None:
        """Drop queued/waiting work and cancel running refits (hard stop)."""
        for entry in self._entries.values():
            if entry.timer is not None:
                entry.timer.cancel()
                entry.timer = None
        if self._deferred is not None:
            self._deferred.cancel()
            self._deferred = None
        self._entries.clear()
        self._queue.clear()
        for task in self._tasks.values():
            task.cancel()
        self._wake()

    def stats(self) -> dict[str, float]:
        return {
            "running": len(self._tasks),
            "queued": len(self._queue),
            "tracked": len(self._entries),
            "completed": self.completed,
            "retries": self.retries,
            "failures": self.failures,
            "dead_letters": sum(self.dead_letters.values()),
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _wake(self) -> None:
        self._changed.set()

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _observe_seconds(self, seconds: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram("serve_refit_seconds").observe(seconds)

    def _gauges(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "serve_refit_queue_depth", help="refits queued or running"
            ).set(len(self._entries))

    def __repr__(self) -> str:
        return (
            f"RefitScheduler(running={len(self._tasks)}, "
            f"queued={len(self._queue)}, completed={self.completed})"
        )
