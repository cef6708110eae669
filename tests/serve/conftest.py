"""Shared serve-suite fixtures: a small fitted commuter fleet.

The commuter history mirrors ``examples/quickstart.py`` — a daily
east-then-north route with mild GPS noise — small enough to fit in
milliseconds but rich enough that FQP/BQP answer most queries.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import FleetPredictionModel, HPMConfig, Trajectory

PERIOD = 24


def commuter_base(period: int = PERIOD) -> np.ndarray:
    base = np.zeros((period, 2))
    for t in range(period):
        if t < period // 2:
            base[t] = [400.0 * t, 0.0]
        else:
            base[t] = [400.0 * (period // 2), 400.0 * (t - period // 2)]
    return base


def commuter_history(num_days: int = 40, period: int = PERIOD, seed: int = 7) -> Trajectory:
    rng = np.random.default_rng(seed)
    base = commuter_base(period)
    days = [base + rng.normal(0, 20.0, base.shape) for _ in range(num_days)]
    return Trajectory(np.vstack(days))


@pytest.fixture(scope="session")
def history() -> Trajectory:
    return commuter_history()


@pytest.fixture(scope="session")
def hpm_config() -> HPMConfig:
    return HPMConfig(
        period=PERIOD,
        eps=60.0,
        min_pts=4,
        min_confidence=0.3,
        distant_threshold=8,
        recent_window=4,
    )


@pytest.fixture
def fleet(history, hpm_config) -> FleetPredictionModel:
    fleet = FleetPredictionModel(hpm_config)
    fleet.fit({"default": history})
    return fleet


def gate_execute(service):
    """Hold every model pass of ``service`` until ``release`` is set.

    Returns ``(started, release)``; ``started`` is set once a pass is on
    the executor, so a test can queue work behind it deterministically.
    """
    execute = service.batcher.execute
    started, release = threading.Event(), threading.Event()

    def gated(object_id, requests):
        started.set()
        assert release.wait(timeout=10.0), "gate never released"
        return execute(object_id, requests)

    service.batcher.execute = gated
    return started, release


class LockHolder:
    """A thread holding one object's lock, standing in for a refit commit.

    While it holds the lock, a predict for that object cannot run inline
    on the event loop and goes through the batcher to the executor, as
    it does in production.  :meth:`release` is idempotent.
    """

    def __init__(self, service, object_id="default"):
        self._lock = service.fleet.object_lock(object_id)
        self._held = threading.Event()
        self._release = threading.Event()
        self._thread = threading.Thread(target=self._hold, daemon=True)
        self._thread.start()
        assert self._held.wait(timeout=10.0), "lock never taken"

    def _hold(self):
        with self._lock:
            self._held.set()
            self._release.wait(timeout=10.0)

    def release(self):
        self._release.set()
        self._thread.join()


async def wait_submitted(service, count):
    """Wait until ``count`` requests have been handed to the batcher."""

    async def submitted():
        while service.batcher.submitted < count:
            await asyncio.sleep(0.001)

    await asyncio.wait_for(submitted(), 10.0)


async def start_gated_batch(service, object_id, recent, query_time):
    """Keep a gated batch running for ``object_id`` on the executor.

    A :class:`LockHolder` sends the predict to the batcher; once its pass
    is on the executor the holder lets go, so the object's lock is free
    while the batch stays running until ``release`` is set.  Later
    predicts for the object queue behind it.  Returns ``(task, release)``.
    """
    started, release = gate_execute(service)
    holder = LockHolder(service, object_id)
    task = asyncio.ensure_future(service.predict(object_id, recent, query_time))
    loop = asyncio.get_running_loop()
    try:
        assert await loop.run_in_executor(None, started.wait, 10.0)
    finally:
        holder.release()
    return task, release
