"""Online prediction: feed fixes as they arrive, query any time.

:class:`HybridPredictor` expects the caller to assemble the
recent-movement window per query; a live tracker instead *streams* fixes.
:class:`OnlineTracker` buffers the newest window per object, forwards
queries to a fitted model, and accumulates observed day fragments so the
model can be refreshed with :meth:`flush_updates` once enough new data
has arrived (the paper's "when a certain amount of new data is
accumulated" trigger, made explicit).

Concurrency contract
--------------------
Every public method serialises its state access on a reentrant lock, so
interleaved ``observe`` / ``predict`` / ``flush_updates`` calls from
multiple threads (or an asyncio server's executor) can never corrupt the
window or observe a half-refreshed model.  ``flush_updates`` runs the
heavy model refresh *outside* the lock (prepare/commit split — see
:meth:`HybridPredictionModel.prepare_update`), so predictions are only
blocked for the brief state swap.  When the wrapped model is shared
with a :class:`~repro.core.fleet.FleetPredictionModel`, pass
``lock=fleet.object_lock(object_id)`` so tracker and fleet serialise on
the *same* lock — otherwise each would guard the model independently
and writes could still interleave.
"""

from __future__ import annotations

import threading
from collections import deque

from ..trajectory.point import TimedPoint
from .model import HybridPredictionModel
from .prediction import Prediction
from .refit import StaleUpdateError

__all__ = ["OnlineTracker"]

_GAP_POLICIES = ("reject", "pad")

# How many times flush_updates re-prepares after losing a commit race to a
# concurrent writer before giving up (the caller's retry/backoff — e.g.
# the serve RefitScheduler — takes over; the claimed fixes are restored).
_FLUSH_CONFLICT_RETRIES = 3


class OnlineTracker:
    """Streaming front-end over a fitted :class:`HybridPredictionModel`.

    Parameters
    ----------
    model:
        A fitted model (its ``recent_window`` sets the buffer length).
    update_after:
        Number of buffered-but-unflushed fixes that makes
        :attr:`update_due` true; ``None`` disables the suggestion (the
        caller can still flush manually).
    lock:
        Reentrant lock guarding all tracker state *and* the model calls
        it makes.  Defaults to a private lock; pass the owning fleet's
        ``object_lock(object_id)`` when the model is shared (see the
        module docstring).
    gap_policy:
        What :meth:`flush_updates` does when the accumulated fixes are not
        contiguous with the model's history (the model's dense history
        assigns ``start_time + row`` to row ``row``, so silently appending
        gapped fixes would shift every later offset's phase).  ``"reject"``
        (default) raises a :class:`ValueError` naming the discontinuity;
        ``"pad"`` fills forward gaps by repeating the last known position.
        Fixes claiming timestamps the history already covers are always
        rejected.

    Each flush refits with the model's own policy: ``config.refit_mode``,
    and a full re-mine once ``config.refit_full_every`` delta refits ran.
    """

    def __init__(
        self,
        model: HybridPredictionModel,
        update_after: int | None = None,
        lock: threading.RLock | None = None,
        gap_policy: str = "reject",
    ):
        if not model.is_fitted:
            raise ValueError("OnlineTracker needs a fitted model")
        if update_after is not None and update_after < 1:
            raise ValueError(f"update_after must be >= 1, got {update_after}")
        if gap_policy not in _GAP_POLICIES:
            raise ValueError(
                f"gap_policy must be one of {_GAP_POLICIES}, got {gap_policy!r}"
            )
        self.model = model
        self.update_after = update_after
        self.gap_policy = gap_policy
        self._lock = lock if lock is not None else threading.RLock()
        self._window: deque[TimedPoint] = deque(
            maxlen=model.config.recent_window
        )
        self._pending: list[TimedPoint] = []

    # ------------------------------------------------------------------
    # streaming input
    # ------------------------------------------------------------------
    def observe(self, t: int, x: float, y: float) -> None:
        """Ingest one fix; timestamps must be strictly increasing."""
        with self._lock:
            if self._window and t <= self._window[-1].t:
                raise ValueError(
                    f"fix at t={t} is not after the last observed "
                    f"t={self._window[-1].t}"
                )
            sample = TimedPoint(t, float(x), float(y))
            self._window.append(sample)
            self._pending.append(sample)

    @property
    def current_time(self) -> int:
        """Timestamp of the newest fix."""
        with self._lock:
            if not self._window:
                raise ValueError("no fixes observed yet")
            return self._window[-1].t

    @property
    def window(self) -> list[TimedPoint]:
        """The buffered recent-movement window (oldest first)."""
        with self._lock:
            return list(self._window)

    @property
    def pending_count(self) -> int:
        """Fixes observed since the last :meth:`flush_updates`."""
        with self._lock:
            return len(self._pending)

    @property
    def update_due(self) -> bool:
        """Whether enough new data has accumulated to refresh the model."""
        with self._lock:
            return (
                self.update_after is not None
                and len(self._pending) >= self.update_after
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def predict(self, query_time: int, k: int | None = None) -> list[Prediction]:
        """Predictive query from the buffered window."""
        with self._lock:
            if not self._window:
                raise ValueError("no fixes observed yet")
            return self.model.predict(self.window, query_time, k)

    def predict_in(self, horizon: int, k: int | None = None) -> list[Prediction]:
        """Convenience: predict ``horizon`` ticks after the newest fix."""
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        return self.predict(self.current_time + horizon, k)

    # ------------------------------------------------------------------
    # model refresh
    # ------------------------------------------------------------------
    def flush_updates(self) -> int:
        """Feed the accumulated fixes into the model's dynamic-update path.

        Returns the number of fixes flushed (excluding any padding rows a
        ``"pad"`` gap policy synthesised).  The heavy refresh phases run
        *outside* the lock — :meth:`HybridPredictionModel.prepare_update`
        computes the new state against a snapshot while concurrent
        ``predict``/``observe`` calls proceed, and only the cheap
        :meth:`~HybridPredictionModel.commit_update` serialises.  On any
        failure the claimed fixes are restored to the pending buffer (in
        order, ahead of fixes observed meanwhile) so a retry flushes them
        again.
        """
        for attempt in range(_FLUSH_CONFLICT_RETRIES + 1):
            with self._lock:
                if not self._pending:
                    return 0
                batch = self._pending
                self._pending = []
                try:
                    positions = self._contiguous_positions(batch)
                except Exception:
                    self._pending = batch
                    raise
            try:
                staged = self.model.prepare_update(positions)
            except Exception:
                with self._lock:
                    self._pending = batch + self._pending
                raise
            with self._lock:
                try:
                    self.model.commit_update(staged)
                except StaleUpdateError:
                    # A concurrent writer advanced the model between
                    # prepare and commit; put the fixes back and re-prepare
                    # against the new state.
                    self._pending = batch + self._pending
                    if attempt == _FLUSH_CONFLICT_RETRIES:
                        raise
                    continue
                except Exception:
                    self._pending = batch + self._pending
                    raise
                return len(batch)
        raise AssertionError("unreachable")  # pragma: no cover

    def _contiguous_positions(self, batch: list[TimedPoint]) -> list[list[float]]:
        """Position rows for ``batch``, enforcing the gap policy.

        The model's history is dense — row ``i`` carries timestamp
        ``start_time + i`` — so the flushed rows must continue exactly at
        ``history.end_time + 1``.  Must be called under the lock (reads
        the model's history head).
        """
        history = self.model.history_
        expected = history.end_time + 1
        if batch[0].t < expected:
            raise ValueError(
                f"fix at t={batch[0].t} overlaps the model history "
                f"(already covers up to t={history.end_time}); refusing to "
                "rewrite observed movements"
            )
        rows: list[list[float]] = []
        prev_t = expected - 1
        last = history.positions[-1]
        prev_xy = [float(last[0]), float(last[1])]
        for sample in batch:
            gap = sample.t - prev_t - 1
            if gap > 0:
                if self.gap_policy == "reject":
                    raise ValueError(
                        f"gap of {gap} missing fixes before t={sample.t} "
                        f"(expected t={prev_t + 1}); appending as-is would "
                        "shift the model's period phase — backfill the gap "
                        "or use gap_policy='pad'"
                    )
                rows.extend([prev_xy] * gap)
            prev_xy = [sample.x, sample.y]
            rows.append(prev_xy)
            prev_t = sample.t
        return rows

    def __repr__(self) -> str:
        return (
            f"OnlineTracker(window={len(self._window)}/"
            f"{self._window.maxlen}, pending={len(self._pending)})"
        )
