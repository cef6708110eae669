"""Multi-object management: one HPM per moving object.

The paper's model is per-object ("an object's trajectory patterns"), but
any deployment — a taxi fleet, a herd, an airline — tracks many objects
at once.  :class:`FleetPredictionModel` manages a collection of
independent :class:`~repro.core.model.HybridPredictionModel` instances
behind one fit/update/predict interface keyed by object id, with shared
configuration, aggregate introspection, and a parallel offline-training
pipeline (``fit(histories, max_workers=N)``) that fans per-object fit
tasks out over a process pool.

Concurrency contract
--------------------
The fleet is safe for concurrent use from multiple threads (and from an
asyncio server dispatching model passes to an executor):

* the object registry (add/drop/lookup, length, membership, summaries)
  serialises on an internal registry lock; read paths snapshot under it,
  so a concurrent ``drop_object`` can never make ``summary()`` or
  iteration raise;
* every per-object operation — ``fit_object``, ``update_object``,
  ``predict``, ``predict_all`` — holds that object's reentrant lock.
  ``fit_object`` fits *and* installs under the lock, so two concurrent
  refits of the same object serialise and a staler model can never
  overwrite a fresher one; refits of different objects still run fully
  in parallel;
* :meth:`object_lock` exposes the per-object lock so collaborators that
  reach the model directly (e.g. an :class:`~repro.core.online.OnlineTracker`
  wrapping ``fleet[object_id]``) can serialise on the *same* lock.  It
  raises :class:`KeyError` for unregistered ids — lock entries exist
  exactly for registered objects, so misbehaving clients querying random
  ids cannot grow the lock table;
* batch training (:meth:`fit`) fits each object's model *outside* the
  locks — worker processes own private state — and installs the finished
  models atomically via :meth:`adopt_object`.

Operations on different objects run fully in parallel.
"""

from __future__ import annotations

import threading
import time
from pickle import dumps as _pickle_dumps, loads as _pickle_loads
from typing import Callable, Mapping, Sequence

import numpy as np

from ..motion.base import MotionFunctionFactory
from ..trajectory.point import TimedPoint
from ..trajectory.trajectory import Trajectory
from .config import HPMConfig
from .model import HybridPredictionModel
from .parallel import run_keyed_tasks
from .prediction import Prediction, default_motion_factory
from .scorekernel import prime_plan_queries
from .refit import StaleUpdateError

__all__ = ["FleetFitError", "FleetPredictionModel"]


class FleetFitError(RuntimeError):
    """One or more per-object fits failed.

    Raised by :meth:`FleetPredictionModel.fit` *after* every object that
    fitted cleanly has been installed — a single bad trajectory names
    itself here instead of poisoning the whole batch.  :attr:`failures`
    maps each failed object id to the exception its fit task raised.
    """

    def __init__(self, failures: Mapping[str, BaseException]):
        self.failures: dict[str, BaseException] = dict(failures)
        detail = "; ".join(
            f"{object_id!r}: {type(exc).__name__}: {exc}"
            for object_id, exc in sorted(self.failures.items())
        )
        super().__init__(
            f"fit failed for {len(self.failures)} object(s): {detail}"
        )


def _fit_fleet_object(
    config: HPMConfig,
    motion_factory: MotionFunctionFactory,
    trajectory: Trajectory,
) -> tuple[HybridPredictionModel, float]:
    """Fit one object's model; picklable task for the training pool.

    Returns the fitted model and its fit wall-time so the parent can
    feed the ``fleet_fit_seconds`` histogram even for process workers.
    """
    start = time.perf_counter()
    model = HybridPredictionModel(config, motion_factory)
    model.fit(trajectory)
    return model, time.perf_counter() - start


def _predict_one_pickled(
    model_blob: bytes, recent: list[TimedPoint], query_time: int
) -> Prediction:
    """Top-1 prediction on a serialised model; process-pool scoring task."""
    model: HybridPredictionModel = _pickle_loads(model_blob)
    return model.predict_one(recent, query_time)


class FleetPredictionModel:
    """A keyed collection of per-object Hybrid Prediction Models.

    Parameters
    ----------
    config:
        Shared configuration for every object's model.
    motion_factory:
        Shared fallback motion-function factory.  Must be picklable (the
        default is) for process-parallel training; pass
        ``executor="thread"`` to :meth:`fit` otherwise.
    """

    def __init__(
        self,
        config: HPMConfig | None = None,
        motion_factory: MotionFunctionFactory = default_motion_factory,
        **overrides,
    ):
        if config is None:
            config = HPMConfig(**overrides)
        elif overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        self.motion_factory = motion_factory
        self._models: dict[str, HybridPredictionModel] = {}
        self._registry_lock = threading.RLock()
        self._object_locks: dict[str, threading.RLock] = {}
        self._metrics = None

    # ------------------------------------------------------------------
    # concurrency / telemetry
    # ------------------------------------------------------------------
    def object_lock(self, object_id: str) -> threading.RLock:
        """The reentrant lock guarding ``object_id``'s model.

        Collaborators that touch ``fleet[object_id]`` outside the
        fleet's own methods must hold this lock (see the module
        docstring's concurrency contract).  Raises :class:`KeyError` for
        ids that are not registered: lock entries are created only when
        a model is installed, never minted for arbitrary lookups.
        """
        with self._registry_lock:
            if object_id not in self._models:
                raise KeyError(f"unknown object {object_id!r}")
            lock = self._object_locks.get(object_id)
            if lock is None:  # registered before locks existed (unpickled)
                lock = self._object_locks[object_id] = threading.RLock()
            return lock

    def _lock_for_install(self, object_id: str) -> threading.RLock:
        """Per-object lock for install paths, created if absent.

        Unlike :meth:`object_lock` this may run for a not-yet-registered
        id; callers must either install a model or discard the entry via
        :meth:`_discard_unused_lock` on failure.
        """
        with self._registry_lock:
            lock = self._object_locks.get(object_id)
            if lock is None:
                lock = self._object_locks[object_id] = threading.RLock()
            return lock

    def _discard_unused_lock(self, object_id: str) -> None:
        """Drop a lock entry minted for an install that never happened."""
        with self._registry_lock:
            if object_id not in self._models:
                self._object_locks.pop(object_id, None)

    def bind_metrics(self, registry) -> None:
        """Instrument every current and future per-object model.

        See :meth:`HybridPredictionModel.bind_metrics`; additionally
        counts fleet-level queries as ``fleet_predict_total`` and
        training as ``fleet_fit_objects_total`` / ``fleet_fit_seconds``.
        """
        with self._registry_lock:
            self._metrics = registry
            for model in self._models.values():
                model.bind_metrics(registry)

    def _observe_fit(
        self, seconds: float, phases: Mapping[str, float] | None = None
    ) -> None:
        if self._metrics is not None:
            self._metrics.counter("fleet_fit_objects_total").inc()
            self._metrics.histogram("fleet_fit_seconds").observe(seconds)
            # Phase breakdown for models fitted in detached workers (the
            # worker had no registry bound, so the model could not observe
            # its own fit_phase_seconds_* samples).
            if phases:
                for phase, phase_seconds in phases.items():
                    self._metrics.histogram(
                        f"fit_phase_seconds_{phase}"
                    ).observe(phase_seconds)

    def fit_phase_totals(self) -> dict[str, float]:
        """Summed per-phase fit seconds across all tracked models.

        Aggregates :attr:`HybridPredictionModel.fit_phase_seconds_`
        (cluster / mine / index) over the fleet; objects restored from
        pre-phase-timing snapshots contribute nothing.
        """
        totals: dict[str, float] = {}
        with self._registry_lock:
            models = list(self._models.values())
        for model in models:
            for phase, seconds in model.fit_phase_seconds_.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return totals

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._registry_lock:
            return len(self._models)

    def __contains__(self, object_id: str) -> bool:
        with self._registry_lock:
            return object_id in self._models

    def object_ids(self) -> list[str]:
        """Tracked object ids, sorted."""
        with self._registry_lock:
            return sorted(self._models)

    def __getitem__(self, object_id: str) -> HybridPredictionModel:
        with self._registry_lock:
            try:
                return self._models[object_id]
            except KeyError:
                raise KeyError(f"unknown object {object_id!r}") from None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(
        self,
        histories: Mapping[str, Trajectory],
        max_workers: int | None = None,
        executor: str = "process",
        progress: Callable[[str, int, int], None] | None = None,
    ) -> "FleetPredictionModel":
        """Fit (or refit) one model per object history.

        With ``max_workers`` > 1 the per-object fit tasks fan out over a
        ``concurrent.futures`` pool: ``executor="process"`` (default)
        sidesteps the GIL for the pure-Python mining work and requires
        the config/trajectories/fitted models to be picklable (they
        are); ``executor="thread"`` is the fallback for platforms
        without cheap fork or for unpicklable motion factories;
        ``executor="serial"`` forces the inline path.  Results are
        deterministic and identical to a serial fit regardless of mode:
        every object's model depends only on its own ``(config,
        trajectory)`` pair, and installs happen in ``histories`` order.

        Failures are isolated per object: every history that fits
        cleanly is installed via :meth:`adopt_object`, then a
        :class:`FleetFitError` naming the bad objects is raised if there
        were any.  ``progress`` (if given) is called as
        ``progress(object_id, completed, total)`` after each fit task
        settles.
        """
        if not histories:
            raise ValueError("no object histories supplied")
        jobs = [
            (object_id, (self.config, self.motion_factory, trajectory))
            for object_id, trajectory in histories.items()
        ]
        results, failures = run_keyed_tasks(
            _fit_fleet_object,
            jobs,
            max_workers=max_workers,
            executor=executor,
            progress=progress,
        )
        for object_id, (model, seconds) in results.items():
            self.adopt_object(object_id, model)
            self._observe_fit(seconds, model.fit_phase_seconds_)
        if failures:
            raise FleetFitError(failures)
        return self

    def fit_object(self, object_id: str, trajectory: Trajectory) -> HybridPredictionModel:
        """Fit (or refit) a single object's model and return it.

        The fit runs under the object's lock, so concurrent refits of
        the *same* object serialise — the model installed last is the
        one whose fit ran last, never a staler one that merely finished
        later.  Different objects still fit fully in parallel.
        """
        lock = self._lock_for_install(object_id)
        with lock:
            model = HybridPredictionModel(self.config, self.motion_factory)
            if self._metrics is not None:
                model.bind_metrics(self._metrics)
            start = time.perf_counter()
            try:
                model.fit(trajectory)
            except BaseException:
                self._discard_unused_lock(object_id)
                raise
            self._install(object_id, model, lock)
            self._observe_fit(time.perf_counter() - start)
        return model

    def adopt_object(
        self, object_id: str, model: HybridPredictionModel
    ) -> HybridPredictionModel:
        """Install an externally fitted model (e.g. loaded from disk)."""
        if not model.is_fitted:
            raise ValueError(f"cannot adopt unfitted model for {object_id!r}")
        if self._metrics is not None:
            model.bind_metrics(self._metrics)
        lock = self._lock_for_install(object_id)
        with lock:
            self._install(object_id, model, lock)
        return model

    def _install(
        self, object_id: str, model: HybridPredictionModel, lock: threading.RLock
    ) -> None:
        """Register a fitted model, re-binding its lock entry.

        ``setdefault`` restores the entry if a concurrent ``drop_object``
        removed it between lock acquisition and install, preserving the
        invariant that every registered object has a lock.
        """
        with self._registry_lock:
            self._models[object_id] = model
            self._object_locks.setdefault(object_id, lock)

    def update_object(
        self,
        object_id: str,
        new_positions: np.ndarray | Sequence[Sequence[float]],
        refit: str | None = None,
    ) -> HybridPredictionModel:
        """Stream new movements into one object's model.

        The heavy refresh phases run outside the object lock (concurrent
        ``predict`` calls against the same object proceed meanwhile); only
        the final state swap serialises.  If another writer lands between
        prepare and commit the refresh is re-prepared against the new
        state, falling back to a fully-locked update after repeated
        conflicts.  ``refit`` overrides the model's configured refit mode
        (``"delta"``/``"full"``; ``None`` = model default).
        """
        for _attempt in range(3):
            with self.object_lock(object_id):
                model = self[object_id]
            staged = model.prepare_update(new_positions, refit=refit)
            with self.object_lock(object_id):
                if self[object_id] is not model:
                    continue  # model swapped (fit_object/adopt) — redo
                try:
                    model.commit_update(staged)
                    return model
                except StaleUpdateError:
                    continue
        with self.object_lock(object_id):
            model = self[object_id]
            model.update(new_positions, refit=refit)
            return model

    def drop_object(self, object_id: str) -> None:
        """Stop tracking an object."""
        with self._registry_lock:
            if object_id not in self._models:
                raise KeyError(f"unknown object {object_id!r}")
            del self._models[object_id]
            self._object_locks.pop(object_id, None)

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict(
        self,
        object_id: str,
        recent: Sequence[TimedPoint],
        query_time: int,
        k: int | None = None,
    ) -> list[Prediction]:
        """Predictive query against one object's model."""
        with self.object_lock(object_id):
            predictions = self[object_id].predict(recent, query_time, k)
        if self._metrics is not None:
            self._metrics.counter("fleet_predict_total").inc()
        return predictions

    def predict_trajectory(
        self,
        object_id: str,
        recent: Sequence[TimedPoint],
        t_from: int,
        t_to: int,
        step: int = 1,
    ) -> list[tuple[int, Prediction]]:
        """Top-1 trajectory sweep against one object's model.

        All timestamps share one prepared query plan (see
        :meth:`HybridPredictionModel.prepare`), so the per-window work is
        paid once per sweep rather than once per timestamp.  Counts one
        ``fleet_predict_total`` per answered timestamp.
        """
        with self.object_lock(object_id):
            results = self[object_id].predict_trajectory(
                recent, t_from, t_to, step
            )
        if self._metrics is not None:
            self._metrics.counter("fleet_predict_total").inc(len(results))
        return results

    def predict_all(
        self,
        recents: Mapping[str, Sequence[TimedPoint]],
        query_time: int,
        max_workers: int | None = None,
        executor: str = "thread",
    ) -> dict[str, Prediction]:
        """Top-1 prediction for every supplied object at one query time.

        Objects missing from ``recents`` are skipped; unknown ids raise
        :class:`KeyError`.  With ``max_workers`` > 1 the per-object
        model passes fan out over a pool: ``executor="thread"``
        (default) scores the live models under their locks;
        ``executor="process"`` snapshots each model (pickled under its
        lock) and scores the copies in worker processes — higher
        throughput for large fleets at the price of shipping the models,
        and model-level metrics are not incremented by the worker-side
        copies.  Results are identical to serial scoring in every mode.

        The serial path batches all objects' FQP lookups into one kernel
        invocation (see :mod:`repro.core.scorekernel`): plans are built
        per object under that object's lock, scored together against
        immutable pack snapshots, then answered under the locks again —
        same answers, one array pass instead of ``n`` scoring loops.
        """
        items = list(recents.items())
        serial = (
            executor == "serial"
            or max_workers is None
            or max_workers <= 1
            or len(items) <= 1
        )
        if serial:
            if len(items) > 1:
                return self._predict_all_batched(items, query_time)
            out: dict[str, Prediction] = {}
            for object_id, recent in items:
                with self.object_lock(object_id):
                    out[object_id] = self[object_id].predict_one(
                        list(recent), query_time
                    )
            return out

        if executor == "process":
            # Snapshot every model under its lock so a concurrent
            # in-place update can never be pickled halfway.
            jobs = []
            for object_id, recent in items:
                with self.object_lock(object_id):
                    blob = _pickle_dumps(self[object_id])
                jobs.append((object_id, (blob, list(recent), query_time)))
            results, failures = run_keyed_tasks(
                _predict_one_pickled,
                jobs,
                max_workers=max_workers,
                executor="process",
            )
        else:

            def score(object_id: str, recent) -> Prediction:
                with self.object_lock(object_id):
                    return self[object_id].predict_one(list(recent), query_time)

            results, failures = run_keyed_tasks(
                score,
                [(object_id, (object_id, recent)) for object_id, recent in items],
                max_workers=max_workers,
                executor="thread",
            )
        if failures:
            # Mirror serial semantics: surface the first failure in
            # input order (the one the serial loop would have hit).
            for object_id, _ in items:
                if object_id in failures:
                    raise failures[object_id]
        return results

    def _predict_all_batched(
        self, items: list, query_time: int
    ) -> dict[str, Prediction]:
        """Serial ``predict_all`` with cross-object kernel batching.

        Three phases: (1) build each object's prepared plan under its
        lock (the plan takes the model's score kernel there);
        (2) prime every plan's FQP entry in one stacked kernel invocation
        outside the locks — kernels are immutable and a refit installs a
        new one, so a concurrent refit cannot be scored mid-swap; (3) answer each
        query under the object's lock again, hitting the primed memo.
        Answers (and model-level metrics) match the per-object loop;
        plan-build errors surface in input order, as the serial loop's
        would.
        """
        prepared = []
        for object_id, recent in items:
            with self.object_lock(object_id):
                model = self[object_id]
                prepared.append((object_id, model, model.prepare(list(recent))))
        prime_plan_queries(
            ((plan, query_time) for _oid, _model, plan in prepared),
            metrics=self._metrics,
        )
        out: dict[str, Prediction] = {}
        for object_id, model, plan in prepared:
            with self.object_lock(object_id):
                out[object_id] = model.predict_prepared(plan, query_time, k=1)[0]
        return out

    def override_refit_policy(self, **overrides) -> None:
        """Apply ``HPMConfig.with_overrides`` with ``refit_mode`` and/or
        ``refit_full_every`` to the fleet and every model.

        The serve entry points call this at startup.  The refit policy
        steers :meth:`HybridPredictionModel.update` only, so fitted state
        and answers are untouched; any other field raises ``ValueError``.
        """
        unknown = sorted(set(overrides) - {"refit_mode", "refit_full_every"})
        if unknown:
            raise ValueError(f"not a refit policy field: {', '.join(unknown)}")
        if not overrides:
            return
        self.config = self.config.with_overrides(**overrides)
        with self._registry_lock:
            models = list(self._models.values())
        for model in models:
            model.config = model.config.with_overrides(**overrides)

    def prewarm_locate_cache(self, limit: int = 512) -> int:
        """Prime every object's region-locate memo from its history tail.

        The serve paths call this on a freshly loaded fleet — a snapshot
        restore and a shard worker alike — so no object answers its first
        queries cold (see
        :meth:`HybridPredictionModel.prewarm_locate_cache`).  Returns the
        total number of probes issued.
        """
        with self._registry_lock:
            models = list(self._models.values())
        return sum(model.prewarm_locate_cache(limit) for model in models)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def total_patterns(self) -> int:
        """Sum of pattern-corpus sizes across the fleet."""
        with self._registry_lock:
            models = list(self._models.values())
        return sum(m.pattern_count for m in models)

    def summary(self) -> list[dict]:
        """One row per object: regions, patterns, history length."""
        with self._registry_lock:
            snapshot = sorted(self._models.items())
        rows = []
        for object_id, model in snapshot:
            rows.append(
                {
                    "object_id": object_id,
                    "history_length": len(model.history_),
                    "num_regions": len(model.regions_),
                    "num_patterns": model.pattern_count,
                }
            )
        return rows

    def __repr__(self) -> str:
        return f"FleetPredictionModel(objects={len(self)}, period={self.config.period})"
