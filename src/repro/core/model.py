"""The public HPM facade: fit on history, predict future locations.

Typical use::

    from repro import HybridPredictionModel, HPMConfig

    model = HybridPredictionModel(HPMConfig(period=300, eps=30, min_pts=4))
    model.fit(history)                      # a repro.trajectory.Trajectory
    predictions = model.predict(recent, query_time)

``fit`` runs the full offline pipeline of Sections IV and V — frequent-
region discovery, pruned pattern mining, key-table construction — packs
the pattern table into the score kernel, and wires up the Section VI
query processor.  When the history is too weak to yield any pattern the
model degrades to its motion function (the paper's fallback), so
``predict`` always answers.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..motion.base import MotionFunctionFactory
from ..trajectory.point import TimedPoint
from ..trajectory.trajectory import Trajectory
from .config import HPMConfig
from .keys import KeyCodec
from .patterns import PatternMiningStats, TrajectoryPattern, mine_trajectory_patterns
from .plan import PreparedQuery
from .prediction import HybridPredictor, Prediction, default_motion_factory
from .refit import (
    CorpusDelta,
    RefitStats,
    StagedUpdate,
    StaleUpdateError,
    delta_discover_frequent_regions,
    delta_mine_trajectory_patterns,
    intern_regions,
)
from .regions import RegionSet, discover_frequent_regions
from .scorekernel import ScoreKernel

__all__ = ["HybridPredictionModel"]


class HybridPredictionModel:
    """End-to-end Hybrid Prediction Model (the paper's HPM).

    Parameters
    ----------
    config:
        A full :class:`HPMConfig`; keyword overrides may be passed instead
        (``HybridPredictionModel(period=300, eps=25)``).
    motion_factory:
        Zero-argument callable producing a fresh motion function per
        fallback query (default: RMF, the paper's choice).
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
        self._history: Trajectory | None = None
        self._regions: RegionSet | None = None
        self._patterns: list[TrajectoryPattern] = []
        self._mining_stats: PatternMiningStats | None = None
        self._codec: KeyCodec | None = None
        self._kernel: ScoreKernel | None = None
        self._predictor: HybridPredictor | None = None
        self._metrics = None
        self._fit_phase_seconds: dict[str, float] = {}
        # Monotonic token identifying the installed fitted state; a staged
        # update prepared against an older token is refused by
        # commit_update (see StaleUpdateError).
        self._state_token = 0
        self._deltas_since_full = 0
        self._last_refit_stats: RefitStats | None = None

    def bind_metrics(self, registry) -> None:
        """Attach a metrics registry to instrument the predict hot path.

        ``registry`` is duck-typed — any object with ``counter(name)`` and
        ``histogram(name)`` returning ``.inc()`` / ``.observe(seconds)``
        instruments works (:class:`repro.serve.metrics.MetricsRegistry`
        is the in-tree implementation).  Pass ``None`` to detach.
        """
        self._metrics = registry
        if self._predictor is not None:
            self._predictor.metrics = registry

    def __getstate__(self) -> dict:
        # Registries hold threading locks and are process-local; a model
        # crossing a pickle boundary (parallel fit workers, predict_all
        # process scoring) travels bare and is re-bound on adoption.
        state = self.__dict__.copy()
        state["_metrics"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Snapshots written before the incremental-refit bookkeeping
        # existed restore with fresh counters.
        self.__dict__.setdefault("_state_token", 0)
        self.__dict__.setdefault("_deltas_since_full", 0)
        self.__dict__.setdefault("_last_refit_stats", None)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, trajectory: Trajectory) -> "HybridPredictionModel":
        """Mine patterns from ``trajectory`` and pack the score kernel."""
        if len(trajectory) < self.config.period:
            raise ValueError(
                f"history of {len(trajectory)} samples is shorter than one "
                f"period ({self.config.period}); nothing periodic to mine"
            )
        self._history = trajectory
        self._fit_phase_seconds = {}
        self._rebuild()
        self._observe_fit_phases()
        self._state_token += 1
        self._deltas_since_full = 0
        self._last_refit_stats = None
        return self

    def update(
        self,
        new_positions: np.ndarray | Sequence[Sequence[float]],
        *,
        refit: str | None = None,
    ) -> "HybridPredictionModel":
        """Append newly observed movements and refresh the pattern corpus.

        The paper's dynamic-data path folds accumulated data back into the
        mined state.  With ``refit="delta"`` (the config default) only the
        offsets that received new rows are re-clustered and only the rules
        a changed region can move are re-scored.  ``refit="full"``
        re-mines the whole history.  Both modes produce a pattern table
        byte-identical to :meth:`fit` over the concatenated history, and
        the score kernel is packed from that table, so the answers are
        identical too.

        Equivalent to ``commit_update(prepare_update(...))``; callers that
        hold a lock during model mutation can run :meth:`prepare_update`
        outside it and only serialise the cheap commit.
        """
        staged = self.prepare_update(new_positions, refit=refit)
        self.commit_update(staged)
        return self

    def prepare_update(
        self,
        new_positions: np.ndarray | Sequence[Sequence[float]],
        *,
        refit: str | None = None,
    ) -> StagedUpdate:
        """Compute a model refresh without mutating the model.

        Runs every heavy phase — (delta) clustering, (delta) mining and
        building the new score kernel — against a snapshot of the current
        state and returns a :class:`StagedUpdate` for
        :meth:`commit_update`.  Thread-safe with concurrent readers; a
        concurrent writer that lands first makes the eventual commit raise
        :class:`StaleUpdateError`.
        """
        self._require_fitted()
        # Token first: a concurrent install between this read and the
        # field reads below is caught by commit_update's token check.
        token = self._state_token
        old_history = self._history
        old_regions = self._regions
        old_patterns = self._patterns
        old_stats = self._mining_stats
        old_kernel = self._kernel
        assert old_history is not None and old_regions is not None
        cfg = self.config

        new_rows = np.asarray(new_positions, dtype=np.float64)
        if new_rows.ndim != 2 or new_rows.shape[1] != 2:
            raise ValueError(
                f"new_positions must have shape (n, 2), got {new_rows.shape}"
            )
        if new_rows.shape[0] == 0:
            raise ValueError("new_positions is empty; nothing to fold in")
        history = Trajectory(
            np.vstack([old_history.positions, new_rows]),
            start_time=old_history.start_time,
        )

        mode = refit if refit is not None else cfg.refit_mode
        if mode not in ("delta", "full"):
            raise ValueError(f"refit must be 'delta' or 'full', got {mode!r}")
        fallback = None
        if (
            mode == "delta"
            and cfg.refit_full_every is not None
            and self._deltas_since_full >= cfg.refit_full_every
        ):
            mode, fallback = "full", "staleness"

        num_subs = (len(history) + cfg.period - 1) // cfg.period
        phase_seconds: dict[str, float] = {}
        cluster_start = time.perf_counter()
        if mode == "delta":
            first_new = old_history.end_time + 1
            dirty = np.unique(
                (first_new + np.arange(new_rows.shape[0])) % cfg.period
            )
            dirty_count = int(dirty.shape[0])
            regions, changed = delta_discover_frequent_regions(
                history,
                old_regions,
                dirty.tolist(),
                eps=cfg.eps,
                min_pts=cfg.min_pts,
            )
        else:
            dirty_count = cfg.period
            fresh = discover_frequent_regions(
                history, period=cfg.period, eps=cfg.eps, min_pts=cfg.min_pts
            )
            regions, changed = intern_regions(fresh, old_regions)
        mine_start = time.perf_counter()
        phase_seconds["cluster"] = mine_start - cluster_start

        corpus_delta: CorpusDelta | None = None
        if len(regions) == 0:
            patterns: list[TrajectoryPattern] = []
            mining_stats = PatternMiningStats(
                num_transactions=num_subs,
                num_frequent_items=0,
                num_frequent_premises=0,
                num_patterns=0,
            )
        elif mode == "delta":
            patterns, mining_stats, corpus_delta = delta_mine_trajectory_patterns(
                regions,
                num_subtrajectories=num_subs,
                min_support=cfg.effective_min_support,
                min_confidence=cfg.min_confidence,
                old_patterns=old_patterns,
                old_masks=old_stats.region_masks if old_stats is not None else None,
                changed_regions=changed,
                max_premise_length=cfg.max_premise_length,
                max_premise_span=cfg.max_premise_span,
                max_consequence_gap=cfg.effective_max_consequence_gap,
                far_premise_stride=cfg.far_premise_stride,
            )
        else:
            patterns, mining_stats = mine_trajectory_patterns(
                regions,
                num_subtrajectories=num_subs,
                min_support=cfg.effective_min_support,
                min_confidence=cfg.min_confidence,
                max_premise_length=cfg.max_premise_length,
                max_premise_span=cfg.max_premise_span,
                max_consequence_gap=cfg.effective_max_consequence_gap,
                far_premise_stride=cfg.far_premise_stride,
                return_stats=True,
            )
        phase_seconds["mine"] = time.perf_counter() - mine_start

        index_start = time.perf_counter()
        codec = kernel = None
        if not patterns:
            index_desc = "cleared"
        else:
            same_regions = (
                corpus_delta is not None
                and old_kernel is not None
                and [(r.offset, r.index) for r in regions]
                == [(r.offset, r.index) for r in old_regions]
            )
            if not same_regions:
                # A full re-mine, or the region ids moved.
                index_desc = "rebuilt"
                kernel = ScoreKernel.from_patterns(
                    regions, patterns, cfg.weight_function
                )
            elif corpus_delta.empty:
                # The same pattern objects under the same region ids: the
                # installed kernel is already this table's.
                index_desc = "kept"
                kernel = old_kernel
            else:
                # Kept rows keep their region ids: swap only what moved.
                index_desc = "patched"
                kernel = old_kernel.updated(
                    regions,
                    corpus_delta.removes,
                    corpus_delta.rebinds,
                    corpus_delta.inserts,
                )
            codec = KeyCodec(regions, kernel.consequence_offsets())
        phase_seconds["index"] = time.perf_counter() - index_start

        if corpus_delta is not None:
            added, removed = corpus_delta.added, corpus_delta.removed
            replaced, kept = corpus_delta.replaced, corpus_delta.kept
        else:
            # Full re-mine: the corpus is not diffed; report wholesale
            # replacement.
            added, removed, replaced, kept = len(patterns), len(old_patterns), 0, 0
        stats = RefitStats(
            mode=mode,
            fallback=fallback,
            index=index_desc,
            new_rows=int(new_rows.shape[0]),
            dirty_offsets=dirty_count,
            changed_regions=len(changed),
            patterns_added=added,
            patterns_removed=removed,
            patterns_replaced=replaced,
            patterns_kept=kept,
        )
        return StagedUpdate(
            token=token,
            history=history,
            regions=regions,
            patterns=patterns,
            mining_stats=mining_stats,
            refit=stats,
            codec=codec,
            kernel=kernel,
            phase_seconds=phase_seconds,
        )

    def commit_update(self, staged: StagedUpdate) -> "HybridPredictionModel":
        """Install a refresh prepared by :meth:`prepare_update`.

        A pointer swap: the staged update already carries the new key
        tables and score kernel.  Raises :class:`StaleUpdateError`
        without touching any state when the model was re-fitted/updated
        after the staged update was prepared.
        """
        self._require_fitted()
        if staged.token != self._state_token:
            raise StaleUpdateError(
                "model state advanced since prepare_update (token "
                f"{staged.token} != {self._state_token}); prepare again"
            )
        self._history = staged.history
        self._regions = staged.regions
        self._patterns = staged.patterns
        self._mining_stats = staged.mining_stats
        self._fit_phase_seconds = dict(staged.phase_seconds)
        self._install_index(staged.codec, staged.kernel)
        self._last_refit_stats = staged.refit
        self._deltas_since_full = (
            0 if staged.refit.mode == "full" else self._deltas_since_full + 1
        )
        self._state_token += 1
        self._observe_fit_phases()
        if self._metrics is not None:
            self._metrics.counter(
                f"model_refit_total_{staged.refit.mode}"
            ).inc()
        return self

    def _rebuild(self) -> None:
        assert self._history is not None
        self._mine(self._history)
        self._build_index()

    def _restore(
        self,
        history: Trajectory,
        regions: RegionSet,
        patterns: list[TrajectoryPattern],
        kernel: ScoreKernel | None = None,
    ) -> None:
        """Install pre-mined state (used by :mod:`repro.core.persistence`).

        ``kernel`` optionally supplies the score kernel a fleet snapshot
        stored for this pattern table, so the restore skips packing it.
        """
        self._fit_phase_seconds = {}
        self._history = history
        self._regions = regions
        self._patterns = list(patterns)
        self._mining_stats = PatternMiningStats(
            num_transactions=(len(history) + self.config.period - 1)
            // self.config.period,
            num_frequent_items=len(regions),
            num_frequent_premises=0,
            num_patterns=len(patterns),
        )
        self._build_index(kernel)
        self._state_token += 1
        self._deltas_since_full = 0
        self._last_refit_stats = None

    def _mine(self, trajectory: Trajectory) -> None:
        cfg = self.config
        phase_start = time.perf_counter()
        self._regions = discover_frequent_regions(
            trajectory, period=cfg.period, eps=cfg.eps, min_pts=cfg.min_pts
        )
        mine_start = time.perf_counter()
        self._fit_phase_seconds["cluster"] = mine_start - phase_start
        num_subs = (len(trajectory) + cfg.period - 1) // cfg.period
        if len(self._regions) == 0:
            self._patterns = []
            self._mining_stats = PatternMiningStats(
                num_transactions=num_subs,
                num_frequent_items=0,
                num_frequent_premises=0,
                num_patterns=0,
            )
            self._fit_phase_seconds["mine"] = time.perf_counter() - mine_start
            return
        patterns, stats = mine_trajectory_patterns(
            self._regions,
            num_subtrajectories=num_subs,
            min_support=cfg.effective_min_support,
            min_confidence=cfg.min_confidence,
            max_premise_length=cfg.max_premise_length,
            max_premise_span=cfg.max_premise_span,
            max_consequence_gap=cfg.effective_max_consequence_gap,
            far_premise_stride=cfg.far_premise_stride,
            return_stats=True,
        )
        self._patterns = patterns
        self._mining_stats = stats
        self._fit_phase_seconds["mine"] = time.perf_counter() - mine_start

    def _build_index(self, kernel: ScoreKernel | None = None) -> None:
        assert self._regions is not None
        index_start = time.perf_counter()
        codec = None
        if len(self._regions) and self._patterns:
            if kernel is None:
                kernel = ScoreKernel.from_patterns(
                    self._regions, self._patterns, self.config.weight_function
                )
            codec = KeyCodec(self._regions, kernel.consequence_offsets())
        self._install_index(codec, kernel)
        self._fit_phase_seconds["index"] = time.perf_counter() - index_start

    def _install_index(
        self, codec: KeyCodec | None, kernel: ScoreKernel | None
    ) -> None:
        """Swap in key tables, kernel and query processor together.

        ``codec is None`` is the pattern-free degenerate mode: every query
        falls back to the motion function, exactly as Algorithms 2/3
        prescribe when no candidate exists.
        """
        assert self._regions is not None
        self._codec = codec
        self._kernel = kernel if codec is not None else None
        self._predictor = (
            None
            if codec is None
            else HybridPredictor(
                regions=self._regions,
                codec=codec,
                kernel=kernel,
                config=self.config,
                motion_factory=self.motion_factory,
                metrics=self._metrics,
            )
        )

    def _observe_fit_phases(self, registry=None) -> None:
        """Record the last fit's phase timings into a metrics registry.

        Observes ``fit_phase_seconds_{cluster,mine,index}`` histograms on
        the bound registry (or an explicit one — used when a model fitted
        in a detached worker is adopted by an instrumented fleet).
        """
        registry = registry if registry is not None else self._metrics
        if registry is None:
            return
        for phase, seconds in self.fit_phase_seconds_.items():
            registry.histogram(f"fit_phase_seconds_{phase}").observe(seconds)

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def prepare(self, recent: Sequence[TimedPoint]) -> PreparedQuery:
        """Build a query plan for ``recent``, reusable across query times.

        The window-dependent work (region mapping, premise-key encoding,
        motion-function fitting, per-offset candidate scoring) happens at
        most once per plan; answer many query times against it with
        :meth:`predict_prepared`.  In pattern-free mode the plan routes
        every query to the motion fallback.
        """
        self._require_fitted()
        if self._predictor is not None:
            return self._predictor.prepare(recent)
        return PreparedQuery(
            regions=None,
            codec=None,
            kernel=None,
            config=self.config,
            motion_factory=self.motion_factory,
            recent=recent,
        )

    def predict(
        self,
        recent: Sequence[TimedPoint],
        query_time: int,
        k: int | None = None,
    ) -> list[Prediction]:
        """Answer a predictive query (see :meth:`HybridPredictor.predict`).

        When a metrics registry is bound (:meth:`bind_metrics`) each call
        increments ``model_predict_total``, times itself into the
        ``model_predict_seconds`` histogram, and counts the answering
        method (``model_predict_fqp_total`` plus the serve-facing
        ``predict_path_total_fqp`` etc.).
        """
        registry = self._metrics
        if registry is None:
            return self._predict(recent, query_time, k)
        start = time.perf_counter()
        try:
            predictions = self._predict(recent, query_time, k)
        except Exception:
            registry.counter("model_predict_errors_total").inc()
            raise
        self._observe_predict(registry, start, predictions)
        return predictions

    def predict_prepared(
        self,
        plan: PreparedQuery,
        query_time: int,
        k: int | None = None,
    ) -> list[Prediction]:
        """Answer one query from a plan built by :meth:`prepare`.

        Metrics-instrumented exactly like :meth:`predict`; the answers are
        byte-identical to ``predict(plan.recent, query_time, k)``.
        """
        registry = self._metrics
        if registry is None:
            return self._predict_prepared(plan, query_time, k)
        start = time.perf_counter()
        try:
            predictions = self._predict_prepared(plan, query_time, k)
        except Exception:
            registry.counter("model_predict_errors_total").inc()
            raise
        self._observe_predict(registry, start, predictions)
        return predictions

    def _observe_predict(
        self, registry, start: float, predictions: list[Prediction]
    ) -> None:
        registry.counter("model_predict_total").inc()
        registry.histogram("model_predict_seconds").observe(
            time.perf_counter() - start
        )
        if predictions:
            method = predictions[0].method
            registry.counter(f"model_predict_{method}_total").inc()
            # Serve-facing path counter (the motion-fallback rate is
            # Fig. 10's cost driver): predict_path_total{method=...}
            # flattened to the registry's label-free naming.
            registry.counter(f"predict_path_total_{method}").inc()

    def _predict(
        self,
        recent: Sequence[TimedPoint],
        query_time: int,
        k: int | None = None,
    ) -> list[Prediction]:
        self._require_fitted()
        if self._predictor is not None:
            return self._predictor.predict(recent, query_time, k)
        # Pattern-free mode: motion function only (historically answered
        # without query-time/k validation; keep that contract).
        return [self.prepare(recent).motion_prediction(query_time)]

    def _predict_prepared(
        self,
        plan: PreparedQuery,
        query_time: int,
        k: int | None = None,
    ) -> list[Prediction]:
        self._require_fitted()
        if self._predictor is not None:
            return plan.predict(query_time, k)
        return [plan.motion_prediction(query_time)]

    def predict_one(self, recent: Sequence[TimedPoint], query_time: int) -> Prediction:
        """Top-1 convenience wrapper."""
        return self.predict(recent, query_time, k=1)[0]

    def predict_trajectory(
        self,
        recent: Sequence[TimedPoint],
        t_from: int,
        t_to: int,
        step: int = 1,
    ) -> list[tuple[int, Prediction]]:
        """Top-1 predictions over ``[t_from, t_to]`` at the given stride.

        See :meth:`HybridPredictor.predict_trajectory`; in pattern-free
        mode every timestamp is answered by the motion fallback.  All
        timestamps share one prepared plan, and each answered timestamp is
        metrics-instrumented like an individual :meth:`predict` call.
        """
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        if t_to < t_from:
            raise ValueError(f"empty range [{t_from}, {t_to}]")
        self._require_fitted()
        plan = self.prepare(recent)
        plan.prime_sweep(t_from, t_to, step)
        if self._predictor is not None:
            return [
                (t, self.predict_prepared(plan, t, k=1)[0])
                for t in range(t_from, t_to + 1, step)
            ]
        return [
            (t, self.predict_prepared(plan, t)[0])
            for t in range(t_from, t_to + 1, step)
        ]

    def prewarm_locate_cache(self, limit: int = 512) -> int:
        """Kept as a no-op that returns 0: region locate holds no memo.

        :meth:`RegionSet.locate` is an exact scan with nothing to warm.
        The method stays only because perfbench's ``snapshot.prewarm``
        span wraps it by name; it goes when that span does.
        """
        return 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._history is not None

    @property
    def history_(self) -> Trajectory:
        """The accumulated training trajectory."""
        self._require_fitted()
        assert self._history is not None
        return self._history

    @property
    def regions_(self) -> RegionSet:
        """Frequent regions discovered by the last fit/update."""
        self._require_fitted()
        assert self._regions is not None
        return self._regions

    @property
    def patterns_(self) -> list[TrajectoryPattern]:
        """The mined trajectory patterns."""
        self._require_fitted()
        return list(self._patterns)

    @property
    def mining_stats_(self) -> PatternMiningStats:
        """Bookkeeping from the last mining run."""
        self._require_fitted()
        assert self._mining_stats is not None
        return self._mining_stats

    @property
    def codec_(self) -> KeyCodec | None:
        """Key tables (``None`` in pattern-free mode)."""
        self._require_fitted()
        return self._codec

    @property
    def kernel_(self) -> ScoreKernel | None:
        """The packed score kernel (``None`` in pattern-free mode)."""
        self._require_fitted()
        return self._kernel

    @property
    def predictor_(self) -> HybridPredictor | None:
        """The live query processor (``None`` in pattern-free mode)."""
        self._require_fitted()
        return self._predictor

    @property
    def fit_phase_seconds_(self) -> dict[str, float]:
        """Wall-clock seconds of the last fit/update, keyed by phase.

        Phases: ``cluster`` (frequent-region discovery), ``mine`` (pattern
        mining) and ``index`` (key tables + score-kernel packing).  Empty
        before the first fit, and for models restored from snapshots
        written by older versions.
        """
        return dict(getattr(self, "_fit_phase_seconds", None) or {})

    @property
    def last_refit_stats_(self) -> RefitStats | None:
        """What the most recent :meth:`update` did (``None`` after fit)."""
        return self._last_refit_stats

    @property
    def pattern_count(self) -> int:
        """Number of mined patterns."""
        self._require_fitted()
        return len(self._patterns)

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("model is not fitted; call fit() first")

    def __repr__(self) -> str:
        if not self.is_fitted:
            return "HybridPredictionModel(unfitted)"
        return (
            f"HybridPredictionModel(regions={len(self._regions or [])}, "
            f"patterns={len(self._patterns)})"
        )
