"""The Hybrid Prediction Algorithm (Section VI, Algorithms 2 and 3).

Given an object's recent movements and a query time the predictor:

* dispatches to **Forward Query Processing** (Algorithm 2) for non-distant
  queries — retrieve the patterns whose premise intersects the recent
  regions and whose consequence offset equals the query offset, rank by
  ``S_p = S_r x c`` (Eq. 2), return the top-k consequence centers;
* dispatches to **Backward Query Processing** (Algorithm 3) for distant
  queries (``tq >= tc + d``, Definition 2) — retrieve patterns whose
  consequence offset falls in ``[tq - i·t_eps, tq + i·t_eps]``, enlarging
  ``i`` while the interval stays future-side of ``tc``; rank by
  ``S_p = (S_r x d/(tq - tc) + S_c) x c`` (Eq. 5);
* falls back to the configured motion function (RMF by default) whenever
  no pattern qualifies — the "hybrid" in HPM.

Every public entry point routes through a :class:`repro.core.plan.PreparedQuery`
plan, which hoists the per-window work (region mapping, premise-key
encoding, motion-function fitting, per-offset candidate scoring) out of
the per-query loop; ``prepare`` exposes the plan directly so callers
answering many query times against one window pay that cost once.
"""

from __future__ import annotations

from typing import Sequence

from ..motion.base import MotionFunction, MotionFunctionFactory
from ..motion.linear import LinearMotionFunction
from ..motion.rmf import RecursiveMotionFunction
from ..trajectory.point import TimedPoint
from .config import HPMConfig
from .keys import KeyCodec
from .plan import Prediction, PreparedQuery, map_window_to_regions
from .regions import FrequentRegion, RegionSet
from .scorekernel import ScoreKernel

__all__ = ["Prediction", "HybridPredictor", "PreparedQuery", "default_motion_factory"]


def default_motion_factory() -> MotionFunction:
    """The paper's choice: RMF, "since it has higher accuracy than others"."""
    return RecursiveMotionFunction()


class HybridPredictor:
    """Query processor over a mined pattern corpus.

    Built by :class:`repro.core.model.HybridPredictionModel`; constructable
    directly for tests and custom pipelines.  ``kernel`` must be packed
    for ``config.weight_function`` from the pattern table ``codec`` was
    built from (:meth:`ScoreKernel.from_patterns`).
    """

    def __init__(
        self,
        regions: RegionSet,
        codec: KeyCodec,
        kernel: ScoreKernel,
        config: HPMConfig,
        motion_factory: MotionFunctionFactory = default_motion_factory,
        metrics=None,
    ):
        if kernel.kind != config.weight_function:
            raise ValueError(
                f"kernel was packed for {kernel.kind!r} weights, the config "
                f"scores with {config.weight_function!r}"
            )
        self.regions = regions
        self.codec = codec
        self.kernel = kernel
        self.config = config
        self.motion_factory = motion_factory
        # Serve-tier metrics registry (the kernel batch-size histogram);
        # optional and threaded into every prepared plan.
        self.metrics = metrics
        # Diagnostics: how many queries each path answered (Fig. 10's cost
        # analysis hinges on the motion-fallback rate).
        self.stats = {"fqp": 0, "bqp": 0, "motion": 0}

    def __getstate__(self) -> dict:
        # Registries hold threading locks and are process-local (same
        # contract as HybridPredictionModel); re-bound on adoption.
        state = self.__dict__.copy()
        state["metrics"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("metrics", None)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def prepare(self, recent: Sequence[TimedPoint]) -> PreparedQuery:
        """Build a query plan for ``recent``, reusable across query times.

        The plan shares this predictor's :attr:`stats`; its answers are
        identical to :meth:`predict`'s.
        """
        return PreparedQuery(
            regions=self.regions,
            codec=self.codec,
            kernel=self.kernel,
            config=self.config,
            motion_factory=self.motion_factory,
            recent=recent,
            stats=self.stats,
            metrics=self.metrics,
        )

    def predict(
        self,
        recent: Sequence[TimedPoint],
        query_time: int,
        k: int | None = None,
    ) -> list[Prediction]:
        """Answer a predictive query.

        Parameters
        ----------
        recent:
            The object's recent movements ``m_q`` (chronological); the last
            sample's timestamp is the current time ``tc``.
        query_time:
            The (future) query time ``tq``.
        k:
            Number of results; defaults to ``config.top_k``.
        """
        return self.prepare(recent).predict(query_time, k)

    def predict_one(self, recent: Sequence[TimedPoint], query_time: int) -> Prediction:
        """Top-1 convenience wrapper around :meth:`predict`."""
        return self.predict(recent, query_time, k=1)[0]

    def predict_trajectory(
        self,
        recent: Sequence[TimedPoint],
        t_from: int,
        t_to: int,
        step: int = 1,
    ) -> list[tuple[int, Prediction]]:
        """Top-1 predictions over a future time range (inclusive bounds).

        An extension of the paper's point queries: each timestamp in
        ``range(t_from, t_to + 1, step)`` is answered as if queried
        independently — the result transitions from FQP through BQP as the
        horizon crosses the distant-time threshold — but all timestamps
        share one prepared plan, so region mapping, key encoding and
        motion fitting happen once per sweep.
        """
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        if t_to < t_from:
            raise ValueError(f"empty range [{t_from}, {t_to}]")
        return self.prepare(recent).predict_trajectory(t_from, t_to, step)

    # ------------------------------------------------------------------
    # Algorithm 2 / Algorithm 3 entry points (no tq/k validation, as ever)
    # ------------------------------------------------------------------
    def forward_query(
        self, recent: Sequence[TimedPoint], query_time: int, k: int
    ) -> list[Prediction]:
        """FQP: premise-and-consequence constrained pattern retrieval."""
        return self.prepare(recent).forward(query_time, k)

    def backward_query(
        self, recent: Sequence[TimedPoint], query_time: int, k: int
    ) -> list[Prediction]:
        """BQP: consequence-interval retrieval with incremental enlargement."""
        return self.prepare(recent).backward(query_time, k)

    def _offset_distance(self, consequence_offset: int, query_time: int) -> int:
        """Circular distance between a consequence offset and ``tq mod T``."""
        period = self.config.period
        diff = abs(consequence_offset - query_time % period) % period
        return min(diff, period - diff)

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def map_recent_to_regions(
        self, recent: Sequence[TimedPoint]
    ) -> list[FrequentRegion]:
        """Map recent movements onto the frequent regions they pass through.

        Section V-C: "we investigate which frequent regions the object has
        visited recently from ``m_q``".  Only the trailing
        ``config.recent_window`` samples are considered; duplicates are
        collapsed.
        """
        window = list(recent)[-self.config.recent_window :]
        return map_window_to_regions(self.regions, window, self.config.period)

    def _is_distant(self, tc: int, tq: int) -> bool:
        """Definition 2: ``tq >= tc + d``."""
        return tq - tc >= self.config.distant_threshold

    def _motion_prediction(
        self, recent: Sequence[TimedPoint], query_time: int
    ) -> Prediction:
        """The "Call motion function" fallback with graceful degradation.

        Tries the configured motion function on the recent window; when the
        window is too short (e.g. fewer samples than RMF's retrospect), a
        linear model is tried; with fewer than two samples the object is
        assumed stationary at its last known location.
        """
        self.stats["motion"] += 1
        window = list(recent)[-self.config.recent_window :]
        try:
            func = self.motion_factory()
            func.fit(window)
            return Prediction(location=func.predict(query_time), method="motion")
        except ValueError:
            pass
        if len(window) >= 2:
            try:
                linear = LinearMotionFunction()
                linear.fit(window)
                return Prediction(location=linear.predict(query_time), method="motion")
            except ValueError:
                pass
        return Prediction(location=window[-1].point, method="motion")
