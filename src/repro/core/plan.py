"""Prepared query plans: per-window work hoisted out of the per-query loop.

``HybridPredictor.predict`` used to redo the same work for every query
against the same recent window: map the window to frequent regions, encode
the premise key, fit the motion-fallback function, score *every* candidate
and full-sort it.  ``predict_trajectory`` multiplied that by the horizon
length and the serve batcher by the batch size.

:class:`PreparedQuery` factors the window-dependent work out once:

* the recent window is mapped to regions and the premise key is encoded at
  construction time;
* the motion-fallback function (and its linear understudy) is fitted
  lazily, at most once per plan;
* FQP candidate scoring is memoised per query offset ``tq mod T`` — a
  trajectory sweep revisits at most ``T`` distinct offsets;
* candidates are scored and ranked by the packed numpy kernel
  (:mod:`repro.core.scorekernel`), whole consequence buckets at a time,
  with an ``argpartition`` top-k instead of a full sort.

Every answer is **byte-identical** to the unprepared per-candidate
algorithm (brute-force two-part Intersect, uncached Eq. 1, full sort +
slice with the canonical pattern identity as the last key): the kernel
accumulates similarity floats in the same order and breaks full ties by
block position, which is that identity (see the scorekernel module
docstring), and the fallback chain
degrades exactly like the original ``_motion_prediction`` (primary
function, then linear, then stationary).  That per-candidate algorithm is
kept only as the test suite's reference; a kernel error propagates to the
caller instead of being answered by another path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..motion.base import MotionFunction, MotionFunctionFactory
from ..motion.linear import LinearMotionFunction
from ..signature.bitset import iter_set_bits
from ..trajectory.point import Point, TimedPoint
from .config import HPMConfig
from .keys import KeyCodec
from .patterns import TrajectoryPattern
from .regions import FrequentRegion, RegionSet
from .scorekernel import (
    KernelHits,
    ScoreKernel,
    finalize_forward,
    premise_scores,
    prime_plan_queries,
)

__all__ = ["Prediction", "PreparedQuery", "map_window_to_regions"]


@dataclass(frozen=True, slots=True)
class Prediction:
    """One predicted location with its provenance.

    ``method`` is ``"fqp"``, ``"bqp"`` or ``"motion"``; for pattern-based
    answers ``pattern`` is the winning trajectory pattern and ``score`` its
    ranking weight ``S_p``.
    """

    location: Point
    method: str
    score: float | None = None
    pattern: TrajectoryPattern | None = None

    def __post_init__(self) -> None:
        if self.method not in ("fqp", "bqp", "motion"):
            raise ValueError(f"unknown prediction method {self.method!r}")


def map_window_to_regions(
    regions: RegionSet, window: Sequence[TimedPoint], period: int
) -> list[FrequentRegion]:
    """Map a recent-movement window onto the frequent regions it passes.

    Section V-C: "we investigate which frequent regions the object has
    visited recently from ``m_q``".  Duplicates are collapsed, first-visit
    order is kept.
    """
    seen: list[FrequentRegion] = []
    for sample in window:
        region = regions.locate(sample.point, sample.t % period)
        if region is not None and region not in seen:
            seen.append(region)
    return seen


_UNSET = object()


class PreparedQuery:
    """One recent-movement window, prepared to answer many query times.

    Built via :meth:`HybridPredictor.prepare` or
    :meth:`HybridPredictionModel.prepare`; ``codec``/``kernel`` are
    ``None`` in pattern-free mode, where every query is answered by the
    motion fallback.
    """

    def __init__(
        self,
        regions: RegionSet | None,
        codec: KeyCodec | None,
        kernel: ScoreKernel | None,
        config: HPMConfig,
        motion_factory: MotionFunctionFactory,
        recent: Sequence[TimedPoint],
        stats: dict | None = None,
        metrics=None,
    ):
        recent = list(recent)
        if not recent:
            raise ValueError("recent movements must be non-empty")
        self.config = config
        self.recent = recent
        self.current_time: int = recent[-1].t
        self.motion_factory = motion_factory
        # Shared with the owning predictor so path counts keep accumulating
        # in one place; a standalone plan gets its own dict.
        self.stats = stats if stats is not None else {"fqp": 0, "bqp": 0, "motion": 0}
        self._regions = regions
        self._codec = codec
        self._kernel = kernel
        self._window = recent[-config.recent_window :]
        if regions is not None and codec is not None:
            self.recent_regions = map_window_to_regions(
                regions, self._window, config.period
            )
            self.premise_key: int = codec.premise_key(self.recent_regions)
        else:
            self.recent_regions = []
            self.premise_key = 0
        # offset -> KernelHits, or None when no candidate — FQP work is
        # per-offset, so a sweep computes each at most once.  Explicitly
        # bounded to ``period`` entries (offsets live in [0, T), but a
        # hostile query stream must not be able to grow a plan without
        # bound either way).
        self._fqp_scored: dict[int, KernelHits | None] = {}
        self._motion_primary: MotionFunction | None | object = _UNSET
        self._motion_linear: MotionFunction | None | object = _UNSET
        self._metrics = metrics
        self._qvec: np.ndarray | None = None
        if kernel is not None:
            # The model installs ``codec`` and ``kernel`` together, so the
            # kernel's premise bits are this codec's region ids.
            qvec = np.zeros(codec.premise_length, dtype=np.float64)
            for bit in iter_set_bits(self.premise_key):
                qvec[bit] = 1.0
            self._qvec = qvec

    # ------------------------------------------------------------------
    # public API (mirrors HybridPredictor's validation order exactly)
    # ------------------------------------------------------------------
    def predict(self, query_time: int, k: int | None = None) -> list[Prediction]:
        """Answer one predictive query from this plan."""
        k = self.config.top_k if k is None else k
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        tc = self.current_time
        if query_time <= tc:
            raise ValueError(
                f"query time {query_time} must be after the current time {tc}"
            )
        if self._kernel is None:
            return [self.motion_prediction(query_time)]
        if query_time - tc >= self.config.distant_threshold:
            return self.backward(query_time, k)
        return self.forward(query_time, k)

    def predict_one(self, query_time: int) -> Prediction:
        """Top-1 convenience wrapper around :meth:`predict`."""
        return self.predict(query_time, k=1)[0]

    def predict_trajectory(
        self, t_from: int, t_to: int, step: int = 1
    ) -> list[tuple[int, Prediction]]:
        """Top-1 predictions over a future time range (inclusive bounds)."""
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        if t_to < t_from:
            raise ValueError(f"empty range [{t_from}, {t_to}]")
        self.prime_sweep(t_from, t_to, step)
        return [
            (t, self.predict(t, k=1)[0]) for t in range(t_from, t_to + 1, step)
        ]

    # ------------------------------------------------------------------
    # Algorithm 2: Forward Query Processing
    # ------------------------------------------------------------------
    def forward(self, query_time: int, k: int) -> list[Prediction]:
        """FQP from the prepared premise key (no validation, like the old
        ``forward_query``)."""
        entry = self._forward_entry(query_time % self.config.period)
        if entry is None:
            return [self.motion_prediction(query_time)]
        self.stats["fqp"] += 1
        return [
            Prediction(
                location=pattern.consequence.center,
                method="fqp",
                score=score,
                pattern=pattern,
            )
            for score, pattern in entry.top(k)
        ]

    def _forward_entry(self, offset: int) -> KernelHits | None:
        """Memoised per-offset FQP scoring."""
        try:
            return self._fqp_scored[offset]
        except KeyError:
            pass
        entry = None
        # Empty premise or unknown offset: no candidate can intersect
        # (Intersect needs common '1's on both key parts).
        if self.premise_key != 0:
            pack = self._kernel.block_for_offset(offset)
            if pack is not None:
                entry = finalize_forward(pack, premise_scores(pack, self._qvec))
        self._store_forward(offset, entry)
        return entry

    def _store_forward(self, offset: int, entry: KernelHits | None) -> None:
        memo = self._fqp_scored
        if offset not in memo and len(memo) >= self.config.period:
            memo.pop(next(iter(memo)))
        memo[offset] = entry

    # ------------------------------------------------------------------
    # cross-query batching hooks (see scorekernel.prime_plan_queries)
    # ------------------------------------------------------------------
    def fqp_prime_offset(self, query_time: int) -> int | None:
        """The offset to pre-score for ``query_time``, or ``None`` when the
        query would not take the FQP path (no pattern index, BQP horizon,
        empty premise, or already memoised)."""
        if self._kernel is None:
            return None
        tc = self.current_time
        if not tc < query_time < tc + self.config.distant_threshold:
            return None
        if self.premise_key == 0:
            return None
        offset = query_time % self.config.period
        return None if offset in self._fqp_scored else offset

    def prime_sweep(self, t_from: int, t_to: int, step: int = 1) -> int:
        """Pre-score every FQP offset a trajectory sweep will visit in one
        kernel invocation."""
        tc = self.current_time
        lo = max(t_from, tc + 1)
        hi = min(t_to, tc + self.config.distant_threshold - 1)
        if lo > t_from:
            lo = t_from + -(-(lo - t_from) // step) * step
        if hi < lo:
            return 0
        return prime_plan_queries(
            ((self, t) for t in range(lo, hi + 1, step)), metrics=self._metrics
        )

    # ------------------------------------------------------------------
    # Algorithm 3: Backward Query Processing
    # ------------------------------------------------------------------
    def backward(self, query_time: int, k: int) -> list[Prediction]:
        """BQP with incremental interval enlargement over the offset index.

        The consequence mask grows monotonically with the interval, so each
        enlargement round only encodes the two *new* edge sub-ranges; once
        the interval covers a full period the mask saturates.  Candidates
        are the kernel block's rows under the mask.
        """
        for relaxation, mask in self._bqp_enlargements(query_time):
            top = self._backward_kernel(mask, relaxation, query_time, k)
            if top is not None:
                self.stats["bqp"] += 1
                return [
                    Prediction(
                        location=pattern.consequence.center,
                        method="bqp",
                        score=score_,
                        pattern=pattern,
                    )
                    for score_, pattern in top
                ]
        return [self.motion_prediction(query_time)]

    def _bqp_enlargements(self, query_time: int) -> Iterator[tuple[int, int]]:
        """Yield ``(relaxation, consequence_mask)`` per enlargement round,
        stopping when the interval's lower edge reaches the current time
        (Algorithm 3's loop structure, verbatim)."""
        cfg = self.config
        codec = self._codec
        tc = self.current_time
        period = cfg.period
        t_eps = cfg.time_relaxation
        full_mask = (1 << codec.consequence_length) - 1

        mask = 0
        lo = hi = 0
        i = 1
        while True:
            relaxation = i * t_eps
            new_lo = query_time - relaxation
            new_hi = query_time + relaxation
            if mask != full_mask:
                if new_hi - new_lo + 1 >= period:
                    mask = full_mask
                elif i == 1:
                    mask = codec.consequence_mask(
                        t % period for t in range(new_lo, new_hi + 1)
                    )
                else:
                    mask |= codec.consequence_mask(
                        t % period for t in range(new_lo, lo)
                    )
                    mask |= codec.consequence_mask(
                        t % period for t in range(hi + 1, new_hi + 1)
                    )
            lo, hi = new_lo, new_hi
            yield relaxation, mask
            i += 1
            if query_time - i * t_eps <= tc:
                return

    def _backward_kernel(
        self, mask: int, relaxation: int, query_time: int, k: int
    ) -> list[tuple[float, TrajectoryPattern]] | None:
        """Vectorized Eq. 5 over the kernel rows under ``mask``: S_p =
        (S_r * min(1, d/(tq-tc)) + S_c) * c with S_c per Eq. 3, the same
        elementwise operations in the same order as ``bqp_score``.  The
        mask's buckets are at most a few row ranges of the kernel block
        (see :meth:`ScoreKernel.select`); full ties break by block
        position."""
        pack = self._kernel.select(mask)
        if pack is None:
            return None
        cfg = self.config
        period = cfg.period
        horizon = query_time - self.current_time
        penalty = min(1.0, cfg.distant_threshold / horizon)
        denominator = relaxation + 1
        query_offset = query_time % period
        diff = np.abs(pack.cons_offsets - query_offset) % period
        sc = np.maximum(0.0, 1.0 - np.minimum(diff, period - diff) / denominator)
        sr = premise_scores(pack, self._qvec)
        scores = (sr * penalty + sc) * pack.confidences
        return KernelHits(scores, pack.confidences, pack.supports, None, pack).top(k)

    # ------------------------------------------------------------------
    # motion fallback (fit-once, same degradation chain as before)
    # ------------------------------------------------------------------
    def motion_prediction(self, query_time: int) -> Prediction:
        """The "Call motion function" fallback with graceful degradation.

        The primary function and the linear understudy are each fitted at
        most once per plan; ``predict`` failures (e.g. a query time at or
        before the fitted range) still cascade down the chain per call, so
        the answer for any single query matches the unprepared path.
        """
        self.stats["motion"] += 1
        primary = self._motion_primary
        if primary is _UNSET:
            primary = self._motion_primary = self._fit(self.motion_factory)
        if primary is not None:
            try:
                return Prediction(location=primary.predict(query_time), method="motion")
            except ValueError:
                pass
        window = self._window
        if len(window) >= 2:
            linear = self._motion_linear
            if linear is _UNSET:
                linear = self._motion_linear = self._fit(LinearMotionFunction)
            if linear is not None:
                try:
                    return Prediction(
                        location=linear.predict(query_time), method="motion"
                    )
                except ValueError:
                    pass
        return Prediction(location=window[-1].point, method="motion")

    def _fit(self, factory: MotionFunctionFactory) -> MotionFunction | None:
        try:
            func = factory()
            func.fit(self._window)
            return func
        except ValueError:
            return None

    def __repr__(self) -> str:
        return (
            f"PreparedQuery(tc={self.current_time}, "
            f"regions={len(self.recent_regions)}, "
            f"premise_key={self.premise_key:#x})"
        )
