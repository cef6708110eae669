"""Configuration for the Hybrid Prediction Model.

Defaults follow the paper's experimental setup (Section VII-A): k = 1,
T implied by the dataset, distant-time threshold d = 60, DBSCAN Eps = 30 and
MinPts = 4, minimum confidence 0.3, time relaxation 1 <= t_eps <= 3 (we
default to 2), and linear premise weights (Section VI-A reports the linear
and quadratic weight functions predict best).

Two knobs are reproduction-specific and documented in DESIGN.md:

* ``max_premise_length`` / ``max_premise_span`` bound the mined premise to
  at most that many regions spanning at most that many consecutive time
  offsets.  The paper's premises are short recent-movement prefixes (all
  worked examples use 1-2 regions at adjacent offsets); an unbounded
  Apriori over 300-offset transactions would enumerate astronomically many
  patterns that no query could ever rank first.
* ``min_support`` is the absolute itemset support; the paper folds support
  into MinPts/Eps, so it defaults to MinPts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .similarity import premise_weights

__all__ = ["HPMConfig"]

_WEIGHT_FUNCTIONS = ("linear", "quadratic", "exponential", "factorial")


@dataclass(frozen=True)
class HPMConfig:
    """All tunables of the Hybrid Prediction Model in one immutable record.

    Attributes
    ----------
    period:
        The pattern period ``T`` (timestamps per sub-trajectory).
    eps:
        DBSCAN neighbourhood radius for frequent-region discovery.
    min_pts:
        DBSCAN core-point threshold.
    min_confidence:
        Minimum rule confidence for a trajectory pattern.
    min_support:
        Absolute itemset support; ``None`` means "use ``min_pts``" (the
        paper treats MinPts/Eps as the support analogue).
    distant_threshold:
        ``d`` of Definition 2 — queries with ``tq >= tc + d`` are distant
        and answered by BQP.
    time_relaxation:
        ``t_eps`` of Algorithm 3 (consequence-offset interval half-width).
    top_k:
        Number of predicted locations returned.
    weight_function:
        Premise-weight family: ``linear``, ``quadratic``, ``exponential``
        or ``factorial`` (Section VI-A).
    max_premise_length:
        Maximum number of regions in a pattern premise.
    max_premise_span:
        Maximum offset distance between the first and last premise region.
    max_consequence_gap:
        Maximum offset distance between the last premise region and the
        consequence; ``None`` derives ``distant_threshold + recent_window``
        (enough for every FQP retrieval — farther queries are BQP, which
        matches by consequence offset alone; see DESIGN.md).
    far_premise_stride:
        Offset stride of the single-region *far* premises mined beyond the
        gap cap (they carry BQP's premise-similarity signal to distant
        consequences).
    recent_window:
        Number of trailing samples treated as "recent movements" when
        mapping a query to frequent regions and when fitting the fallback
        motion function.
    refit_mode:
        How :meth:`HybridPredictionModel.update` refreshes mined state:
        ``"delta"`` (default) re-clusters only the offsets that received
        new rows and re-scores only the rules a changed region can move —
        byte-identical to a scratch fit (see DESIGN.md §11); ``"full"``
        always re-mines the whole history (the legacy path).
    refit_full_every:
        Staleness budget: force a full re-mine after this many consecutive
        delta refits (``None`` = never — delta refits are exact, so the
        budget is a belt-and-braces knob, not a correctness requirement).
    """

    period: int = 300
    eps: float = 30.0
    min_pts: int = 4
    min_confidence: float = 0.3
    min_support: int | None = None
    distant_threshold: int = 60
    time_relaxation: int = 2
    top_k: int = 1
    weight_function: str = "linear"
    max_premise_length: int = 2
    max_premise_span: int = 2
    max_consequence_gap: int | None = None
    far_premise_stride: int = 5
    recent_window: int = 10
    refit_mode: str = "delta"
    refit_full_every: int | None = None

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {self.min_pts}")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValueError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )
        if self.min_support is not None and self.min_support < 1:
            raise ValueError(f"min_support must be >= 1, got {self.min_support}")
        if not 0 < self.distant_threshold < self.period:
            raise ValueError(
                "distant_threshold must satisfy 0 < d < period "
                f"(Definition 2), got {self.distant_threshold}"
            )
        if self.time_relaxation < 1:
            raise ValueError(
                f"time_relaxation must be >= 1, got {self.time_relaxation}"
            )
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.weight_function not in _WEIGHT_FUNCTIONS:
            raise ValueError(
                f"weight_function must be one of {_WEIGHT_FUNCTIONS}, "
                f"got {self.weight_function!r}"
            )
        if self.max_premise_length < 1:
            raise ValueError(
                f"max_premise_length must be >= 1, got {self.max_premise_length}"
            )
        self._check_premise_weights()
        if self.max_premise_span < 1:
            raise ValueError(
                f"max_premise_span must be >= 1, got {self.max_premise_span}"
            )
        if self.max_consequence_gap is not None and self.max_consequence_gap < 1:
            raise ValueError(
                "max_consequence_gap must be >= 1 or None, "
                f"got {self.max_consequence_gap}"
            )
        if self.far_premise_stride < 1:
            raise ValueError(
                f"far_premise_stride must be >= 1, got {self.far_premise_stride}"
            )
        if self.recent_window < 2:
            raise ValueError(f"recent_window must be >= 2, got {self.recent_window}")
        if self.refit_mode not in ("delta", "full"):
            raise ValueError(
                f"refit_mode must be 'delta' or 'full', got {self.refit_mode!r}"
            )
        if self.refit_full_every is not None and self.refit_full_every < 1:
            raise ValueError(
                f"refit_full_every must be >= 1 or None, got {self.refit_full_every}"
            )

    def _check_premise_weights(self) -> None:
        # Candidate filtering (FQP's ``S_r > 0``) relies on every premise
        # weight being finite and strictly positive.  The longest premise
        # has the largest normaliser, so checking it covers all shorter
        # ones; steep families overflow (raise) or round to 0.0 first.
        try:
            weights = premise_weights(self.max_premise_length, self.weight_function)
            usable = all(math.isfinite(w) and w > 0.0 for w in weights)
        except OverflowError:
            usable = False
        if not usable:
            raise ValueError(
                f"{self.weight_function!r} premise weights over "
                f"max_premise_length={self.max_premise_length} are not all "
                "finite and positive; use a shorter premise or a flatter "
                "weight function"
            )

    @classmethod
    def from_dict(cls, stored: dict) -> "HPMConfig":
        """Rebuild a config stored by ``dataclasses.asdict`` in a snapshot.

        An unknown key raises ``TypeError``.
        """
        return cls(**stored)

    @property
    def effective_min_support(self) -> int:
        """The itemset support threshold actually used by the miner."""
        return self.min_pts if self.min_support is None else self.min_support

    @property
    def effective_max_consequence_gap(self) -> int:
        """The consequence-gap cap actually used by the miner."""
        if self.max_consequence_gap is not None:
            return self.max_consequence_gap
        return self.distant_threshold + self.recent_window

    def with_overrides(self, **kwargs) -> "HPMConfig":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **kwargs)
