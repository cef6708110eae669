"""Query explanation: expose how FQP/BQP ranked their candidates.

A predicted location is the centre of a frequent region chosen by the
similarity machinery of Section VI; debugging a surprising answer means
inspecting the candidate set, each candidate's premise-similarity
contributions (which recent regions matched, with what weights),
consequence similarity and confidence.  :func:`explain_query` takes the
candidates from the same kernel block rows :class:`HybridPredictor`
scores, re-scores them with the scalar similarity functions and returns
all of it as a structured report, ranked like the answers (block order
breaks full ties).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..signature import bitset
from ..trajectory.point import TimedPoint
from .patterns import TrajectoryPattern
from .prediction import HybridPredictor
from .similarity import (
    bqp_score,
    consequence_similarity,
    fqp_score,
    premise_similarity,
    premise_weights,
)

__all__ = ["CandidateExplanation", "QueryExplanation", "explain_query"]


@dataclass(frozen=True)
class CandidateExplanation:
    """One scored candidate with its evidence breakdown."""

    pattern: TrajectoryPattern
    score: float
    premise_similarity: float
    consequence_similarity: float | None  # None for FQP
    confidence: float
    matched_regions: tuple[str, ...]  # labels of premise regions in the query
    matched_weights: tuple[float, ...]  # their Property-1 weights within rk

    def __str__(self) -> str:
        parts = [f"{self.pattern}  S_p={self.score:.3f}"]
        parts.append(f"  S_r={self.premise_similarity:.3f}")
        if self.consequence_similarity is not None:
            parts.append(f"  S_c={self.consequence_similarity:.3f}")
        if self.matched_regions:
            matched = ", ".join(
                f"{label} (w={weight:.2f})"
                for label, weight in zip(self.matched_regions, self.matched_weights)
            )
            parts.append(f"  matched: {matched}")
        return "".join(parts)


@dataclass(frozen=True)
class QueryExplanation:
    """Full report for one predictive query."""

    method: str  # "fqp" | "bqp" | "motion"
    current_time: int
    query_time: int
    query_offset: int
    recent_regions: tuple[str, ...]
    candidates: tuple[CandidateExplanation, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        head = (
            f"{self.method.upper()} query tc={self.current_time} "
            f"tq={self.query_time} (offset {self.query_offset}); "
            f"recent regions: {list(self.recent_regions) or 'none'}"
        )
        if not self.candidates:
            return head + "\n  (no pattern candidates — motion function answers)"
        lines = [head]
        for rank, cand in enumerate(self.candidates, 1):
            lines.append(f"  #{rank} {cand}")
        return "\n".join(lines)


def explain_query(
    predictor: HybridPredictor,
    recent: Sequence[TimedPoint],
    query_time: int,
    max_candidates: int = 10,
) -> QueryExplanation:
    """Explain how the predictor would answer ``(recent, query_time)``.

    Pure inspection: does not touch the predictor's statistics.
    """
    recent = list(recent)
    if not recent:
        raise ValueError("recent movements must be non-empty")
    if max_candidates < 1:
        raise ValueError(f"max_candidates must be >= 1, got {max_candidates}")
    config = predictor.config
    tc = recent[-1].t
    if query_time <= tc:
        raise ValueError(
            f"query time {query_time} must be after the current time {tc}"
        )

    recent_regions = predictor.map_recent_to_regions(recent)
    query_key = predictor.codec.encode_query(
        recent_regions, query_time % config.period
    )
    distant = query_time - tc >= config.distant_threshold

    kernel = predictor.kernel
    codec = predictor.codec
    if not distant:
        method = "fqp"
        raw = []
        pack = kernel.block_for_offset(query_time % config.period)
        if pack is not None and query_key.premise_key:
            raw = [
                (pattern, None)
                for pattern in pack.patterns
                if codec.premise_key(pattern.premise) & query_key.premise_key
            ]
    else:
        method = "bqp"
        raw = []
        t_eps = config.time_relaxation
        i = 1
        while True:
            relaxation = i * t_eps
            offsets = {
                t % config.period
                for t in range(query_time - relaxation, query_time + relaxation + 1)
            }
            mask = codec.consequence_mask(offsets)
            pack = kernel.select(mask) if mask else None
            if pack is not None:
                raw = [(pattern, relaxation) for pattern in pack.patterns]
                break
            i += 1
            if query_time - i * t_eps <= tc:
                break

    candidates = []
    horizon = query_time - tc
    for pattern, relaxation in raw:
        premise_key = codec.premise_key(pattern.premise)
        sr = premise_similarity(
            premise_key, query_key.premise_key, config.weight_function
        )
        matched_labels, matched_weights = _matched_breakdown(
            pattern, premise_key, query_key.premise_key, config.weight_function
        )
        if relaxation is None:
            sc = None
            score = fqp_score(sr, pattern.confidence)
        else:
            distance = predictor._offset_distance(
                pattern.consequence_offset, query_time
            )
            sc = consequence_similarity(distance, relaxation)
            score = bqp_score(
                sr, sc, pattern.confidence, config.distant_threshold, horizon
            )
        candidates.append(
            CandidateExplanation(
                pattern=pattern,
                score=score,
                premise_similarity=sr,
                consequence_similarity=sc,
                confidence=pattern.confidence,
                matched_regions=matched_labels,
                matched_weights=matched_weights,
            )
        )
    candidates.sort(key=lambda c: (-c.score, -c.confidence, -c.pattern.support))

    return QueryExplanation(
        method=method if candidates else "motion",
        current_time=tc,
        query_time=query_time,
        query_offset=query_time % config.period,
        recent_regions=tuple(r.label for r in recent_regions),
        candidates=tuple(candidates[:max_candidates]),
    )


def _matched_breakdown(
    pattern: TrajectoryPattern, rk: int, rkq: int, weight_kind: str
) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """Labels and Property-1 weights of the premise regions the query hit."""
    weights = premise_weights(bitset.size(rk), weight_kind)
    labels: list[str] = []
    matched_weights: list[float] = []
    common = rk & rkq
    # Premise regions are offset-ordered, matching the bit order of rk.
    set_bits = list(bitset.iter_set_bits(rk))
    for region, bit in zip(pattern.premise, set_bits):
        if common >> bit & 1:
            labels.append(region.label)
            matched_weights.append(weights[bitset.position_of_bit(rk, bit) - 1])
    return tuple(labels), tuple(matched_weights)
