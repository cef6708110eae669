"""Trajectory patterns and their discovery (Section IV).

Definition 1: "A trajectory pattern P is a special association rule of the
form ``R_{t1}^{j1} ∧ R_{t2}^{j2} ∧ ... ∧ R_{tm}^{jm} --c--> R_{tn}^{jn}``
with time constraint ``t1 < t2 < ... < tm < tn``."

Mining = modified Apriori over per-sub-trajectory transactions whose items
are frequent-region visits, with the paper's two pruning rules baked in:

1. *time monotonicity* — premise offsets strictly precede the consequence
   offset ("we do not predict past or current positions from future
   movements");
2. *single consequence* — Theorem 1: a rule with several regions in its
   consequence always has confidence <= its single-consequence sibling with
   the same premise, so it can never be ranked first and is never
   generated.

Implementation notes
--------------------
The itemset lattice is counted in *vertical* form: each frequent region
carries the bitmask of sub-trajectories that visit it (directly available
from DBSCAN membership), so support of any region combination is one AND +
popcount.  This is algebraically identical to level-wise Apriori counting
(the tests cross-check it against a textbook Apriori on small inputs) but
avoids a transaction scan per candidate.

Premises are bounded by ``max_premise_length`` regions within
``max_premise_span`` consecutive offsets — the reproduction-specific cap
discussed in DESIGN.md (queries rank patterns by similarity to a short
recent-movement window, so wider premises can never win; an unbounded
lattice over 300-offset transactions is combinatorially explosive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from ..signature import bitset
from .regions import FrequentRegion, RegionSet

__all__ = [
    "TrajectoryPattern",
    "build_transactions",
    "region_visit_masks",
    "mine_trajectory_patterns",
    "count_rules_unpruned",
    "PatternMiningStats",
]


@dataclass(frozen=True)
class TrajectoryPattern:
    """One mined rule ``premise --confidence--> consequence``.

    ``premise`` is ordered by time offset; ``support`` counts the
    sub-trajectories containing premise and consequence together.
    """

    premise: tuple[FrequentRegion, ...]
    consequence: FrequentRegion
    support: int
    confidence: float

    def __post_init__(self) -> None:
        if not self.premise:
            raise ValueError("pattern premise must be non-empty")
        offsets = [r.offset for r in self.premise]
        if offsets != sorted(offsets) or len(set(offsets)) != len(offsets):
            raise ValueError(
                f"premise offsets must be strictly increasing, got {offsets}"
            )
        if self.consequence.offset <= offsets[-1]:
            raise ValueError(
                "consequence offset must exceed every premise offset "
                f"({self.consequence.offset} <= {offsets[-1]})"
            )
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")
        if self.support < 1:
            raise ValueError(f"support must be >= 1, got {self.support}")

    @classmethod
    def _unchecked(
        cls,
        premise: tuple[FrequentRegion, ...],
        consequence: FrequentRegion,
        support: int,
        confidence: float,
    ) -> "TrajectoryPattern":
        """Construct without re-running ``__post_init__`` validation.

        For callers whose construction already guarantees the invariants
        (the miner builds premises in strictly increasing offset order and
        only pairs them with later consequences); public constructions go
        through the validating ``__init__``.
        """
        self = object.__new__(cls)
        self.__dict__["premise"] = premise
        self.__dict__["consequence"] = consequence
        self.__dict__["support"] = support
        self.__dict__["confidence"] = confidence
        return self

    @property
    def premise_offsets(self) -> tuple[int, ...]:
        """Time offsets of the premise regions, ascending."""
        return tuple(r.offset for r in self.premise)

    @property
    def consequence_offset(self) -> int:
        """Time offset of the consequence region."""
        return self.consequence.offset

    def __str__(self) -> str:
        prem = " ∧ ".join(r.label for r in self.premise)
        return f"{prem} --{self.confidence:.2f}--> {self.consequence.label}"


@dataclass(frozen=True)
class PatternMiningStats:
    """Bookkeeping from one mining run (used by the pruning ablation).

    ``region_masks`` carries the vertical region-visit bitmasks the run
    was counted from, so downstream consumers (the pruning-ablation
    bench's :func:`count_rules_unpruned`) can reuse them instead of
    recomputing; it is excluded from equality and repr.
    """

    num_transactions: int
    num_frequent_items: int
    num_frequent_premises: int
    num_patterns: int
    region_masks: dict | None = field(default=None, repr=False, compare=False)


def build_transactions(
    regions: RegionSet, num_subtrajectories: int
) -> list[dict[int, FrequentRegion]]:
    """Per-sub-trajectory region visits: ``transactions[k][t] = R_t^j``.

    Built from DBSCAN membership (each region records which sub-trajectory
    contributed each member point), so a sub-trajectory visits at most one
    region per offset.
    """
    if num_subtrajectories < 1:
        raise ValueError(
            f"num_subtrajectories must be >= 1, got {num_subtrajectories}"
        )
    transactions: list[dict[int, FrequentRegion]] = [
        {} for _ in range(num_subtrajectories)
    ]
    for region in regions:
        for sub_id in set(region.subtrajectory_ids):
            if 0 <= sub_id < num_subtrajectories:
                transactions[sub_id][region.offset] = region
    return transactions


def region_visit_masks(
    regions: RegionSet, num_subtrajectories: int
) -> dict[FrequentRegion, int]:
    """Vertical representation: region -> bitmask of visiting sub-trajectories."""
    masks: dict[FrequentRegion, int] = {}
    for region in regions:
        masks[region] = bitset.from_indices(
            sub_id
            for sub_id in set(region.subtrajectory_ids)
            if 0 <= sub_id < num_subtrajectories
        )
    return masks


# Backwards-compatible private alias (pre-public name).
_region_masks = region_visit_masks


def mine_trajectory_patterns(
    regions: RegionSet,
    num_subtrajectories: int,
    min_support: int,
    min_confidence: float,
    max_premise_length: int = 2,
    max_premise_span: int = 2,
    max_consequence_gap: int | None = None,
    far_premise_stride: int = 5,
    return_stats: bool = False,
    region_masks: dict[FrequentRegion, int] | None = None,
) -> list[TrajectoryPattern] | tuple[list[TrajectoryPattern], PatternMiningStats]:
    """Mine all trajectory patterns satisfying the paper's constraints.

    Parameters
    ----------
    regions:
        Frequent regions from :func:`repro.core.regions.discover_frequent_regions`.
    num_subtrajectories:
        Number of training sub-trajectories (the transaction count).
    min_support:
        Minimum sub-trajectory count for premise∪consequence.
    min_confidence:
        Minimum rule confidence ``c``.
    max_premise_length / max_premise_span:
        Premise caps (see module docstring).
    max_consequence_gap:
        Maximum offset distance between the last premise region and the
        consequence; ``None`` = unlimited.  FQP only ever retrieves
        patterns whose consequence is less than the distant-time threshold
        ahead of the premise (farther queries go to BQP, which matches by
        consequence offset alone), so capping the gap near that threshold
        bounds the corpus to the paper's pattern-count magnitudes without
        changing query answers — see DESIGN.md.
    far_premise_stride:
        Beyond the gap cap, *far* patterns are still mined for
        single-region premises whose offset is a multiple of this stride.
        They carry the premise-similarity signal BQP's Eq. 5 needs to
        disambiguate alternative routes at distant query times, at a
        fraction of the unbounded corpus size.  Ignored when
        ``max_consequence_gap`` is ``None``.
    return_stats:
        Also return a :class:`PatternMiningStats` record.
    region_masks:
        Precomputed :func:`region_visit_masks` for ``(regions,
        num_subtrajectories)``; computed when omitted.
    """
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError(f"min_confidence must be in [0, 1], got {min_confidence}")
    if max_premise_length < 1:
        raise ValueError(f"max_premise_length must be >= 1, got {max_premise_length}")
    if max_premise_span < 1:
        raise ValueError(f"max_premise_span must be >= 1, got {max_premise_span}")
    if max_consequence_gap is not None and max_consequence_gap < 1:
        raise ValueError(
            f"max_consequence_gap must be >= 1 or None, got {max_consequence_gap}"
        )
    if far_premise_stride < 1:
        raise ValueError(
            f"far_premise_stride must be >= 1, got {far_premise_stride}"
        )

    masks = (
        region_visit_masks(regions, num_subtrajectories)
        if region_masks is None
        else region_masks
    )
    frequent_items = [
        (region, mask)
        for region, mask in masks.items()
        if mask.bit_count() >= min_support
    ]
    frequent_items.sort(key=lambda rm: (rm[0].offset, rm[0].index))

    # Frequent premises, level-wise: a premise of length L extends one of
    # length L-1 by a region at a strictly later offset within the span.
    premises: list[tuple[tuple[FrequentRegion, ...], int]] = [
        ((region,), mask) for region, mask in frequent_items
    ]
    all_premises = list(premises)
    for _level in range(2, max_premise_length + 1):
        extended: list[tuple[tuple[FrequentRegion, ...], int]] = []
        for premise, mask in premises:
            first_offset = premise[0].offset
            last_offset = premise[-1].offset
            for region, region_mask in frequent_items:
                if region.offset <= last_offset:
                    continue
                if region.offset - first_offset > max_premise_span:
                    break  # items sorted by offset: all later ones fail too
                joint = mask & region_mask
                if joint.bit_count() >= min_support:
                    extended.append((premise + (region,), joint))
        all_premises.extend(extended)
        premises = extended
        if not premises:
            break

    # Rules: premise --> any single frequent region at a later offset
    # (within the consequence-gap cap when one is set; far-eligible
    # premises keep going past the cap).
    patterns: list[TrajectoryPattern] = []
    for premise, premise_mask in all_premises:
        premise_support = premise_mask.bit_count()
        last_offset = premise[-1].offset
        far_eligible = (
            len(premise) == 1 and premise[0].offset % far_premise_stride == 0
        )
        for region, region_mask in frequent_items:
            if region.offset <= last_offset:
                continue
            if (
                max_consequence_gap is not None
                and not far_eligible
                and region.offset - last_offset > max_consequence_gap
            ):
                break  # items sorted by offset
            joint = premise_mask & region_mask
            support = joint.bit_count()
            if support < min_support:
                continue
            confidence = support / premise_support
            if confidence >= min_confidence:
                # Construction invariants hold here (ascending premise,
                # later consequence, support >= 1, confidence <= 1), so
                # skip the per-pattern __post_init__ re-validation.
                patterns.append(
                    TrajectoryPattern._unchecked(
                        premise, region, support, confidence
                    )
                )

    if not return_stats:
        return patterns
    stats = PatternMiningStats(
        num_transactions=num_subtrajectories,
        num_frequent_items=len(frequent_items),
        num_frequent_premises=len(all_premises),
        num_patterns=len(patterns),
        region_masks=masks,
    )
    return patterns, stats


def count_rules_unpruned(
    patterns: Sequence[TrajectoryPattern],
    regions: RegionSet,
    num_subtrajectories: int,
    min_confidence: float,
    masks: dict[FrequentRegion, int] | None = None,
) -> int:
    """Rules plain Apriori would emit over the same itemset universe.

    For every distinct itemset ``premise ∪ {consequence}`` appearing in the
    mined patterns, count *all* non-empty bipartitions (any premise order,
    multi-item consequences included) whose confidence clears
    ``min_confidence`` — the generation the paper prunes away.  The paper
    reports the pruning removed 58 % of patterns; the ablation benchmark
    compares ``len(patterns)`` to this count.

    ``masks`` accepts precomputed :func:`region_visit_masks` (e.g. from
    :attr:`PatternMiningStats.region_masks`) to skip the recomputation.
    """
    if masks is None:
        masks = region_visit_masks(regions, num_subtrajectories)
    itemsets = {
        frozenset(p.premise) | {p.consequence} for p in patterns
    }
    count = 0
    for itemset in itemsets:
        items = sorted(itemset, key=lambda r: (r.offset, r.index))
        joint_mask = _joint_mask(items, masks)
        joint_support = joint_mask.bit_count()
        for r in range(1, len(items)):
            for premise_tuple in combinations(items, r):
                premise_mask = _joint_mask(premise_tuple, masks)
                premise_support = premise_mask.bit_count()
                if premise_support == 0:
                    continue
                if joint_support / premise_support >= min_confidence:
                    count += 1
    return count


def _joint_mask(
    items: Iterable[FrequentRegion], masks: dict[FrequentRegion, int]
) -> int:
    mask = -1
    for item in items:
        mask &= masks[item]
    return 0 if mask == -1 else mask
