"""Incremental (delta) refit of a fitted model's mined state.

The paper's dynamic-data path re-mines the whole accumulated history every
time new movements arrive.  This module provides the delta equivalents
whose output is **byte-identical** to mining from scratch over the
concatenated history, at a fraction of the cost:

* :func:`delta_discover_frequent_regions` re-clusters only the *dirty*
  offsets — the ``(start_time + row) mod T`` cells that actually received
  new rows.  Offset groups are independent in DBSCAN, so regions at clean
  offsets are reused verbatim (the same objects).  Regions
  recomputed at a dirty offset are *interned*: when the re-clustered
  region is content-identical to the previous one at the same
  ``(offset, index)``, the old object is kept, which is what lets the
  miner detect "nothing moved here" by identity.

* :func:`delta_mine_trajectory_patterns` reproduces the exact output of
  :func:`repro.core.patterns.mine_trajectory_patterns` — same item order,
  same level-wise premise extension, same rule windows with the gap-cap
  and far-premise breaks — without re-walking the rule loop for clean
  work.  The previous corpus is premise-major (rules grouped by premise,
  in premise-enumeration order), so it is merged group-by-group against
  the new premise enumeration: a clean premise whose consequence window
  contains no changed or removed region keeps its whole old rule list by
  one ``extend``; a clean premise with some *invalid* keys in its window
  re-scores only those keys and splices the untouched old-rule runs
  around them; only premises that themselves contain a changed region
  walk their full window.  The miner therefore also knows exactly which
  rules appeared, vanished, or were re-scored, and returns that
  :class:`CorpusDelta` directly — no O(corpus) diff pass is needed.

Identity argument (see DESIGN.md §11): a clean region's visit mask is the
same integer as before (``min_support`` is absolute, and confidence is the
ratio of two such counts, so a growing transaction count never moves it),
and the enumeration order depends only on ``(offset, index)`` ids — which
interning preserves.  Hence the delta corpus equals the scratch corpus
element-wise, with unchanged patterns being the *same objects*.

:class:`StagedUpdate` packages one prepared refresh — the new pattern
table, key tables and score kernel — so every heavy phase runs outside
any lock; :meth:`HybridPredictionModel.commit_update` installs it under
the lock with a pointer swap and raises :class:`StaleUpdateError` when
the model moved in between.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..signature import bitset
from ..trajectory.trajectory import Trajectory
from .patterns import PatternMiningStats, TrajectoryPattern
from .regions import FrequentRegion, RegionSet, cluster_offset_group

if TYPE_CHECKING:
    from .keys import KeyCodec
    from .scorekernel import ScoreKernel

__all__ = [
    "StaleUpdateError",
    "RefitStats",
    "StagedUpdate",
    "CorpusDelta",
    "delta_discover_frequent_regions",
    "intern_regions",
    "delta_mine_trajectory_patterns",
    "pattern_unchanged",
    "diff_pattern_corpus",
    "CONFIDENCE_TOLERANCE",
]

# Confidence is support/premise_support — two small ints — so an unchanged
# rule recomputes to the bit-identical float.  The tolerance only guards
# against future scoring variants that accumulate differently.
CONFIDENCE_TOLERANCE = 1e-12


class StaleUpdateError(RuntimeError):
    """A staged update was prepared against state the model no longer has.

    Raised by :meth:`HybridPredictionModel.commit_update` when another
    fit/update/restore installed between ``prepare_update`` and the
    commit.  The prepared work must be discarded and re-prepared against
    the current state.
    """


@dataclass(frozen=True)
class RefitStats:
    """What one :meth:`HybridPredictionModel.update` actually did.

    Attributes
    ----------
    mode:
        ``"delta"`` (incremental path) or ``"full"`` (whole-history
        re-mine).
    fallback:
        Why a requested delta escalated to full (``"staleness"`` — the
        ``refit_full_every`` budget ran out) or ``None``.
    index:
        ``"kept"`` (delta refit, pattern table unchanged: the installed
        score kernel is reused), ``"patched"`` (delta refit that moved
        some patterns under unchanged region ids: the kernel is updated
        row-wise, :meth:`ScoreKernel.updated`), ``"rebuilt"`` (a full
        re-mine, or the region ids moved: the kernel is packed afresh) or
        ``"cleared"`` (pattern-free degenerate mode).
    new_rows:
        Positions appended to the history by this update.
    dirty_offsets:
        Offsets re-clustered (== period for a full re-mine).
    changed_regions:
        Regions whose content differed from the previous fit (new,
        reshaped, or re-indexed ones; removed regions are not counted).
    patterns_added / patterns_removed / patterns_replaced / patterns_kept:
        Corpus diff against the previous state.  A replaced pattern is one
        re-scored at the same premise and consequence, counted once.
    """

    mode: str
    fallback: str | None
    index: str
    new_rows: int
    dirty_offsets: int
    changed_regions: int
    patterns_added: int
    patterns_removed: int
    patterns_replaced: int
    patterns_kept: int


@dataclass
class StagedUpdate:
    """One prepared model refresh, ready to be committed under the lock.

    Produced by :meth:`HybridPredictionModel.prepare_update` (the heavy
    phases: delta clustering, delta mining and packing the score kernel).
    Holds no references into live mutable model state; committing is a
    pointer swap.  ``codec`` and ``kernel`` are ``None`` when the new
    table has no pattern.
    """

    token: int
    history: Trajectory
    regions: RegionSet
    patterns: list[TrajectoryPattern]
    mining_stats: PatternMiningStats
    refit: RefitStats
    codec: "KeyCodec | None"
    kernel: "ScoreKernel | None"
    phase_seconds: dict = field(default_factory=dict)


def _region_content_equal(old: FrequentRegion, new: FrequentRegion) -> bool:
    """Whether two same-(offset, index) regions are byte-identical.

    center/bbox are deterministic reductions of ``points``, so comparing
    members and contributors suffices.
    """
    return (
        old.subtrajectory_ids == new.subtrajectory_ids
        and old.points.shape == new.points.shape
        and np.array_equal(old.points, new.points)
    )


def delta_discover_frequent_regions(
    trajectory: Trajectory,
    old_regions: RegionSet,
    dirty_offsets: Iterable[int],
    eps: float,
    min_pts: int,
) -> tuple[RegionSet, list[FrequentRegion]]:
    """Re-cluster only the dirty offsets of an extended history.

    Returns the full new :class:`RegionSet` plus the list of *changed*
    regions — regions whose content differs from the previous set at the
    same ``(offset, index)`` (including brand-new ones).  Clean-offset
    regions and content-identical recomputed regions are the *same
    objects* as in ``old_regions``, so downstream consumers can detect
    unchanged state by identity.

    Byte-identity: offset groups are disjoint, so re-running DBSCAN on the
    groups that gained rows while keeping the untouched groups' clusters
    verbatim reproduces exactly what :func:`discover_frequent_regions`
    computes over the whole history.
    """
    period = old_regions.period
    positions = trajectory.positions
    n = positions.shape[0]
    dirty = {int(o) % period for o in dirty_offsets}
    row_idx = np.arange(n, dtype=np.int64)
    offsets_all = (trajectory.start_time + row_idx) % period
    group_order = np.argsort(offsets_all, kind="stable")
    group_counts = np.bincount(offsets_all, minlength=period)
    group_starts = np.concatenate(([0], np.cumsum(group_counts)[:-1]))

    regions: list[FrequentRegion] = []
    changed: list[FrequentRegion] = []
    for offset in range(period):
        old_here = old_regions.at_offset(offset)
        if offset not in dirty:
            regions.extend(old_here)
            continue
        count = int(group_counts[offset])
        fresh: list[FrequentRegion] = []
        if count:
            rows = group_order[group_starts[offset] : group_starts[offset] + count]
            fresh = cluster_offset_group(
                positions, rows, offset, period, eps, min_pts
            )
        old_by_index = {region.index: region for region in old_here}
        for region in fresh:
            old = old_by_index.get(region.index)
            if old is not None and _region_content_equal(old, region):
                regions.append(old)
            else:
                regions.append(region)
                changed.append(region)
        # Old regions whose index no longer exists simply drop out.
    return RegionSet(regions, period=period, eps=eps), changed


def intern_regions(
    new_regions: RegionSet, old_regions: RegionSet
) -> tuple[RegionSet, list[FrequentRegion]]:
    """Replace content-identical regions of ``new_regions`` by old objects.

    Used by the *full* refit path so unchanged regions stay the previous
    objects even though the whole history was re-clustered.  Returns the
    interned set and the regions that genuinely changed.
    """
    old_by_key = {(r.offset, r.index): r for r in old_regions}
    regions: list[FrequentRegion] = []
    changed: list[FrequentRegion] = []
    for region in new_regions:
        old = old_by_key.get((region.offset, region.index))
        if old is not None and _region_content_equal(old, region):
            regions.append(old)
        else:
            regions.append(region)
            changed.append(region)
    return (
        RegionSet(regions, period=new_regions.period, eps=new_regions.eps),
        changed,
    )


@dataclass
class CorpusDelta:
    """What changed between the previous and the freshly mined corpus.

    ``inserts`` are brand-new rules, ``removes`` are vanished rules, and
    ``rebinds`` are ``(old, new)`` pairs of re-scored rules whose
    premise/consequence *positions* — and hence their encoded pattern
    key — did not move.  ``kept`` counts rules returned as the previous
    corpus' objects.  :class:`RefitStats` reports the counts.
    """

    inserts: list[TrajectoryPattern] = field(default_factory=list)
    removes: list[TrajectoryPattern] = field(default_factory=list)
    rebinds: list[tuple[TrajectoryPattern, TrajectoryPattern]] = field(
        default_factory=list
    )
    kept: int = 0

    @property
    def added(self) -> int:
        return len(self.inserts)

    @property
    def removed(self) -> int:
        return len(self.removes)

    @property
    def replaced(self) -> int:
        return len(self.rebinds)

    @property
    def empty(self) -> bool:
        return not (self.inserts or self.removes or self.rebinds)


def _group_by_premise(
    old_patterns: Sequence[TrajectoryPattern],
) -> list[tuple[tuple, tuple[FrequentRegion, ...], list[TrajectoryPattern], list[tuple]]]:
    """Split a corpus into premise-major groups, in corpus order.

    Returns ``(order_key, premise, rules, consequence_keys)`` per group
    where ``order_key = (premise_length, ((offset, index), ...))`` sorts
    groups exactly like the miner enumerates premises (level blocks, then
    generation order, which is lexicographic in the member positions).
    Consecutive runs normally share one premise tuple object; equal-keyed
    runs are merged defensively in case a producer mixed tuple instances.
    """
    groups: list = []
    prev_premise: tuple | None = None
    for pattern in old_patterns:
        premise = pattern.premise
        if premise is not prev_premise:
            prev_premise = premise
            pkey = tuple((r.offset, r.index) for r in premise)
            order_key = (len(premise), pkey)
            if groups and groups[-1][0] == order_key:
                pass  # same premise under a different tuple object
            else:
                groups.append((order_key, premise, [], []))
        _, _, rules, ckeys = groups[-1]
        rules.append(pattern)
        ckeys.append((pattern.consequence.offset, pattern.consequence.index))
    return groups


def delta_mine_trajectory_patterns(
    regions: RegionSet,
    num_subtrajectories: int,
    min_support: int,
    min_confidence: float,
    old_patterns: Sequence[TrajectoryPattern],
    old_masks: dict[FrequentRegion, int] | None,
    changed_regions: Iterable[FrequentRegion],
    max_premise_length: int = 2,
    max_premise_span: int = 2,
    max_consequence_gap: int | None = None,
    far_premise_stride: int = 5,
) -> tuple[list[TrajectoryPattern], PatternMiningStats, CorpusDelta]:
    """Mine an updated corpus, reusing everything the new data cannot move.

    ``regions`` must come from :func:`delta_discover_frequent_regions` (or
    :func:`intern_regions`): regions not listed in ``changed_regions`` are
    the same objects as in the previous fit, with identical visit masks,
    and ``old_patterns`` must be the corpus mined from that previous fit
    (premise-major, as every miner here emits).  The returned pattern list
    is element-wise identical to :func:`mine_trajectory_patterns` over
    ``regions`` — unchanged rules are returned as the previous corpus'
    objects — and the :class:`CorpusDelta` records exactly how the corpus
    moved, so no separate diff pass is needed.
    """
    changed_ids = {id(region) for region in changed_regions}
    if old_masks is None:
        old_masks = {}

    masks: dict[FrequentRegion, int] = {}
    for region in regions:
        if id(region) not in changed_ids and region in old_masks:
            masks[region] = old_masks[region]
        else:
            masks[region] = bitset.from_indices(
                sub_id
                for sub_id in set(region.subtrajectory_ids)
                if 0 <= sub_id < num_subtrajectories
            )

    frequent_items = [
        (region, mask, id(region) not in changed_ids)
        for region, mask in masks.items()
        if mask.bit_count() >= min_support
    ]
    frequent_items.sort(key=lambda rm: (rm[0].offset, rm[0].index))
    item_offsets = [region.offset for region, _, _ in frequent_items]
    item_by_key = {
        (region.offset, region.index): (region, mask)
        for region, mask, _ in frequent_items
    }

    # Invalid consequence keys: positions whose old rule scores cannot be
    # trusted — changed regions plus regions that dropped out entirely.
    new_keys = {(region.offset, region.index) for region in regions}
    invalid_keys = sorted(
        {(region.offset, region.index) for region in changed_regions}
        | {
            (region.offset, region.index)
            for region in old_masks
            if (region.offset, region.index) not in new_keys
        }
    )
    invalid_offsets = sorted({offset for offset, _ in invalid_keys})

    # Same level-wise premise extension as the full miner; a premise is
    # clean when every member region is.  (The extension itself is cheap —
    # a few thousand ANDs — so it is not delta'd.)
    premises: list[tuple[tuple[FrequentRegion, ...], int, bool]] = [
        ((region, ), mask, clean) for region, mask, clean in frequent_items
    ]
    all_premises = list(premises)
    for _level in range(2, max_premise_length + 1):
        extended: list[tuple[tuple[FrequentRegion, ...], int, bool]] = []
        for premise, mask, premise_clean in premises:
            first_offset = premise[0].offset
            last_offset = premise[-1].offset
            for region, region_mask, region_clean in frequent_items:
                if region.offset <= last_offset:
                    continue
                if region.offset - first_offset > max_premise_span:
                    break  # items sorted by offset: all later ones fail too
                joint = mask & region_mask
                if joint.bit_count() >= min_support:
                    extended.append(
                        (premise + (region,), joint, premise_clean and region_clean)
                    )
        all_premises.extend(extended)
        premises = extended
        if not premises:
            break

    # Merge the old premise-major corpus against the new premise
    # enumeration.  Both sequences advance in the same order key, so one
    # group pointer suffices; groups skipped over belong to premises that
    # are no longer frequent and their rules are removals.
    groups = _group_by_premise(old_patterns)
    num_groups = len(groups)
    gp = 0
    delta = CorpusDelta()
    inserts, removes, rebinds = delta.inserts, delta.removes, delta.rebinds
    kept = 0
    patterns: list[TrajectoryPattern] = []
    for premise, premise_mask, premise_clean in all_premises:
        order_key = (
            len(premise),
            tuple((r.offset, r.index) for r in premise),
        )
        while gp < num_groups and groups[gp][0] < order_key:
            removes.extend(groups[gp][2])
            gp += 1
        group = None
        if gp < num_groups and groups[gp][0] == order_key:
            group = groups[gp]
            gp += 1
        last_offset = premise[-1].offset
        far_eligible = (
            len(premise) == 1 and premise[0].offset % far_premise_stride == 0
        )
        if max_consequence_gap is not None and not far_eligible:
            hi_offset: int | None = last_offset + max_consequence_gap
        else:
            hi_offset = None

        if premise_clean:
            # Any invalid key inside this premise's consequence window?
            i0 = bisect_right(invalid_offsets, last_offset)
            window_dirty = i0 < len(invalid_offsets) and (
                hi_offset is None or invalid_offsets[i0] <= hi_offset
            )
            if not window_dirty:
                if group is not None:
                    rules = group[2]
                    patterns.extend(rules)
                    kept += len(rules)
                continue
            # Splice: copy old-rule runs verbatim, re-score only at the
            # invalid keys.  Old rules share the window bounds (same
            # config, same premise), so the trailing run is all-clean.
            old_premise = group[1] if group is not None else premise
            old_rules = group[2] if group is not None else []
            old_ckeys = group[3] if group is not None else []
            n_old = len(old_rules)
            premise_support = premise_mask.bit_count()
            ptr = 0
            k0 = bisect_left(invalid_keys, (last_offset + 1,))
            k1 = (
                bisect_left(invalid_keys, (hi_offset + 1,))
                if hi_offset is not None
                else len(invalid_keys)
            )
            for key in invalid_keys[k0:k1]:
                nxt = bisect_left(old_ckeys, key, ptr)
                if nxt > ptr:
                    patterns.extend(old_rules[ptr:nxt])
                    kept += nxt - ptr
                    ptr = nxt
                old_here = None
                if ptr < n_old and old_ckeys[ptr] == key:
                    old_here = old_rules[ptr]
                    ptr += 1
                item = item_by_key.get(key)
                new_here = None
                if item is not None:
                    region, region_mask = item
                    joint = premise_mask & region_mask
                    support = joint.bit_count()
                    if support >= min_support:
                        confidence = support / premise_support
                        if confidence >= min_confidence:
                            new_here = TrajectoryPattern._unchecked(
                                old_premise, region, support, confidence
                            )
                if new_here is not None:
                    patterns.append(new_here)
                    if old_here is not None:
                        rebinds.append((old_here, new_here))
                    else:
                        inserts.append(new_here)
                elif old_here is not None:
                    removes.append(old_here)
            if ptr < n_old:
                patterns.extend(old_rules[ptr:])
                kept += n_old - ptr
            continue

        # Premise contains a changed region (or is newly frequent): every
        # rule in its window is re-scored; old rules pair up by
        # consequence position for the op classification.
        old_rules = group[2] if group is not None else []
        old_ckeys = group[3] if group is not None else []
        n_old = len(old_rules)
        ptr = 0
        premise_support = premise_mask.bit_count()
        lo = bisect_right(item_offsets, last_offset)
        hi = (
            bisect_right(item_offsets, hi_offset)
            if hi_offset is not None
            else len(frequent_items)
        )
        for idx in range(lo, hi):
            region, region_mask, _region_clean = frequent_items[idx]
            key = (region.offset, region.index)
            while ptr < n_old and old_ckeys[ptr] < key:
                removes.append(old_rules[ptr])
                ptr += 1
            old_here = None
            if ptr < n_old and old_ckeys[ptr] == key:
                old_here = old_rules[ptr]
                ptr += 1
            joint = premise_mask & region_mask
            support = joint.bit_count()
            new_here = None
            if support >= min_support:
                confidence = support / premise_support
                if confidence >= min_confidence:
                    new_here = TrajectoryPattern._unchecked(
                        premise, region, support, confidence
                    )
            if new_here is not None:
                patterns.append(new_here)
                if old_here is not None:
                    rebinds.append((old_here, new_here))
                else:
                    inserts.append(new_here)
            elif old_here is not None:
                removes.append(old_here)
        removes.extend(old_rules[ptr:])
    while gp < num_groups:
        removes.extend(groups[gp][2])
        gp += 1
    delta.kept = kept

    stats = PatternMiningStats(
        num_transactions=num_subtrajectories,
        num_frequent_items=len(frequent_items),
        num_frequent_premises=len(all_premises),
        num_patterns=len(patterns),
        region_masks=masks,
    )
    return patterns, stats, delta


def pattern_unchanged(old: TrajectoryPattern, new: TrajectoryPattern) -> bool:
    """Whether a re-mined rule equals the previous one in every field.

    True only when support matches, confidence matches within
    :data:`CONFIDENCE_TOLERANCE`, and every involved region is the *same
    object* (interning guarantees identity for content-identical regions —
    an object that merely compares equal by ``(offset, index)`` may carry
    different member points, and answers serve those points' centers as
    predicted locations).
    """
    if old is new:
        return True
    if old.support != new.support:
        return False
    if (
        old.confidence != new.confidence
        and abs(old.confidence - new.confidence) > CONFIDENCE_TOLERANCE
    ):
        return False
    if old.consequence is not new.consequence:
        return False
    if len(old.premise) != len(new.premise):
        return False
    return all(a is b for a, b in zip(old.premise, new.premise))


def diff_pattern_corpus(
    old_patterns: Sequence[TrajectoryPattern],
    new_patterns: list[TrajectoryPattern],
) -> tuple[list[TrajectoryPattern], list[TrajectoryPattern], int, int, int]:
    """Corpus diff by pattern identity (the reference the delta miner's
    :class:`CorpusDelta` is tested against).

    Returns ``(inserts, removes, added, replaced, kept)``.  Replaced
    patterns appear in both lists (remove the stale entry, insert the
    fresh one); ``new_patterns`` is normalised in place so unchanged rules
    reference the previous corpus' objects.
    """
    old_by_identity = {
        (pattern.premise, pattern.consequence): pattern
        for pattern in old_patterns
    }
    inserts: list[TrajectoryPattern] = []
    removes: list[TrajectoryPattern] = []
    added = replaced = kept = 0
    seen: set = set()
    for i, pattern in enumerate(new_patterns):
        identity = (pattern.premise, pattern.consequence)
        seen.add(identity)
        old = old_by_identity.get(identity)
        if old is None:
            inserts.append(pattern)
            added += 1
        elif pattern_unchanged(old, pattern):
            new_patterns[i] = old
            kept += 1
        else:
            removes.append(old)
            inserts.append(pattern)
            replaced += 1
    pure_removals = [
        old
        for identity, old in old_by_identity.items()
        if identity not in seen
    ]
    removes.extend(pure_removals)
    return inserts, removes, added, replaced, kept
