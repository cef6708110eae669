"""Textbook Apriori and association rules: the reference for pattern mining.

Production mining is the vertical miner in :mod:`repro.core.patterns`.
This module re-implements the paper's Apriori step (Section IV) the
straightforward way so tests can hold the miner to identical supports,
confidences and rule counts:

* :func:`find_frequent_itemsets` — level-wise Apriori (Agrawal & Srikant,
  VLDB 1994): count 1-itemsets; join frequent ``(k-1)``-itemsets sharing a
  ``(k-2)``-prefix; prune candidates with an infrequent ``(k-1)``-subset;
  count the survivors with a subset scan over every transaction.
* :func:`generate_rules` — the paper's pruned generator: one rule per
  itemset, the consequence being the single maximum item (time
  monotonicity + Theorem 1's single consequence).
* :func:`generate_rules_unpruned` — every premise/consequence split, the
  baseline of the pruning ablation (the paper reports 58 % fewer
  patterns after pruning).

Items are interned into one canonical order per run (frequent items sorted
by ``repr``, a total order over arbitrary — including mixed-type —
hashables), so itemsets inside the level loop are ascending id tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Hashable, Iterable, Mapping, Sequence

Item = Hashable
Itemset = frozenset


def find_frequent_itemsets(
    transactions: Sequence[Iterable[Item]],
    min_support: int,
    max_length: int | None = None,
    candidate_filter: Callable[[Itemset], bool] | None = None,
) -> dict[Itemset, int]:
    """Every itemset appearing in at least ``min_support`` transactions.

    Duplicates within a transaction are ignored.  ``candidate_filter``
    rejects candidates before counting; it must be anti-monotone-safe
    (rejecting an itemset may reject all its supersets).
    """
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")
    if max_length is not None and max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")

    sets = [frozenset(t) for t in transactions]
    counts: dict[Item, int] = {}
    for t in sets:
        for item in t:
            counts[item] = counts.get(item, 0) + 1

    frequent_items = [item for item, c in counts.items() if c >= min_support]
    if candidate_filter is not None:
        frequent_items = [
            item for item in frequent_items if candidate_filter(frozenset((item,)))
        ]
    result: dict[Itemset, int] = {
        frozenset((item,)): counts[item] for item in frequent_items
    }
    items: list[Item] = sorted(frequent_items, key=repr)
    current_level: list[tuple[int, ...]] = [(i,) for i in range(len(items))]
    k = 2
    while len(current_level) > 1 and (max_length is None or k <= max_length):
        as_sets = {
            c: frozenset(items[i] for i in c)
            for c in _generate_candidates(current_level)
        }
        if candidate_filter is not None:
            as_sets = {c: s for c, s in as_sets.items() if candidate_filter(s)}
        level_counts = {
            c: sum(1 for t in sets if s <= t) for c, s in as_sets.items()
        }
        current_level = [c for c, n in level_counts.items() if n >= min_support]
        for c in current_level:
            result[as_sets[c]] = level_counts[c]
        k += 1
    return result


def _generate_candidates(
    previous_level: Sequence[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """Join frequent ascending id tuples sharing all but their last id,
    then prune candidates with an infrequent ``(k-1)``-subset."""
    prev_set = set(previous_level)
    sorted_prev = sorted(previous_level)
    candidates: list[tuple[int, ...]] = []
    for i, a in enumerate(sorted_prev):
        for b in sorted_prev[i + 1 :]:
            if b[:-1] != a[:-1]:
                break  # sorted order: no later tuple shares the prefix
            candidate = a + (b[-1],)
            if all(
                candidate[:pos] + candidate[pos + 1 :] in prev_set
                for pos in range(len(candidate))
            ):
                candidates.append(candidate)
    return candidates


def itemset_support(
    itemset: Iterable[Item], transactions: Sequence[Iterable[Item]]
) -> int:
    """Exact support of one itemset by a full scan."""
    target = frozenset(itemset)
    return sum(1 for t in transactions if target <= frozenset(t))


@dataclass(frozen=True)
class AssociationRule:
    """A rule ``premise -> consequence``; ``support`` counts transactions
    holding both, ``confidence = support / support(premise)``."""

    premise: frozenset
    consequence: frozenset
    support: int
    confidence: float

    def __post_init__(self) -> None:
        if not self.premise:
            raise ValueError("rule premise must be non-empty")
        if not self.consequence:
            raise ValueError("rule consequence must be non-empty")
        if self.premise & self.consequence:
            raise ValueError("premise and consequence must be disjoint")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")

    def __str__(self) -> str:
        prem = " ∧ ".join(sorted(map(str, self.premise)))
        cons = " ∧ ".join(sorted(map(str, self.consequence)))
        return f"{prem} --{self.confidence:.2f}--> {cons}"


def generate_rules(
    itemsets: Mapping[Itemset, int],
    min_confidence: float,
    order_key: Callable[[Item], object],
) -> list[AssociationRule]:
    """The paper's pruned rules: per itemset of size >= 2, premise = all
    items but the maximum under ``order_key``, consequence = that maximum."""
    _check_confidence(min_confidence)
    rules: list[AssociationRule] = []
    for itemset, support in itemsets.items():
        if len(itemset) < 2:
            continue
        consequence_item = max(itemset, key=order_key)
        premise = itemset - {consequence_item}
        rule = _rule(itemsets, premise, frozenset((consequence_item,)), support)
        if rule.confidence >= min_confidence:
            rules.append(rule)
    return rules


def generate_rules_unpruned(
    itemsets: Mapping[Itemset, int],
    min_confidence: float,
) -> list[AssociationRule]:
    """Textbook rule generation: all ``2^k - 2`` premise/consequence splits
    of every frequent k-itemset, multi-item and time-reversed ones included."""
    _check_confidence(min_confidence)
    rules: list[AssociationRule] = []
    for itemset, support in itemsets.items():
        items = sorted(itemset, key=repr)
        for r in range(1, len(items)):
            for premise_tuple in combinations(items, r):
                premise = frozenset(premise_tuple)
                rule = _rule(itemsets, premise, itemset - premise, support)
                if rule.confidence >= min_confidence:
                    rules.append(rule)
    return rules


def _rule(
    itemsets: Mapping[Itemset, int],
    premise: frozenset,
    consequence: frozenset,
    support: int,
) -> AssociationRule:
    premise_support = itemsets.get(premise)
    if premise_support is None:
        # Downward closure guarantees a frequent premise; a missing entry
        # means the caller passed an inconsistent itemset map.
        raise ValueError(f"premise {set(premise)} missing from itemsets")
    return AssociationRule(
        premise=premise,
        consequence=consequence,
        support=support,
        confidence=support / premise_support,
    )


def _check_confidence(min_confidence: float) -> None:
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError(f"min_confidence must be in [0, 1], got {min_confidence}")
