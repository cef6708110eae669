"""Tests for association-rule generation and the paper's pruning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.mining.reference import (
    AssociationRule,
    find_frequent_itemsets,
    generate_rules,
    generate_rules_unpruned,
)


class TestAssociationRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            AssociationRule(frozenset(), frozenset("a"), 1, 0.5)
        with pytest.raises(ValueError):
            AssociationRule(frozenset("a"), frozenset(), 1, 0.5)
        with pytest.raises(ValueError):
            AssociationRule(frozenset("a"), frozenset("a"), 1, 0.5)
        with pytest.raises(ValueError):
            AssociationRule(frozenset("a"), frozenset("b"), 1, 1.5)

    def test_str(self):
        r = AssociationRule(frozenset(["a"]), frozenset(["b"]), 3, 0.75)
        assert "0.75" in str(r)


class TestPrunedGeneration:
    def test_single_consequence_is_max_item(self):
        itemsets = {
            frozenset([1]): 10,
            frozenset([2]): 8,
            frozenset([1, 2]): 6,
        }
        rules = generate_rules(itemsets, min_confidence=0.0, order_key=lambda i: i)
        assert len(rules) == 1
        (rule,) = rules
        assert rule.premise == frozenset([1])
        assert rule.consequence == frozenset([2])
        assert rule.confidence == pytest.approx(0.6)

    def test_time_monotonicity(self):
        """The consequence is always the latest item under order_key."""
        itemsets = {
            frozenset(["t3"]): 5,
            frozenset(["t1"]): 5,
            frozenset(["t1", "t3"]): 4,
        }
        rules = generate_rules(itemsets, 0.0, order_key=lambda s: int(s[1]))
        assert rules[0].premise == frozenset(["t1"])
        assert rules[0].consequence == frozenset(["t3"])

    def test_min_confidence_filters(self):
        itemsets = {frozenset([1]): 10, frozenset([2]): 9, frozenset([1, 2]): 3}
        assert (
            generate_rules(itemsets, min_confidence=0.5, order_key=lambda i: i) == []
        )

    def test_triple_produces_one_rule(self):
        itemsets = {
            frozenset([1]): 9,
            frozenset([2]): 9,
            frozenset([3]): 9,
            frozenset([1, 2]): 8,
            frozenset([1, 3]): 8,
            frozenset([2, 3]): 8,
            frozenset([1, 2, 3]): 7,
        }
        rules = generate_rules(itemsets, 0.0, order_key=lambda i: i)
        by_premise = {r.premise: r for r in rules}
        assert by_premise[frozenset([1, 2])].consequence == frozenset([3])
        # Exactly one rule per itemset of size >= 2.
        assert len(rules) == 4

    def test_inconsistent_itemsets_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            generate_rules({frozenset([1, 2]): 3}, 0.0, order_key=lambda i: i)

    def test_confidence_validation(self):
        with pytest.raises(ValueError):
            generate_rules({}, min_confidence=1.5, order_key=lambda i: i)


class TestUnprunedGeneration:
    def test_all_bipartitions(self):
        itemsets = {
            frozenset([1]): 10,
            frozenset([2]): 10,
            frozenset([1, 2]): 10,
        }
        rules = generate_rules_unpruned(itemsets, 0.0)
        pairs = {(tuple(sorted(r.premise)), tuple(sorted(r.consequence))) for r in rules}
        assert pairs == {((1,), (2,)), ((2,), (1,))}

    def test_triple_produces_six_rules(self):
        itemsets = {
            frozenset([1]): 9,
            frozenset([2]): 9,
            frozenset([3]): 9,
            frozenset([1, 2]): 9,
            frozenset([1, 3]): 9,
            frozenset([2, 3]): 9,
            frozenset([1, 2, 3]): 9,
        }
        rules = generate_rules_unpruned(itemsets, 0.0)
        from_triple = [r for r in rules if len(r.premise | r.consequence) == 3]
        assert len(from_triple) == 6  # 2^3 - 2

    def test_pruned_is_subset_of_unpruned(self):
        transactions = [["a", "b", "c"], ["a", "b"], ["a", "c"], ["a", "b", "c"]]
        itemsets = find_frequent_itemsets(transactions, 2)
        pruned = generate_rules(itemsets, 0.1, order_key=repr)
        unpruned = generate_rules_unpruned(itemsets, 0.1)
        pruned_set = {(r.premise, r.consequence) for r in pruned}
        unpruned_set = {(r.premise, r.consequence) for r in unpruned}
        assert pruned_set <= unpruned_set


class TestTheorem1:
    """Theorem 1: conf(s1 -> f1) >= conf(s1 -> f1 ∧ s2)."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 5), min_size=0, max_size=5),
            min_size=1,
            max_size=20,
        )
    )
    def test_multi_consequence_confidence_never_higher(self, transactions):
        itemsets = find_frequent_itemsets(transactions, 1)
        rules = generate_rules_unpruned(itemsets, 0.0)
        by_premise: dict[frozenset, list] = {}
        for r in rules:
            by_premise.setdefault(r.premise, []).append(r)
        for premise, group in by_premise.items():
            for rule in group:
                if len(rule.consequence) <= 1:
                    continue
                # Any single-item projection of the consequence has >= confidence.
                for item in rule.consequence:
                    single = next(
                        (
                            r
                            for r in group
                            if r.consequence == frozenset([item])
                        ),
                        None,
                    )
                    if single is not None:
                        assert single.confidence >= rule.confidence - 1e-12
