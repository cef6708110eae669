"""Tests for trajectory-pattern mining."""

import numpy as np
import pytest

from repro.core.patterns import (
    TrajectoryPattern,
    build_transactions,
    count_rules_unpruned,
    mine_trajectory_patterns,
)
from repro.core.regions import RegionSet, discover_frequent_regions
from repro.trajectory import Trajectory
from tests.core.conftest import make_region
from tests.mining.reference import (
    find_frequent_itemsets,
    generate_rules,
    generate_rules_unpruned,
)


def region_with_subs(offset, index, sub_ids, cx=0.0, cy=0.0):
    """A region visited by exactly the given sub-trajectories."""
    base = make_region(offset, index, cx, cy, n=len(sub_ids))
    object.__setattr__(base, "subtrajectory_ids", tuple(sub_ids))
    return base


def toy_region_set(period=4):
    """10 sub-trajectories: 0-5 take route A, 6-9 route B; both share t=0."""
    a = set(range(6))
    b = set(range(6, 10))
    regions = [
        region_with_subs(0, 0, a | b, 0, 0),  # shared start
        region_with_subs(1, 0, a, 10, 0),  # A
        region_with_subs(1, 1, b, 0, 10),  # B
        region_with_subs(2, 0, a, 20, 0),  # A
        region_with_subs(2, 1, b, 0, 20),  # B
        region_with_subs(3, 0, a | b, 30, 30),  # shared end
    ]
    return RegionSet(regions, period=period, eps=5.0)


def toy_transactions(regions):
    """The toy set's sub-trajectories as ``(offset, label)`` transactions."""
    return [
        [(offset, region.label) for offset, region in t.items()]
        for t in build_transactions(regions, 10)
    ]


class TestTrajectoryPattern:
    def test_validation_premise_order(self, jane_regions):
        with pytest.raises(ValueError, match="increasing"):
            TrajectoryPattern(
                (jane_regions["city"], jane_regions["home"]),
                jane_regions["work"],
                support=4,
                confidence=0.5,
            )

    def test_validation_consequence_after_premise(self, jane_regions):
        with pytest.raises(ValueError, match="exceed"):
            TrajectoryPattern(
                (jane_regions["city"],),
                jane_regions["home"],
                support=4,
                confidence=0.5,
            )

    def test_validation_duplicate_offsets(self, jane_regions):
        with pytest.raises(ValueError, match="increasing"):
            TrajectoryPattern(
                (jane_regions["city"], jane_regions["shopping"]),
                jane_regions["work"],
                support=4,
                confidence=0.5,
            )

    def test_validation_bounds(self, jane_regions):
        with pytest.raises(ValueError):
            TrajectoryPattern(
                (jane_regions["home"],), jane_regions["city"], support=0, confidence=0.5
            )
        with pytest.raises(ValueError):
            TrajectoryPattern(
                (jane_regions["home"],), jane_regions["city"], support=1, confidence=1.5
            )

    def test_accessors_and_str(self, jane_patterns):
        p2 = jane_patterns[2]
        assert p2.premise_offsets == (0, 1)
        assert p2.consequence_offset == 2
        assert str(p2) == "R_0^0 ∧ R_1^0 --0.50--> R_2^0"


class TestTransactions:
    def test_build_transactions(self):
        regions = toy_region_set()
        tx = build_transactions(regions, num_subtrajectories=10)
        assert len(tx) == 10
        assert tx[0][1].label == "R_1^0"
        assert tx[7][1].label == "R_1^1"
        assert set(tx[0]) == {0, 1, 2, 3}

    def test_out_of_range_sub_ids_ignored(self):
        regions = toy_region_set()
        tx = build_transactions(regions, num_subtrajectories=3)
        assert len(tx) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            build_transactions(toy_region_set(), 0)


class TestMining:
    def test_route_confidences(self):
        regions = toy_region_set()
        patterns = mine_trajectory_patterns(
            regions, 10, min_support=2, min_confidence=0.0, max_premise_span=3
        )
        by_sig = {
            (tuple(r.label for r in p.premise), p.consequence.label): p
            for p in patterns
        }
        # Shared start -> route-A city: 6/10.
        assert by_sig[(("R_0^0",), "R_1^0")].confidence == pytest.approx(0.6)
        # Shared start -> route-B city: 4/10.
        assert by_sig[(("R_0^0",), "R_1^1")].confidence == pytest.approx(0.4)
        # Route-A city -> route-A work: 6/6.
        assert by_sig[(("R_1^0",), "R_2^0")].confidence == pytest.approx(1.0)
        # Pair premise: start ∧ A-city -> A-work.
        assert by_sig[(("R_0^0", "R_1^0"), "R_2^0")].confidence == pytest.approx(1.0)

    def test_cross_route_patterns_absent(self):
        regions = toy_region_set()
        patterns = mine_trajectory_patterns(
            regions, 10, min_support=2, min_confidence=0.0
        )
        labels = {
            (tuple(r.label for r in p.premise), p.consequence.label)
            for p in patterns
        }
        # A-route city never leads to B-route work.
        assert (("R_1^0",), "R_2^1") not in labels

    def test_min_confidence_filters(self):
        regions = toy_region_set()
        patterns = mine_trajectory_patterns(
            regions, 10, min_support=2, min_confidence=0.5
        )
        assert all(p.confidence >= 0.5 for p in patterns)
        labels = {
            (tuple(r.label for r in p.premise), p.consequence.label)
            for p in patterns
        }
        assert (("R_0^0",), "R_1^1") not in labels  # confidence 0.4

    def test_min_support_filters(self):
        regions = toy_region_set()
        patterns = mine_trajectory_patterns(
            regions, 10, min_support=5, min_confidence=0.0
        )
        assert all(p.support >= 5 for p in patterns)
        assert all("R_1^1" != p.consequence.label for p in patterns)

    def test_premise_length_cap(self):
        regions = toy_region_set()
        singles_only = mine_trajectory_patterns(
            regions, 10, 2, 0.0, max_premise_length=1
        )
        assert all(len(p.premise) == 1 for p in singles_only)

    def test_premise_span_cap(self):
        regions = toy_region_set()
        patterns = mine_trajectory_patterns(
            regions, 10, 2, 0.0, max_premise_length=2, max_premise_span=1
        )
        for p in patterns:
            if len(p.premise) == 2:
                assert p.premise[1].offset - p.premise[0].offset <= 1

    def test_consequence_gap_cap_with_far_stride(self):
        regions = toy_region_set()
        patterns = mine_trajectory_patterns(
            regions,
            10,
            2,
            0.0,
            max_consequence_gap=1,
            far_premise_stride=2,
        )
        for p in patterns:
            gap = p.consequence_offset - p.premise[-1].offset
            if gap > 1:
                # Only far-eligible premises may exceed the cap.
                assert len(p.premise) == 1
                assert p.premise[0].offset % 2 == 0

    def test_stats(self):
        regions = toy_region_set()
        patterns, stats = mine_trajectory_patterns(
            regions, 10, 2, 0.0, return_stats=True
        )
        assert stats.num_patterns == len(patterns)
        assert stats.num_frequent_items == 6
        assert stats.num_transactions == 10

    def test_validation(self):
        regions = toy_region_set()
        with pytest.raises(ValueError):
            mine_trajectory_patterns(regions, 10, 0, 0.0)
        with pytest.raises(ValueError):
            mine_trajectory_patterns(regions, 10, 1, 1.5)
        with pytest.raises(ValueError):
            mine_trajectory_patterns(regions, 10, 1, 0.5, max_premise_length=0)
        with pytest.raises(ValueError):
            mine_trajectory_patterns(regions, 10, 1, 0.5, far_premise_stride=0)


class TestEquivalenceWithGenericApriori:
    """The vertical miner's supports/confidences must match the level-wise
    Apriori + pruned rule generation on the same transactions."""

    def test_cross_check(self):
        regions = toy_region_set()
        itemsets = find_frequent_itemsets(
            toy_transactions(regions), min_support=2, max_length=3
        )
        rules = generate_rules(itemsets, 0.0, order_key=lambda item: item[0])
        # Keep rules matching the miner's structural constraints: every
        # premise offset distinct and < consequence offset (guaranteed by
        # order_key), premise length <= 2, span <= 2, no gap cap.
        expected = {}
        for r in rules:
            premise = tuple(sorted(r.premise))
            offsets = [o for o, _ in premise]
            if len(premise) > 2 or (offsets[-1] - offsets[0]) > 2:
                continue
            (consequence,) = r.consequence
            expected[(premise, consequence)] = (r.support, r.confidence)

        mined = mine_trajectory_patterns(
            regions, 10, min_support=2, min_confidence=0.0,
            max_premise_length=2, max_premise_span=2,
        )
        got = {
            (
                tuple((r.offset, r.label) for r in p.premise),
                (p.consequence_offset, p.consequence.label),
            ): (p.support, pytest.approx(p.confidence))
            for p in mined
        }
        assert set(got) == set(expected)
        for key, (support, confidence) in expected.items():
            assert got[key][0] == support
            assert got[key][1] == confidence


class TestPruningAblation:
    def test_unpruned_count_at_least_pruned(self):
        regions = toy_region_set()
        patterns = mine_trajectory_patterns(regions, 10, 2, 0.3)
        unpruned = count_rules_unpruned(patterns, regions, 10, 0.3)
        assert unpruned >= len(patterns)

    def test_pair_itemsets_double_without_pruning(self):
        """At confidence 0 each 2-itemset yields 2 unpruned rules vs 1 pruned."""
        regions = toy_region_set()
        patterns = mine_trajectory_patterns(
            regions, 10, 2, 0.0, max_premise_length=1
        )
        unpruned = count_rules_unpruned(patterns, regions, 10, 0.0)
        assert unpruned == 2 * len(patterns)

    @pytest.mark.parametrize("max_premise_length", [1, 2, 3])
    @pytest.mark.parametrize("min_confidence", [0.0, 0.3, 0.6])
    def test_unpruned_count_matches_reference(
        self, min_confidence, max_premise_length
    ):
        """The ablation's denominator equals textbook rule generation
        restricted to the itemsets the miner kept."""
        regions = toy_region_set()
        patterns = mine_trajectory_patterns(
            regions, 10, 2, min_confidence, max_premise_length=max_premise_length
        )
        kept = {
            frozenset((r.offset, r.label) for r in (*p.premise, p.consequence))
            for p in patterns
        }
        itemsets = find_frequent_itemsets(
            toy_transactions(regions),
            min_support=2,
            max_length=max_premise_length + 1,
        )
        expected = [
            rule
            for rule in generate_rules_unpruned(itemsets, min_confidence)
            if rule.premise | rule.consequence in kept
        ]
        assert count_rules_unpruned(
            patterns, regions, 10, min_confidence
        ) == len(expected)
