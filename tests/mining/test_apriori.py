"""Tests for the test-side textbook Apriori reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.mining.reference import find_frequent_itemsets, itemset_support


class TestSmallExamples:
    def test_classic_example(self):
        transactions = [
            ["bread", "milk"],
            ["bread", "diapers", "beer", "eggs"],
            ["milk", "diapers", "beer", "cola"],
            ["bread", "milk", "diapers", "beer"],
            ["bread", "milk", "diapers", "cola"],
        ]
        result = find_frequent_itemsets(transactions, min_support=3)
        assert result[frozenset(["bread"])] == 4
        assert result[frozenset(["milk"])] == 4
        assert result[frozenset(["diapers"])] == 4
        assert result[frozenset(["beer"])] == 3
        assert result[frozenset(["milk", "diapers"])] == 3
        assert result[frozenset(["beer", "diapers"])] == 3
        assert frozenset(["bread", "beer"]) not in result  # support 2

    def test_three_itemset(self):
        transactions = [["a", "b", "c"]] * 3 + [["a", "b"], ["c"]]
        result = find_frequent_itemsets(transactions, min_support=3)
        assert result[frozenset(["a", "b", "c"])] == 3
        assert result[frozenset(["a", "b"])] == 4

    def test_duplicates_within_transaction_ignored(self):
        result = find_frequent_itemsets([["a", "a"], ["a"]], min_support=2)
        assert result[frozenset(["a"])] == 2

    def test_max_length(self):
        transactions = [["a", "b", "c"]] * 4
        result = find_frequent_itemsets(transactions, min_support=2, max_length=2)
        assert frozenset(["a", "b", "c"]) not in result
        assert frozenset(["a", "b"]) in result

    def test_candidate_filter(self):
        transactions = [["a", "b"], ["a", "b"], ["a", "c"]]
        # Forbid anything containing "b".
        result = find_frequent_itemsets(
            transactions, min_support=2, candidate_filter=lambda s: "b" not in s
        )
        assert frozenset(["b"]) not in result
        assert frozenset(["a", "b"]) not in result
        assert frozenset(["a"]) in result

    def test_empty_transactions(self):
        assert find_frequent_itemsets([], min_support=1) == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            find_frequent_itemsets([["a"]], min_support=0)
        with pytest.raises(ValueError):
            find_frequent_itemsets([["a"]], min_support=1, max_length=0)

    def test_tuple_items(self):
        """Items may be any hashable — the pattern miner uses (offset, region)."""
        transactions = [[(0, "r0"), (1, "r1")], [(0, "r0"), (1, "r1")], [(0, "r0")]]
        result = find_frequent_itemsets(transactions, min_support=2)
        assert result[frozenset([(0, "r0"), (1, "r1")])] == 2

    def test_mixed_type_items(self):
        """Unorderable item mixes must mine fine (the repr-keyed canonical
        order replaced value sorting, which raised TypeError at k=2)."""
        transactions = [
            [1, "a", ("t", 2)],
            [1, "a"],
            [1, "a", ("t", 2)],
            ["a", ("t", 2)],
        ]
        expected = {
            frozenset([1]): 3,
            frozenset(["a"]): 4,
            frozenset([("t", 2)]): 3,
            frozenset([1, "a"]): 3,
            frozenset([1, ("t", 2)]): 2,
            frozenset(["a", ("t", 2)]): 3,
            frozenset([1, "a", ("t", 2)]): 2,
        }
        assert find_frequent_itemsets(transactions, 2) == expected


items = st.integers(min_value=0, max_value=8)
transactions_strategy = st.lists(
    st.lists(items, min_size=0, max_size=6), min_size=0, max_size=25
)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(transactions_strategy, st.integers(min_value=1, max_value=5))
    def test_supports_are_exact(self, transactions, min_support):
        result = find_frequent_itemsets(transactions, min_support)
        for itemset, support in result.items():
            assert support == itemset_support(itemset, transactions)
            assert support >= min_support

    @settings(max_examples=50, deadline=None)
    @given(transactions_strategy, st.integers(min_value=1, max_value=5))
    def test_downward_closure(self, transactions, min_support):
        """Every subset of a frequent itemset is frequent (and present)."""
        result = find_frequent_itemsets(transactions, min_support)
        for itemset in result:
            for item in itemset:
                if len(itemset) > 1:
                    assert itemset - {item} in result

    @settings(max_examples=50, deadline=None)
    @given(transactions_strategy, st.integers(min_value=1, max_value=5))
    def test_completeness_vs_bruteforce(self, transactions, min_support):
        """Apriori finds exactly the itemsets a brute-force scan finds."""
        from itertools import combinations

        result = find_frequent_itemsets(transactions, min_support)
        universe = sorted({i for t in transactions for i in t})
        expected = {}
        for size in range(1, min(len(universe), 4) + 1):
            for combo in combinations(universe, size):
                support = itemset_support(combo, transactions)
                if support >= min_support:
                    expected[frozenset(combo)] = support
        # Compare up to size 4 (brute force cap).
        got = {k: v for k, v in result.items() if len(k) <= 4}
        assert got == expected
