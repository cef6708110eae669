"""Generic signature tree (Mamoulis, Cheung & Lian — ICDE 2003).

"Signature tree is a dynamic balanced tree and specifically designed for
signature bitmaps.  Each node contains entries of the form <sig, ptr>.  In a
leaf node entry, sig is the signature of the transaction and ptr is a
transaction id.  Each internal node entry is the logical OR on all
signatures in its subtree."  (Section V of the HPM paper.)

This module implements the substrate tree; the Trajectory Pattern Tree
(:mod:`repro.core.tpt`) subclasses it to install the paper's three-case
ChooseLeaf and the two-part Intersect predicate.

Structure
---------
* A node holds between ``min_entries`` and ``max_entries`` entries (the root
  may underflow).
* Leaf entries carry ``(signature, payload)``; internal entries carry
  ``(signature, child)`` where the signature is the OR over the child's
  subtree and is maintained incrementally on insert/split.
* Search is depth-first with a caller-supplied predicate that must be
  *OR-monotone*: if it rejects a union signature it must reject every
  signature ORed into it.  Any-common-bit intersection and containment both
  qualify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from . import bitset

__all__ = ["LeafEntry", "Node", "SignatureTree", "TreeStats"]


@dataclass(slots=True)
class LeafEntry:
    """A stored signature with its payload (the paper's <sig, ptr>)."""

    signature: int
    payload: Any


@dataclass(slots=True)
class Node:
    """One tree node; ``children[i]`` pairs with ``signatures[i]``.

    For leaves, ``entries`` holds :class:`LeafEntry` objects and
    ``children`` is empty.  For internal nodes, ``entries`` is empty and
    ``signatures[i]`` is the OR over ``children[i]``'s subtree.
    """

    is_leaf: bool
    entries: list[LeafEntry] = field(default_factory=list)
    signatures: list[int] = field(default_factory=list)
    children: list["Node"] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries) if self.is_leaf else len(self.children)

    def local_union(self) -> int:
        """OR of everything stored directly in this node."""
        if self.is_leaf:
            return bitset.union(*(e.signature for e in self.entries))
        return bitset.union(*self.signatures)


@dataclass(frozen=True, slots=True)
class TreeStats:
    """Structural statistics, used by the Fig. 11a storage model."""

    height: int
    node_count: int
    leaf_count: int
    entry_count: int
    signature_bits: int

    def storage_bytes(self, pointer_bytes: int = 4, payload_bytes: int = 8) -> int:
        """Analytic storage estimate.

        Every entry (leaf or internal) stores its signature bitmap plus a
        pointer; leaf entries additionally store their payload (for TPT:
        confidence + consequence pointer = ``payload_bytes``).  This mirrors
        how the paper reports TPT storage in MB as a function of the number
        of patterns and the signature width.
        """
        sig_bytes = (self.signature_bits + 7) // 8
        internal_entries = self.node_count - 1  # every non-root node has one
        leaf_entries = self.entry_count
        return (
            internal_entries * (sig_bytes + pointer_bytes)
            + leaf_entries * (sig_bytes + pointer_bytes + payload_bytes)
        )


class SignatureTree:
    """Balanced signature tree with R-tree-style insertion.

    Parameters
    ----------
    max_entries:
        Node capacity ``M`` (>= 4).
    min_entries:
        Minimum fill after a split (defaults to ``M // 3``, at least 2).
    signature_bits:
        Nominal signature width, only used for storage accounting; keys
        wider than this are still stored correctly.
    """

    def __init__(
        self,
        max_entries: int = 32,
        min_entries: int | None = None,
        signature_bits: int = 0,
    ):
        if max_entries < 4:
            raise ValueError(f"max_entries must be >= 4, got {max_entries}")
        if min_entries is None:
            min_entries = max(2, max_entries // 3)
        if not 2 <= min_entries <= max_entries // 2:
            raise ValueError(
                f"min_entries must be in [2, {max_entries // 2}], got {min_entries}"
            )
        self.max_entries = max_entries
        self.min_entries = min_entries
        self.signature_bits = signature_bits
        self.root = Node(is_leaf=True)
        self._size = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def insert(self, signature: int, payload: Any) -> None:
        """Insert one signature/payload pair."""
        if signature < 0:
            raise ValueError(f"signatures are non-negative, got {signature}")
        self.signature_bits = max(self.signature_bits, signature.bit_length())
        leaf, path = self._choose_leaf_path(signature)
        leaf.entries.append(LeafEntry(signature, payload))
        self._size += 1
        self._handle_overflow(leaf, path)
        self._refresh_signatures_along(path)

    def bulk_load(self, items: Sequence[tuple[int, Any]]) -> None:
        """Bottom-up bulk load of many ``(signature, payload)`` pairs.

        The paper's static-data path ("The system uses bulk loading to
        build TPT for the static data"): entries are sorted by signature —
        clustering similar keys — packed into full leaves, and parent
        levels are built directly, which is an order of magnitude faster
        than repeated ChooseLeaf insertion and yields a well-packed tree.

        Only valid on an empty tree; on a non-empty tree the pairs fall
        back to one-by-one insertion.
        """
        if self._size:
            for signature, payload in sorted(items, key=lambda kv: kv[0]):
                self.insert(signature, payload)
            return
        pairs = sorted(items, key=lambda kv: kv[0])
        if not pairs:
            return
        for signature, _payload in pairs:
            if signature < 0:
                raise ValueError(f"signatures are non-negative, got {signature}")
        self.signature_bits = max(
            self.signature_bits, pairs[-1][0].bit_length()
        )

        leaves: list[Node] = []
        for chunk in self._packed_chunks(len(pairs)):
            node = Node(is_leaf=True)
            node.entries = [LeafEntry(s, p) for s, p in pairs[chunk]]
            leaves.append(node)
        self._size = len(pairs)

        level = leaves
        while len(level) > 1:
            parents: list[Node] = []
            for chunk in self._packed_chunks(len(level)):
                parent = Node(is_leaf=False)
                parent.children = level[chunk]
                parent.signatures = [
                    self._subtree_signature(c) for c in parent.children
                ]
                parents.append(parent)
            level = parents
        self.root = level[0]

    def _packed_chunks(self, n: int) -> list[slice]:
        """Split ``n`` ordered items into runs of at most ``max_entries``,
        each at least ``min_entries`` long (except a single run)."""
        if n <= self.max_entries:
            return [slice(0, n)]
        chunks: list[slice] = []
        start = 0
        while start < n:
            end = min(start + self.max_entries, n)
            remainder = n - end
            if 0 < remainder < self.min_entries:
                # Shrink this run so the final one reaches the minimum.
                end -= self.min_entries - remainder
            chunks.append(slice(start, end))
            start = end
        return chunks

    def delete(
        self, signature: int, match: Callable[[Any], bool] | None = None
    ) -> bool:
        """Remove one leaf entry with this exact signature.

        ``match`` optionally narrows deletion to entries whose payload it
        accepts (several patterns can share a key).  Returns ``True`` when
        an entry was removed.  Underflowing nodes are condensed R-tree
        style: the node is dissolved and its remaining entries reinserted.
        """
        if signature < 0:
            raise ValueError(f"signatures are non-negative, got {signature}")
        found = self._delete_from(self.root, signature, match, [])
        if not found:
            return False
        self._size -= 1
        # Shrink the root when it has a single internal child; an emptied
        # internal root degenerates back to an empty leaf.
        while not self.root.is_leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]
        if not self.root.is_leaf and not self.root.children:
            self.root = Node(is_leaf=True)
        return True

    def _delete_from(
        self,
        node: Node,
        signature: int,
        match: Callable[[Any], bool] | None,
        path: list[tuple[Node, int]],
    ) -> bool:
        if node.is_leaf:
            for i, entry in enumerate(node.entries):
                if entry.signature == signature and (
                    match is None or match(entry.payload)
                ):
                    del node.entries[i]
                    self._condense(node, path)
                    return True
            return False
        for i, (sig, child) in enumerate(zip(node.signatures, node.children)):
            # The stored key can only live under entries containing it.
            if not bitset.contain(sig, signature):
                continue
            path.append((node, i))
            if self._delete_from(child, signature, match, path):
                return True
            path.pop()
        return False

    def _condense(self, node: Node, path: list[tuple[Node, int]]) -> None:
        """Dissolve underflowing ancestors and refresh path signatures."""
        orphans: list[LeafEntry] = []
        current = node
        for parent, idx in reversed(path):
            if len(current) < self.min_entries and current is not self.root:
                orphans.extend(self._collect_entries(current))
                del parent.children[idx]
                del parent.signatures[idx]
                current = parent
            else:
                break
        # Recompute every signature along the surviving path, bottom-up.
        # (Indices recorded in `path` may be stale after deletions, so the
        # whole signature list of each ancestor is rebuilt — O(fanout) per
        # level since children carry their unions.)
        for parent, _idx in reversed(path):
            parent.signatures = [
                self._subtree_signature(child) for child in parent.children
            ]
        for entry in orphans:
            self._size -= 1  # insert() re-increments
            self.insert(entry.signature, entry.payload)

    def _collect_entries(self, node: Node) -> list[LeafEntry]:
        if node.is_leaf:
            return list(node.entries)
        collected: list[LeafEntry] = []
        for child in node.children:
            collected.extend(self._collect_entries(child))
        return collected

    def search(self, predicate: Callable[[int], bool]) -> list[LeafEntry]:
        """All leaf entries whose signature satisfies an OR-monotone predicate."""
        return self.search_stats(predicate)[0]

    def search_stats(
        self, predicate: Callable[[int], bool]
    ) -> tuple[list[LeafEntry], int]:
        """Depth-first :meth:`search`, also counting visited nodes.

        The node count is the machine-independent search-cost metric used
        by the index ablations (clustering quality shows up as fewer
        visited nodes for the same result set).
        """
        hits: list[LeafEntry] = []
        visited = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            visited += 1
            if node.is_leaf:
                for entry in node.entries:
                    if predicate(entry.signature):
                        hits.append(entry)
            else:
                for sig, child in zip(node.signatures, node.children):
                    if predicate(sig):
                        stack.append(child)
        return hits, visited

    def search_intersecting(self, query: int) -> list[LeafEntry]:
        """Entries sharing at least one bit with ``query`` (classic usage)."""
        return self.search(lambda sig: bitset.intersects(sig, query))

    def all_entries(self) -> list[LeafEntry]:
        """Every stored entry (tree order)."""
        return self.search(lambda _sig: True)

    def stats(self) -> TreeStats:
        """Structural statistics for storage/size accounting."""
        height = 0
        node_count = 0
        leaf_count = 0
        entry_count = 0
        stack: list[tuple[Node, int]] = [(self.root, 1)]
        while stack:
            node, depth = stack.pop()
            node_count += 1
            height = max(height, depth)
            if node.is_leaf:
                leaf_count += 1
                entry_count += len(node.entries)
            else:
                for child in node.children:
                    stack.append((child, depth + 1))
        return TreeStats(
            height=height,
            node_count=node_count,
            leaf_count=leaf_count,
            entry_count=entry_count,
            signature_bits=self.signature_bits,
        )

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on breakage.

        Invariants: internal signatures equal the OR over their subtree;
        every leaf is at the same depth; node occupancy respects
        ``min_entries``/``max_entries`` (root exempt from the minimum).
        """
        leaf_depths: set[int] = set()
        self._validate_node(self.root, depth=1, is_root=True, leaf_depths=leaf_depths)
        assert len(leaf_depths) <= 1, f"leaves at multiple depths: {leaf_depths}"
        assert self._count_entries(self.root) == self._size, "size counter drifted"

    # ------------------------------------------------------------------
    # insertion machinery
    # ------------------------------------------------------------------
    def _choose_leaf_path(self, signature: int) -> tuple[Node, list[tuple[Node, int]]]:
        """Descend from the root; returns the leaf and the (node, child-index) path."""
        node = self.root
        path: list[tuple[Node, int]] = []
        while not node.is_leaf:
            idx = self._choose_subtree(node, signature)
            path.append((node, idx))
            node = node.children[idx]
        return node, path

    def _choose_subtree(self, node: Node, signature: int) -> int:
        """Pick the child whose signature needs the least enlargement.

        The generic signature-tree heuristic: smallest
        ``Difference(signature, entry)`` — i.e. fewest new bits — with ties
        broken by the smallest entry ``Size``.  (TPT overrides this with the
        paper's Algorithm 1.)
        """
        best_idx = 0
        best_key: tuple[int, int] | None = None
        for i, sig in enumerate(node.signatures):
            key = (bitset.difference(signature, sig), bitset.size(sig))
            if best_key is None or key < best_key:
                best_key = key
                best_idx = i
        return best_idx

    def _handle_overflow(self, node: Node, path: list[tuple[Node, int]]) -> None:
        """Split overflowing nodes upward, growing the tree at the root."""
        while len(node) > self.max_entries:
            sibling = self._split(node)
            if path:
                parent, idx = path.pop()
                parent.signatures[idx] = self._subtree_signature(node)
                parent.children.append(sibling)
                parent.signatures.append(self._subtree_signature(sibling))
                node = parent
            else:
                # Root split: grow a new root above.
                new_root = Node(is_leaf=False)
                new_root.children = [node, sibling]
                new_root.signatures = [
                    self._subtree_signature(node),
                    self._subtree_signature(sibling),
                ]
                self.root = new_root
                return

    def _split(self, node: Node) -> Node:
        """Quadratic split on signature waste; returns the new sibling.

        Seeds are the pair maximising the symmetric signature difference;
        remaining members go to the side with the smaller bit enlargement,
        subject to the minimum-fill constraint.
        """
        if node.is_leaf:
            members: list[Any] = list(node.entries)
            sig_of = lambda m: m.signature  # noqa: E731 - tiny local accessor
        else:
            members = list(zip(node.signatures, node.children))
            sig_of = lambda m: m[0]  # noqa: E731

        seed_a, seed_b = self._pick_seeds([sig_of(m) for m in members])
        group_a = [members[seed_a]]
        group_b = [members[seed_b]]
        union_a = sig_of(members[seed_a])
        union_b = sig_of(members[seed_b])
        rest = [m for i, m in enumerate(members) if i not in (seed_a, seed_b)]

        for i, m in enumerate(rest):
            remaining = len(rest) - i
            # Force-assign when one group must take everything left to make
            # its minimum fill.
            if len(group_a) + remaining <= self.min_entries:
                group_a.append(m)
                union_a |= sig_of(m)
                continue
            if len(group_b) + remaining <= self.min_entries:
                group_b.append(m)
                union_b |= sig_of(m)
                continue
            sig = sig_of(m)
            enlarge_a = bitset.difference(sig, union_a)
            enlarge_b = bitset.difference(sig, union_b)
            if (enlarge_a, len(group_a)) <= (enlarge_b, len(group_b)):
                group_a.append(m)
                union_a |= sig
            else:
                group_b.append(m)
                union_b |= sig

        sibling = Node(is_leaf=node.is_leaf)
        if node.is_leaf:
            node.entries = group_a
            sibling.entries = group_b
        else:
            node.signatures = [g[0] for g in group_a]
            node.children = [g[1] for g in group_a]
            sibling.signatures = [g[0] for g in group_b]
            sibling.children = [g[1] for g in group_b]
        return sibling

    @staticmethod
    def _pick_seeds(signatures: Sequence[int]) -> tuple[int, int]:
        """Indices of the most mutually dissimilar pair of signatures."""
        best = (0, 1)
        best_waste = -1
        for i in range(len(signatures)):
            for j in range(i + 1, len(signatures)):
                waste = bitset.size(signatures[i] ^ signatures[j])
                if waste > best_waste:
                    best_waste = waste
                    best = (i, j)
        return best

    def _refresh_signatures_along(self, path: list[tuple[Node, int]]) -> None:
        """Re-derive parent signatures bottom-up after an insert."""
        for parent, idx in reversed(path):
            if idx < len(parent.children):
                parent.signatures[idx] = self._subtree_signature(parent.children[idx])

    def _subtree_signature(self, node: Node) -> int:
        return node.local_union()

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------
    def _validate_node(
        self, node: Node, depth: int, is_root: bool, leaf_depths: set[int]
    ) -> int:
        if node.is_leaf:
            leaf_depths.add(depth)
            if not is_root:
                assert (
                    self.min_entries <= len(node.entries) <= self.max_entries
                ), f"leaf occupancy {len(node.entries)} outside bounds"
            return node.local_union()
        assert node.children, "internal node with no children"
        if not is_root:
            assert (
                self.min_entries <= len(node.children) <= self.max_entries
            ), f"internal occupancy {len(node.children)} outside bounds"
        else:
            assert len(node.children) >= 2, "internal root with < 2 children"
        combined = 0
        for sig, child in zip(node.signatures, node.children):
            child_sig = self._validate_node(child, depth + 1, False, leaf_depths)
            assert child_sig == sig, "stale internal signature"
            combined |= child_sig
        return combined

    def _count_entries(self, node: Node) -> int:
        if node.is_leaf:
            return len(node.entries)
        return sum(self._count_entries(c) for c in node.children)
