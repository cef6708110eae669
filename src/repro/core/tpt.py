"""The Trajectory Pattern Tree (Section V).

TPT is "a variant of Signature tree ... Each leaf node contains entries of
the form <pk, c, p>, where pk is the pattern key of a trajectory pattern,
c is its corresponding confidence and p is the region key pointer which
represents the consequence of the pattern."

Differences from the generic signature tree, per the paper:

* **ChooseLeaf (Algorithm 1)** — three cases, in order:

  1. some entry *Contains* the new key → follow the containing entry with
     the smallest ``Size`` (no enlargement needed);
  2. otherwise some entry *Intersects* it (common '1's on both the
     consequence and the premise parts) → follow the intersecting entry
     with the smallest ``Difference(pk, e)``, ties by smallest ``Size`` —
     this clusters query-coherent patterns, which is what makes the
     Intersect search cheap;
  3. otherwise → smallest ``Difference(pk, e)``, ties by smallest ``Size``.

* **Search (Section V-C)** — a depth-first descent that prunes every
  subtree whose union signature fails the two-part ``Intersect`` with the
  query key; BQP additionally needs a consequence-only search that
  ignores the premise part.

The tree is the paper's retrieval index.  It is what the Fig. 11
experiments, the index ablations and the examples build and measure; the
serving path answers from the packed score kernel
(:mod:`repro.core.scorekernel`), which the model builds straight from
its pattern table.
"""

from __future__ import annotations

from typing import Sequence

from ..signature.bitset import contain, difference, size
from ..signature.signature_tree import Node, SignatureTree
from .keys import KeyCodec, PatternKey
from .patterns import TrajectoryPattern

__all__ = ["TrajectoryPatternTree"]


class TrajectoryPatternTree(SignatureTree):
    """Signature-tree variant indexing trajectory patterns by pattern key.

    Leaf payloads are the mined :class:`TrajectoryPattern` objects, which
    carry the confidence and the consequence region (the paper's ``c`` and
    ``p`` entry fields).  ``max_entries``/``min_entries`` are the node
    capacity and minimum fill.
    """

    def __init__(
        self,
        codec: KeyCodec,
        max_entries: int = 32,
        min_entries: int | None = None,
    ):
        super().__init__(
            max_entries=max_entries,
            min_entries=min_entries,
            signature_bits=codec.pattern_key_length,
        )
        self.codec = codec
        self._premise_mask = (1 << codec.premise_length) - 1

    # ------------------------------------------------------------------
    # pattern-level API
    # ------------------------------------------------------------------
    def insert_pattern(self, pattern: TrajectoryPattern) -> PatternKey:
        """Encode and insert one pattern; returns its key."""
        key = self.codec.encode_pattern(pattern)
        self.insert(key.value, pattern)
        return key

    def bulk_load_patterns(self, patterns: Sequence[TrajectoryPattern]) -> None:
        """Sorted-key bulk load of a mined pattern corpus (static data path)."""
        values = self.codec.encode_values(patterns)
        self.bulk_load(list(zip(values, patterns)))

    def _descend(self, predicate) -> list[tuple[TrajectoryPattern, PatternKey]]:
        wrap = self.codec.wrap
        return [
            (entry.payload, wrap(entry.signature))
            for entry in self.search(predicate)
        ]

    def search_candidates(
        self, query_key: PatternKey
    ) -> list[tuple[TrajectoryPattern, PatternKey]]:
        """FQP retrieval: all patterns whose key Intersects the query key.

        Intersect requires common '1's on both the consequence part (same
        consequence time offset as the query) and the premise part (at
        least one shared recent region).  The predicate is OR-monotone,
        so a subtree whose union signature fails it holds no answer and
        the descent skips it (Section V-C).
        """
        qv = query_key.value
        shift = self.codec.premise_length
        q_rk = qv & self._premise_mask
        q_ck = qv >> shift
        if q_rk == 0 or q_ck == 0:
            return []  # Intersect can never hold against an empty part
        return self._descend(
            lambda sig: sig & q_rk != 0 and (sig >> shift) & q_ck != 0
        )

    def search_by_consequence(
        self, consequence_mask: int
    ) -> list[tuple[TrajectoryPattern, PatternKey]]:
        """BQP retrieval: patterns whose consequence key hits ``consequence_mask``.

        "Compared with FQP which requires intersection constraints on both
        the premise key and the consequence key, BQP gives up the
        constraint for the premise key" (Section VI-C).
        """
        if consequence_mask < 0:
            raise ValueError("consequence_mask must be non-negative")
        if consequence_mask == 0:
            return []
        shift = self.codec.premise_length
        return self._descend(lambda sig: (sig >> shift) & consequence_mask != 0)

    def all_patterns(self) -> list[TrajectoryPattern]:
        """Every indexed pattern (tree order)."""
        return [entry.payload for entry in self.all_entries()]

    def remove_pattern(self, pattern: TrajectoryPattern) -> bool:
        """Delete one indexed pattern (match by premise + consequence).

        Several patterns can share a key (Table III's 0100001 case), so
        deletion matches the pattern identity, not just the key.  Returns
        ``True`` when the pattern was found and removed.
        """
        key = self.codec.encode_pattern(pattern)
        return self.delete(
            key.value,
            match=lambda p: (
                p.premise == pattern.premise and p.consequence == pattern.consequence
            ),
        )

    # Rebuild instead of deleting one-by-one once this many patterns AND
    # this fraction of the tree are doomed: each ``delete`` re-encodes the
    # key, descends the tree and may condense/reinsert, so bulk expiry was
    # quadratic in the number of removals.
    _REBUILD_MIN_DOOMED = 8
    _REBUILD_FRACTION = 0.25

    def expire_patterns(self, predicate) -> int:
        """Remove every indexed pattern the predicate accepts.

        The paper's dynamic-data path only ever *adds* patterns; a
        deployment also needs to retire them (stale confidences, moved
        home/work).  Returns the number of removed patterns.

        Small expiries use per-pattern deletion; when more than
        ``_REBUILD_FRACTION`` of the corpus goes at once the tree is
        rebuilt from the survivors with one bulk load, which is linear
        instead of quadratic and yields a better-packed tree.
        """
        entries = self.all_entries()
        doomed = [entry for entry in entries if predicate(entry.payload)]
        if not doomed:
            return 0
        if (
            len(doomed) >= self._REBUILD_MIN_DOOMED
            and len(doomed) >= self._REBUILD_FRACTION * len(entries)
        ):
            doomed_ids = {id(entry) for entry in doomed}
            survivors = [
                (entry.signature, entry.payload)
                for entry in entries
                if id(entry) not in doomed_ids
            ]
            self.root = Node(is_leaf=True)
            self._size = 0
            if survivors:
                self.bulk_load(survivors)
            return len(doomed)
        removed = 0
        for entry in doomed:
            if self.remove_pattern(entry.payload):
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # Algorithm 1: ChooseLeaf
    # ------------------------------------------------------------------
    def _choose_subtree(self, node: Node, signature: int) -> int:
        contain_best: tuple[int, int] | None = None  # (size, idx)
        intersect_best: tuple[int, int, int] | None = None  # (diff, size, idx)
        fallback_best: tuple[int, int, int] | None = None

        for i, sig in enumerate(node.signatures):
            if contain(sig, signature):
                key = (size(sig), i)
                if contain_best is None or key < contain_best:
                    contain_best = key
                continue
            diff_key = (difference(signature, sig), size(sig), i)
            if self._two_part_intersects(sig, signature):
                if intersect_best is None or diff_key < intersect_best:
                    intersect_best = diff_key
            if fallback_best is None or diff_key < fallback_best:
                fallback_best = diff_key

        if contain_best is not None:
            return contain_best[1]
        if intersect_best is not None:
            return intersect_best[2]
        assert fallback_best is not None, "choose_subtree on empty node"
        return fallback_best[2]

    def _two_part_intersects(self, a: int, b: int) -> bool:
        """The paper's Intersect on raw key values under this codec."""
        if (a & self._premise_mask) & (b & self._premise_mask) == 0:
            return False
        shift = self.codec.premise_length
        return (a >> shift) & (b >> shift) != 0
