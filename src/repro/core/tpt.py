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

* **Search (Section V-C)** — the answer set of a depth-first descent
  pruning any subtree whose union signature fails the two-part
  ``Intersect`` with the query key; BQP additionally needs a
  consequence-only search that ignores the premise part.  Both are
  served from a consequence-offset index that returns exactly the
  descent's entries in the descent's order (the tests hold it to
  :meth:`SignatureTree.search` with the same predicates).
"""

from __future__ import annotations

from typing import Sequence

from ..signature.bitset import contain, difference, iter_set_bits, size
from ..signature.signature_tree import LeafEntry, Node, SignatureTree
from .keys import KeyCodec, PatternKey
from .patterns import TrajectoryPattern
from .scorekernel import ScoreKernel

__all__ = ["TrajectoryPatternTree"]


class TrajectoryPatternTree(SignatureTree):
    """Signature-tree variant indexing trajectory patterns by pattern key.

    Leaf payloads are the mined :class:`TrajectoryPattern` objects, which
    carry the confidence and the consequence region (the paper's ``c`` and
    ``p`` entry fields).
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
        # time-id -> DFS-ordered (seq, premise_bits, pattern, key) bucket;
        # rebuilt lazily after any structural change (see
        # consequence_index).
        self._consequence_index: dict[int, list] | None = None
        # weight-function kind -> packed scoring kernel; derived from the
        # consequence index and invalidated with it.
        self._score_kernels: dict[str, ScoreKernel] = {}

    # ------------------------------------------------------------------
    # structural mutations invalidate the offset index and the kernels
    # ------------------------------------------------------------------
    def _invalidate_index(self) -> None:
        self._consequence_index = None
        self._score_kernels = {}

    def insert(self, signature: int, payload) -> None:
        self._invalidate_index()
        super().insert(signature, payload)

    def delete(self, signature: int, match=None) -> bool:
        self._invalidate_index()
        return super().delete(signature, match)

    def bulk_load(self, items) -> None:
        self._invalidate_index()
        super().bulk_load(items)

    def bulk_load_packed(self, signatures, payloads, node_signatures) -> None:
        self._invalidate_index()
        super().bulk_load_packed(signatures, payloads, node_signatures)

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

    def rebind_codec(self, codec: KeyCodec) -> None:
        """Swap in a codec with identical key geometry (delta refit).

        A delta refit that keeps the region universe and consequence-offset
        table builds a fresh codec over the *new* region set; since region
        ids and time ids are unchanged, every stored key value stays valid
        and the tree (including a built consequence index) survives as-is.
        """
        if (
            codec.premise_length != self.codec.premise_length
            or codec.consequence_length != self.codec.consequence_length
            or codec.consequence_offsets() != self.codec.consequence_offsets()
        ):
            raise ValueError(
                "rebind_codec requires identical key geometry "
                f"({self.codec!r} -> {codec!r})"
            )
        self.codec = codec

    def rebind_patterns(
        self,
        pairs: Sequence[tuple[TrajectoryPattern, TrajectoryPattern]],
    ) -> int:
        """Swap entry payloads for re-scored patterns whose key is unchanged.

        A delta refit replaces a pattern when its support/confidence or
        its member regions' *content* moved while its premise/consequence
        positions — and hence its encoded pattern key — did not.  Such a
        replacement needs no structural delete/insert: the stored entry
        keeps its signature and only the payload pointer advances to the
        fresh pattern object.  One tree walk services the whole batch.
        Returns the number of entries rebound (should equal ``len(pairs)``
        when every old pattern is indexed).
        """
        if not pairs:
            return 0
        replacement = {id(old): new for old, new in pairs}
        swapped = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    new = replacement.get(id(entry.payload))
                    if new is not None:
                        entry.payload = new
                        swapped += 1
            else:
                stack.extend(node.children)
        # The consequence index (and kernels) snapshot payload pointers.
        self._invalidate_index()
        return swapped

    def score_kernel(self, kind: str) -> ScoreKernel:
        """The packed scoring kernel for one weight family, building it if
        stale.  Cached until the next structural mutation, exactly like
        :meth:`consequence_index`."""
        kernels = self._score_kernels
        if kind not in kernels:
            kernels[kind] = ScoreKernel.build(self, kind)
        return kernels[kind]

    def prime_score_kernel(self, kind: str, kernel: "ScoreKernel") -> None:
        """Install a pre-built kernel for ``kind`` (snapshot restore path).

        The caller guarantees the kernel's arrays were packed from
        exactly this tree's pattern corpus in canonical bulk-load order —
        the snapshot loader reconstructs it from stored blocks so the
        first query skips the full :meth:`ScoreKernel.build` pass.  The
        primed kernel obeys the normal invalidation contract: the next
        structural mutation drops it like any lazily-built one.
        """
        if kernel.kind != kind:
            raise ValueError(
                f"kernel was built for kind {kernel.kind!r}, not {kind!r}"
            )
        self._score_kernels[kind] = kernel

    # Kernels hold numpy array snapshots that are cheap to rebuild and
    # expensive to ship; pickles (process-pool fan-out, fleet snapshots)
    # travel without them and rebuild lazily on first query.
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_score_kernels"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__dict__.setdefault("_score_kernels", {})

    def consequence_index(self) -> dict[int, list]:
        """The consequence-offset inverted index, building it if stale.

        Maps each consequence time-id to the bucket of entries whose key
        sets that bit, as ``(seq, premise_bits, pattern, key)`` tuples
        where ``seq`` is the entry's position in the full depth-first
        traversal.  Because the search predicates are OR-monotone, a
        pruned descent visits surviving entries in exactly that traversal
        order — so answers assembled from buckets, with ``seq`` as the last
        tie key, are byte-identical to descent answers, just without
        walking the tree.
        """
        index = self._consequence_index
        if index is None:
            index = {}
            shift = self.codec.premise_length
            premise_mask = self._premise_mask
            for seq, entry in enumerate(self.all_entries()):
                signature = entry.signature
                key = self.codec.wrap(signature)
                premise_bits = signature & premise_mask
                for time_id in iter_set_bits(signature >> shift):
                    index.setdefault(time_id, []).append(
                        (seq, premise_bits, entry.payload, key)
                    )
            self._consequence_index = index
        return index

    def search_candidates(
        self, query_key: PatternKey
    ) -> list[tuple[TrajectoryPattern, PatternKey]]:
        """FQP retrieval: all patterns whose key Intersects the query key.

        Intersect requires common '1's on both the consequence part (same
        consequence time offset as the query) and the premise part (at
        least one shared recent region).  Served from the consequence
        index: an empty offset bucket short-circuits before any tree work.
        """
        qv = query_key.value
        q_rk = qv & self._premise_mask
        q_ck = qv >> self.codec.premise_length
        if q_rk == 0 or q_ck == 0:
            return []  # Intersect can never hold against an empty part
        index = self.consequence_index()
        time_ids = list(iter_set_bits(q_ck))
        if len(time_ids) == 1:
            bucket = index.get(time_ids[0], ())
            return [
                (pattern, key)
                for _seq, premise_bits, pattern, key in bucket
                if premise_bits & q_rk
            ]
        hits: dict[int, tuple[TrajectoryPattern, PatternKey]] = {}
        for time_id in time_ids:
            for seq, premise_bits, pattern, key in index.get(time_id, ()):
                if premise_bits & q_rk and seq not in hits:
                    hits[seq] = (pattern, key)
        return [hits[seq] for seq in sorted(hits)]

    def search_by_consequence(
        self, consequence_mask: int
    ) -> list[tuple[TrajectoryPattern, PatternKey]]:
        """BQP retrieval: patterns whose consequence key hits ``consequence_mask``.

        "Compared with FQP which requires intersection constraints on both
        the premise key and the consequence key, BQP gives up the
        constraint for the premise key" (Section VI-C).

        Served from the consequence index: BQP's enlargement loop probes
        offset buckets instead of re-descending the tree every round.
        """
        if consequence_mask < 0:
            raise ValueError("consequence_mask must be non-negative")
        if consequence_mask == 0:
            return []
        index = self.consequence_index()
        time_ids = list(iter_set_bits(consequence_mask))
        if len(time_ids) == 1:
            return [
                (pattern, key)
                for _seq, _premise_bits, pattern, key in index.get(time_ids[0], ())
            ]
        hits: dict[int, tuple[TrajectoryPattern, PatternKey]] = {}
        for time_id in time_ids:
            for seq, _premise_bits, pattern, key in index.get(time_id, ()):
                if seq not in hits:
                    hits[seq] = (pattern, key)
        return [hits[seq] for seq in sorted(hits)]

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
            self._invalidate_index()
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
