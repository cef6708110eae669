"""Vectorized query scoring kernel over one packed TPT candidate block.

This is the only candidate scorer on the query path: ``PreparedQuery``
answers every FQP/BQP query (Algorithms 2-3, Eq. 2 and Eq. 5) by scoring
row ranges of one packed block with it.  The block is packed once into
numpy arrays, so a query scores all of its candidates in a handful of
array operations.  The per-candidate reference it is held to (tree
descent, uncached Eq. 1, full sort) lives in the test suite.

Packed layout (one bucket-major :class:`CandidatePack` per kernel)
------------------------------------------------------------------
Rows are grouped by consequence time-id in ascending order, with DFS
``seq`` order inside each bucket; a ``time_id -> [start, end)`` table
gives each bucket's rows.  A pattern's consequence is one region, so
every pattern sits in exactly one bucket.  An FQP bucket is a row view
of the block.  A BQP consequence mask is a set of bucket runs: codec
offsets ascend and each enlargement covers a contiguous offset window
mod ``T``, so a mask is at most two row ranges, scored in place (one
range) or gathered for that call only (several).  Nothing is stored
per mask.

Premises are at most ``max_premise_length`` regions, so a dense
``(n, premise_length)`` bit-matrix would be ~99% padding.  Instead each
candidate row stores its scorer table *sparsely*:

* ``bit_cols[r, j]``    — premise-bit index of the j-th table entry of row
  ``r`` (ascending bit order, exactly ``PremiseScorer.table``); padding
  columns point at bit 0.
* ``bit_weights[r, j]`` — the matching weight; padding columns carry 0.0.

Every row has the block's width ``W``, the widest table of the kernel.
A row is therefore at most ``max_premise_length`` cells of 16 bytes, a
bounded fraction of the pattern object it indexes, so packing needs no
size cap of its own.

With ``qvec`` the query's 0/1 premise-bit vector, the premise similarity
of every row is::

    (bit_weights * qvec[bit_cols]).cumsum(axis=1)[:, -1]

``cumsum`` accumulates each row strictly left-to-right, i.e. in ascending
bit order — the same sequential float additions the scalar scorer
performs.  Padding contributes exact ``+ 0.0`` terms, and IEEE-754
guarantees ``x + 0.0 == x`` for the non-negative partial sums that occur
here, so the result is **bit-identical** to ``PremiseScorer.score``.
(``np.dot``/``matmul`` must not be used: pairwise/BLAS summation reorders
the additions.)

Candidate-set identity
----------------------
Weights are strictly positive (``HPMConfig`` rejects weight families that
overflow at ``max_premise_length``), so a row's premise score is ``> 0``
iff the query premise key overlaps the candidate's — exactly the filter
``search_candidates`` applies for FQP.  BQP applies no premise filter, and
neither does the kernel's backward path.  Top-k uses ``argpartition`` plus
a ``lexsort`` on (score desc, confidence desc, support desc, ``seq``
asc).  A tree descent returns candidates in ``seq`` order and the
reference sorts them stably, so the last key reproduces its full-tie
order even when a selection spans buckets, whose rows are bucket-major.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .similarity import PremiseScorer

__all__ = [
    "KERNEL_BATCH_BUCKETS",
    "CandidatePack",
    "KernelHits",
    "ScoreKernel",
    "finalize_forward",
    "pack_premise_tables",
    "pattern_array",
    "premise_scores",
    "prime_plan_queries",
    "top_indices",
]

# Histogram buckets for predict_kernel_batch_size: the registry ignores
# ``buckets`` on an existing instrument, so every call site must pass this
# same constant.
KERNEL_BATCH_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def pattern_array(patterns: Sequence) -> np.ndarray:
    """Patterns as a 1-D object array, so row slices stay views."""
    return np.fromiter(patterns, dtype=object, count=len(patterns))


class CandidatePack:
    """Candidate rows in packed array form.

    A kernel holds one pack, its block: buckets in ascending consequence
    time-id order, DFS ``seq`` order inside each bucket, every row at the
    block's width.  Buckets and BQP selections are packs over a row
    range of the block (views) or, for a selection of several ranges, a
    gathered copy; both come from :meth:`take`.  ``patterns`` is an
    object array so that it slices like the numeric columns.
    """

    __slots__ = (
        "seqs",
        "bit_cols",
        "bit_weights",
        "confidences",
        "supports",
        "cons_offsets",
        "patterns",
    )

    def __init__(
        self,
        seqs: np.ndarray,
        bit_cols: np.ndarray,
        bit_weights: np.ndarray,
        confidences: np.ndarray,
        supports: np.ndarray,
        cons_offsets: np.ndarray,
        patterns: np.ndarray,
    ):
        self.seqs = seqs
        self.bit_cols = bit_cols
        self.bit_weights = bit_weights
        self.confidences = confidences
        self.supports = supports
        self.cons_offsets = cons_offsets
        self.patterns = patterns

    @property
    def n(self) -> int:
        return self.seqs.shape[0]

    @property
    def width(self) -> int:
        return self.bit_cols.shape[1]

    def take(self, rows) -> "CandidatePack":
        """The rows a slice (views) or an index array (copies) selects."""
        return CandidatePack(
            self.seqs[rows],
            self.bit_cols[rows],
            self.bit_weights[rows],
            self.confidences[rows],
            self.supports[rows],
            self.cons_offsets[rows],
            self.patterns[rows],
        )


def pack_premise_tables(
    premise_keys: Sequence[int], scorer: PremiseScorer, width: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse (bit_cols, bit_weights) arrays for a list of premise keys.

    Row ``r`` holds ``scorer.table(premise_keys[r])`` in ascending bit
    order, padded with (col 0, weight 0.0).  Exposed separately so the
    property-test suite can exercise packing against the scalar scorer
    directly.
    """
    tables = [scorer.table(rk) for rk in premise_keys]
    if width is None:
        width = max((len(t) for t in tables), default=0)
    width = max(width, 1)
    n = len(tables)
    cols = np.zeros((n, width), dtype=np.intp)
    weights = np.zeros((n, width), dtype=np.float64)
    for r, table in enumerate(tables):
        for j, (bit, weight) in enumerate(table):
            cols[r, j] = bit
            weights[r, j] = weight
    return cols, weights


def premise_scores(pack: CandidatePack, qvec: np.ndarray) -> np.ndarray:
    """Premise similarity of every row against the query bit vector.

    Bit-identical to ``PremiseScorer.score`` per row (see module
    docstring for the accumulation-order argument).
    """
    return (pack.bit_weights * qvec[pack.bit_cols]).cumsum(axis=1)[:, -1]


def top_indices(
    scores: np.ndarray,
    confidences: np.ndarray,
    supports: np.ndarray,
    seqs: np.ndarray,
    k: int,
) -> np.ndarray:
    """Indices of the top-k rows under the paper's ranking.

    Order: score desc, confidence desc, support desc, then ascending DFS
    ``seq`` for full ties — the ordering ``nsmallest(k, ..., key=_rank_key)``
    produces over the candidate list a tree descent returns, which is in
    ``seq`` order.  ``argpartition`` narrows to a candidate superset
    (every row tied with the k-th score survives) before the exact
    ``lexsort``.
    """
    n = scores.shape[0]
    if 0 < k < n:
        part = np.argpartition(-scores, k - 1)[:k]
        threshold = scores[part].min()
        cand = np.flatnonzero(scores >= threshold)
    else:
        cand = np.arange(n)
    # lexsort ranks by its *last* key first, so ``seq`` only breaks ties
    # on all three ranking keys.
    order = np.lexsort(
        (seqs[cand], -supports[cand], -confidences[cand], -scores[cand])
    )
    return cand[order[:k]]


class KernelHits:
    """A scored candidate set awaiting top-k extraction.

    ``rows`` maps the (FQP-filtered) score rows back into the pack's
    rows; ``None`` means all pack rows survived.
    """

    __slots__ = ("scores", "confidences", "supports", "rows", "pack")

    def __init__(self, scores, confidences, supports, rows, pack):
        self.scores = scores
        self.confidences = confidences
        self.supports = supports
        self.rows = rows
        self.pack = pack

    def top(self, k: int) -> list[tuple[float, object]]:
        """Top-k as (score, pattern) pairs with plain-float scores."""
        pack = self.pack
        rows = self.rows
        seqs = pack.seqs if rows is None else pack.seqs[rows]
        idx = top_indices(self.scores, self.confidences, self.supports, seqs, k)
        patterns = pack.patterns
        if rows is None:
            return [(float(self.scores[j]), patterns[j]) for j in idx]
        return [(float(self.scores[j]), patterns[rows[j]]) for j in idx]


def finalize_forward(pack: CandidatePack, sr: np.ndarray) -> KernelHits | None:
    """FQP post-processing: keep overlapping rows, apply Eq. 2.

    ``sr > 0`` is exactly the ``premise_bits & q_rk`` filter of
    ``search_candidates`` (weights are strictly positive).  Returns
    ``None`` when no candidate survives — Algorithm 2's "no candidates"
    case, answered by the motion function.
    """
    keep = sr > 0.0
    rows = np.flatnonzero(keep)
    if rows.size == 0:
        return None
    if rows.size == keep.size:
        return KernelHits(
            sr * pack.confidences, pack.confidences, pack.supports, None, pack
        )
    sr = sr[rows]
    confidences = pack.confidences[rows]
    return KernelHits(
        sr * confidences, confidences, pack.supports[rows], rows, pack
    )


def _pack_rows(entries: list, scorer: PremiseScorer) -> CandidatePack:
    """Pack ``(seq, premise_bits, pattern, key)`` entries, in order, at
    the widest table's width."""
    cols, weights = pack_premise_tables(
        [premise_bits for _seq, premise_bits, _pattern, _key in entries], scorer
    )
    patterns = [pattern for _seq, _premise_bits, pattern, _key in entries]
    return CandidatePack(
        seqs=np.array([seq for seq, _pb, _p, _k in entries], dtype=np.int64),
        bit_cols=cols,
        bit_weights=weights,
        confidences=np.array([p.confidence for p in patterns], dtype=np.float64),
        supports=np.array([p.support for p in patterns], dtype=np.int64),
        cons_offsets=np.array(
            [p.consequence_offset for p in patterns], dtype=np.int64
        ),
        patterns=pattern_array(patterns),
    )


class ScoreKernel:
    """One bucket-major candidate block for one tree + one weight family.

    ``bounds[t]:bounds[t + 1]`` are the block rows of consequence time-id
    ``t`` (an empty bucket is an empty range).  FQP buckets and BQP masks
    are row ranges of the block; nothing is materialised per mask.

    Built lazily by ``TrajectoryPatternTree.score_kernel`` from the
    consequence index and cached on the tree; it shares the index's
    invalidation contract exactly (insert/delete/bulk_load/
    rebind_patterns/expire-rebuild all drop it; ``rebind_codec`` keeps it
    since the key geometry is unchanged).  The arrays are immutable
    snapshots, safe to score outside the owning object's lock.
    """

    def __init__(
        self,
        kind: str,
        premise_length: int,
        block: CandidatePack,
        bounds: list[int],
        offset_time_ids: dict[int, int],
    ):
        self.kind = kind
        self.premise_length = premise_length
        self.block = block
        self._bounds = bounds
        self._offset_time_ids = offset_time_ids

    @classmethod
    def build(cls, tree, kind: str) -> "ScoreKernel":
        """Pack every consequence bucket of ``tree`` into one block."""
        codec = tree.codec
        index = tree.consequence_index()
        entries: list = []
        bounds = [0]
        for time_id in range(codec.consequence_length):
            entries.extend(index.get(time_id, ()))
            bounds.append(len(entries))
        offset_time_ids = {
            offset: time_id
            for time_id, offset in enumerate(codec.consequence_offsets())
        }
        return cls(
            kind,
            codec.premise_length,
            _pack_rows(entries, PremiseScorer(kind)),
            bounds,
            offset_time_ids,
        )

    def export_buckets(self) -> list[tuple[int, CandidatePack]]:
        """The non-empty buckets in ascending consequence time-id order.

        Snapshot writers serialise these row views verbatim; they share
        the block's width, so their concatenated cells are the block's.
        A kernel reconstructed from the stored blocks (same ``kind``,
        same ``premise_length``, same bucket arrays) scores
        byte-identically to one built from the tree.
        """
        bounds = self._bounds
        return [
            (time_id, self.block.take(slice(start, end)))
            for time_id, (start, end) in enumerate(zip(bounds, bounds[1:]))
            if start < end
        ]

    def block_for_offset(self, offset: int) -> CandidatePack | None:
        """The FQP bucket for a query offset as a row view of the block,
        or ``None`` when that offset has no candidates (unknown offset or
        empty bucket)."""
        time_id = self._offset_time_ids.get(offset)
        if time_id is None:
            return None
        start, end = self._bounds[time_id], self._bounds[time_id + 1]
        return self.block.take(slice(start, end)) if start < end else None

    def row_ranges(self, mask: int) -> list[tuple[int, int]]:
        """The block rows under a BQP consequence mask, as ascending,
        disjoint ``[start, end)`` ranges (empty when no candidate).

        Each run of consecutive set bits is one row range, since buckets
        are stored in time-id order; ranges that touch are joined.
        """
        bounds = self._bounds
        ranges: list[tuple[int, int]] = []
        while mask:
            low = mask & -mask
            # ``carry``'s lowest set bit is the first clear bit above the run.
            carry = mask + low
            mask &= carry
            start = bounds[low.bit_length() - 1]
            end = bounds[(carry & -carry).bit_length() - 1]
            if start == end:
                continue
            if ranges and ranges[-1][1] == start:
                ranges[-1] = (ranges[-1][0], end)
            else:
                ranges.append((start, end))
        return ranges

    def select(self, mask: int) -> CandidatePack | None:
        """Every candidate under a BQP consequence mask: a row view of
        the block when the rows are one range, else one gathered copy
        for this call only.  ``None`` when the mask holds no candidate."""
        ranges = self.row_ranges(mask)
        if not ranges:
            return None
        if len(ranges) == 1:
            return self.block.take(slice(*ranges[0]))
        return self.block.take(
            np.concatenate([np.arange(start, end) for start, end in ranges])
        )


# ----------------------------------------------------------------------
# cross-plan batching
# ----------------------------------------------------------------------
def prime_plan_queries(
    pairs: Iterable[tuple[object, int]], metrics=None
) -> int:
    """Score many (plan, query_time) FQP lookups in one kernel invocation.

    Plans whose query would not take the FQP path (no pattern index, BQP
    horizon, empty premise, already memoised) are skipped; the rest
    have their per-offset entry computed from one stacked array pass and
    stored in the plan memo, so the subsequent ``predict`` calls are pure
    memo hits.  Identity with per-plan scoring: each plan's query vector
    occupies a disjoint column range of the concatenated ``Q``, and the
    trailing padding columns contribute exact ``+ 0.0`` terms (see module
    docstring).

    Returns the number of entries primed.  Scoring errors propagate.
    """
    tasks: list[tuple[object, int, CandidatePack]] = []
    seen: set[tuple[int, int]] = set()
    for plan, query_time in pairs:
        offset = plan.fqp_prime_offset(query_time)
        if offset is None:
            continue
        key = (id(plan), offset)
        if key in seen:
            continue
        seen.add(key)
        pack = plan._kernel.block_for_offset(offset)
        if pack is None:
            plan._store_forward(offset, None)
            continue
        tasks.append((plan, offset, pack))
    if not tasks:
        return 0
    if len(tasks) == 1:
        plan, offset, pack = tasks[0]
        plan._store_forward(
            offset, finalize_forward(pack, premise_scores(pack, plan._qvec))
        )
    else:
        _prime_batched(tasks)
    if metrics is not None:
        metrics.histogram(
            "predict_kernel_batch_size",
            help="FQP lookups scored per kernel invocation",
            buckets=KERNEL_BATCH_BUCKETS,
        ).observe(float(len(tasks)))
    return len(tasks)


def _prime_batched(tasks: list[tuple[object, int, CandidatePack]]) -> None:
    width = max(pack.width for _plan, _offset, pack in tasks)
    total = sum(pack.n for _plan, _offset, pack in tasks)
    bases: dict[int, int] = {}
    segments: list[np.ndarray] = []
    next_base = 0
    for plan, _offset, _pack in tasks:
        if id(plan) not in bases:
            bases[id(plan)] = next_base
            segments.append(plan._qvec)
            next_base += plan._qvec.shape[0]
    q_all = np.concatenate(segments)
    cols = np.zeros((total, width), dtype=np.intp)
    weights = np.zeros((total, width), dtype=np.float64)
    spans: list[tuple[object, int, CandidatePack, int, int]] = []
    r = 0
    for plan, offset, pack in tasks:
        n, w = pack.n, pack.width
        cols[r : r + n, :w] = pack.bit_cols + bases[id(plan)]
        weights[r : r + n, :w] = pack.bit_weights
        spans.append((plan, offset, pack, r, r + n))
        r += n
    sr_all = (weights * q_all[cols]).cumsum(axis=1)[:, -1]
    for plan, offset, pack, a, b in spans:
        plan._store_forward(offset, finalize_forward(pack, sr_all[a:b]))
