"""Vectorized query scoring kernel over one packed candidate block.

This is the only candidate scorer on the query path: ``PreparedQuery``
answers every FQP/BQP query (Algorithms 2-3, Eq. 2 and Eq. 5) by scoring
row ranges of one packed block with it.  The block is packed once into
numpy arrays, straight from the model's pattern table, so a query scores
all of its candidates in a handful of array operations.  The
per-candidate reference it is held to (brute-force two-part Intersect,
uncached Eq. 1, full sort) lives in the test suite.

Packed layout (one bucket-major :class:`CandidatePack` per kernel)
------------------------------------------------------------------
Rows are in **canonical pattern order**: ascending pattern key value
(Table III: the consequence key above the premise key), then ascending
consequence region id.  That identity is unique per pattern, so the
order is one stable ``lexsort`` of the pattern table and does not depend
on the order the table lists its patterns in.  A pattern's consequence
is one region, so its key has exactly one consequence bit, placed above
every premise bit: the order is therefore grouped by consequence time-id
in ascending order (bucket-major), and a ``time_id -> [start, end)``
table gives each bucket's rows.  An FQP bucket is a row view of the
block.  A BQP consequence mask is a set of bucket runs: codec offsets
ascend and each enlargement covers a contiguous offset window mod ``T``,
so a mask is at most two row ranges, scored in place (one range) or
gathered for that call only (several).  Nothing is stored per mask.

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

Candidate-set identity and ties
-------------------------------
Weights are strictly positive (``HPMConfig`` rejects weight families that
overflow at ``max_premise_length``), so a row's premise score is ``> 0``
iff the query premise key overlaps the candidate's — exactly the
two-part ``Intersect`` of Section V-C for FQP.  BQP applies no premise
filter, and neither does the kernel's backward path.  Top-k uses
``argpartition`` plus a ``lexsort`` on (score desc, confidence desc,
support desc).  ``lexsort`` is stable and every candidate row set is
ascending in block position, so full ties fall to block position, which
*is* the canonical pattern identity.  A delta refit and a scratch fit
hold the same pattern table, hence the same block and the same answers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .similarity import premise_weights

__all__ = [
    "KERNEL_BATCH_BUCKETS",
    "CandidatePack",
    "KernelHits",
    "ScoreKernel",
    "canonical_order",
    "finalize_forward",
    "pack_premise_ids",
    "pad_table",
    "pattern_array",
    "pattern_table",
    "premise_scores",
    "prime_plan_queries",
    "region_offsets",
    "top_indices",
]

# Histogram buckets for predict_kernel_batch_size: the registry ignores
# ``buckets`` on an existing instrument, so every call site must pass this
# same constant.
KERNEL_BATCH_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def pattern_array(patterns: Sequence) -> np.ndarray:
    """Patterns as a 1-D object array, so row slices stay views."""
    return np.fromiter(patterns, dtype=object, count=len(patterns))


def canonical_order(
    premise_ids: np.ndarray,
    consequence_ids: np.ndarray,
    offsets_by_region: np.ndarray,
) -> np.ndarray:
    """Block row order of a pattern table: ascending pattern key value,
    then ascending consequence region id.

    ``premise_ids`` is ``(n, w)`` region ids, ``-1`` padded, in any order
    within a row; ``consequence_ids`` is ``(n,)``; ``offsets_by_region``
    maps a region id to its time offset.  A key value has one consequence bit
    above the premise bits, and consequence time-ids ascend with the
    offset, so keys compare first by consequence offset, then as premise
    bigints — i.e. lexicographically on the premise ids in descending
    order, a missing id (``-1``) sorting first.  Returns the stable
    ``lexsort`` permutation: row ``r`` of the block is table row
    ``order[r]``.
    """
    premise_ids = np.asarray(premise_ids, dtype=np.int64)
    consequence_ids = np.asarray(consequence_ids, dtype=np.int64)
    descending = -np.sort(-premise_ids, axis=1)
    # lexsort ranks by its *last* key first.
    keys = [consequence_ids]
    keys.extend(descending[:, j] for j in reversed(range(descending.shape[1])))
    keys.append(np.asarray(offsets_by_region, dtype=np.int64)[consequence_ids])
    return np.lexsort(keys)


class CandidatePack:
    """Candidate rows in packed array form.

    A kernel holds one pack, its block: rows in canonical pattern order,
    which is bucket-major, every row at the block's width.  Buckets and
    BQP selections are packs over a row range of the block (views) or,
    for a selection of several ranges, a gathered copy; both come from
    :meth:`take`.  ``patterns`` is an object array so that it slices
    like the numeric columns.
    """

    __slots__ = (
        "bit_cols",
        "bit_weights",
        "confidences",
        "supports",
        "cons_offsets",
        "patterns",
    )

    def __init__(
        self,
        bit_cols: np.ndarray,
        bit_weights: np.ndarray,
        confidences: np.ndarray,
        supports: np.ndarray,
        cons_offsets: np.ndarray,
        patterns: np.ndarray,
    ):
        self.bit_cols = bit_cols
        self.bit_weights = bit_weights
        self.confidences = confidences
        self.supports = supports
        self.cons_offsets = cons_offsets
        self.patterns = patterns

    @property
    def n(self) -> int:
        return self.confidences.shape[0]

    @property
    def width(self) -> int:
        return self.bit_cols.shape[1]

    def take(self, rows) -> "CandidatePack":
        """The rows a slice (views) or an index array (copies) selects."""
        return CandidatePack(
            self.bit_cols[rows],
            self.bit_weights[rows],
            self.confidences[rows],
            self.supports[rows],
            self.cons_offsets[rows],
            self.patterns[rows],
        )


def pack_premise_ids(
    premise_ids: np.ndarray, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse (bit_cols, bit_weights) arrays for rows of premise region ids.

    ``premise_ids`` is ``(n, w)``, ``-1`` padded, any order within a row.
    Row ``r`` holds ``PremiseScorer(kind).table(rk)`` of that premise's
    key ``rk``: its region ids ascending, each with the Property-1 weight
    of its rank (the same floats), padded with (col 0, weight 0.0) to the
    widest row.
    """
    premise_ids = np.asarray(premise_ids, dtype=np.int64)
    lengths = (premise_ids >= 0).sum(axis=1)
    width = max(int(lengths.max(initial=0)), 1)
    # Padding sorts above every region id, so each row ascends, ids first.
    padded = np.where(premise_ids >= 0, premise_ids, np.iinfo(np.int64).max)
    ascending = np.sort(padded, axis=1)[:, :width]
    cols = np.where(np.arange(width) < lengths[:, None], ascending, 0)
    weights = np.zeros((width + 1, width), dtype=np.float64)
    for m in range(1, width + 1):
        weights[m, :m] = premise_weights(m, kind)
    return cols.astype(np.intp), weights[lengths]


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
    k: int,
) -> np.ndarray:
    """Indices of the top-k rows under the paper's ranking.

    Order: score desc, confidence desc, support desc, then ascending row
    index for full ties — the candidate rows ascend in block position,
    so that is the canonical pattern identity.  ``argpartition`` narrows
    to a candidate superset (every row tied with the k-th score
    survives) before the exact, stable ``lexsort``.
    """
    n = scores.shape[0]
    if 0 < k < n:
        part = np.argpartition(-scores, k - 1)[:k]
        threshold = scores[part].min()
        cand = np.flatnonzero(scores >= threshold)
    else:
        cand = np.arange(n)
    # lexsort ranks by its *last* key first; being stable, it leaves full
    # ties in ascending ``cand`` order.
    order = np.lexsort((-supports[cand], -confidences[cand], -scores[cand]))
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
        idx = top_indices(self.scores, self.confidences, self.supports, k)
        patterns = self.pack.patterns
        rows = self.rows
        if rows is None:
            return [(float(self.scores[j]), patterns[j]) for j in idx]
        return [(float(self.scores[j]), patterns[rows[j]]) for j in idx]


def finalize_forward(pack: CandidatePack, sr: np.ndarray) -> KernelHits | None:
    """FQP post-processing: keep overlapping rows, apply Eq. 2.

    ``sr > 0`` is exactly the premise part of the two-part Intersect
    (weights are strictly positive).  Returns ``None`` when no candidate
    survives — Algorithm 2's "no candidates" case, answered by the
    motion function.
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


def pattern_table(regions, patterns: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """A pattern list as columns: ``(rows, confidences)``.

    ``rows`` is ``(n, w + 2)`` int64: the premise region ids in premise
    order, ``-1`` padded to the longest premise (``w >= 1``), then the
    consequence region id and the support.  ``confidences`` is ``(n,)``.
    Snapshots store exactly these columns.
    """
    # Patterns reference the region set's own objects; an equal object
    # from elsewhere falls back to the set's lookup.
    ids = {id(region): rid for rid, region in enumerate(regions)}

    def region_id(region) -> int:
        rid = ids.get(id(region))
        return regions.region_id(region) if rid is None else rid

    # Rules share premise tuples (the miner emits one per premise group),
    # so each distinct tuple is resolved once.
    premises = {id(p.premise): p.premise for p in patterns}
    width = max((len(premise) for premise in premises.values()), default=1)
    premise_rows = np.full((len(premises), width), -1, dtype=np.int64)
    for i, premise in enumerate(premises.values()):
        premise_rows[i, : len(premise)] = [region_id(r) for r in premise]
    row_of = {key: i for i, key in enumerate(premises)}
    rows = np.empty((len(patterns), width + 2), dtype=np.int64)
    rows[:, :width] = premise_rows[[row_of[id(p.premise)] for p in patterns]]
    consequence_ids = [ids.get(id(p.consequence)) for p in patterns]
    if None in consequence_ids:
        consequence_ids = [region_id(p.consequence) for p in patterns]
    rows[:, width] = consequence_ids
    rows[:, width + 1] = [p.support for p in patterns]
    confidences = np.array([p.confidence for p in patterns], dtype=np.float64)
    return rows, confidences


def region_offsets(regions) -> np.ndarray:
    """Time offset of every region, indexed by region id."""
    return np.fromiter(
        (region.offset for region in regions), dtype=np.int64, count=len(regions)
    )


def pad_table(rows: np.ndarray, width: int) -> np.ndarray:
    """Re-pad :func:`pattern_table` rows to ``width`` premise columns."""
    local = rows.shape[1] - 2
    if local == width:
        return rows
    out = np.full((rows.shape[0], width + 2), -1, dtype=np.int64)
    out[:, :local] = rows[:, :local]
    out[:, width:] = rows[:, local:]
    return out


def _fit_width(cells: np.ndarray, width: int) -> np.ndarray:
    """Cut or zero-pad ``(n, w)`` cells to ``width`` columns; cells beyond
    a row's premise length are padding (col 0, weight 0.0)."""
    if cells.shape[1] >= width:
        return cells[:, :width]
    out = np.zeros((cells.shape[0], width), dtype=cells.dtype)
    out[:, : cells.shape[1]] = cells
    return out


class ScoreKernel:
    """One bucket-major candidate block for one pattern table + one
    weight family.

    ``bounds[t]:bounds[t + 1]`` are the block rows of consequence time-id
    ``t`` (an empty bucket is an empty range); the time-ids are those of
    the codec over the same table (``KeyCodec.from_patterns``), i.e. the
    distinct consequence offsets, ascending.  FQP buckets and BQP masks
    are row ranges of the block; nothing is materialised per mask.

    Built by :meth:`from_patterns` when a model is fitted, by
    :meth:`updated` when a delta refit keeps the region ids, or from a
    snapshot's stored cells.  The arrays are immutable snapshots, safe to
    score outside the owning object's lock; a refit installs a new kernel
    instead of changing this one.
    """

    def __init__(
        self,
        kind: str,
        patterns: np.ndarray,
        rows: np.ndarray,
        confidences: np.ndarray,
        offsets_by_region: np.ndarray,
        cells: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        """Assemble a kernel from a pattern table in canonical order:
        ``patterns`` (object array), its :func:`pattern_table` ``rows`` and
        ``confidences``, and the packed ``cells`` (``bit_cols``,
        ``bit_weights``) when stored, else packed here."""
        if cells is None:
            cells = pack_premise_ids(rows[:, :-2], kind)
        self.kind = kind
        self.rows = rows
        self.block = CandidatePack(
            bit_cols=cells[0],
            bit_weights=cells[1],
            confidences=confidences,
            supports=rows[:, -1],
            cons_offsets=offsets_by_region[rows[:, -2]],
            patterns=patterns,
        )
        # Rows ascend in consequence offset, so bucket t starts at the
        # first row whose offset reaches the t-th distinct offset.
        cons_offsets = self.block.cons_offsets
        offsets = np.unique(cons_offsets)
        self._offset_time_ids = {
            offset: t for t, offset in enumerate(offsets.tolist())
        }
        self._bounds = np.searchsorted(cons_offsets, offsets).tolist()
        self._bounds.append(self.block.n)

    @classmethod
    def from_patterns(cls, regions, patterns: Sequence, kind: str) -> "ScoreKernel":
        """Pack a pattern table (any order) over ``regions`` into its
        canonical block, the premise bits being the region ids."""
        rows, confidences = pattern_table(regions, patterns)
        offsets_by_region = region_offsets(regions)
        order = canonical_order(rows[:, :-2], rows[:, -2], offsets_by_region)
        return cls(
            kind,
            pattern_array(patterns)[order],
            rows[order],
            confidences[order],
            offsets_by_region,
        )

    def updated(
        self,
        regions,
        removed: Sequence,
        replaced: Sequence[tuple],
        added: Sequence,
    ) -> "ScoreKernel":
        """This kernel's table without ``removed``, with each ``(old, new)``
        pair of ``replaced`` re-scored in place (same premise and
        consequence, so same row and cells) and with ``added`` patterns —
        byte-identical to :meth:`from_patterns` over the new table, at the
        cost of array work over the rows plus Python work over the changed
        patterns only.

        Only valid while the region ids are unchanged: kept rows keep them.
        """
        block = self.block
        # Rows of given pattern objects, found by a search over the sorted
        # object ids: array work, no Python pass over every row.
        ids = np.fromiter(map(id, block.patterns), dtype=np.int64, count=block.n)
        by_id = np.argsort(ids)

        def rows_of(wanted: list) -> np.ndarray:
            want = np.fromiter(map(id, wanted), dtype=np.int64, count=len(wanted))
            found = np.searchsorted(ids, want, sorter=by_id)
            at = by_id[found.clip(max=block.n - 1)]
            if not np.array_equal(ids[at], want):
                raise KeyError("pattern is not in this kernel")
            return at

        patterns = block.patterns.copy()
        rows = self.rows.copy()
        confidences = block.confidences.copy()
        if replaced:
            at = rows_of([old for old, _new in replaced])
            fresh = [new for _old, new in replaced]
            patterns[at] = pattern_array(fresh)
            rows[at, -1] = [p.support for p in fresh]
            confidences[at] = [p.confidence for p in fresh]
        cells = (block.bit_cols, block.bit_weights)
        offsets_by_region = region_offsets(regions)
        if not removed and not added:
            return ScoreKernel(
                self.kind, patterns, rows, confidences, offsets_by_region, cells
            )
        keep = np.ones(block.n, dtype=bool)
        keep[rows_of(removed)] = False
        new_rows, new_confidences = pattern_table(regions, added)
        width = max(rows.shape[1], new_rows.shape[1]) - 2
        rows = np.concatenate(
            [pad_table(rows[keep], width), pad_table(new_rows, width)]
        )
        # Kept rows keep their packed cells; the block is as wide as the
        # widest premise left, like a fresh pack.
        cell_width = max(int((rows[:, :-2] >= 0).sum(axis=1).max(initial=1)), 1)
        new_cells = pack_premise_ids(new_rows[:, :-2], self.kind)
        cells = [
            np.concatenate(
                [_fit_width(old[keep], cell_width), _fit_width(new, cell_width)]
            )
            for old, new in zip(cells, new_cells)
        ]
        patterns = np.concatenate([patterns[keep], pattern_array(added)])
        confidences = np.concatenate([confidences[keep], new_confidences])
        order = canonical_order(rows[:, :-2], rows[:, -2], offsets_by_region)
        return ScoreKernel(
            self.kind,
            patterns[order],
            rows[order],
            confidences[order],
            offsets_by_region,
            (cells[0][order], cells[1][order]),
        )

    def consequence_offsets(self) -> list[int]:
        """The distinct consequence offsets, ascending (the codec's
        consequence-key table of this pattern table)."""
        return list(self._offset_time_ids)

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
