"""Frequent regions ``R_t^j`` and their discovery (Section IV, Fig. 2).

"All locations from ``ceil(n/T)`` sub-trajectories which have the same time
offset ``t`` of ``T`` will be gathered onto one group ``G_t`` ... A
clustering method is then applied to find dense clusters ``R_t`` in each
``G_t`` ... ``R_t`` symbolizes the region inside of which the object may
often appear at time offset ``t``.  We call ``R_t`` a frequent region at
``t``.  More than one frequent region at time offset ``t`` can exist ...
we use ``R_t^j`` to represent the j-th frequent region at time offset t."
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..clustering.dbscan import dbscan
from ..trajectory.point import BoundingBox, Point
from ..trajectory.trajectory import Trajectory

__all__ = [
    "FrequentRegion",
    "RegionSet",
    "discover_frequent_regions",
    "cluster_offset_group",
    "regions_from_arrays",
]


def regions_from_arrays(
    region_rows: np.ndarray,
    region_geo: np.ndarray,
    region_points: np.ndarray,
    region_sub_ids: np.ndarray,
    points_start: int = 0,
) -> list[FrequentRegion]:
    """Reconstruct :class:`FrequentRegion` objects from packed columnar blocks.

    The fleet snapshot format stores regions as four parallel blocks:
    ``region_rows`` ``(R, 4)`` int64 rows of ``(offset, index, n_points,
    n_subs)``, ``region_geo`` ``(R, 6)`` float64 rows of ``(center_x,
    center_y, min_x, min_y, max_x, max_y)``, the member points
    concatenated as ``region_points`` and the contributing sub-trajectory
    ids concatenated as ``region_sub_ids``.  Centers and bounding boxes
    are *stored*, never recomputed — a recomputation could reorder float
    accumulation and break SHA-256 state-fingerprint identity with the
    model that was saved.

    ``region_points`` may be a memory-mapped block: each region's
    ``points`` attribute becomes a zero-copy slice view starting at
    ``points_start``, so constructing a fleet's regions touches no point
    pages until a :class:`RegionSet` packs its locate blocks or a
    fingerprint reads them.
    """
    rows = np.asarray(region_rows).tolist()
    geo = np.asarray(region_geo).tolist()
    if len(rows) != len(geo):
        raise ValueError(
            f"region_rows has {len(rows)} rows but region_geo has {len(geo)}"
        )
    sub_ids = np.asarray(region_sub_ids).tolist()
    regions: list[FrequentRegion] = []
    cursor = points_start
    sub_cursor = 0
    for (offset, index, n_points, n_subs), (cx, cy, x0, y0, x1, y1) in zip(
        rows, geo
    ):
        points = region_points[cursor : cursor + n_points]
        cursor += n_points
        subs = tuple(sub_ids[sub_cursor : sub_cursor + n_subs])
        sub_cursor += n_subs
        regions.append(
            FrequentRegion(
                offset=offset,
                index=index,
                center=Point(cx, cy),
                points=points,
                bbox=BoundingBox(x0, y0, x1, y1),
                subtrajectory_ids=subs,
            )
        )
    return regions


@dataclass(frozen=True, slots=True)
class FrequentRegion:
    """One dense cluster of an offset group (a slotted record).

    Attributes
    ----------
    offset:
        Time offset ``t`` within the period.
    index:
        ``j`` — the cluster's rank within its offset (discovery order).
    center:
        Cluster centroid; FQP/BQP return consequence centers as answers.
    points:
        The ``(m, 2)`` member locations.
    bbox:
        Axis-aligned bounds of the members.
    subtrajectory_ids:
        Which sub-trajectory contributed each member point.
    """

    offset: int
    index: int
    center: Point
    points: np.ndarray
    bbox: BoundingBox
    subtrajectory_ids: tuple[int, ...]

    @property
    def support(self) -> int:
        """Number of distinct sub-trajectories visiting the region."""
        return len(set(self.subtrajectory_ids))

    @property
    def label(self) -> str:
        """Paper notation, e.g. ``R_4^0``."""
        return f"R_{self.offset}^{self.index}"

    def __len__(self) -> int:
        return self.points.shape[0]

    def __str__(self) -> str:
        return self.label

    def __hash__(self) -> int:
        return hash((self.offset, self.index))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequentRegion):
            return NotImplemented
        return self.offset == other.offset and self.index == other.index

    def __reduce__(self):
        return (
            FrequentRegion,
            (
                self.offset,
                self.index,
                self.center,
                self.points,
                self.bbox,
                self.subtrajectory_ids,
            ),
        )


class RegionSet:
    """All frequent regions of one object, with membership lookup.

    Regions are kept in the paper's canonical order — sorted by
    ``(offset, index)`` — which also defines the region-id assignment used
    by the key tables (Section V-A: "we sort all the frequent regions by
    the time offset associated with the regions; unique region ids are
    given to each frequent region according to the order").

    Membership of an arbitrary location uses DBSCAN's density semantics: a
    point belongs to ``R_t^j`` when it lies within ``eps`` of one of the
    region's member points.  Each offset's member points are packed into
    one block in canonical order, so a lookup is one vectorised scan of
    that block.  An offset group holds at most one point per training
    period, which keeps every block small.
    """

    def __init__(
        self,
        regions: Sequence[FrequentRegion],
        period: int,
        eps: float,
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.period = period
        self.eps = float(eps)
        self._regions = sorted(regions, key=lambda r: (r.offset, r.index))
        for r in self._regions:
            if not 0 <= r.offset < period:
                raise ValueError(
                    f"region {r.label} offset outside [0, {period})"
                )
        self._ids = {region: i for i, region in enumerate(self._regions)}
        if len(self._ids) != len(self._regions):
            raise ValueError("duplicate (offset, index) among regions")
        self._by_offset: dict[int, list[FrequentRegion]] = {}
        for region in self._regions:
            self._by_offset.setdefault(region.offset, []).append(region)
        # Per offset: the x and y columns of its regions' member points,
        # each region's start row within them, and its first region id.
        sizes = [len(region) for region in self._regions]
        if 0 in sizes:
            raise ValueError("a frequent region needs at least one member point")
        starts = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
        points = np.concatenate(
            [r.points for r in self._regions] or [np.empty((0, 2))]
        ).astype(np.float64)
        xs, ys = points[:, 0].copy(), points[:, 1].copy()
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, int]] = {}
        first = 0
        for offset, members in self._by_offset.items():
            end = first + len(members)
            lo, hi = starts[first], starts[end]
            self._blocks[offset] = (
                xs[lo:hi], ys[lo:hi], starts[first:end] - lo, first
            )
            first = end
        self._locate_cache: OrderedDict = OrderedDict()

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self) -> Iterator[FrequentRegion]:
        return iter(self._regions)

    def __getitem__(self, region_id: int) -> FrequentRegion:
        return self._regions[region_id]

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def region_id(self, region: FrequentRegion) -> int:
        """Global id of ``region`` under the canonical (offset, index) order."""
        try:
            return self._ids[region]
        except KeyError:
            raise KeyError(f"{region.label} is not part of this region set") from None

    def at_offset(self, offset: int) -> list[FrequentRegion]:
        """All frequent regions at time offset ``offset`` (may be empty)."""
        if not 0 <= offset < self.period:
            raise ValueError(f"offset {offset} outside [0, {self.period})")
        return list(self._by_offset.get(offset, ()))

    def offsets(self) -> list[int]:
        """Sorted offsets that have at least one frequent region."""
        return sorted(self._by_offset)

    # LRU capacity for the locate memo.  Recent windows of live objects
    # revisit the same handful of (coordinate, offset) cells constantly —
    # serve batching, trajectory sweeps and repeated queries all hit.
    _LOCATE_CACHE_SIZE = 4096

    def locate(self, point: Point | tuple[float, float], offset: int) -> FrequentRegion | None:
        """The frequent region at ``offset`` containing ``point``, if any.

        "Containing" means within ``eps`` of a member point (density
        membership).  When several regions qualify (possible at region
        borders) the closest member wins.

        Answers are memoised in an LRU keyed on the exact coordinates and
        offset — the degenerate grid cell — so a cached answer is always
        the answer :meth:`locate_uncached` would give.
        """
        xy = (point.x, point.y) if isinstance(point, Point) else (point[0], point[1])
        cache_key = (xy[0], xy[1], offset)
        cache = self._locate_cache
        try:
            region = cache[cache_key]
        except KeyError:
            pass
        else:
            cache.move_to_end(cache_key)
            return region
        region = self.locate_uncached(xy, offset)
        cache[cache_key] = region
        if len(cache) > self._LOCATE_CACHE_SIZE:
            cache.popitem(last=False)
        return region

    def locate_uncached(
        self, point: Point | tuple[float, float], offset: int
    ) -> FrequentRegion | None:
        """:meth:`locate` without the memo: one scan of the offset's block.

        Every member point at ``offset`` is ``sqrt(dx*dx + dy*dy)`` away;
        ``np.minimum.reduceat`` takes each region's minimum.  The closest
        region wins — the last in ``(offset, index)`` order on a tie — if
        it lies within ``eps``.  Non-finite coordinates raise
        :class:`ValueError`.
        """
        if not 0 <= offset < self.period:
            raise ValueError(f"offset {offset} outside [0, {self.period})")
        x, y = (point.x, point.y) if isinstance(point, Point) else (point[0], point[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite location ({x}, {y})")
        block = self._blocks.get(offset)
        if block is None:
            return None
        xs, ys, starts, first = block
        dx = xs - x
        dy = ys - y
        dists = np.minimum.reduceat(np.sqrt(dx * dx + dy * dy), starts)
        last = dists.shape[0] - 1 - int(np.argmin(dists[::-1]))
        if dists[last] > self.eps:
            return None
        return self._regions[first + last]

    def prewarm_locate(self, samples: Iterable[tuple[float, float, int]]) -> int:
        """Prime the locate memo with ``(x, y, offset)`` probes.

        The memo is derived state and deliberately dropped on pickle
        (:meth:`__getstate__`), so a freshly restored snapshot answers its
        first queries through block scans.
        ``FleetPredictionModel.prewarm_locate_cache`` replays the history
        tail through this; snapshot restores and shard workers do not
        call it, because those keys were measured to give no memo hits
        on held-out queries.  Returns the number of probes issued.
        """
        count = 0
        for x, y, offset in samples:
            self.locate((float(x), float(y)), int(offset))
            count += 1
        return count

    def __getstate__(self) -> dict:
        # The memo is derived state; ship snapshots/pickles without it.
        state = self.__dict__.copy()
        state["_locate_cache"] = OrderedDict()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Snapshots written before the memo existed restore without it.
        self.__dict__.setdefault("_locate_cache", OrderedDict())

    def __repr__(self) -> str:
        return f"RegionSet(regions={len(self)}, period={self.period}, eps={self.eps})"


def discover_frequent_regions(
    trajectory: Trajectory,
    period: int,
    eps: float,
    min_pts: int,
) -> RegionSet:
    """Run the paper's frequent-region discovery over a training trajectory.

    For every time offset ``t`` the offset group ``G_t`` is clustered with
    DBSCAN(eps, min_pts); each resulting cluster becomes a frequent region
    ``R_t^j`` with ``j`` numbered in cluster-discovery order.

    The offset grouping is computed once over the stacked trajectory (one
    ``argsort`` instead of ``T`` full masking passes), and cluster members,
    bounding boxes and contributor ids come from array slices/reductions
    over label-sorted views.  Per-cluster centroids keep the exact
    ``points.mean(axis=0)`` reduction so the fitted regions stay
    byte-identical to the per-group reference path.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    positions = trajectory.positions
    n = positions.shape[0]
    # Stack all offset groups at once: stable sort by offset keeps rows in
    # ascending trajectory order within each group, matching offset_group().
    row_idx = np.arange(n, dtype=np.int64)
    offsets_all = (trajectory.start_time + row_idx) % period
    group_order = np.argsort(offsets_all, kind="stable")
    group_counts = np.bincount(offsets_all, minlength=period)
    group_starts = np.concatenate(([0], np.cumsum(group_counts)[:-1]))

    regions: list[FrequentRegion] = []
    for offset in range(period):
        count = int(group_counts[offset])
        if count == 0:
            continue
        rows = group_order[group_starts[offset] : group_starts[offset] + count]
        regions.extend(
            cluster_offset_group(positions, rows, offset, period, eps, min_pts)
        )
    return RegionSet(regions, period=period, eps=eps)


def cluster_offset_group(
    positions: np.ndarray,
    rows: np.ndarray,
    offset: int,
    period: int,
    eps: float,
    min_pts: int,
) -> list[FrequentRegion]:
    """Cluster one offset group ``G_t`` into its frequent regions.

    ``rows`` are the trajectory row indices whose offset is ``offset``, in
    ascending trajectory order (as produced by the stable offset grouping
    in :func:`discover_frequent_regions`).  The delta-refit path calls
    this for dirty offsets only; the output is byte-identical to the
    regions :func:`discover_frequent_regions` would build for the offset.
    """
    count = rows.shape[0]
    group_points = positions[rows]
    group_subs = rows // period
    result = dbscan(group_points, eps=eps, min_pts=min_pts)
    if result.num_clusters == 0:
        return []
    # All cluster member lists in one stable sort of the labels:
    # noise (-1) sorts first, then each cluster's members in
    # ascending group order — the same order members(j) returns.
    labels = result.labels
    label_order = np.argsort(labels, kind="stable")
    member_counts = np.bincount(
        labels[labels >= 0], minlength=result.num_clusters
    )
    member_starts = (count - int(member_counts.sum())) + np.concatenate(
        ([0], np.cumsum(member_counts)[:-1])
    )
    regions: list[FrequentRegion] = []
    for j in range(result.num_clusters):
        member_idx = label_order[
            member_starts[j] : member_starts[j] + member_counts[j]
        ]
        points = group_points[member_idx]
        centroid = points.mean(axis=0)
        xs = points[:, 0]
        ys = points[:, 1]
        regions.append(
            FrequentRegion(
                offset=offset,
                index=j,
                center=Point(float(centroid[0]), float(centroid[1])),
                points=points,
                bbox=BoundingBox(
                    float(xs.min()), float(ys.min()),
                    float(xs.max()), float(ys.max()),
                ),
                subtrajectory_ids=tuple(group_subs[member_idx].tolist()),
            )
        )
    return regions
