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
from array import array
from dataclasses import dataclass
from typing import Iterator, Sequence

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
    one block in canonical order, and a lookup is one exact scan of that
    block — a Python loop over packed floats for a small block, one
    vectorised numpy pass for a large one (:attr:`py_scan_max_points`).
    An offset group holds at most one point per training period, which
    keeps most blocks small.  Nothing is memoised: a lookup costs a few
    microseconds and most probes are never repeated.
    """

    #: Offset blocks of at most this many member points are scanned by a
    #: Python loop; larger ones by one numpy pass, whose fixed cost of
    #: ~8-12 us a call only pays off past this size (measured crossover).
    #: At most 255, so a block's owner index fits in a byte.
    py_scan_max_points = 48

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
        sizes = [len(region) for region in self._regions]
        if 0 in sizes:
            raise ValueError("a frequent region needs at least one member point")
        # Per offset: the x and y columns of its regions' member points,
        # which region owns each point, and the offset's first region id.
        # A small block holds its columns as packed floats and its owners
        # as one byte per point (the region's index within the block); a
        # large block holds numpy columns and each region's start row.
        # Either way each coordinate is stored once.
        starts = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
        points = np.concatenate(
            [r.points for r in self._regions] or [np.empty((0, 2))]
        ).astype(np.float64)
        xs = np.ascontiguousarray(points[:, 0])
        ys = np.ascontiguousarray(points[:, 1])
        self._blocks: dict[int, tuple] = {}
        first = 0
        for offset, members in self._by_offset.items():
            end = first + len(members)
            lo, hi = int(starts[first]), int(starts[end])
            if hi - lo <= self.py_scan_max_points:
                self._blocks[offset] = (
                    array("d", xs[lo:hi].tobytes()),
                    array("d", ys[lo:hi].tobytes()),
                    b"".join(
                        bytes((j,)) * size
                        for j, size in enumerate(sizes[first:end])
                    ),
                    first,
                )
            else:
                self._blocks[offset] = (
                    xs[lo:hi].copy(),
                    ys[lo:hi].copy(),
                    starts[first:end] - lo,
                    first,
                )
            first = end

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

    def locate(self, point: Point | tuple[float, float], offset: int) -> FrequentRegion | None:
        """The frequent region at ``offset`` containing ``point``, if any.

        "Containing" means within ``eps`` of a member point (density
        membership).  Every member point at ``offset`` is
        ``sqrt(dx*dx + dy*dy)`` away, in float64; the region of the
        closest one wins — the last in ``(offset, index)`` order on a
        tie — if it lies within ``eps``.  Both scans compute these
        distances alike (``math.sqrt`` and ``np.sqrt`` round the same
        float64 sum the same way), so they return the same region.
        Non-finite coordinates and offsets outside ``[0, period)`` raise
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
        xs, ys, owners, first = block
        if type(owners) is bytes:
            sqrt = math.sqrt
            best = math.inf
            hit = 0
            for px, py, j in zip(xs, ys, owners):
                dx = px - x
                dy = py - y
                dist = sqrt(dx * dx + dy * dy)
                if dist <= best:
                    best = dist
                    hit = j
        else:
            dx = xs - x
            dy = ys - y
            dists = np.minimum.reduceat(np.sqrt(dx * dx + dy * dy), owners)
            hit = dists.shape[0] - 1 - int(np.argmin(dists[::-1]))
            best = dists[hit]
        if best > self.eps:
            return None
        return self._regions[first + hit]

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
