"""Tests for frequent-region discovery and the RegionSet."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regions import FrequentRegion, RegionSet, discover_frequent_regions
from repro.trajectory import BoundingBox, Point, Trajectory
from tests.core.conftest import make_region


def periodic_trajectory(num_subs=20, period=6, sigma=0.5, seed=0, f=1.0):
    """Object visits (100*t, 0) at offset t every period, with jitter."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(num_subs):
        base = np.column_stack(
            [100.0 * np.arange(period), np.zeros(period)]
        )
        if rng.random() < f:
            blocks.append(base + rng.normal(0, sigma, base.shape))
        else:
            blocks.append(rng.uniform(0, 500, base.shape))
    return Trajectory(np.vstack(blocks))


class TestDiscovery:
    def test_one_region_per_offset(self):
        traj = periodic_trajectory()
        regions = discover_frequent_regions(traj, period=6, eps=5.0, min_pts=4)
        assert len(regions) == 6
        for t in range(6):
            (region,) = regions.at_offset(t)
            assert region.center.distance_to(Point(100.0 * t, 0.0)) < 2.0
            assert region.support == 20

    def test_min_pts_too_high_gives_no_regions(self):
        traj = periodic_trajectory(num_subs=3)
        regions = discover_frequent_regions(traj, period=6, eps=5.0, min_pts=4)
        assert len(regions) == 0

    def test_two_regions_at_same_offset(self):
        """Alternating visits to two places yields R_t^0 and R_t^1."""
        rng = np.random.default_rng(1)
        blocks = []
        for k in range(20):
            target = [0.0, 0.0] if k % 2 == 0 else [500.0, 500.0]
            blocks.append(rng.normal(target, 0.5, (1, 2)))
        traj = Trajectory(np.vstack(blocks))
        regions = discover_frequent_regions(traj, period=1, eps=5.0, min_pts=4)
        assert len(regions) == 2
        assert [r.index for r in regions] == [0, 1]
        assert {r.offset for r in regions} == {0}

    def test_region_membership_ids(self):
        traj = periodic_trajectory(num_subs=10)
        regions = discover_frequent_regions(traj, period=6, eps=5.0, min_pts=4)
        for region in regions:
            assert set(region.subtrajectory_ids) == set(range(10))

    def test_noise_days_excluded(self):
        traj = periodic_trajectory(num_subs=30, f=0.8, seed=3)
        regions = discover_frequent_regions(traj, period=6, eps=5.0, min_pts=4)
        for region in regions:
            # Pattern days only: support below the full 30.
            assert region.support <= 30
            assert region.support >= 4


class TestRegionSet:
    def test_canonical_order_and_ids(self, jane_region_set):
        labels = [r.label for r in jane_region_set]
        assert labels == ["R_0^0", "R_1^0", "R_1^1", "R_2^0", "R_2^1"]
        for i, region in enumerate(jane_region_set):
            assert jane_region_set.region_id(region) == i
            assert jane_region_set[i] == region

    def test_region_id_unknown(self, jane_region_set):
        foreign = make_region(0, 9, 1.0, 1.0)
        with pytest.raises(KeyError):
            jane_region_set.region_id(foreign)

    def test_at_offset(self, jane_region_set):
        assert len(jane_region_set.at_offset(1)) == 2
        assert jane_region_set.at_offset(0)[0].label == "R_0^0"
        with pytest.raises(ValueError):
            jane_region_set.at_offset(3)

    def test_offsets(self, jane_region_set):
        assert jane_region_set.offsets() == [0, 1, 2]

    def test_locate_inside(self, jane_region_set, jane_regions):
        # Within eps (5.0) of a member point of Home.
        found = jane_region_set.locate(Point(2.0, 2.0), offset=0)
        assert found == jane_regions["home"]

    def test_locate_outside(self, jane_region_set):
        assert jane_region_set.locate(Point(50.0, 50.0), offset=0) is None

    def test_locate_picks_closest_of_two(self, jane_region_set, jane_regions):
        # Offset 1 has City (100, 0) and Shopping (0, 100).
        near_city = jane_region_set.locate(Point(99.0, 0.0), offset=1)
        assert near_city == jane_regions["city"]
        near_shopping = jane_region_set.locate(Point(0.0, 99.0), offset=1)
        assert near_shopping == jane_regions["shopping"]

    def test_locate_accepts_tuples(self, jane_region_set, jane_regions):
        assert jane_region_set.locate((2.0, 2.0), 0) == jane_regions["home"]

    def test_duplicate_region_identity_rejected(self, jane_regions):
        dup = [jane_regions["home"], make_region(0, 0, 9.0, 9.0)]
        with pytest.raises(ValueError, match="duplicate"):
            RegionSet(dup, period=3, eps=5.0)

    def test_offset_outside_period_rejected(self, jane_regions):
        with pytest.raises(ValueError):
            RegionSet([jane_regions["work"]], period=2, eps=5.0)

    def test_region_equality_by_identity(self, jane_regions):
        same_slot = make_region(0, 0, 999.0, 999.0)
        assert same_slot == jane_regions["home"]  # (offset, index) identity
        assert hash(same_slot) == hash(jane_regions["home"])


# ----------------------------------------------------------------------
# locate exactness: both block scans against two independent oracles
# ----------------------------------------------------------------------
def numpy_locate(region_set, xy, offset):
    """The vectorised block scan, rebuilt from the regions at ``offset``.

    All member points' ``np.sqrt(dx * dx + dy * dy)``, each region's
    minimum by ``np.minimum.reduceat``, and the last minimal region (in
    ``(offset, index)`` order) if it lies within ``eps``.
    """
    members = region_set.at_offset(offset)
    if not members:
        return None
    points = np.concatenate([r.points for r in members]).astype(np.float64)
    starts = np.cumsum([0] + [len(r) for r in members[:-1]])
    dx = points[:, 0] - xy[0]
    dy = points[:, 1] - xy[1]
    dists = np.minimum.reduceat(np.sqrt(dx * dx + dy * dy), starts)
    last = dists.shape[0] - 1 - int(np.argmin(dists[::-1]))
    return None if dists[last] > region_set.eps else members[last]


class PythonScans(RegionSet):
    py_scan_max_points = 255


class NumpyScans(RegionSet):
    py_scan_max_points = -1


def every_scan(regions, period, eps):
    """The same regions as three sets: the default size rule, every
    block in Python, every block in numpy."""
    return [
        kind(regions, period=period, eps=eps)
        for kind in (RegionSet, PythonScans, NumpyScans)
    ]


def reference_locate(region_set, xy, offset):
    """The density-membership rule, one region and one point at a time.

    Each region's distance is its closest member's
    ``math.sqrt(dx*dx + dy*dy)``; the closest region within ``eps`` wins,
    a later region (in ``(offset, index)`` order) on a tie.
    """
    x, y = xy
    best, best_dist = None, region_set.eps
    for region in region_set.at_offset(offset):
        dist = min(
            math.sqrt((px - x) * (px - x) + (py - y) * (py - y))
            for px, py in region.points.tolist()
        )
        if dist <= best_dist:
            best, best_dist = region, dist
    return best


def half_grid_region(offset, index, cells):
    points = np.array(cells, dtype=float) / 2.0
    return FrequentRegion(
        offset=offset,
        index=index,
        center=Point(*points.mean(axis=0)),
        points=points,
        bbox=BoundingBox(*points.min(axis=0), *points.max(axis=0)),
        subtrajectory_ids=tuple(range(len(cells))),
    )


half_cells = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@st.composite
def half_grid_worlds(draw):
    """Region sets on a half-unit grid, so exact ties and exact-Eps
    distances occur; offsets may be empty or hold several regions."""
    period = draw(st.integers(1, 4))
    regions = [
        half_grid_region(offset, index, cells)
        for offset in range(period)
        for index, cells in enumerate(
            draw(st.lists(st.lists(half_cells, min_size=1, max_size=5), max_size=3))
        )
    ]
    eps = draw(st.sampled_from([0.5, 1.0, 1.5, 2.5]))
    queries = draw(
        st.lists(
            st.tuples(half_cells, st.integers(0, period - 1)), min_size=1, max_size=30
        )
    )
    return (
        RegionSet(regions, period=period, eps=eps),
        [((cx / 2.0, cy / 2.0), offset) for (cx, cy), offset in queries],
    )


def float_region(offset, index, points):
    return FrequentRegion(
        offset=offset,
        index=index,
        center=Point(*points.mean(axis=0)),
        points=points,
        bbox=BoundingBox(*points.min(axis=0), *points.max(axis=0)),
        subtrajectory_ids=tuple(range(points.shape[0])),
    )


@st.composite
def float_worlds(draw):
    """Regions of random float points, with blocks on both sides of the
    size rule, and probes on and around their eps borders.

    Probes: random points; member points moved by exactly eps, by
    eps * (1 +/- 1e-9) and by random distances up to 3 eps; midpoints
    of neighbouring member points (equidistant between them)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    period = draw(st.integers(1, 3))
    eps = draw(st.sampled_from([1.0, 7.5, 30.0]))
    limit = RegionSet.py_scan_max_points
    regions = []
    for offset in range(period):
        total = draw(st.sampled_from([0, 1, limit - 1, limit, limit + 1, 2 * limit]))
        if total == 0:
            continue  # an empty offset
        cuts = sorted(draw(st.lists(st.integers(1, max(total - 1, 1)), max_size=3)))
        bounds = [0] + [c for c in dict.fromkeys(cuts) if 0 < c < total] + [total]
        centers = rng.uniform(-4 * eps, 4 * eps, (len(bounds), 2))
        for index, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            spread = rng.uniform(0.2, 2.0) * eps
            regions.append(
                float_region(
                    offset, index, centers[index] + rng.normal(0, spread, (hi - lo, 2))
                )
            )
    queries = []
    for region in regions:
        for px, py in region.points.tolist():
            angle = rng.uniform(0, 2 * math.pi)
            ux, uy = math.cos(angle), math.sin(angle)
            radii = (eps, eps * (1 + 1e-9), eps * (1 - 1e-9), rng.uniform(0, 3 * eps))
            for r in radii:
                queries.append(((px + r * ux, py + r * uy), region.offset))
            queries.append(((px + eps, py), region.offset))
    for offset in range(period):
        members = [r.points for r in regions if r.offset == offset]
        if members:
            points = np.concatenate(members)
            for a, b in zip(points[:-1], points[1:]):
                queries.append((tuple(((a + b) / 2.0).tolist()), offset))
    for x, y in rng.uniform(-6 * eps, 6 * eps, (10, 2)).tolist():
        queries.append(((x, y), int(rng.integers(0, period))))
    return regions, period, eps, queries


class TestLocateExactness:
    @given(half_grid_worlds())
    def test_matches_reference(self, world):
        region_set, queries = world
        built = every_scan(list(region_set), region_set.period, region_set.eps)
        for xy, offset in queries:
            want = reference_locate(region_set, xy, offset)
            assert numpy_locate(region_set, xy, offset) is want
            for scanned in built:
                assert scanned.locate(xy, offset) is want

    @settings(max_examples=60, deadline=None)
    @given(float_worlds())
    def test_matches_numpy_scan_on_float_worlds(self, world):
        regions, period, eps, queries = world
        built = every_scan(regions, period, eps)
        for xy, offset in queries:
            want = numpy_locate(built[0], xy, offset)
            for region_set in built:
                assert region_set.locate(xy, offset) is want

    def test_size_rule_picks_the_scan_per_block(self):
        limit = RegionSet.py_scan_max_points
        rng = np.random.default_rng(3)
        regions = [
            float_region(0, 0, rng.normal(0, 5, (limit, 2))),
            float_region(1, 0, rng.normal(0, 5, (limit - 3, 2))),
            float_region(1, 1, rng.normal(9, 5, (4, 2))),
        ]
        region_set = RegionSet(regions, period=2, eps=4.0)
        python_block, numpy_block = region_set._blocks[0], region_set._blocks[1]
        assert type(python_block[2]) is bytes
        assert isinstance(numpy_block[2], np.ndarray)
        # One copy of each coordinate: packed floats or numpy columns.
        assert not any(isinstance(part, np.ndarray) for part in python_block)
        for xy in rng.normal(3, 8, (200, 2)).tolist():
            for offset in (0, 1):
                assert region_set.locate(xy, offset) is numpy_locate(
                    region_set, xy, offset
                )

    @given(half_grid_worlds())
    def test_matches_per_region_kd_trees(self, world):
        cKDTree = pytest.importorskip("scipy.spatial").cKDTree
        region_set, queries = world
        for xy, offset in queries:
            want, best_dist = None, region_set.eps
            for region in region_set.at_offset(offset):
                dist, _ = cKDTree(region.points).query(xy, k=1)
                if dist <= best_dist:
                    want, best_dist = region, dist
            assert region_set.locate(xy, offset) is want

    def test_tie_goes_to_the_later_region(self):
        left = half_grid_region(0, 0, [(-4, 0)])  # member at (-2, 0)
        right = half_grid_region(0, 1, [(4, 0)])  # member at (2, 0)
        region_set = RegionSet([left, right], period=1, eps=2.0)
        assert region_set.locate((0.0, 0.0), 0) is right
        assert region_set.locate((0.0, 1.0), 0) is None
        # Exactly Eps away still counts; a hair beyond does not.
        assert region_set.locate((-4.0, 0.0), 0) is left
        assert region_set.locate((-4.0 - 1e-9, 0.0), 0) is None

    def test_out_of_range_offset_raises(self, jane_region_set):
        for offset in (-1, 3):
            with pytest.raises(ValueError, match="outside"):
                jane_region_set.locate((0.0, 0.0), offset)

    @pytest.mark.parametrize(
        "xy", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)]
    )
    def test_non_finite_location_raises_at_every_offset(self, jane_region_set, xy):
        sparse = RegionSet(list(jane_region_set)[:1], period=3, eps=5.0)
        numpy_scans = NumpyScans(list(jane_region_set), period=3, eps=5.0)
        for region_set in (jane_region_set, sparse, numpy_scans):
            for offset in range(3):  # offsets 1 and 2 of sparse are empty
                with pytest.raises(ValueError, match="non-finite"):
                    region_set.locate(xy, offset)

    def test_region_without_points_rejected(self):
        empty = FrequentRegion(
            0, 0, Point(0.0, 0.0), np.empty((0, 2)), BoundingBox(0, 0, 0, 0), ()
        )
        with pytest.raises(ValueError, match="member point"):
            RegionSet([empty], period=1, eps=1.0)

    def test_region_records_are_slotted_and_pickle(self, jane_regions):
        region = jane_regions["city"]
        assert not hasattr(region, "__dict__")
        clone = pickle.loads(pickle.dumps(region))
        assert clone == region
        assert hash(clone) == hash(region)
        assert (clone.offset, clone.index) == (region.offset, region.index)
        assert clone.center == region.center
        assert clone.bbox == region.bbox
        assert clone.subtrajectory_ids == region.subtrajectory_ids
        np.testing.assert_array_equal(clone.points, region.points)

    def test_pickle_round_trip(self, jane_region_set):
        clone = pickle.loads(pickle.dumps(jane_region_set))
        assert [r.label for r in clone] == [r.label for r in jane_region_set]
        for x in (-3.0, 2.0, 99.0, 100.0, 199.5):
            for offset in range(3):
                for xy in ((x, 0.0), (0.0, x)):
                    got = clone.locate(xy, offset)
                    want = jane_region_set.locate(xy, offset)
                    assert (got and got.label) == (want and want.label)
