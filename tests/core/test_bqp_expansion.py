"""Tests for BQP's incremental interval enlargement (Algorithm 3)."""

import pytest

from repro.core.config import HPMConfig
from repro.core.keys import KeyCodec
from repro.core.patterns import TrajectoryPattern
from repro.core.prediction import HybridPredictor
from repro.core.regions import RegionSet
from repro.core.scorekernel import ScoreKernel
from repro.trajectory import TimedPoint
from tests.core.conftest import make_region


@pytest.fixture
def sparse_world():
    """Period 40; consequences exist ONLY at offset 30.

    A distant query at offset ~20 must enlarge its interval several times
    before the offset-30 patterns fall inside it.
    """
    start = make_region(0, 0, 0.0, 0.0)
    mid = make_region(10, 0, 100.0, 0.0)
    goal = make_region(30, 0, 300.0, 0.0)
    regions = RegionSet([start, mid, goal], period=40, eps=5.0)
    patterns = [
        TrajectoryPattern((start,), goal, support=8, confidence=0.9),
        TrajectoryPattern((mid,), goal, support=6, confidence=0.7),
    ]
    codec = KeyCodec.from_patterns(regions, patterns)
    kernel = ScoreKernel.from_patterns(regions, patterns, "linear")
    config = HPMConfig(
        period=40, eps=5.0, distant_threshold=5, time_relaxation=2, recent_window=3
    )
    return HybridPredictor(regions, codec, kernel, config)


class TestIntervalExpansion:
    def test_query_far_from_consequences_expands_until_found(self, sparse_world):
        # tc at offset 0 (global 400), tq at offset 20: the only consequence
        # offset (30) is 10 away -> needs i*t_eps >= 10 -> i = 5 expansions.
        recent = [TimedPoint(400, 0.0, 0.0)]
        result = sparse_world.backward_query(recent, 420, k=1)
        assert result[0].method == "bqp"
        assert result[0].pattern.consequence.label == "R_30^0"

    def test_expansion_gives_up_at_current_time(self, sparse_world):
        """When the interval would reach back to tc before any pattern is
        found, BQP calls the motion function (Algorithm 3 line 11)."""
        # tc at offset 12 (global 412), tq at offset 18: distance to the
        # only consequence offset (30) is 12, but the interval may only
        # grow while tq - i*t_eps > tc, i.e. i*2 < 6 -> never reaches it.
        recent = [
            TimedPoint(410, 100.0, 0.0),
            TimedPoint(411, 100.0, 0.0),
            TimedPoint(412, 100.0, 0.0),
        ]
        result = sparse_world.backward_query(recent, 418, k=1)
        assert result[0].method == "motion"

    def test_wide_relaxation_finds_immediately(self, sparse_world):
        """A t_eps covering the gap needs no expansion at all."""
        wide = HybridPredictor(
            sparse_world.regions,
            sparse_world.codec,
            sparse_world.kernel,
            sparse_world.config.with_overrides(time_relaxation=10),
        )
        recent = [TimedPoint(400, 0.0, 0.0)]
        result = wide.backward_query(recent, 420, k=2)
        assert all(r.method == "bqp" for r in result)

    def test_consequence_similarity_decays_with_distance(self, sparse_world):
        """The found pattern's Sc reflects how far the interval stretched."""
        recent = [TimedPoint(400, 0.0, 0.0)]
        # Query exactly at the consequence offset: Sc = 1, premise matches.
        on_target = sparse_world.backward_query(recent, 430, k=1)[0]
        off_target = sparse_world.backward_query(recent, 420, k=1)[0]
        assert on_target.score > off_target.score
