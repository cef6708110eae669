"""Prepared-query plans and the query-path caches.

The contract: every cache on the query path (prepared plans, the
premise-weight tables, the locate memo, the RMF walk frontier) must leave
answers **byte-identical** to the straightforward per-call computation.
These tests pin that down by comparing against legacy-shaped oracles:
brute-force Intersect scans, uncached similarity, full sorts and fresh
per-query predictors.  The TPT's pruned descents are held to the same
brute-force scans.
"""

import pickle

import numpy as np
import pytest

from repro.core.config import HPMConfig
from repro.core.keys import KeyCodec
from repro.core.model import HybridPredictionModel
from repro.core.patterns import (
    count_rules_unpruned,
    mine_trajectory_patterns,
    region_visit_masks,
)
from repro.core.plan import PreparedQuery
from repro.core.prediction import HybridPredictor
from repro.core.scorekernel import ScoreKernel
from repro.core.similarity import PremiseScorer, premise_similarity
from repro.core.tpt import TrajectoryPatternTree
from repro.motion.rmf import RecursiveMotionFunction
from repro.trajectory import Point, TimedPoint, Trajectory
from tests.core.legacy_reference import (
    brute_by_consequence,
    brute_candidates,
    legacy_backward,
    legacy_forward,
)


def hit_set(hits):
    """``(pattern, key)`` hits as an order-free multiset."""
    return sorted((key.value, id(pattern)) for pattern, key in hits)


def world_tree(model, max_entries=32):
    tree = TrajectoryPatternTree(model.codec_, max_entries=max_entries)
    tree.bulk_load_patterns(model.patterns_)
    return tree


@pytest.fixture(scope="module")
def world():
    """A fitted model with a rich FQP/BQP/motion query mix."""
    rng = np.random.default_rng(0)
    period = 16
    base = np.column_stack([70.0 * np.arange(period), 35.0 * np.arange(period)])
    blocks = [base + rng.normal(0, 0.8, base.shape) for _ in range(25)]
    cfg = HPMConfig(
        period=period, eps=5.0, min_pts=4, distant_threshold=6, recent_window=3
    )
    model = HybridPredictionModel(cfg).fit(Trajectory(np.vstack(blocks)))
    return model, base


@pytest.fixture(scope="module")
def pattern_free_model():
    """A fitted model whose history yields no frequent region at all."""
    rng = np.random.default_rng(7)
    period = 8
    positions = rng.uniform(0, 1e6, size=(period * 6, 2))
    cfg = HPMConfig(period=period, eps=1.0, min_pts=4, distant_threshold=3)
    model = HybridPredictionModel(cfg).fit(Trajectory(positions))
    assert model.predictor_ is None  # genuinely pattern-free
    return model


def predictions_equal(a, b):
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.location == pb.location
        assert pa.method == pb.method
        assert pa.score == pb.score  # exact — byte-identity, not approx
        assert pa.pattern == pb.pattern


# ----------------------------------------------------------------------
# plan answers == per-call answers
# ----------------------------------------------------------------------
class TestPreparedPlanEquivalence:
    def test_one_plan_many_query_times(self, world):
        model, base = world
        t0 = 25 * 16
        recent = [TimedPoint(t0 + t, *base[t]) for t in range(3)]
        plan = model.prepare(recent)
        for tq in range(t0 + 3, t0 + 40):
            for k in (1, 2, 5):
                predictions_equal(
                    model.predict_prepared(plan, tq, k),
                    model.predict(recent, tq, k),
                )

    def test_plan_validation_matches_predict(self, world):
        model, base = world
        t0 = 25 * 16
        recent = [TimedPoint(t0 + t, *base[t]) for t in range(3)]
        plan = model.prepare(recent)
        with pytest.raises(ValueError, match="after the current time"):
            plan.predict(t0 + 2)
        with pytest.raises(ValueError, match="k must be"):
            plan.predict(t0 + 5, k=0)
        with pytest.raises(ValueError, match="non-empty"):
            model.prepare([])

    def test_forward_backward_query_paths(self, world):
        model, base = world
        predictor = model.predictor_
        t0 = 25 * 16
        recent = [TimedPoint(t0 + t, *base[t]) for t in range(3)]
        plan = predictor.prepare(recent)
        predictions_equal(
            plan.forward(t0 + 4, 3), predictor.forward_query(recent, t0 + 4, 3)
        )
        predictions_equal(
            plan.backward(t0 + 12, 3), predictor.backward_query(recent, t0 + 12, 3)
        )


# ----------------------------------------------------------------------
# the legacy oracle (tests/core/legacy_reference.py)
# ----------------------------------------------------------------------
class TestLegacyOracle:
    def test_fqp_byte_identical(self, world):
        model, base = world
        predictor = model.predictor_
        t0 = 25 * 16
        for start in range(0, 12):
            recent = [TimedPoint(t0 + start + j, *base[(start + j) % 16]) for j in range(3)]
            for horizon in range(1, predictor.config.distant_threshold):
                tq = recent[-1].t + horizon
                expected = legacy_forward(predictor, model.patterns_, recent, tq, 4)
                got = predictor.forward_query(recent, tq, 4)
                if expected is None:
                    assert got[0].method == "motion"
                    continue
                assert [(p.score, p.location, p.pattern) for p in got] == expected

    def test_bqp_byte_identical(self, world):
        model, base = world
        predictor = model.predictor_
        t0 = 25 * 16
        for start in range(0, 8):
            recent = [TimedPoint(t0 + start + j, *base[(start + j) % 16]) for j in range(3)]
            for horizon in (6, 7, 11, 19, 33):
                tq = recent[-1].t + horizon
                expected = legacy_backward(predictor, model.patterns_, recent, tq, 4)
                got = predictor.backward_query(recent, tq, 4)
                if expected is None:
                    assert got[0].method == "motion"
                    continue
                assert [(p.score, p.location, p.pattern) for p in got] == expected


# ----------------------------------------------------------------------
# TPT pruned descents == brute-force Intersect scans
# ----------------------------------------------------------------------
class TestConsequenceIndex:
    def test_matches_descent_everywhere(self, world):
        model, _ = world
        tree = world_tree(model)
        codec = model.codec_
        full = (1 << codec.consequence_length) - 1
        for mask in list(1 << i for i in range(codec.consequence_length)) + [
            full,
            0b101 & full,
            full >> 1,
        ]:
            assert hit_set(tree.search_by_consequence(mask)) == hit_set(
                brute_by_consequence(codec, model.patterns_, mask)
            )

    def test_fqp_search_matches_descent(self, world):
        model, base = world
        tree = world_tree(model)
        codec = model.codec_
        predictor = model.predictor_
        t0 = 25 * 16
        for start in range(0, 16):
            recent = [TimedPoint(t0 + start + j, *base[(start + j) % 16]) for j in range(3)]
            regions = predictor.map_recent_to_regions(recent)
            for offset in range(16):
                qk = codec.encode_query(regions, offset)
                assert hit_set(tree.search_candidates(qk)) == hit_set(
                    brute_candidates(codec, model.patterns_, qk)
                )

    def test_index_invalidated_by_mutation(
        self, jane_region_set, jane_patterns
    ):
        codec = KeyCodec.from_patterns(jane_region_set, jane_patterns)
        tree = TrajectoryPatternTree(codec, max_entries=4)
        tree.bulk_load_patterns(jane_patterns[:2])
        full = (1 << codec.consequence_length) - 1
        before = tree.search_by_consequence(full)
        assert hit_set(before) == hit_set(
            brute_by_consequence(codec, jane_patterns[:2], full)
        )
        tree.insert_pattern(jane_patterns[2])
        tree.insert_pattern(jane_patterns[3])
        after = tree.search_by_consequence(full)
        assert len(after) == 4
        assert hit_set(after) == hit_set(
            brute_by_consequence(codec, jane_patterns, full)
        )
        tree.remove_pattern(jane_patterns[0])
        assert hit_set(tree.search_by_consequence(full)) == hit_set(
            brute_by_consequence(codec, jane_patterns[1:], full)
        )

    def test_mask_validation(self, world):
        tree = world_tree(world[0])
        with pytest.raises(ValueError):
            tree.search_by_consequence(-1)
        assert tree.search_by_consequence(0) == []


# ----------------------------------------------------------------------
# expire_patterns: rebuild path
# ----------------------------------------------------------------------
class TestExpireRebuild:
    def _tree(self, world):
        model, _ = world
        codec = model.codec_
        tree = TrajectoryPatternTree(codec, max_entries=8)
        tree.bulk_load_patterns(model.patterns_)
        return tree, model.patterns_

    def test_bulk_expiry_rebuilds(self, world):
        tree, patterns = self._tree(world)
        assert len(patterns) >= TrajectoryPatternTree._REBUILD_MIN_DOOMED * 2
        doomed = {
            (p.premise, p.consequence)
            for p in patterns[: len(patterns) // 2]
        }
        removed = tree.expire_patterns(
            lambda p: (p.premise, p.consequence) in doomed
        )
        assert removed == len(doomed)
        survivors = [
            p for p in patterns if (p.premise, p.consequence) not in doomed
        ]
        assert sorted(map(str, tree.all_patterns())) == sorted(map(str, survivors))
        assert len(tree) == len(survivors)
        tree.validate()
        # The rebuilt tree still answers searches like a brute-force scan.
        full = (1 << tree.codec.consequence_length) - 1
        assert hit_set(tree.search_by_consequence(full)) == hit_set(
            brute_by_consequence(tree.codec, survivors, full)
        )

    def test_expire_everything(self, world):
        tree, patterns = self._tree(world)
        assert tree.expire_patterns(lambda p: True) == len(patterns)
        assert len(tree) == 0
        assert tree.all_patterns() == []
        tree.validate()

    def test_small_expiry_uses_deletion(self, world):
        tree, patterns = self._tree(world)
        target = patterns[0]
        removed = tree.expire_patterns(
            lambda p: p.premise == target.premise
            and p.consequence == target.consequence
        )
        assert removed == 1
        assert len(tree) == len(patterns) - 1
        tree.validate()

    def test_no_matches(self, world):
        tree, patterns = self._tree(world)
        assert tree.expire_patterns(lambda p: False) == 0
        assert len(tree) == len(patterns)


# ----------------------------------------------------------------------
# similarity scorer and weight caches
# ----------------------------------------------------------------------
class TestPremiseScorer:
    @pytest.mark.parametrize(
        "kind", ["linear", "quadratic", "exponential", "factorial"]
    )
    def test_matches_premise_similarity_exactly(self, kind):
        rng = np.random.default_rng(42)
        scorer = PremiseScorer(kind)
        for _ in range(300):
            rk = int(rng.integers(0, 1 << 20))
            rkq = int(rng.integers(0, 1 << 20))
            assert scorer.score(rk, rkq) == premise_similarity(rk, rkq, kind)

    def test_tables_are_cached(self):
        scorer = PremiseScorer()
        assert scorer.table(0b1011) is scorer.table(0b1011)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown weight function"):
            PremiseScorer("cubic")

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            PremiseScorer().score(-1, 3)

    def test_scorer_survives_pickle(self):
        scorer = PremiseScorer("quadratic")
        scorer.score(0b111, 0b101)
        clone = pickle.loads(pickle.dumps(scorer))
        assert clone.score(0b111, 0b101) == scorer.score(0b111, 0b101)


# ----------------------------------------------------------------------
# RegionSet.locate memo
# ----------------------------------------------------------------------
class TestLocateMemo:
    def test_cached_equals_uncached(self, world):
        model, base = world
        regions = model.regions_
        rng = np.random.default_rng(5)
        for _ in range(200):
            offset = int(rng.integers(0, regions.period))
            xy = (float(rng.uniform(-50, 1200)), float(rng.uniform(-50, 700)))
            assert regions.locate(xy, offset) == regions.locate_uncached(xy, offset)
            # Second call is the cache hit; must agree too.
            assert regions.locate(xy, offset) == regions.locate_uncached(xy, offset)

    def test_point_and_tuple_share_cache_key(self, world):
        model, base = world
        regions = model.regions_
        p = Point(float(base[3][0]), float(base[3][1]))
        assert regions.locate(p, 3) == regions.locate((p.x, p.y), 3)

    def test_invalid_offset_still_raises(self, world):
        model, _ = world
        with pytest.raises(ValueError):
            model.regions_.locate((0.0, 0.0), model.regions_.period)

    def test_cache_dropped_on_pickle(self, world):
        model, base = world
        regions = model.regions_
        regions.locate((float(base[0][0]), float(base[0][1])), 0)
        clone = pickle.loads(pickle.dumps(regions))
        assert len(clone._locate_cache) == 0
        assert clone.locate((float(base[0][0]), float(base[0][1])), 0) == (
            regions.locate((float(base[0][0]), float(base[0][1])), 0)
        )

    def test_cache_is_bounded(self, world):
        model, _ = world
        regions = model.regions_
        limit = regions._LOCATE_CACHE_SIZE
        for i in range(limit + 50):
            regions.locate((float(i), 0.0), 0)
        assert len(regions._locate_cache) <= limit


# ----------------------------------------------------------------------
# RMF frontier resume
# ----------------------------------------------------------------------
class TestRmfFrontier:
    def _window(self):
        rng = np.random.default_rng(11)
        return [
            TimedPoint(100 + i, float(10 * i + rng.normal(0, 0.1)), float(5 * i))
            for i in range(9)
        ]

    def test_resumed_walk_identical_to_fresh(self):
        window = self._window()
        resumed = RecursiveMotionFunction().fit(window)
        for t in [108 + h for h in (1, 2, 30, 7, 120, 121, 300)]:
            fresh = RecursiveMotionFunction().fit(window)
            assert resumed.predict(t) == fresh.predict(t)

    def test_refit_resets_frontier(self):
        window = self._window()
        func = RecursiveMotionFunction().fit(window)
        func.predict(140)
        func.fit(window[:-1])
        assert func._frontier is None
        fresh = RecursiveMotionFunction().fit(window[:-1])
        assert func.predict(120) == fresh.predict(120)


# ----------------------------------------------------------------------
# satellite 3: FQP->BQP transition and motion edge cases
# ----------------------------------------------------------------------
class TestTrajectorySweepIdentity:
    def test_sweep_crosses_distant_threshold(self, world):
        model, base = world
        t0 = 25 * 16
        recent = [TimedPoint(t0 + t, *base[t]) for t in range(3)]
        tc = recent[-1].t
        d = model.config.distant_threshold
        # Sweep from well inside FQP range to well past the threshold.
        sweep = model.predict_trajectory(recent, tc + 1, tc + 2 * d + 5)
        methods = [p.method for _, p in sweep]
        assert "fqp" in methods and "bqp" in methods
        for t, prediction in sweep:
            independent = model.predict_one(recent, t)
            assert prediction.location == independent.location
            assert prediction.method == independent.method
            assert prediction.score == independent.score
            assert prediction.pattern == independent.pattern
            # Definition 2 dispatch holds at every step.
            expected_method = prediction.method
            if expected_method != "motion":
                assert (expected_method == "bqp") == (t - tc >= d)

    def test_empty_corpus_sweep(self, pattern_free_model):
        model = pattern_free_model
        t0 = model.history_.start_time + len(model.history_)
        recent = [
            TimedPoint(t0 + i, float(100 * i), float(50 * i)) for i in range(10)
        ]
        sweep = model.predict_trajectory(recent, t0 + 10, t0 + 30)
        assert all(p.method == "motion" for _, p in sweep)
        for t, prediction in sweep:
            independent = model.predict_one(recent, t)
            assert prediction.location == independent.location

    def test_window_shorter_than_rmf_retrospect(self, pattern_free_model):
        model = pattern_free_model
        # Two samples: RMF (retrospect 5) cannot fit, linear can.
        recent = [TimedPoint(500, 0.0, 0.0), TimedPoint(501, 10.0, 0.0)]
        sweep = model.predict_trajectory(recent, 502, 506)
        for t, prediction in sweep:
            assert prediction.method == "motion"
            assert prediction.location == Point(10.0 * (t - 500), 0.0)
            independent = model.predict_one(recent, t)
            assert prediction.location == independent.location

    def test_single_sample_stationary(self, pattern_free_model):
        model = pattern_free_model
        recent = [TimedPoint(500, 7.0, -3.0)]
        sweep = model.predict_trajectory(recent, 501, 505)
        for _t, prediction in sweep:
            assert prediction.method == "motion"
            assert prediction.location == Point(7.0, -3.0)

    def test_fitted_model_motion_edge_cases_match_pointwise(self, world):
        model, _ = world
        # A window far from every frequent region: FQP/BQP may fall back.
        recent = [
            TimedPoint(9000 + i, 1e5 + 3.0 * i, -1e5) for i in range(2)
        ]
        sweep = model.predict_trajectory(recent, 9002, 9030)
        for t, prediction in sweep:
            independent = model.predict_one(recent, t)
            assert prediction.location == independent.location
            assert prediction.method == independent.method


# ----------------------------------------------------------------------
# satellite 6: precomputed region masks
# ----------------------------------------------------------------------
class TestRegionMaskPlumbing:
    def test_mining_stats_carry_masks(self, world):
        model, _ = world
        stats = model.mining_stats_
        assert stats.region_masks == region_visit_masks(
            model.regions_, stats.num_transactions
        )

    def test_count_rules_unpruned_accepts_masks(self, world):
        model, _ = world
        stats = model.mining_stats_
        without = count_rules_unpruned(
            model.patterns_,
            model.regions_,
            stats.num_transactions,
            model.config.min_confidence,
        )
        with_masks = count_rules_unpruned(
            model.patterns_,
            model.regions_,
            stats.num_transactions,
            model.config.min_confidence,
            masks=stats.region_masks,
        )
        assert with_masks == without

    def test_mine_accepts_precomputed_masks(self, world):
        model, _ = world
        stats = model.mining_stats_
        cfg = model.config
        masks = region_visit_masks(model.regions_, stats.num_transactions)
        a = mine_trajectory_patterns(
            model.regions_,
            num_subtrajectories=stats.num_transactions,
            min_support=cfg.effective_min_support,
            min_confidence=cfg.min_confidence,
            max_premise_length=cfg.max_premise_length,
            max_premise_span=cfg.max_premise_span,
            max_consequence_gap=cfg.effective_max_consequence_gap,
            far_premise_stride=cfg.far_premise_stride,
        )
        b = mine_trajectory_patterns(
            model.regions_,
            num_subtrajectories=stats.num_transactions,
            min_support=cfg.effective_min_support,
            min_confidence=cfg.min_confidence,
            max_premise_length=cfg.max_premise_length,
            max_premise_span=cfg.max_premise_span,
            max_consequence_gap=cfg.effective_max_consequence_gap,
            far_premise_stride=cfg.far_premise_stride,
            region_masks=masks,
        )
        assert a == b


# ----------------------------------------------------------------------
# satellite 2: predictor path counters in metrics
# ----------------------------------------------------------------------
class TestPathCounters:
    def test_predict_paths_counted(self, world):
        from repro.serve.metrics import MetricsRegistry

        model, base = world
        registry = MetricsRegistry()
        model.bind_metrics(registry)
        try:
            t0 = 25 * 16
            recent = [TimedPoint(t0 + t, *base[t]) for t in range(3)]
            tc = recent[-1].t
            model.predict(recent, tc + 1)  # fqp
            model.predict(recent, tc + 20)  # bqp
            lost = [TimedPoint(9000, 1e6, 1e6)]
            model.predict(lost, 9001)  # motion
            snapshot = registry.snapshot()
            assert snapshot["predict_path_total_fqp"]["value"] == 1
            assert snapshot["predict_path_total_bqp"]["value"] == 1
            assert snapshot["predict_path_total_motion"]["value"] == 1
            assert snapshot["model_predict_total"]["value"] == 3
        finally:
            model.bind_metrics(None)

    def test_trajectory_sweep_counts_each_step(self, world):
        from repro.serve.metrics import MetricsRegistry

        model, base = world
        registry = MetricsRegistry()
        model.bind_metrics(registry)
        try:
            t0 = 25 * 16
            recent = [TimedPoint(t0 + t, *base[t]) for t in range(3)]
            tc = recent[-1].t
            results = model.predict_trajectory(recent, tc + 1, tc + 10)
            snapshot = registry.snapshot()
            assert snapshot["model_predict_total"]["value"] == len(results)
            per_path = sum(
                snapshot[f"predict_path_total_{m}"]["value"]
                for m in ("fqp", "bqp", "motion")
                if f"predict_path_total_{m}" in snapshot
            )
            assert per_path == len(results)
        finally:
            model.bind_metrics(None)


# ----------------------------------------------------------------------
# heap ranking ties
# ----------------------------------------------------------------------
class TestRankingTies:
    def test_tied_candidates_keep_canonical_order(
        self, jane_region_set, jane_patterns
    ):
        from repro.core.patterns import TrajectoryPattern

        # Two patterns with identical premise, confidence and support —
        # every rank key ties, and so does the pattern key (same premise,
        # same consequence offset): the consequence region id decides,
        # whatever order the table lists them in.
        home = jane_patterns[0].premise[0]
        city = jane_patterns[0].consequence
        shopping = jane_patterns[1].consequence
        twins = [
            TrajectoryPattern((home,), city, support=5, confidence=0.7),
            TrajectoryPattern((home,), shopping, support=5, confidence=0.7),
        ]
        codec = KeyCodec.from_patterns(jane_region_set, twins)
        config = HPMConfig(
            period=3, eps=5.0, min_pts=2, distant_threshold=2, recent_window=3
        )
        recent = [TimedPoint(30, 0.0, 0.0)]
        for table in (twins, twins[::-1]):
            predictor = HybridPredictor(
                regions=jane_region_set,
                codec=codec,
                kernel=ScoreKernel.from_patterns(jane_region_set, table, "linear"),
                config=config,
            )
            results = predictor.forward_query(recent, 31, 2)
            assert [p.score for p in results] == [0.7, 0.7]
            assert [p.pattern.consequence for p in results] == [city, shopping]
