"""Tests for the HybridPredictionModel facade."""

import numpy as np
import pytest

from repro.core.config import HPMConfig
from repro.core.model import HybridPredictionModel
from repro.trajectory import Point, TimedPoint, Trajectory


def route_trajectory(num_subs=30, period=12, sigma=0.8, seed=0):
    """Periodic movement along a bent path with Gaussian jitter."""
    rng = np.random.default_rng(seed)
    base = np.zeros((period, 2))
    for t in range(period):
        if t < period // 2:
            base[t] = [60.0 * t, 0.0]
        else:
            base[t] = [60.0 * (period // 2), 60.0 * (t - period // 2)]
    blocks = [base + rng.normal(0, sigma, base.shape) for _ in range(num_subs)]
    return Trajectory(np.vstack(blocks)), base


@pytest.fixture
def fitted():
    traj, base = route_trajectory()
    cfg = HPMConfig(
        period=12, eps=5.0, min_pts=4, distant_threshold=5, recent_window=3
    )
    model = HybridPredictionModel(cfg).fit(traj)
    return model, base


class TestConstruction:
    def test_overrides_build_config(self):
        model = HybridPredictionModel(period=40, eps=9.0, distant_threshold=10)
        assert model.config.period == 40
        assert model.config.eps == 9.0

    def test_config_plus_overrides(self):
        model = HybridPredictionModel(HPMConfig(period=40, distant_threshold=10), eps=7.0)
        assert model.config.period == 40
        assert model.config.eps == 7.0

    def test_unfitted_accessors_raise(self):
        model = HybridPredictionModel(period=10, distant_threshold=5)
        assert not model.is_fitted
        for accessor in ("regions_", "patterns_", "kernel_", "history_"):
            with pytest.raises(RuntimeError):
                getattr(model, accessor)
        with pytest.raises(RuntimeError):
            model.predict([TimedPoint(0, 0, 0)], 5)

    def test_fit_requires_full_period(self):
        model = HybridPredictionModel(period=100, distant_threshold=40)
        with pytest.raises(ValueError, match="shorter than one period"):
            model.fit(Trajectory(np.zeros((50, 2))))


class TestFit:
    def test_pipeline_artifacts(self, fitted):
        model, _ = fitted
        assert model.is_fitted
        assert len(model.regions_) == 12
        assert model.pattern_count > 0
        assert model.codec_ is not None
        assert model.kernel_ is not None
        assert model.kernel_.block.n == model.pattern_count
        assert set(map(id, model.kernel_.block.patterns)) == set(
            map(id, model.patterns_)
        )

    def test_mining_stats(self, fitted):
        model, _ = fitted
        stats = model.mining_stats_
        assert stats.num_frequent_items == 12
        assert stats.num_patterns == model.pattern_count

    def test_near_prediction_accuracy(self, fitted):
        model, base = fitted
        # Object is on the route at offsets 0..2 of some period.
        t0 = 30 * 12  # continue after training history
        recent = [
            TimedPoint(t0 + t, base[t][0], base[t][1]) for t in range(3)
        ]
        pred = model.predict_one(recent, t0 + 4)
        truth = Point(*base[4])
        assert pred.method == "fqp"
        assert pred.location.distance_to(truth) < 5.0

    def test_distant_prediction_accuracy(self, fitted):
        model, base = fitted
        t0 = 30 * 12
        recent = [TimedPoint(t0 + t, base[t][0], base[t][1]) for t in range(3)]
        pred = model.predict_one(recent, t0 + 10)
        truth = Point(*base[10])
        assert pred.method == "bqp"
        assert pred.location.distance_to(truth) < 5.0

    def test_top_k(self, fitted):
        model, base = fitted
        t0 = 30 * 12
        recent = [TimedPoint(t0 + t, base[t][0], base[t][1]) for t in range(3)]
        results = model.predict(recent, t0 + 4, k=3)
        assert 1 <= len(results) <= 3
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)


class TestPatternFreeMode:
    def test_random_data_degrades_to_motion(self):
        rng = np.random.default_rng(5)
        traj = Trajectory(rng.uniform(0, 10000, (240, 2)))
        model = HybridPredictionModel(
            HPMConfig(period=12, eps=5.0, min_pts=8, distant_threshold=5)
        ).fit(traj)
        assert model.pattern_count == 0
        assert model.kernel_ is None
        recent = [TimedPoint(300 + i, float(i), 0.0) for i in range(8)]
        pred = model.predict_one(recent, 312)
        assert pred.method == "motion"

    def test_pattern_free_rejects_empty_recent(self):
        rng = np.random.default_rng(6)
        traj = Trajectory(rng.uniform(0, 10000, (240, 2)))
        model = HybridPredictionModel(
            HPMConfig(period=12, eps=5.0, min_pts=8, distant_threshold=5)
        ).fit(traj)
        with pytest.raises(ValueError):
            model.predict([], 10)


class TestUpdate:
    def test_update_appends_history(self, fitted):
        model, base = fitted
        before = len(model.history_)
        rng = np.random.default_rng(9)
        model.update(base + rng.normal(0, 0.8, base.shape))
        assert len(model.history_) == before + len(base)

    def test_update_same_geometry_keeps_key_tables(self, fitted):
        model, base = fitted
        codec_before = model.codec_
        rng = np.random.default_rng(10)
        model.update(base + rng.normal(0, 0.8, base.shape))
        # Same region universe: the delta path keeps every key bit.
        assert model.last_refit_stats_.index in ("kept", "patched")
        assert model.codec_.premise_length == codec_before.premise_length
        assert model.codec_.consequence_offsets() == (
            codec_before.consequence_offsets()
        )

    def test_update_refreshes_stale_confidences(self, fitted):
        """After an update, every indexed pattern carries its re-mined
        confidence (stale entries are replaced, not duplicated)."""
        model, base = fitted
        rng = np.random.default_rng(13)
        model.update(base + rng.normal(0, 0.8, base.shape))
        assert model.kernel_ is not None
        block = model.kernel_.block
        indexed = {
            (p.premise, p.consequence): p.confidence for p in block.patterns
        }
        mined = {
            (p.premise, p.consequence): p.confidence for p in model.patterns_
        }
        assert indexed == mined
        assert block.n == model.pattern_count
        assert block.confidences.tolist() == [p.confidence for p in block.patterns]

    def test_update_new_region_rebuilds(self, fitted):
        model, _ = fitted
        rng = np.random.default_rng(11)
        kernel_before = model.kernel_
        # Five periods at a brand-new location create new frequent regions.
        new_route = np.tile(np.array([[5000.0, 5000.0]]), (12, 1))
        blocks = [
            new_route + rng.normal(0, 0.5, new_route.shape) for _ in range(6)
        ]
        model.update(np.vstack(blocks))
        assert model.last_refit_stats_.index == "rebuilt"
        assert model.kernel_ is not kernel_before

    def test_update_requires_fit(self):
        model = HybridPredictionModel(period=12, distant_threshold=5)
        with pytest.raises(RuntimeError):
            model.update(np.zeros((12, 2)))

    def test_prediction_still_works_after_update(self, fitted):
        model, base = fitted
        rng = np.random.default_rng(12)
        model.update(base + rng.normal(0, 0.8, base.shape))
        t0 = len(model.history_)
        recent = [TimedPoint(t0 + t, base[t][0], base[t][1]) for t in range(3)]
        pred = model.predict_one(recent, t0 + 4)
        assert pred.location.distance_to(Point(*base[4])) < 10.0


class TestRepr:
    def test_reprs(self, fitted):
        model, _ = fitted
        assert "patterns=" in repr(model)
        assert "unfitted" in repr(HybridPredictionModel(period=10, distant_threshold=5))
