"""Tests for fleet snapshot save/load."""

import numpy as np
import pytest

from repro.core.config import HPMConfig
from repro.core.fleet import FleetPredictionModel
from repro.core.model import HybridPredictionModel
from repro.core.persistence import load_fleet, save_fleet
from repro.trajectory import TimedPoint, Trajectory


@pytest.fixture(scope="module")
def fitted_model():
    rng = np.random.default_rng(0)
    period = 14
    base = np.column_stack(
        [60.0 * np.arange(period), 30.0 * np.arange(period)]
    )
    blocks = [base + rng.normal(0, 0.8, base.shape) for _ in range(20)]
    cfg = HPMConfig(
        period=period, eps=5.0, min_pts=4, distant_threshold=5, recent_window=3
    )
    model = HybridPredictionModel(cfg).fit(Trajectory(np.vstack(blocks)))
    return model, base


def round_trip(model, directory, object_id="obj"):
    """Save ``model`` as a one-object snapshot and load it back."""
    fleet = FleetPredictionModel(model.config)
    fleet.adopt_object(object_id, model)
    save_fleet(fleet, directory)
    return load_fleet(directory)[object_id]


class TestRoundTrip:
    def test_state_preserved(self, fitted_model, tmp_path):
        model, _ = fitted_model
        loaded = round_trip(model, tmp_path / "snap")

        assert loaded.config == model.config
        assert len(loaded.history_) == len(model.history_)
        assert len(loaded.regions_) == len(model.regions_)
        assert loaded.pattern_count == model.pattern_count
        # Patterns match as multisets of (premise labels, consequence, conf).
        def keys(m):
            return sorted(
                (
                    tuple(r.label for r in p.premise),
                    p.consequence.label,
                    round(p.confidence, 9),
                    p.support,
                )
                for p in m.patterns_
            )

        assert keys(loaded) == keys(model)
        assert loaded.kernel_.block.n == loaded.pattern_count

    def test_predictions_identical(self, fitted_model, tmp_path):
        model, base = fitted_model
        loaded = round_trip(model, tmp_path / "snap")

        t0 = 20 * 14
        recent = [TimedPoint(t0 + t, *base[t]) for t in range(3)]
        for horizon in (4, 6, 8, 11):
            a = model.predict_one(recent, t0 + horizon)
            b = loaded.predict_one(recent, t0 + horizon)
            assert a.method == b.method
            assert a.location == b.location
            assert a.score == pytest.approx(b.score) if a.score else b.score is None

    def test_update_works_after_reload(self, fitted_model, tmp_path):
        model, base = fitted_model
        loaded = round_trip(model, tmp_path / "snap")
        rng = np.random.default_rng(4)
        loaded.update(base + rng.normal(0, 0.8, base.shape))
        assert len(loaded.history_) == len(model.history_) + len(base)

    def test_version_check(self, tmp_path):
        """A retired single-model archive is named and refused."""
        np.savez(tmp_path / "model.npz", history=np.zeros((4, 2)))
        with pytest.raises(
            ValueError, match="single-model .npz archive.*only format 3"
        ):
            load_fleet(tmp_path / "model.npz")

    def test_pattern_free_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        traj = Trajectory(rng.uniform(0, 10000, (140, 2)))
        model = HybridPredictionModel(
            HPMConfig(period=14, eps=5.0, min_pts=9, distant_threshold=5)
        ).fit(traj)
        assert model.pattern_count == 0
        loaded = round_trip(model, tmp_path / "snap")
        assert loaded.pattern_count == 0
        recent = [TimedPoint(200 + i, float(i), 0.0) for i in range(8)]
        assert loaded.predict_one(recent, 212).method == "motion"


class TestFleetSnapshot:
    def test_round_trip(self, fitted_model, tmp_path):
        model, base = fitted_model
        fleet = FleetPredictionModel(model.config)
        fleet.adopt_object("a/b weird id", model)
        fleet.adopt_object("other", model)
        snapshot = tmp_path / "fleet"
        save_fleet(fleet, snapshot)
        assert (snapshot / "manifest.json").is_file()

        loaded = load_fleet(snapshot)
        assert loaded.object_ids() == fleet.object_ids()
        assert loaded.total_patterns() == fleet.total_patterns()

        now = len(model.history_) + 2
        recent = [
            TimedPoint(now + i, float(base[i][0]), float(base[i][1]))
            for i in range(3)
        ]
        direct = model.predict(recent, now + 6)
        via_snapshot = loaded.predict("a/b weird id", recent, now + 6)
        assert via_snapshot[0].location == direct[0].location
        assert via_snapshot[0].method == direct[0].method

    def test_empty_fleet_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty fleet"):
            save_fleet(
                FleetPredictionModel(period=10, distant_threshold=4),
                tmp_path / "fleet",
            )

    def test_not_a_snapshot_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a fleet snapshot"):
            load_fleet(tmp_path)

    def test_adopt_requires_fitted(self):
        fleet = FleetPredictionModel(period=10, distant_threshold=4)
        with pytest.raises(ValueError, match="unfitted"):
            fleet.adopt_object("x", HybridPredictionModel(period=10, distant_threshold=4))
