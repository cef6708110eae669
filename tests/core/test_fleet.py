"""Tests for the multi-object fleet manager."""

import numpy as np
import pytest

from repro.core.config import HPMConfig
from repro.core.fleet import FleetPredictionModel
from repro.trajectory import TimedPoint, Trajectory


def make_history(route_y: float, num_subs=15, period=10, seed=0):
    """An object moving east along y = route_y each period."""
    rng = np.random.default_rng(seed)
    base = np.column_stack(
        [80.0 * np.arange(period), np.full(period, route_y)]
    )
    blocks = [base + rng.normal(0, 0.8, base.shape) for _ in range(num_subs)]
    return Trajectory(np.vstack(blocks)), base


@pytest.fixture
def fleet():
    cfg = HPMConfig(period=10, eps=5.0, min_pts=4, distant_threshold=4, recent_window=3)
    fleet = FleetPredictionModel(cfg)
    histories = {}
    for i, y in enumerate((0.0, 500.0, 1000.0)):
        histories[f"obj{i}"], _ = make_history(y, seed=i)
    fleet.fit(histories)
    return fleet


class TestConstruction:
    def test_overrides(self):
        fleet = FleetPredictionModel(period=10, distant_threshold=4)
        assert fleet.config.period == 10

    def test_fit_requires_histories(self):
        with pytest.raises(ValueError):
            FleetPredictionModel(period=10, distant_threshold=4).fit({})


class TestContainer:
    def test_len_contains_ids(self, fleet):
        assert len(fleet) == 3
        assert "obj1" in fleet
        assert "ghost" not in fleet
        assert fleet.object_ids() == ["obj0", "obj1", "obj2"]

    def test_getitem_unknown(self, fleet):
        with pytest.raises(KeyError, match="ghost"):
            fleet["ghost"]

    def test_drop(self, fleet):
        fleet.drop_object("obj1")
        assert len(fleet) == 2
        with pytest.raises(KeyError):
            fleet.drop_object("obj1")

    def test_repr(self, fleet):
        assert "objects=3" in repr(fleet)


class TestPrediction:
    def test_per_object_models_are_independent(self, fleet):
        """Each object's prediction tracks its own route."""
        now = 200
        for i, y in enumerate((0.0, 500.0, 1000.0)):
            recent = [
                TimedPoint(now + t, 80.0 * t, y) for t in range(3)
            ]
            pred = fleet.predict(f"obj{i}", recent, now + 5)[0]
            assert abs(pred.location.y - y) < 30.0

    def test_predict_all(self, fleet):
        now = 200
        recents = {
            f"obj{i}": [TimedPoint(now + t, 80.0 * t, y) for t in range(3)]
            for i, y in enumerate((0.0, 500.0, 1000.0))
        }
        results = fleet.predict_all(recents, now + 5)
        assert set(results) == {"obj0", "obj1", "obj2"}

    def test_predict_unknown_object(self, fleet):
        with pytest.raises(KeyError):
            fleet.predict("ghost", [TimedPoint(0, 0, 0)], 5)


class TestLifecycle:
    def test_fit_object_adds(self, fleet):
        history, _ = make_history(2000.0, seed=9)
        model = fleet.fit_object("newcomer", history)
        assert "newcomer" in fleet
        assert model.pattern_count > 0

    def test_update_object(self, fleet):
        _, base = make_history(0.0)
        before = len(fleet["obj0"].history_)
        fleet.update_object("obj0", base)
        assert len(fleet["obj0"].history_) == before + len(base)

    def test_summary_and_totals(self, fleet):
        rows = fleet.summary()
        assert len(rows) == 3
        assert all(r["num_patterns"] > 0 for r in rows)
        assert fleet.total_patterns() == sum(r["num_patterns"] for r in rows)


class TestRefitPolicy:
    def test_override_reaches_every_model_and_keeps_answers(self, fleet):
        recent = [TimedPoint(200 + t, 80.0 * t, 0.0) for t in range(3)]
        before = repr(fleet.predict("obj0", recent, 203))
        fleet.override_refit_policy(refit_mode="full", refit_full_every=3)
        for object_id in fleet.object_ids():
            config = fleet[object_id].config
            assert (config.refit_mode, config.refit_full_every) == ("full", 3)
        assert fleet.config.refit_full_every == 3
        assert repr(fleet.predict("obj0", recent, 203)) == before

    def test_only_refit_fields_may_be_overridden(self, fleet):
        with pytest.raises(ValueError, match="weight_function"):
            fleet.override_refit_policy(weight_function="quadratic")
        with pytest.raises(ValueError):
            fleet.override_refit_policy(refit_mode="sometimes")


class TestConcurrency:
    def test_interleaved_ingest_and_predict_threads(self, fleet):
        """Hammer one object with concurrent updates and predicts.

        Without the per-object lock the model's index rebuild races the
        predictor and queries crash or read half-built state; with it,
        every predict must return a well-formed answer.
        """
        import threading

        _, base = make_history(0.0)
        errors = []
        stop = threading.Event()

        def updater():
            try:
                for _ in range(5):
                    fleet.update_object("obj0", base)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def predictor():
            recent = [
                TimedPoint(i, float(base[i][0]), float(base[i][1]))
                for i in range(3)
            ]
            try:
                while not stop.is_set():
                    predictions = fleet.predict("obj0", recent, 8)
                    assert predictions and predictions[0].method in (
                        "fqp",
                        "bqp",
                        "motion",
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=updater)] + [
            threading.Thread(target=predictor) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_object_lock_identity_is_stable(self, fleet):
        lock = fleet.object_lock("obj0")
        assert fleet.object_lock("obj0") is lock
        assert fleet.object_lock("obj1") is not lock
