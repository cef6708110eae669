"""Integration tests: full pipeline over the paper's scenario datasets.

These run the complete system — generator → region discovery → pattern
mining → TPT → FQP/BQP/fallback — at reduced scale and assert the paper's
qualitative claims.
"""

import numpy as np
import pytest

from repro.datagen import make_bike, make_car, make_dataset
from repro.evalx import (
    ExperimentScale,
    evaluate_hpm,
    evaluate_rmf,
    fit_model,
    generate_queries,
)


SCALE = ExperimentScale(
    dataset_subtrajectories=24,
    training_subtrajectories=16,
    num_queries=12,
    period=100,
)


@pytest.fixture(scope="module")
def bike():
    return make_bike(SCALE.dataset_subtrajectories, SCALE.period)


@pytest.fixture(scope="module")
def bike_model(bike):
    return fit_model(bike, SCALE)


class TestPipeline:
    def test_model_learns_regions_and_patterns(self, bike_model):
        assert len(bike_model.regions_) > 50
        assert bike_model.pattern_count > 100
        assert bike_model.kernel_.block.n == bike_model.pattern_count

    def test_near_queries_beat_rmf(self, bike, bike_model):
        workload = generate_queries(
            bike, 10, SCALE.num_queries, SCALE.training_subtrajectories,
            rng=np.random.default_rng(0),
        )
        hpm = evaluate_hpm(bike_model, workload)
        rmf = evaluate_rmf(workload)
        assert hpm.mean_error < rmf.mean_error

    def test_distant_queries_beat_rmf_decisively(self, bike, bike_model):
        """The paper's headline: distant-time prediction is where HPM wins."""
        workload = generate_queries(
            bike, 60, SCALE.num_queries, SCALE.training_subtrajectories,
            rng=np.random.default_rng(1),
        )
        hpm = evaluate_hpm(bike_model, workload)
        rmf = evaluate_rmf(workload)
        assert hpm.mean_error < rmf.mean_error / 3
        assert hpm.method_counts["bqp"] > 0

    def test_hpm_error_stays_flat_with_length(self, bike, bike_model):
        """Fig. 5 shape: HPM's error does not blow up with horizon."""
        errors = []
        for length in (10, 40, 70):
            workload = generate_queries(
                bike, length, SCALE.num_queries,
                SCALE.training_subtrajectories, rng=np.random.default_rng(length),
            )
            errors.append(evaluate_hpm(bike_model, workload).mean_error)
        assert max(errors) < 10 * max(min(errors), 20.0)

    def test_rmf_error_grows_with_length(self, bike):
        errors = []
        for length in (10, 70):
            workload = generate_queries(
                bike, length, SCALE.num_queries,
                SCALE.training_subtrajectories, rng=np.random.default_rng(length),
            )
            errors.append(evaluate_rmf(workload).mean_error)
        assert errors[1] > 2 * errors[0]


class TestCarScenario:
    def test_sharp_turns_defeat_rmf_not_hpm(self):
        """Fig. 5's Car observation: direction changes break extrapolation."""
        car = make_dataset("car", SCALE.dataset_subtrajectories, SCALE.period)
        model = fit_model(car, SCALE)
        workload = generate_queries(
            car, 40, SCALE.num_queries, SCALE.training_subtrajectories,
            rng=np.random.default_rng(2),
        )
        hpm = evaluate_hpm(model, workload)
        rmf = evaluate_rmf(workload)
        assert hpm.mean_error < rmf.mean_error


class TestMoreDataMoreAccuracy:
    def test_fig6_shape(self):
        """More training sub-trajectories -> more patterns and (weakly)
        better accuracy (Fig. 6)."""
        bike = make_bike(30, SCALE.period)
        few = fit_model(bike, ExperimentScale(30, 5, 10, SCALE.period))
        many = fit_model(bike, ExperimentScale(30, 22, 10, SCALE.period))
        assert many.pattern_count >= few.pattern_count
        workload = generate_queries(bike, 30, 12, 22, rng=np.random.default_rng(3))
        err_few = evaluate_hpm(few, workload).mean_error
        err_many = evaluate_hpm(many, workload).mean_error
        assert err_many <= err_few * 1.5  # never dramatically worse


class TestDynamicUpdate:
    def test_update_with_new_days_improves_or_holds(self, bike):
        scale_small = ExperimentScale(24, 8, 10, SCALE.period)
        model = fit_model(bike, scale_small)
        patterns_before = model.pattern_count
        # Feed four more observed periods.
        more = bike.trajectory.slice(
            8 * SCALE.period, 12 * SCALE.period
        ).positions
        model.update(more)
        assert model.pattern_count >= patterns_before * 0.5
        workload = generate_queries(
            bike, 20, 10, 16, rng=np.random.default_rng(4)
        )
        result = evaluate_hpm(model, workload)
        assert result.mean_error < 2000.0
