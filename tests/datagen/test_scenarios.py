"""Tests for the paper's four scenario datasets."""

import numpy as np
import pytest

from repro.datagen import (
    SCENARIO_NAMES,
    make_airplane,
    make_bike,
    make_car,
    make_cow,
    make_dataset,
    paper_datasets,
)


@pytest.fixture(scope="module")
def small_sets():
    # Small instances keep the suite fast; shapes scale linearly.
    return {name: make_dataset(name, num_subtrajectories=12, period=60) for name in SCENARIO_NAMES}


class TestShapes:
    def test_all_four_scenarios(self, small_sets):
        assert set(small_sets) == {"bike", "cow", "car", "airplane"}
        for name, ds in small_sets.items():
            assert ds.name == name
            assert len(ds.trajectory) == 12 * 60
            assert ds.period == 60
            assert ds.num_subtrajectories == 12

    def test_extent_normalised(self, small_sets):
        for ds in small_sets.values():
            box = ds.trajectory.bounding_box()
            assert box.min_x >= -1e-9 and box.min_y >= -1e-9
            assert max(box.max_x, box.max_y) <= 10000.0 + 1e-6

    def test_metadata_recorded(self, small_sets):
        f_values = {
            name: ds.metadata["pattern_probability"]
            for name, ds in small_sets.items()
        }
        # Paper: Bike > Cow > Car > Airplane.
        assert f_values["bike"] > f_values["cow"] > f_values["car"] > f_values["airplane"]
        for ds in small_sets.values():
            assert "seed" in ds.metadata


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = make_bike(num_subtrajectories=4, period=30, seed=3)
        b = make_bike(num_subtrajectories=4, period=30, seed=3)
        assert a.trajectory == b.trajectory

    def test_different_seed_different_data(self):
        a = make_cow(num_subtrajectories=4, period=30, seed=3)
        b = make_cow(num_subtrajectories=4, period=30, seed=4)
        assert a.trajectory != b.trajectory


class TestPatternStrengthOrdering:
    def test_offset_alignment_ordering(self):
        """Bike offset groups are tighter than Airplane's (pattern strength)."""

        def median_spread(ds):
            spreads = []
            for t in range(0, ds.period, 5):
                g = ds.trajectory.offset_group(t, ds.period)
                spreads.append(g.positions.std(axis=0).max())
            return float(np.median(spreads))

        bike = make_bike(num_subtrajectories=25, period=60)
        airplane = make_airplane(num_subtrajectories=25, period=60)
        assert median_spread(bike) < median_spread(airplane)


class TestDispatch:
    def test_make_dataset_unknown(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_dataset("submarine")

    def test_make_dataset_seed_passthrough(self):
        a = make_dataset("car", 4, 30, seed=9)
        b = make_car(4, 30, seed=9)
        assert a.trajectory == b.trajectory

    def test_paper_datasets_keys(self):
        sets = paper_datasets(num_subtrajectories=3, period=30)
        assert list(sets) == list(SCENARIO_NAMES)

    def test_names_are_the_scenario_registry(self):
        # The CLI offers the numpy-free name tuple; it must be the registry.
        from repro.datagen import scenarios

        assert SCENARIO_NAMES == tuple(scenarios._MAKERS)
