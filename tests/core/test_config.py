"""Tests for HPMConfig validation and derived values."""

import dataclasses

import pytest

from repro.core.config import HPMConfig


class TestValidation:
    def test_defaults_are_papers(self):
        cfg = HPMConfig()
        assert cfg.period == 300
        assert cfg.eps == 30.0
        assert cfg.min_pts == 4
        assert cfg.min_confidence == 0.3
        assert cfg.distant_threshold == 60
        assert cfg.top_k == 1
        assert cfg.weight_function == "linear"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("period", 0),
            ("eps", 0.0),
            ("eps", -5.0),
            ("min_pts", 0),
            ("min_confidence", 1.5),
            ("min_confidence", -0.1),
            ("min_support", 0),
            ("distant_threshold", 0),
            ("distant_threshold", 300),  # must be < period
            ("time_relaxation", 0),
            ("top_k", 0),
            ("weight_function", "cubic"),
            ("max_premise_length", 0),
            ("max_premise_span", 0),
            ("max_consequence_gap", 0),
            ("far_premise_stride", 0),
            ("recent_window", 1),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            HPMConfig(**{field: value})

    @pytest.mark.parametrize(
        "kind,longest_ok",
        [("exponential", 1022), ("factorial", 170)],
    )
    def test_weight_overflow_rejected_at_boundary(self, kind, longest_ok):
        # Past these lengths the weights round to 0.0 (exponential 1023),
        # or the raw family overflows a float (exponential 1024,
        # factorial 171).
        HPMConfig(weight_function=kind, max_premise_length=longest_ok)
        for length in (longest_ok + 1, longest_ok + 2):
            with pytest.raises(ValueError, match="finite and positive"):
                HPMConfig(weight_function=kind, max_premise_length=length)

    def test_from_dict_round_trips_and_rejects_unknown_keys(self):
        stored = dataclasses.asdict(HPMConfig(eps=20.0))
        assert HPMConfig.from_dict(stored) == HPMConfig(eps=20.0)
        # Removed options, e.g. the TPT node capacity format-2 snapshots
        # stored, are unknown keys like any other.
        for key in ("tree_max_entries", "query_backend", "no_such_option"):
            with pytest.raises(TypeError):
                HPMConfig.from_dict({**stored, key: 1})

    def test_frozen(self):
        cfg = HPMConfig()
        with pytest.raises(AttributeError):
            cfg.eps = 50.0  # type: ignore[misc]


class TestDerived:
    def test_effective_min_support_defaults_to_min_pts(self):
        assert HPMConfig(min_pts=6).effective_min_support == 6
        assert HPMConfig(min_pts=6, min_support=3).effective_min_support == 3

    def test_effective_max_consequence_gap(self):
        cfg = HPMConfig(distant_threshold=60, recent_window=10)
        assert cfg.effective_max_consequence_gap == 70
        assert HPMConfig(max_consequence_gap=99).effective_max_consequence_gap == 99

    def test_with_overrides_validates(self):
        cfg = HPMConfig()
        assert cfg.with_overrides(eps=25.0).eps == 25.0
        with pytest.raises(ValueError):
            cfg.with_overrides(eps=-1.0)

    def test_with_overrides_preserves_others(self):
        cfg = HPMConfig(min_pts=7).with_overrides(eps=20.0)
        assert cfg.min_pts == 7
