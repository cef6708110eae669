"""Tests for query explanation."""

import pytest

from repro.core.config import HPMConfig
from repro.core.explain import explain_query
from repro.core.keys import KeyCodec
from repro.core.prediction import HybridPredictor
from repro.core.scorekernel import ScoreKernel
from repro.trajectory import TimedPoint


@pytest.fixture
def predictor(jane_region_set, jane_patterns):
    codec = KeyCodec.from_patterns(jane_region_set, jane_patterns)
    kernel = ScoreKernel.from_patterns(jane_region_set, jane_patterns, "linear")
    config = HPMConfig(
        period=3, eps=5.0, distant_threshold=2, time_relaxation=1, recent_window=3
    )
    return HybridPredictor(jane_region_set, codec, kernel, config)


def at_home_then_city(t0=30):
    return [TimedPoint(t0, 0.0, 0.0), TimedPoint(t0 + 1, 100.0, 0.0)]


class TestExplainFQP:
    def test_matches_paper_worked_example(self, predictor):
        """The §VI-B query: Work scores 0.5, Beach 0.4/3 ≈ 0.133."""
        report = explain_query(predictor, at_home_then_city(), 32)
        assert report.method == "fqp"
        assert report.recent_regions == ("R_0^0", "R_1^0")
        assert len(report.candidates) == 2
        top, second = report.candidates
        assert top.pattern.consequence.label == "R_2^0"
        assert top.score == pytest.approx(0.5)
        assert top.premise_similarity == pytest.approx(1.0)
        assert top.consequence_similarity is None
        assert second.score == pytest.approx(0.4 / 3)

    def test_matched_breakdown(self, predictor):
        report = explain_query(predictor, at_home_then_city(), 32)
        top = report.candidates[0]
        # Work's premise home∧city: both matched, weights 1/3 and 2/3.
        assert top.matched_regions == ("R_0^0", "R_1^0")
        assert top.matched_weights == pytest.approx((1 / 3, 2 / 3))
        second = report.candidates[1]
        # Beach's premise home∧shopping: only home matched (weight 1/3).
        assert second.matched_regions == ("R_0^0",)
        assert second.matched_weights == pytest.approx((1 / 3,))

    def test_explanation_matches_live_ranking(self, predictor):
        report = explain_query(predictor, at_home_then_city(), 32)
        live = predictor.forward_query(at_home_then_city(), 32, k=2)
        assert [c.pattern for c in report.candidates] == [
            r.pattern for r in live
        ]
        assert [c.score for c in report.candidates] == pytest.approx(
            [r.score for r in live]
        )

    def test_does_not_touch_stats(self, predictor):
        before = dict(predictor.stats)
        explain_query(predictor, at_home_then_city(), 32)
        assert predictor.stats == before

    def test_str_rendering(self, predictor):
        text = str(explain_query(predictor, at_home_then_city(), 32))
        assert "FQP query" in text
        assert "S_p=0.500" in text
        assert "matched: R_0^0" in text


class TestExplainBQPAndMotion:
    def test_bqp_explanation(self, predictor):
        report = explain_query(predictor, [TimedPoint(30, 0.0, 0.0)], 32)
        assert report.method == "bqp"
        assert all(c.consequence_similarity is not None for c in report.candidates)
        live = predictor.backward_query([TimedPoint(30, 0.0, 0.0)], 32, k=4)
        assert [c.score for c in report.candidates] == pytest.approx(
            [r.score for r in live]
        )

    def test_motion_fallback_explained(self, predictor):
        recent = [TimedPoint(30, 999.0, 999.0), TimedPoint(31, 999.0, 999.0)]
        report = explain_query(predictor, recent, 32)
        assert report.method == "motion"
        assert report.candidates == ()
        assert "motion function answers" in str(report)

    def test_validation(self, predictor):
        with pytest.raises(ValueError):
            explain_query(predictor, [], 10)
        with pytest.raises(ValueError):
            explain_query(predictor, at_home_then_city(), 31)
        with pytest.raises(ValueError):
            explain_query(predictor, at_home_then_city(), 35, max_candidates=0)

    def test_max_candidates_caps(self, predictor):
        report = explain_query(
            predictor, [TimedPoint(30, 0.0, 0.0)], 32, max_candidates=2
        )
        assert len(report.candidates) == 2
