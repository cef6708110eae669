"""Tests for FQP, BQP and the hybrid dispatch (Algorithms 2 and 3)."""

import pickle

import pytest

from repro.core.config import HPMConfig
from repro.core.keys import KeyCodec
from repro.core.prediction import HybridPredictor, Prediction
from repro.core.scorekernel import ScoreKernel
from repro.trajectory import Point, TimedPoint


@pytest.fixture
def jane_predictor(jane_region_set, jane_patterns):
    codec = KeyCodec.from_patterns(jane_region_set, jane_patterns)
    kernel = ScoreKernel.from_patterns(jane_region_set, jane_patterns, "linear")
    config = HPMConfig(
        period=3,
        eps=5.0,
        min_pts=2,
        distant_threshold=2,
        time_relaxation=1,
        recent_window=3,
    )
    return HybridPredictor(
        regions=jane_region_set, codec=codec, kernel=kernel, config=config
    )


def at_home_then_city(t0=30):
    """Recent movements: home at offset 0, city at offset 1 (period 3)."""
    return [TimedPoint(t0, 0.0, 0.0), TimedPoint(t0 + 1, 100.0, 0.0)]


class TestPredictionDataclass:
    def test_method_validation(self):
        with pytest.raises(ValueError):
            Prediction(location=Point(0, 0), method="teleport")

    def test_slotted_and_picklable(self):
        prediction = Prediction(location=Point(1.5, -2.0), method="fqp", score=0.25)
        assert not hasattr(prediction, "__dict__")
        assert pickle.loads(pickle.dumps(prediction)) == prediction


class TestDispatch:
    def test_near_query_uses_fqp(self, jane_predictor):
        recent = at_home_then_city()
        result = jane_predictor.predict_one(recent, query_time=32)
        assert result.method == "fqp"

    def test_distant_query_uses_bqp(self, jane_predictor):
        # distant_threshold=2: tq - tc >= 2 is distant.
        recent = [TimedPoint(30, 0.0, 0.0)]
        result = jane_predictor.predict_one(recent, query_time=32)
        assert result.method == "bqp"

    def test_rejects_past_query(self, jane_predictor):
        with pytest.raises(ValueError, match="after the current time"):
            jane_predictor.predict(at_home_then_city(), query_time=31)

    def test_rejects_empty_recent(self, jane_predictor):
        with pytest.raises(ValueError, match="non-empty"):
            jane_predictor.predict([], query_time=10)

    def test_rejects_bad_k(self, jane_predictor):
        with pytest.raises(ValueError):
            jane_predictor.predict(at_home_then_city(), 32, k=0)


class TestFQP:
    def test_city_route_predicts_work(self, jane_predictor, jane_regions):
        """The paper's example: after Home ∧ City at tq=2, Work wins
        (Sp = 0.5) over Beach (Sp = 0.132)."""
        result = jane_predictor.forward_query(at_home_then_city(), 32, k=2)
        assert result[0].pattern.consequence == jane_regions["work"]
        assert result[0].score == pytest.approx(0.5)
        assert result[1].pattern.consequence == jane_regions["beach"]
        assert result[1].score == pytest.approx(0.4 / 3)

    def test_prediction_is_consequence_center(self, jane_predictor, jane_regions):
        result = jane_predictor.forward_query(at_home_then_city(), 32, k=1)
        assert result[0].location == jane_regions["work"].center

    def test_top_k_caps_results(self, jane_predictor):
        assert len(jane_predictor.forward_query(at_home_then_city(), 32, k=1)) == 1
        assert len(jane_predictor.forward_query(at_home_then_city(), 32, k=5)) == 2

    def test_shopping_route_predicts_beach(self, jane_predictor, jane_regions):
        recent = [TimedPoint(30, 0.0, 0.0), TimedPoint(31, 0.0, 100.0)]
        result = jane_predictor.forward_query(recent, 32, k=1)
        assert result[0].pattern.consequence == jane_regions["beach"]

    def test_unmatched_recent_falls_back_to_motion(self, jane_predictor):
        recent = [
            TimedPoint(30, 500.0, 500.0),
            TimedPoint(31, 510.0, 510.0),
        ]
        result = jane_predictor.forward_query(recent, 32, k=1)
        assert result[0].method == "motion"
        assert jane_predictor.stats["motion"] == 1


class TestBQP:
    def test_distant_query_ranks_all_interval_candidates(
        self, jane_predictor, jane_regions
    ):
        """With t_eps = 1 the interval [tq-1, tq+1] covers offsets 1 and 2,
        so all four patterns are candidates, ranked by Eq. 5."""
        recent = [TimedPoint(30, 0.0, 0.0)]  # home at offset 0
        result = jane_predictor.backward_query(recent, 32, k=4)
        assert len(result) == 4
        assert all(r.method == "bqp" for r in result)
        scores = [r.score for r in result]
        assert scores == sorted(scores, reverse=True)
        # Top: P0 (home -> city): Sr=1, Sc=1-1/2, conf 0.9 -> 1.35.
        assert result[0].pattern.consequence == jane_regions["city"]
        assert result[0].score == pytest.approx((1.0 + 0.5) * 0.9)

    def test_interval_expansion_finds_neighbor_offsets(
        self, jane_predictor, jane_regions
    ):
        """A query whose offset has no consequences relaxes the interval."""
        # Offset 0 never appears as a consequence; offsets 1/2 do.  With
        # t_eps = 1 the first interval [tq-1, tq+1] already includes them.
        recent = [TimedPoint(30, 0.0, 0.0)]
        result = jane_predictor.backward_query(recent, 33, k=1)
        assert result[0].method == "bqp"

    def test_premise_similarity_disambiguates_routes(
        self, jane_predictor, jane_regions
    ):
        """A premise matching the recent movements outranks a non-matching
        one at the same consequence offset under Eq. 5."""
        recent = [TimedPoint(30, 0.0, 0.0), TimedPoint(31, 100.0, 0.0)]
        result = jane_predictor.backward_query(recent, 32, k=4)
        by_consequence = {r.pattern.consequence.label: r for r in result}
        work = by_consequence["R_2^0"]
        beach = by_consequence["R_2^1"]
        # Work's premise (home ∧ city) fully matches the recent movements:
        # (1 + 1) * 0.5 = 1.0; beach's (home ∧ shopping) only on the home
        # bit (weight 1/3): (1/3 + 1) * 0.4.
        assert work.score == pytest.approx(1.0)
        assert beach.score == pytest.approx((1 / 3 + 1.0) * 0.4)
        assert work.score > beach.score

    def test_bqp_scores_use_equation_5(self, jane_predictor, jane_regions):
        recent = [TimedPoint(30, 0.0, 0.0)]
        result = jane_predictor.backward_query(recent, 32, k=4)
        by_consequence = {r.pattern.consequence.label: r for r in result}
        # Work (offset 2 == query offset): Sr = home-bit weight 1/3,
        # Sc = 1, horizon 2 = d -> penalty 1. Score = (1/3 + 1) * 0.5.
        assert by_consequence["R_2^0"].score == pytest.approx((1 / 3 + 1.0) * 0.5)
        # City (offset 1, distance 1, relaxation 1): Sc = 1 - 1/2.
        assert by_consequence["R_1^0"].score == pytest.approx((1.0 + 0.5) * 0.9)


class TestRecentMapping:
    def test_map_recent_collapses_duplicates(self, jane_predictor, jane_regions):
        recent = [
            TimedPoint(30, 0.0, 0.0),
            TimedPoint(33, 1.0, 0.0),  # home again (offset 0, next period)
            TimedPoint(34, 100.0, 0.0),
        ]
        regions = jane_predictor.map_recent_to_regions(recent)
        assert regions == [jane_regions["home"], jane_regions["city"]]

    def test_map_respects_window(self, jane_region_set, jane_patterns):
        codec = KeyCodec.from_patterns(jane_region_set, jane_patterns)
        kernel = ScoreKernel.from_patterns(jane_region_set, jane_patterns, "linear")
        config = HPMConfig(
            period=3, eps=5.0, distant_threshold=2, recent_window=2
        )
        predictor = HybridPredictor(jane_region_set, codec, kernel, config)
        recent = [
            TimedPoint(30, 0.0, 0.0),  # home — outside window of 2
            TimedPoint(31, 100.0, 0.0),
            TimedPoint(32, 200.0, 0.0),
        ]
        regions = predictor.map_recent_to_regions(recent)
        assert [r.label for r in regions] == ["R_1^0", "R_2^0"]


class TestMotionFallback:
    def test_short_recent_window_degrades_to_linear(self, jane_predictor):
        recent = [TimedPoint(30, 500.0, 0.0), TimedPoint(31, 510.0, 0.0)]
        result = jane_predictor.forward_query(recent, 32, k=1)
        assert result[0].method == "motion"
        # Linear extrapolation: 10 units/step.
        assert result[0].location.x == pytest.approx(520.0)

    def test_single_sample_stays_put(self, jane_predictor):
        recent = [TimedPoint(30, 500.0, 600.0)]
        result = jane_predictor.forward_query(recent, 31, k=1)
        assert result[0].method == "motion"
        assert result[0].location == Point(500.0, 600.0)

    def test_stats_accumulate(self, jane_predictor):
        jane_predictor.predict_one(at_home_then_city(), 32)
        jane_predictor.predict_one([TimedPoint(60, 0.0, 0.0)], 62)
        assert jane_predictor.stats["fqp"] == 1
        assert jane_predictor.stats["bqp"] == 1
