"""Core HPM: frequent regions, trajectory patterns, keys, TPT and prediction."""

from .config import HPMConfig
from .explain import CandidateExplanation, QueryExplanation, explain_query
from .fleet import FleetFitError, FleetPredictionModel
from .keys import KeyCodec, PatternKey
from .model import HybridPredictionModel
from .online import OnlineTracker
from .persistence import load_fleet, save_fleet
from .patterns import (
    PatternMiningStats,
    TrajectoryPattern,
    build_transactions,
    count_rules_unpruned,
    mine_trajectory_patterns,
    region_visit_masks,
)
from .plan import PreparedQuery
from .prediction import HybridPredictor, Prediction, default_motion_factory
from .refit import (
    CorpusDelta,
    RefitStats,
    StagedUpdate,
    StaleUpdateError,
    delta_discover_frequent_regions,
    delta_mine_trajectory_patterns,
)
from .regions import FrequentRegion, RegionSet, discover_frequent_regions
from .similarity import (
    WEIGHT_FUNCTIONS,
    PremiseScorer,
    bqp_score,
    consequence_similarity,
    fqp_score,
    premise_similarity,
    premise_weights,
)
from .tpt import TrajectoryPatternTree

__all__ = [
    "CandidateExplanation",
    "CorpusDelta",
    "FleetFitError",
    "FleetPredictionModel",
    "HPMConfig",
    "HybridPredictionModel",
    "HybridPredictor",
    "FrequentRegion",
    "KeyCodec",
    "OnlineTracker",
    "PatternKey",
    "PatternMiningStats",
    "Prediction",
    "PremiseScorer",
    "PreparedQuery",
    "QueryExplanation",
    "RefitStats",
    "RegionSet",
    "StagedUpdate",
    "StaleUpdateError",
    "TrajectoryPattern",
    "TrajectoryPatternTree",
    "WEIGHT_FUNCTIONS",
    "bqp_score",
    "build_transactions",
    "consequence_similarity",
    "count_rules_unpruned",
    "default_motion_factory",
    "delta_discover_frequent_regions",
    "delta_mine_trajectory_patterns",
    "discover_frequent_regions",
    "explain_query",
    "fqp_score",
    "load_fleet",
    "mine_trajectory_patterns",
    "premise_similarity",
    "premise_weights",
    "region_visit_masks",
    "save_fleet",
]
