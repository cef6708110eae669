"""repro — reproduction of "A Hybrid Prediction Model for Moving Objects".

Jeung, Liu, Shen, Zhou — ICDE 2008.

The top-level namespace re-exports the public API:

* :class:`HybridPredictionModel` — fit on a periodic trajectory, predict
  future locations via patterns with motion-function fallback.
* :class:`HPMConfig` — every tunable in one validated record.
* The trajectory substrate (:class:`Trajectory`, :class:`TimedPoint`, ...),
  the motion functions (:class:`RecursiveMotionFunction`, ...), and the
  synthetic scenario generators used by the paper's evaluation
  (:mod:`repro.datagen`).

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .core import (
    FleetFitError,
    FleetPredictionModel,
    HPMConfig,
    HybridPredictionModel,
    HybridPredictor,
    FrequentRegion,
    KeyCodec,
    OnlineTracker,
    PatternKey,
    Prediction,
    RegionSet,
    TrajectoryPattern,
    TrajectoryPatternTree,
    discover_frequent_regions,
    load_fleet,
    mine_trajectory_patterns,
    save_fleet,
)
from .motion import LinearMotionFunction, MotionFunction, RecursiveMotionFunction
from .trajectory import (
    BoundingBox,
    Point,
    TimedPoint,
    Trajectory,
    TrajectoryDataset,
)

__version__ = "1.0.0"

__all__ = [
    "BoundingBox",
    "FleetFitError",
    "FleetPredictionModel",
    "FrequentRegion",
    "HPMConfig",
    "HybridPredictionModel",
    "HybridPredictor",
    "KeyCodec",
    "LinearMotionFunction",
    "MotionFunction",
    "OnlineTracker",
    "PatternKey",
    "Point",
    "Prediction",
    "RecursiveMotionFunction",
    "RegionSet",
    "TimedPoint",
    "Trajectory",
    "TrajectoryDataset",
    "TrajectoryPattern",
    "TrajectoryPatternTree",
    "__version__",
    "discover_frequent_regions",
    "load_fleet",
    "mine_trajectory_patterns",
    "save_fleet",
]
