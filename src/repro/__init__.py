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

Each name is imported from its subpackage on first use
(:mod:`repro._lazy`), so a process that only routes requests never
loads numpy or the model stack.

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    ".core": (
        "FleetFitError",
        "FleetPredictionModel",
        "FrequentRegion",
        "HPMConfig",
        "HybridPredictionModel",
        "HybridPredictor",
        "KeyCodec",
        "OnlineTracker",
        "PatternKey",
        "Prediction",
        "RegionSet",
        "TrajectoryPattern",
        "TrajectoryPatternTree",
        "discover_frequent_regions",
        "load_fleet",
        "mine_trajectory_patterns",
        "save_fleet",
    ),
    ".motion": (
        "LinearMotionFunction",
        "MotionFunction",
        "RecursiveMotionFunction",
    ),
    ".trajectory": (
        "BoundingBox",
        "Point",
        "TimedPoint",
        "Trajectory",
        "TrajectoryDataset",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ += ["__version__"]
