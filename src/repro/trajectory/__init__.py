"""Trajectory substrate: geometric primitives, containers, IO and metrics."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".dataset": ("TrajectoryDataset",),
    ".io": (
        "load_trajectories",
        "load_trajectory",
        "save_trajectories",
        "save_trajectory",
    ),
    ".metrics": (
        "ErrorSummary",
        "euclidean_error",
        "mean_error",
        "median_error",
        "percentile_error",
        "root_mean_squared_error",
        "summarize_errors",
    ),
    ".periodicity": ("PeriodScore", "estimate_period", "score_period"),
    ".point": ("BoundingBox", "Point", "TimedPoint"),
    ".preprocessing": (
        "StayPoint",
        "fill_gaps",
        "remove_speed_spikes",
        "resample_uniform",
        "stay_points",
    ),
    ".trajectory": ("OffsetGroup", "SubTrajectory", "Trajectory"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
