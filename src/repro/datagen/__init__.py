"""Synthetic data substrate: periodic generator and the paper's scenarios."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".generator": ("PeriodicTrajectoryGenerator", "WeightedRoute"),
    ".noise": ("gaussian_jitter", "moving_average", "random_walk"),
    ".road_network": ("RoadNetwork",),
    ".routes": ("Route", "wiggly_route"),
    ".names": ("SCENARIO_NAMES",),
    ".scenarios": (
        "make_airplane",
        "make_bike",
        "make_car",
        "make_cow",
        "make_dataset",
        "paper_datasets",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
