"""The paper's four evaluation datasets, synthesised (Section VII).

Each scenario mirrors the seed trace the authors collected and the pattern
strength they injected ("We set different probabilities to each data
generation (Bike > Cow > Car > Airplane)"):

* **Bike** — a ride between two towns: one habitual smooth route, f = 0.9
  (strongest patterns; the paper's Fig. 7 shows its pattern counts
  exploding with Eps while accuracy stays flat).
* **Cow** — virtual-fencing cattle: daily grazing loops inside a paddock
  with two habitual circuits, f = 0.8.
* **Car** — a commute on a road network: shortest-path routes with sudden
  direction changes at intersections (the property that defeats motion
  functions), a weekday and an alternate route, f = 0.7.
* **Airplane** — synthetic airport-to-airport segments over several
  schedules, f = 0.5 ("Airplane had weak movement patterns", so HPM's
  advantage shrinks and pattern-parameter sweeps bite hardest).

All datasets: 200 sub-trajectories x T = 300 positions, extent normalised
to [0, 10000]² — the paper's shape exactly.
"""

from __future__ import annotations

import numpy as np

from ..trajectory.dataset import TrajectoryDataset
from .generator import PeriodicTrajectoryGenerator, WeightedRoute
from .names import SCENARIO_NAMES
from .road_network import RoadNetwork
from .routes import Route, wiggly_route

__all__ = [
    "make_bike",
    "make_cow",
    "make_car",
    "make_airplane",
    "make_dataset",
    "paper_datasets",
    "SCENARIO_NAMES",
]

_DEFAULT_SUBTRAJECTORIES = 200
_DEFAULT_PERIOD = 300
_EXTENT = 10000.0


def make_bike(
    num_subtrajectories: int = _DEFAULT_SUBTRAJECTORIES,
    period: int = _DEFAULT_PERIOD,
    seed: int = 7,
) -> TrajectoryDataset:
    """The Bike dataset: one town-to-town route, pattern probability 0.9."""
    rng = np.random.default_rng(seed)
    route = wiggly_route(
        start=(600.0, 800.0),
        end=(9200.0, 9300.0),
        num_waypoints=14,
        wiggle=700.0,
        rng=rng,
        name="town-to-town",
    )
    generator = PeriodicTrajectoryGenerator(
        routes=[WeightedRoute(route)],
        pattern_probability=0.9,
        noise_sigma=10.0,
        deviation_mode="detour",
        deviation_amplitude=600.0,
        phase_jitter=0.0,
        extent=_EXTENT,
    )
    return _build("bike", generator, num_subtrajectories, period, rng, seed, f=0.9)


def make_cow(
    num_subtrajectories: int = _DEFAULT_SUBTRAJECTORIES,
    period: int = _DEFAULT_PERIOD,
    seed: int = 11,
) -> TrajectoryDataset:
    """The Cow dataset: two grazing circuits in a paddock, f = 0.8."""
    rng = np.random.default_rng(seed)
    # Two closed circuits with dwell at grazing spots and the water hole.
    circuit_a = Route(
        np.array(
            [
                [2000.0, 2000.0],  # water hole
                [3500.0, 5200.0],
                [2600.0, 7800.0],  # north grazing
                [5200.0, 8300.0],
                [6800.0, 6100.0],
                [4800.0, 3400.0],
                [2000.0, 2000.0],
            ]
        ),
        dwell=(0.05, 0.0, 0.25, 0.0, 0.12, 0.0, 0.05),
        name="north-circuit",
    )
    circuit_b = Route(
        np.array(
            [
                [2000.0, 2000.0],  # water hole
                [5400.0, 1800.0],
                [8400.0, 2600.0],  # east grazing
                [8900.0, 5400.0],
                [6300.0, 4600.0],
                [2000.0, 2000.0],
            ]
        ),
        dwell=(0.05, 0.0, 0.3, 0.07, 0.0, 0.05),
        name="east-circuit",
    )
    generator = PeriodicTrajectoryGenerator(
        routes=[WeightedRoute(circuit_a, 5.0), WeightedRoute(circuit_b, 2.0)],
        pattern_probability=0.8,
        noise_sigma=12.0,
        deviation_mode="detour",
        deviation_amplitude=600.0,
        phase_jitter=0.0,
        extent=_EXTENT,
    )
    return _build("cow", generator, num_subtrajectories, period, rng, seed, f=0.8)


def make_car(
    num_subtrajectories: int = _DEFAULT_SUBTRAJECTORIES,
    period: int = _DEFAULT_PERIOD,
    seed: int = 13,
) -> TrajectoryDataset:
    """The Car dataset: commute on a road network with sharp turns, f = 0.7."""
    rng = np.random.default_rng(seed)
    network = RoadNetwork(
        grid_size=9, extent=_EXTENT, removal_fraction=0.25, rng=rng
    )
    home = (900.0, 1100.0)
    work = (8900.0, 8600.0)
    mall = (8300.0, 1500.0)
    commute = network.route_between(home, work, name="commute")
    errand = network.route_between(home, mall, name="errand")
    # Dwell at origin/destination (parked car) bookending each drive.
    commute = Route(commute.waypoints, _parked_dwell(commute), "commute")
    errand = Route(errand.waypoints, _parked_dwell(errand), "errand")
    generator = PeriodicTrajectoryGenerator(
        routes=[WeightedRoute(commute, 5.0), WeightedRoute(errand, 2.0)],
        pattern_probability=0.7,
        noise_sigma=8.0,
        deviation_mode="detour",
        deviation_amplitude=700.0,
        phase_jitter=0.0,
        extent=_EXTENT,
    )
    return _build("car", generator, num_subtrajectories, period, rng, seed, f=0.7)


def make_airplane(
    num_subtrajectories: int = _DEFAULT_SUBTRAJECTORIES,
    period: int = _DEFAULT_PERIOD,
    seed: int = 17,
) -> TrajectoryDataset:
    """The Airplane dataset: airport-pair segments, weak patterns (f = 0.5)."""
    rng = np.random.default_rng(seed)
    # "Some points were sampled from real data (road networks in California)
    # to serve as airports, then random locations were synthetically
    # generated on the segment connecting two random airports."  The
    # object flies one dominant multi-leg itinerary plus an occasional
    # alternate itinerary sharing the departure airport; half of all days
    # (f = 0.5) deviate on wide detours, which is what keeps this the
    # weakest-patterned dataset of the four.
    airports = rng.uniform(800.0, 9200.0, size=(5, 2))
    dominant = Route(
        np.vstack([airports[0], airports[1], airports[2]]),
        dwell=(0.12, 0.08, 0.1),
        name="itinerary-a",
    )
    alternate = Route(
        np.vstack([airports[0], airports[3], airports[4]]),
        dwell=(0.12, 0.08, 0.1),
        name="itinerary-b",
    )
    generator = PeriodicTrajectoryGenerator(
        routes=[WeightedRoute(dominant, 4.0), WeightedRoute(alternate, 1.5)],
        pattern_probability=0.5,
        noise_sigma=18.0,
        deviation_mode="detour",
        deviation_amplitude=2200.0,
        phase_jitter=0.0,
        extent=_EXTENT,
    )
    return _build(
        "airplane", generator, num_subtrajectories, period, rng, seed, f=0.5
    )


def make_dataset(
    name: str,
    num_subtrajectories: int = _DEFAULT_SUBTRAJECTORIES,
    period: int = _DEFAULT_PERIOD,
    seed: int | None = None,
) -> TrajectoryDataset:
    """Scenario dispatch by name (``bike``/``cow``/``car``/``airplane``)."""
    try:
        maker = _MAKERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(_MAKERS)}"
        ) from None
    if seed is None:
        return maker(num_subtrajectories, period)
    return maker(num_subtrajectories, period, seed)


#: scenario registry, in :data:`SCENARIO_NAMES` order
_MAKERS = {
    "bike": make_bike,
    "cow": make_cow,
    "car": make_car,
    "airplane": make_airplane,
}


def paper_datasets(
    num_subtrajectories: int = _DEFAULT_SUBTRAJECTORIES,
    period: int = _DEFAULT_PERIOD,
) -> dict[str, TrajectoryDataset]:
    """All four evaluation datasets with their default seeds."""
    return {name: make_dataset(name, num_subtrajectories, period) for name in SCENARIO_NAMES}


def _parked_dwell(route: Route) -> tuple[float, ...]:
    """Dwell profile: parked 20 % at the origin, 25 % at the destination."""
    dwell = [0.0] * route.waypoints.shape[0]
    dwell[0] = 0.20
    dwell[-1] = 0.25
    return tuple(dwell)


def _build(
    name: str,
    generator: PeriodicTrajectoryGenerator,
    num_subtrajectories: int,
    period: int,
    rng: np.random.Generator,
    seed: int,
    f: float,
) -> TrajectoryDataset:
    trajectory = generator.generate(num_subtrajectories, period, rng)
    return TrajectoryDataset(
        name=name,
        trajectory=trajectory,
        period=period,
        metadata={
            "pattern_probability": f,
            "seed": seed,
            "num_subtrajectories": num_subtrajectories,
            "extent": _EXTENT,
        },
    )
