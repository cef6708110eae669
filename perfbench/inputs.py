"""Inputs: object histories, held-out days, queries, fitted fleets.

Every object is a ``repro.datagen.make_dataset`` trajectory, the four
paper scenarios taken in turn.  Each history is split into training days
(what the fleet is fitted on) and held-out days, which give the query
windows, the ground truth for ``error_m``, and the fixes streamed to
``/ingest``.  Row ``i`` of a history carries timestamp ``i``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

from repro import FleetPredictionModel, HPMConfig, Trajectory
from repro.datagen import make_dataset
from repro.datagen.scenarios import SCENARIO_NAMES
from repro.serve.handlers import render_predict_body
from repro.trajectory.point import TimedPoint

PERIOD = 48
#: fixes per query window (the model's recent-movement window)
RECENT = 4
#: query horizons in ticks after the newest fix: FQP up to the distant
#: threshold (PERIOD // 5 = 9), BQP beyond it
HORIZONS = (2, 5, 8, 12, 18, 26, 36)
#: top-k asked for by the verification queries; error_m scores the top-1
TOP_K = 3


def fit_config() -> HPMConfig:
    return HPMConfig(
        period=PERIOD,
        eps=60.0,
        min_pts=4,
        min_confidence=0.3,
        distant_threshold=PERIOD // 5,
        recent_window=RECENT,
    )


@dataclass(frozen=True)
class Query:
    object_id: str
    row: int  # timestamp of the newest fix in the window
    horizon: int
    k: int
    body: bytes

    @property
    def query_time(self) -> int:
        return self.row + self.horizon


def histories(objects: int, days: int) -> dict[str, np.ndarray]:
    """``objects`` position arrays of ``days`` periods each.

    The datasets use fixed generator seeds, so the fleet, its model
    sizes and ``error_m`` are the same in every run; the run seed picks
    the query stream (:func:`query_candidates`).
    """
    out = {}
    for i in range(objects):
        scenario = SCENARIO_NAMES[i % len(SCENARIO_NAMES)]
        dataset = make_dataset(scenario, days, PERIOD, seed=i)
        out[f"obj{i:02d}"] = np.asarray(dataset.trajectory.positions, dtype=float)
    return out


def query_candidates(
    data: dict[str, np.ndarray], first_day: int, last_day: int, rng: random.Random
) -> list[tuple[str, int, int]]:
    """Every distinct ``(object, newest row, horizon)`` whose window and
    target fall in days ``[first_day, last_day)``, shuffled by ``rng``."""
    out = []
    lo = first_day * PERIOD + RECENT - 1
    hi = last_day * PERIOD
    for object_id in sorted(data):
        for row in range(lo, hi):
            for horizon in HORIZONS:
                if row + horizon < hi:
                    out.append((object_id, row, horizon))
    rng.shuffle(out)
    return out


def make_query(
    data: dict[str, np.ndarray], candidate: tuple[str, int, int], k: int = TOP_K
) -> Query:
    object_id, row, horizon = candidate
    positions = data[object_id]
    recent = [
        [t, float(positions[t, 0]), float(positions[t, 1])]
        for t in range(row - RECENT + 1, row + 1)
    ]
    payload = {
        "object_id": object_id,
        "recent": recent,
        "query_time": row + horizon,
        "k": k,
    }
    body = json.dumps(payload, separators=(",", ":")).encode()
    return Query(object_id, row, horizon, k, body)


def fit_fleet(data: dict[str, np.ndarray], rows: dict[str, int] | int) -> FleetPredictionModel:
    """Scratch-fit one model per object on its first ``rows`` rows."""
    histories_ = {
        object_id: Trajectory(
            positions[: rows if isinstance(rows, int) else rows[object_id]]
        )
        for object_id, positions in data.items()
    }
    return FleetPredictionModel(fit_config()).fit(histories_, executor="serial")


def expected_bodies(fleet: FleetPredictionModel, queries: list[Query]) -> list[bytes]:
    """The in-process fleet's answers, rendered as ``/predict`` renders them."""
    out = []
    for query in queries:
        recent = [
            TimedPoint(t, x, y) for t, x, y in json.loads(query.body)["recent"]
        ]
        predictions = fleet.predict(query.object_id, recent, query.query_time, query.k)
        out.append(render_predict_body(query.object_id, query.query_time, predictions))
    return out


def top1_error(body: bytes, query: Query, data: dict[str, np.ndarray]) -> float:
    """Planar distance of the top-1 answer from the held-out position."""
    top = json.loads(body)["predictions"][0]
    truth = data[query.object_id][query.query_time]
    return float(np.hypot(top["x"] - truth[0], top["y"] - truth[1]))


def day_fixes(positions: np.ndarray, day: int) -> list[list[float]]:
    """One whole period of fixes, ``[t, x, y]`` rows."""
    start = day * PERIOD
    return [
        [t, float(positions[t, 0]), float(positions[t, 1])]
        for t in range(start, start + PERIOD)
    ]
