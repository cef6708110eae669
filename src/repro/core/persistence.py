"""Saving and loading fitted models.

Mining is the expensive phase (DBSCAN over every offset group plus the
rule lattice); deployments fit once and answer queries for days.  A
fitted :class:`~repro.core.model.HybridPredictionModel` serialises to a
single ``.npz`` archive:

* config and metadata as a JSON blob;
* the training history as one array (so ``update`` keeps working after a
  reload);
* regions as packed arrays (points concatenated with an index);
* patterns as integer tables referencing regions by their canonical id.

The TPT is *not* stored — it rebuilds from the patterns in well under a
second via the bottom-up bulk load, which keeps the format trivial and
version-stable.

A whole :class:`~repro.core.fleet.FleetPredictionModel` serialises as a
**fleet snapshot** in one of two formats:

* **v1** — a directory with one ``.npz`` per object plus a
  ``manifest.json`` mapping object ids to files (archival format, kept
  readable and writable forever);
* **v2** (the default) — packed columnar blocks with a per-object offset
  index, memory-mappable for zero-copy cold starts; see
  :mod:`repro.core.snapshot2` for the layout specification.

``load_fleet`` dispatches on the manifest's ``format_version``, so the
serving layer (:mod:`repro.serve`) loads either transparently.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Collection

import numpy as np

from ..trajectory.trajectory import Trajectory
from .config import HPMConfig
from .fleet import FleetPredictionModel
from .model import HybridPredictionModel
from .parallel import run_keyed_tasks
from .patterns import TrajectoryPattern

__all__ = [
    "save_model",
    "load_model",
    "save_fleet",
    "load_fleet",
    "convert_snapshot",
]

_FORMAT_VERSION = 1
_FLEET_FORMAT_VERSION = 1
_MANIFEST = "manifest.json"


def save_model(model: HybridPredictionModel, path: str | Path) -> None:
    """Serialise a fitted model to ``path`` (.npz)."""
    if not model.is_fitted:
        raise ValueError("cannot save an unfitted model")
    path = Path(path)
    regions = model.regions_
    history = model.history_

    region_rows = []
    points_blocks = []
    sub_id_blocks = []
    for region in regions:
        region_rows.append(
            [
                region.offset,
                region.index,
                len(region.points),
                len(region.subtrajectory_ids),
            ]
        )
        points_blocks.append(region.points)
        sub_id_blocks.append(np.asarray(region.subtrajectory_ids, dtype=np.int64))

    # Patterns as integer tables: premise region ids (padded with -1),
    # consequence id, support; confidences as a float column.
    max_premise = max((len(p.premise) for p in model.patterns_), default=1)
    pattern_rows = np.full(
        (len(model.patterns_), max_premise + 2), -1, dtype=np.int64
    )
    confidences = np.empty(len(model.patterns_), dtype=np.float64)
    for i, pattern in enumerate(model.patterns_):
        for j, region in enumerate(pattern.premise):
            pattern_rows[i, j] = regions.region_id(region)
        pattern_rows[i, max_premise] = regions.region_id(pattern.consequence)
        pattern_rows[i, max_premise + 1] = pattern.support
        confidences[i] = pattern.confidence

    meta = {
        "format_version": _FORMAT_VERSION,
        "config": dataclasses.asdict(model.config),
        "history_start_time": history.start_time,
        "max_premise": max_premise,
    }
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        history=history.positions,
        region_rows=np.asarray(region_rows, dtype=np.int64).reshape(-1, 4),
        region_points=(
            np.vstack(points_blocks) if points_blocks else np.empty((0, 2))
        ),
        region_sub_ids=(
            np.concatenate(sub_id_blocks)
            if sub_id_blocks
            else np.empty(0, dtype=np.int64)
        ),
        pattern_rows=pattern_rows,
        confidences=confidences,
    )


def load_model(path: str | Path) -> HybridPredictionModel:
    """Reload a model saved by :func:`save_model`.

    Regions and patterns are restored verbatim (no re-mining); the TPT is
    rebuilt by bulk load.
    """
    path = Path(path)
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"].tobytes()).decode("utf-8"))
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported model format {meta.get('format_version')}"
            )
        config = HPMConfig.from_dict(meta["config"])
        history = Trajectory(
            archive["history"], start_time=int(meta["history_start_time"])
        )
        region_rows = archive["region_rows"]
        region_points = archive["region_points"]
        region_sub_ids = archive["region_sub_ids"]
        pattern_rows = archive["pattern_rows"]
        confidences = archive["confidences"]

    from ..trajectory.point import BoundingBox, Point
    from .regions import FrequentRegion, RegionSet

    # Per-region bounds in two reduceat passes instead of a Python loop
    # over every member point.  min/max are accumulation-order free, so
    # the results are bit-identical to BoundingBox.from_points; centers
    # keep the per-region pairwise mean (reduction order matters there).
    counts = region_rows[:, 2].astype(np.intp)
    if counts.size and counts.min() > 0 and region_points.shape[0]:
        starts = np.zeros(counts.size, dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])
        mins = np.minimum.reduceat(region_points, starts, axis=0)
        maxs = np.maximum.reduceat(region_points, starts, axis=0)
    else:
        mins = maxs = None

    regions_list = []
    point_cursor = 0
    sub_cursor = 0
    for i, (offset, index, num_points, num_subs) in enumerate(region_rows):
        points = region_points[point_cursor : point_cursor + num_points].copy()
        point_cursor += num_points
        sub_ids = tuple(
            int(s) for s in region_sub_ids[sub_cursor : sub_cursor + num_subs]
        )
        sub_cursor += num_subs
        center = points.mean(axis=0)
        if mins is not None:
            bbox = BoundingBox(
                float(mins[i, 0]),
                float(mins[i, 1]),
                float(maxs[i, 0]),
                float(maxs[i, 1]),
            )
        else:
            bbox = BoundingBox.from_points(
                [(float(x), float(y)) for x, y in points]
            )
        regions_list.append(
            FrequentRegion(
                offset=int(offset),
                index=int(index),
                center=Point(float(center[0]), float(center[1])),
                points=points,
                bbox=bbox,
                subtrajectory_ids=sub_ids,
            )
        )
    region_set = RegionSet(regions_list, period=config.period, eps=config.eps)

    max_premise = int(meta["max_premise"])
    patterns = []
    for row, confidence in zip(pattern_rows, confidences):
        premise = tuple(
            region_set[int(rid)] for rid in row[:max_premise] if rid >= 0
        )
        patterns.append(
            TrajectoryPattern(
                premise=premise,
                consequence=region_set[int(row[max_premise])],
                support=int(row[max_premise + 1]),
                confidence=float(confidence),
            )
        )

    model = HybridPredictionModel(config)
    model._restore(history, region_set, patterns)
    return model


def save_fleet(
    fleet: FleetPredictionModel,
    directory: str | Path,
    *,
    format: int = 2,
    max_workers: int | None = None,
    executor: str = "thread",
) -> None:
    """Serialise a fleet to a snapshot directory.

    ``format=2`` (the default) writes the packed columnar layout of
    :mod:`repro.core.snapshot2`; ``format=1`` writes the archival
    one-``.npz``-per-object layout (filenames are positional so
    arbitrary object ids never have to be path-safe).  Either way the
    per-object serialisation work fans out over
    :func:`~repro.core.parallel.run_keyed_tasks` with ``max_workers``
    concurrency, while the manifest keeps ``fleet.object_ids()`` order —
    the output is deterministic regardless of worker count.  Existing
    snapshot files in the directory are replaced.
    """
    if format == 2:
        from .snapshot2 import save_fleet_v2

        save_fleet_v2(
            fleet, directory, max_workers=max_workers, executor=executor
        )
        return
    if format != 1:
        raise ValueError(f"unsupported fleet snapshot format {format}")
    if len(fleet) == 0:
        raise ValueError("cannot save an empty fleet")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    object_ids = fleet.object_ids()
    objects: dict[str, str] = {
        object_id: f"object_{index:04d}.npz"
        for index, object_id in enumerate(object_ids)
    }
    jobs = [
        (object_id, (fleet[object_id], directory / objects[object_id]))
        for object_id in object_ids
    ]
    _results, failures = run_keyed_tasks(
        save_model, jobs, max_workers=max_workers, executor=executor
    )
    if failures:
        # Surface the first failure in manifest order, as a serial save would.
        for object_id in object_ids:
            if object_id in failures:
                raise failures[object_id]
    manifest = {
        "format_version": _FLEET_FORMAT_VERSION,
        "config": dataclasses.asdict(fleet.config),
        "objects": objects,
    }
    (directory / _MANIFEST).write_text(json.dumps(manifest, indent=2))


def load_fleet(
    directory: str | Path,
    max_workers: int | None = None,
    executor: str = "thread",
    object_ids: "Collection[str] | None" = None,
    mmap: bool = True,
) -> FleetPredictionModel:
    """Reload a fleet snapshot written by :func:`save_fleet` (v1 or v2).

    With ``max_workers`` > 1 the per-object restores run in parallel —
    the decompression and array reconstruction overlap well under a
    thread pool (``executor="thread"``, the default), and
    ``executor="process"`` ships the rebuilt models back by pickle for
    the largest v1 snapshots (v2 coerces to threads; its blocks are
    shared mappings).  The resulting fleet is identical to a serial
    load; objects are adopted in manifest order.

    ``object_ids`` restricts the load to a subset of the manifest — a
    shard worker loads only the objects its consistent-hash ring slice
    owns, so warm-up cost scales with the shard, not the fleet.  Ids
    missing from the manifest raise ``ValueError``; an empty selection
    yields an empty fleet (a legal, if idle, shard).

    ``mmap`` (v2 only) maps the blocks read-only so region points and
    kernel tables stay zero-copy views; pass ``False`` to materialise
    private in-memory copies instead.  Both modes restore byte-identical
    state.  v1 snapshots always materialise.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.is_file():
        raise ValueError(f"{directory} is not a fleet snapshot (no {_MANIFEST})")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("format_version")
    if version == 2:
        from .snapshot2 import load_fleet_v2

        return load_fleet_v2(
            directory,
            manifest,
            max_workers=max_workers,
            executor=executor,
            object_ids=object_ids,
            mmap=mmap,
        )
    if version != _FLEET_FORMAT_VERSION:
        raise ValueError(
            f"{directory}: unsupported fleet format "
            f"{manifest.get('format_version')}"
        )
    objects = manifest["objects"]
    if object_ids is not None:
        wanted = set(object_ids)
        missing = sorted(wanted - objects.keys())
        if missing:
            raise ValueError(
                f"{directory}: object ids not in the snapshot manifest: "
                f"{', '.join(missing)}"
            )
        objects = {
            object_id: filename
            for object_id, filename in objects.items()
            if object_id in wanted
        }
    fleet = FleetPredictionModel(HPMConfig.from_dict(manifest["config"]))
    jobs = [
        (object_id, (directory / filename,))
        for object_id, filename in objects.items()
    ]
    results, failures = run_keyed_tasks(
        load_model, jobs, max_workers=max_workers, executor=executor
    )
    if failures:
        # Surface the first failure in manifest order, as a serial load would.
        for object_id, _ in jobs:
            if object_id in failures:
                raise failures[object_id]
    for object_id, model in results.items():
        fleet.adopt_object(object_id, model)
    return fleet


def convert_snapshot(
    source: str | Path,
    output: str | Path,
    format: int = 2,
    max_workers: int | None = None,
) -> int:
    """Convert a fleet snapshot between formats (``repro snapshot-convert``).

    Loads ``source`` (either format) and rewrites it as ``format`` into
    ``output``.  The conversion round-trips through full model
    reconstruction, so the result carries exactly the state a load of the
    source would produce — the snapshot property tests pin v1→v2→load to
    byte-identical state and prediction fingerprints.  Returns the number
    of objects converted.
    """
    fleet = load_fleet(source, max_workers=max_workers)
    save_fleet(fleet, output, format=format, max_workers=max_workers)
    return len(fleet)
