"""Saving and loading fitted fleets: the packed snapshot format.

Mining is the expensive phase (DBSCAN over every offset group plus the
rule lattice); deployments fit once and answer queries for days.  A
fitted :class:`~repro.core.fleet.FleetPredictionModel` — one object or
many — is stored with :func:`save_fleet` and reloaded with
:func:`load_fleet`.  There is one on-disk format (``format_version``
3): the **whole fleet** packed into a small fixed set of flat ``.npy``
blocks plus a JSON manifest carrying a per-object ``[start, end)``
index into every block:

``manifest.json``
    ``format_version`` 3, the fleet config, the weight family the stored
    kernels were packed for, the global pattern-table premise width, the
    expected shape of every block (load-time truncation check), and the
    per-object offset index.

``block_<name>.npy`` (little-endian ``<f8`` / ``<i8``)
    ========================  ========  =======================================
    name                      shape     contents
    ========================  ========  =======================================
    history                   (H, 2)    all training positions, concatenated
    region_rows               (R, 4)    offset, index, n_points, n_subs
    region_geo                (R, 6)    center_x, center_y, min/max x, y
    region_points             (P, 2)    member points, concatenated
    region_sub_ids            (S,)      contributing sub-trajectory ids
    pattern_rows              (N, W+2)  premise region ids (−1 padded),
                                        consequence id, support; mining order
    pattern_conf              (N,)      pattern confidences
    kernel_order              (N,)      pattern row of each score-kernel row
    kernel_cells_cols         (C,)      flattened sparse ``bit_cols``
    kernel_cells_weights      (C,)      flattened sparse ``bit_weights``
    ========================  ========  =======================================

The pattern table stays in mining order, which the delta miner's
premise-group merge relies on.  The score kernel's rows are the same
patterns in canonical order (:func:`~repro.core.scorekernel.canonical_order`);
``kernel_order`` maps each kernel row to its table row, and an object's
cells are its kernel block's ``(rows, width)`` tables flattened, so the
loader reshapes them into the block without a copy and packs nothing.

Any other ``format_version`` — format 2, which also stored the TPT's
structure and a second, tree-ordered copy of the pattern table, and the
retired one-``.npz``-per-object layout (format 1) — and a bare
single-model ``.npz`` file are rejected with ``ValueError``.

Because the blocks are raw ``.npy`` files (not a zip archive),
``np.load(mmap_mode="r")`` maps them zero-copy: a loader slices views out
of the read-only mapped blocks instead of decompressing and rebuilding,
so a shard worker restricted to its ring slice touches only the pages
its objects occupy, and services on one host share the page cache.
Region centers and bounding boxes are **stored** rather than recomputed
— float reductions are accumulation-order sensitive and the SHA-256
state fingerprints must stay byte-identical to the fitted model.

Copy-on-write discipline: mapped blocks are read-only.  Every mutation
path (``update``/delta refit) already *constructs new arrays* for the
state it changes and leaves untouched regions interned — so a refit on a
loaded model transparently materialises private copies of only the
arrays it patches, and an accidental in-place write raises immediately.
Saving never writes into a file another process may have mapped: each
block and then the manifest is written under a temporary name and
renamed into place, so models already loaded from a directory keep their
old pages when a new snapshot is saved over it.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Collection, Sequence

import numpy as np

from ..trajectory.trajectory import Trajectory
from .config import HPMConfig
from .fleet import FleetPredictionModel
from .model import HybridPredictionModel
from .parallel import run_keyed_tasks
from .patterns import TrajectoryPattern
from .regions import RegionSet, regions_from_arrays
from .scorekernel import (
    ScoreKernel,
    pad_table,
    pattern_array,
    pattern_table,
    region_offsets,
)

__all__ = [
    "FORMAT_VERSION",
    "load_fleet",
    "read_manifest",
    "repack_snapshot",
    "save_fleet",
    "snapshot_stat",
]

FORMAT_VERSION = 3
_MANIFEST = "manifest.json"

# Block name -> (dtype, trailing shape).  Dtypes are explicit little-endian;
# on the (rare) big-endian host the loader materialises native copies.
_BLOCK_SPECS: dict[str, tuple[str, tuple[int, ...] | None]] = {
    "history": ("<f8", (2,)),
    "region_rows": ("<i8", (4,)),
    "region_geo": ("<f8", (6,)),
    "region_points": ("<f8", (2,)),
    "region_sub_ids": ("<i8", ()),
    "pattern_rows": ("<i8", None),  # trailing dim is premise_width + 2
    "pattern_conf": ("<f8", ()),
    "kernel_order": ("<i8", ()),
    "kernel_cells_cols": ("<i8", ()),
    "kernel_cells_weights": ("<f8", ()),
}


def _block_path(directory: Path, name: str) -> Path:
    return directory / f"block_{name}.npy"


# ----------------------------------------------------------------------
# save side: per-object array extraction
# ----------------------------------------------------------------------
def _object_arrays(model: HybridPredictionModel, kind: str) -> dict:
    """Columnar arrays for one fitted model (the writer's unit of work).

    ``kind`` selects the weight family the kernel cells are packed for
    (the fleet config's ``weight_function``).  Returns plain numpy arrays
    keyed by block name plus ``start_time``; :func:`_write_snapshot`
    concatenates them.  A pattern-free model has no kernel arrays.
    """
    regions = model.regions_
    history = model.history_
    num_regions = len(regions)
    region_rows = np.empty((num_regions, 4), dtype=np.int64)
    region_geo = np.empty((num_regions, 6), dtype=np.float64)
    points_blocks: list[np.ndarray] = []
    sub_blocks: list[np.ndarray] = []
    for i, region in enumerate(regions):
        region_rows[i] = (
            region.offset,
            region.index,
            region.points.shape[0],
            len(region.subtrajectory_ids),
        )
        bbox = region.bbox
        region_geo[i] = (
            region.center.x,
            region.center.y,
            bbox.min_x,
            bbox.min_y,
            bbox.max_x,
            bbox.max_y,
        )
        points_blocks.append(np.asarray(region.points, dtype=np.float64))
        sub_blocks.append(np.asarray(region.subtrajectory_ids, dtype=np.int64))

    patterns = model.patterns_
    pattern_rows, pattern_conf = pattern_table(regions, patterns)

    arrays = {
        "start_time": history.start_time,
        "history": np.asarray(history.positions, dtype=np.float64),
        "region_rows": region_rows,
        "region_geo": region_geo,
        "region_points": (
            np.vstack(points_blocks)
            if points_blocks
            else np.empty((0, 2), dtype=np.float64)
        ),
        "region_sub_ids": (
            np.concatenate(sub_blocks)
            if sub_blocks
            else np.empty(0, dtype=np.int64)
        ),
        "pattern_rows": pattern_rows,
        "pattern_conf": pattern_conf,
        "kernel": None,
    }
    kernel = model.kernel_
    if kernel is None:
        return arrays
    if kernel.kind != kind:
        kernel = ScoreKernel.from_patterns(regions, patterns, kind)
    # Kernel rows name their table rows by object identity, so the order
    # column and the cells come from the same block.
    pattern_row = {id(p): i for i, p in enumerate(patterns)}
    block = kernel.block
    arrays["kernel"] = {
        "kernel_order": np.fromiter(
            (pattern_row[id(p)] for p in block.patterns),
            dtype=np.int64,
            count=block.n,
        ),
        "kernel_cells_cols": np.asarray(block.bit_cols, dtype=np.int64).reshape(-1),
        "kernel_cells_weights": block.bit_weights.reshape(-1),
    }
    return arrays


# ----------------------------------------------------------------------
# save side: the packed writer
# ----------------------------------------------------------------------
def _write_snapshot(
    directory: str | Path,
    config: dict,
    kernel_kind: str,
    entries: Sequence[tuple[str, dict]],
) -> None:
    """Write a snapshot from per-object array dicts.

    ``entries`` is the deterministic manifest order: the same objects in
    the same order always produce byte-identical blocks.  Every file is
    written under a temporary name and renamed into place, the manifest
    last, so a manifest on disk implies complete blocks and a fleet
    already loaded from ``directory`` keeps mapping the old files.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    premise_width = max(
        (arrays["pattern_rows"].shape[1] - 2 for _oid, arrays in entries),
        default=1,
    )
    concat: dict[str, list[np.ndarray]] = {name: [] for name in _BLOCK_SPECS}
    cursors = {name: 0 for name in _BLOCK_SPECS}
    objects: dict[str, dict] = {}

    def _append(name: str, arr: np.ndarray) -> list[int]:
        start = cursors[name]
        cursors[name] = start + arr.shape[0]
        concat[name].append(arr)
        return [start, cursors[name]]

    for object_id, arrays in entries:
        entry = {
            "start_time": int(arrays["start_time"]),
            "history": _append("history", arrays["history"]),
            "regions": _append("region_rows", arrays["region_rows"]),
            "points": _append("region_points", arrays["region_points"]),
            "sub_ids": _append("region_sub_ids", arrays["region_sub_ids"]),
            "patterns": _append(
                "pattern_rows",
                pad_table(arrays["pattern_rows"], premise_width),
            ),
        }
        _append("region_geo", arrays["region_geo"])
        _append("pattern_conf", arrays["pattern_conf"])
        kernel = arrays["kernel"]
        if kernel is None:
            entry["kernel"] = None
        else:
            _append("kernel_order", kernel["kernel_order"])
            entry["kernel"] = {
                "cells": _append(
                    "kernel_cells_cols", kernel["kernel_cells_cols"]
                ),
            }
            _append("kernel_cells_weights", kernel["kernel_cells_weights"])
        objects[object_id] = entry

    shapes: dict[str, list[int]] = {}
    for name, (dtype, trailing) in _BLOCK_SPECS.items():
        if trailing is None:
            trailing = (premise_width + 2,)
        parts = concat[name]
        if parts:
            block = np.concatenate(parts, axis=0)
        else:
            block = np.empty((0, *trailing))
        block = np.ascontiguousarray(block, dtype=np.dtype(dtype))
        if block.shape[1:] != tuple(trailing):
            raise ValueError(
                f"block {name}: shape {block.shape} does not match "
                f"spec trailing dims {trailing}"
            )
        _replace_file(
            _block_path(directory, name), lambda f: np.save(f, block)
        )
        shapes[name] = list(block.shape)

    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "kernel_kind": kernel_kind,
        "premise_width": premise_width,
        "blocks": shapes,
        "objects": objects,
    }
    text = json.dumps(manifest, indent=2).encode("utf-8")
    _replace_file(directory / _MANIFEST, lambda f: f.write(text))


def _replace_file(path: Path, write) -> None:
    """Write ``path`` via ``write(file)`` on a temporary name, then rename.

    ``os.replace`` swaps the directory entry atomically; a reader that
    mapped the old file keeps its inode, so saving over a loaded
    snapshot never rewrites the pages a live model is using.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        write(f)
    os.replace(tmp, path)


def save_fleet(
    fleet: FleetPredictionModel,
    directory: str | Path,
    *,
    max_workers: int | None = None,
) -> None:
    """Serialise a fleet as a snapshot directory.

    Per-object array extraction fans out over a thread pool of
    ``max_workers``; the concatenation and block writes are serial in
    ``fleet.object_ids()`` order, keeping the output byte-identical
    regardless of worker count.  Existing snapshot files in the
    directory are replaced.
    """
    if len(fleet) == 0:
        raise ValueError("cannot save an empty fleet")
    kind = fleet.config.weight_function
    object_ids = fleet.object_ids()
    jobs = [(oid, (fleet[oid], kind)) for oid in object_ids]
    results, failures = run_keyed_tasks(
        _object_arrays, jobs, max_workers=max_workers, executor="thread"
    )
    if failures:
        for object_id in object_ids:
            if object_id in failures:
                raise failures[object_id]
    _write_snapshot(
        directory,
        dataclasses.asdict(fleet.config),
        kind,
        [(oid, results[oid]) for oid in object_ids],
    )


# ----------------------------------------------------------------------
# load side
# ----------------------------------------------------------------------
def read_manifest(directory: str | Path) -> dict:
    """Read a snapshot's manifest, rejecting any format but the current one."""
    directory = Path(directory)
    if directory.is_file():
        found = (
            "a single-model .npz archive"
            if directory.suffix == ".npz"
            else "a file"
        )
        raise ValueError(
            f"{directory} is {found}, not a fleet snapshot; only format "
            f"{FORMAT_VERSION} snapshot directories load"
        )
    manifest_path = directory / _MANIFEST
    if not manifest_path.is_file():
        raise ValueError(f"{directory} is not a fleet snapshot (no {_MANIFEST})")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{directory}: unsupported fleet format {version!r}; only "
            f"format {FORMAT_VERSION} loads (re-fit and save to upgrade)"
        )
    return manifest


def _open_blocks(directory: Path, manifest: dict) -> dict[str, np.ndarray]:
    """Map every block of a snapshot read-only, validated against the manifest.

    Opening is O(1) per block and pages fault in lazily.  Shape
    mismatches and unreadable files raise ``ValueError`` naming the
    block, so truncation or corruption is caught before any model is
    half-built.
    """
    blocks: dict[str, np.ndarray] = {}
    for name, shape in manifest["blocks"].items():
        path = _block_path(directory, name)
        try:
            arr = np.load(path, mmap_mode="r", allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise ValueError(
                f"{path}: unreadable snapshot block "
                f"(truncated or corrupt): {exc}"
            ) from exc
        if list(arr.shape) != list(shape):
            raise ValueError(
                f"{path}: block shape {list(arr.shape)} does not match "
                f"manifest {list(shape)} (truncated or corrupt snapshot)"
            )
        if not arr.dtype.isnative:
            arr = arr.astype(arr.dtype.newbyteorder("="))
        # A plain ndarray view of the mapping: slices of a ``np.memmap``
        # each run its Python-level hooks and carry a ``__dict__``.
        blocks[name] = arr.view(np.ndarray)
    return blocks


def _kernel_from_arrays(
    blocks: dict[str, np.ndarray],
    entry: dict,
    patterns: list[TrajectoryPattern],
    regions: RegionSet,
    kind: str,
) -> ScoreKernel:
    """Reassemble a :class:`ScoreKernel` from stored blocks.

    The stored cells are the kernel block's rows in order, so they are
    reshaped into the block as views of the mapping, no copy; the other
    columns are gathered from the pattern table by ``kernel_order``.
    """
    t0, t1 = entry["patterns"]
    c0, c1 = entry["kernel"]["cells"]
    n_rows = t1 - t0
    width, extra = divmod(c1 - c0, n_rows)
    if extra or width < 1:
        raise ValueError(
            f"{c1 - c0} kernel cells do not tile {n_rows} kernel rows "
            "(truncated or corrupt snapshot)"
        )
    order = blocks["kernel_order"][t0:t1]
    return ScoreKernel(
        kind,
        pattern_array(patterns)[order],
        blocks["pattern_rows"][t0:t1][order],
        blocks["pattern_conf"][t0:t1][order],
        region_offsets(regions),
        cells=(
            blocks["kernel_cells_cols"][c0:c1]
            .reshape(n_rows, width)
            .astype(np.intp, copy=False),
            blocks["kernel_cells_weights"][c0:c1].reshape(n_rows, width),
        ),
    )


def _restore_object(
    config: HPMConfig,
    blocks: dict[str, np.ndarray],
    entry: dict,
    premise_width: int,
    kernel_kind: str | None,
) -> HybridPredictionModel:
    """Rebuild one model from its slice of the mapped blocks."""
    h0, h1 = entry["history"]
    history = Trajectory(
        blocks["history"][h0:h1], start_time=entry["start_time"]
    )
    r0, r1 = entry["regions"]
    p0, _p1 = entry["points"]
    s0, s1 = entry["sub_ids"]
    regions_list = regions_from_arrays(
        blocks["region_rows"][r0:r1],
        blocks["region_geo"][r0:r1],
        blocks["region_points"],
        blocks["region_sub_ids"][s0:s1],
        points_start=p0,
    )
    region_set = RegionSet(regions_list, period=config.period, eps=config.eps)

    t0, t1 = entry["patterns"]
    rows = blocks["pattern_rows"][t0:t1]
    confidences = blocks["pattern_conf"][t0:t1].tolist()
    # Premises repeat heavily (every consequence shares its premise row),
    # so intern them in bulk: one tuple per *unique* premise row instead
    # of per-pattern tuple construction + dict probing.
    unique_premises, inverse = np.unique(
        rows[:, :premise_width], axis=0, return_inverse=True
    )
    premises = [
        tuple(regions_list[rid] for rid in urow if rid >= 0)
        for urow in unique_premises.tolist()
    ]
    unchecked = TrajectoryPattern._unchecked
    patterns = [
        unchecked(
            premise=premises[pi],
            consequence=regions_list[cid],
            support=support,
            confidence=confidence,
        )
        for pi, cid, support, confidence in zip(
            inverse.tolist(),
            rows[:, premise_width].tolist(),
            rows[:, premise_width + 1].tolist(),
            confidences,
        )
    ]

    kernel = None
    if entry.get("kernel") is not None and kernel_kind is not None:
        kernel = _kernel_from_arrays(
            blocks, entry, patterns, region_set, kernel_kind
        )
    model = HybridPredictionModel(config)
    model._restore(history, region_set, patterns, kernel=kernel)
    return model


def load_fleet(
    directory: str | Path,
    *,
    max_workers: int | None = None,
    object_ids: "Collection[str] | None" = None,
) -> FleetPredictionModel:
    """Reload a fleet snapshot written by :func:`save_fleet`.

    The blocks are mapped once, read-only, and shared; each object's
    restore slices views out of them on a thread pool of ``max_workers``.
    The resulting fleet is identical to a serial load; objects are
    adopted in manifest order.

    ``object_ids`` restricts the load to a subset of the manifest — a
    shard worker loads only the objects its consistent-hash ring slice
    owns, so warm-up cost and the pages touched scale with the shard,
    not the fleet.  Ids missing from the manifest raise ``ValueError``;
    an empty selection yields an empty fleet (a legal, if idle, shard).
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    objects: dict[str, dict] = manifest["objects"]
    if object_ids is not None:
        wanted = set(object_ids)
        missing = sorted(wanted - objects.keys())
        if missing:
            raise ValueError(
                f"{directory}: object ids not in the snapshot manifest: "
                f"{', '.join(missing)}"
            )
        objects = {
            object_id: entry
            for object_id, entry in objects.items()
            if object_id in wanted
        }
    config = HPMConfig.from_dict(manifest["config"])
    stored_kind = manifest.get("kernel_kind")
    # Stored kernels only apply when the fleet still scores with the
    # weight family they were packed for; otherwise the restore packs
    # the right kernel, exactly as a fresh fit does.
    kind = stored_kind if stored_kind == config.weight_function else None
    blocks = _open_blocks(directory, manifest)
    premise_width = int(manifest["premise_width"])
    fleet = FleetPredictionModel(config)
    jobs = [
        (object_id, (config, blocks, entry, premise_width, kind))
        for object_id, entry in objects.items()
    ]
    results, failures = run_keyed_tasks(
        _restore_object, jobs, max_workers=max_workers, executor="thread"
    )
    if failures:
        for object_id, _ in jobs:
            if object_id in failures:
                raise failures[object_id]
    for object_id, model in results.items():
        fleet.adopt_object(object_id, model)
    return fleet


# ----------------------------------------------------------------------
# repack: subset / merge without model reconstruction
# ----------------------------------------------------------------------
def _slice_object_arrays(blocks: dict[str, np.ndarray], entry: dict) -> dict:
    """One object's arrays as views into the source blocks (for repack)."""
    h0, h1 = entry["history"]
    r0, r1 = entry["regions"]
    p0, p1 = entry["points"]
    s0, s1 = entry["sub_ids"]
    t0, t1 = entry["patterns"]
    arrays = {
        "start_time": entry["start_time"],
        "history": blocks["history"][h0:h1],
        "region_rows": blocks["region_rows"][r0:r1],
        "region_geo": blocks["region_geo"][r0:r1],
        "region_points": blocks["region_points"][p0:p1],
        "region_sub_ids": blocks["region_sub_ids"][s0:s1],
        "pattern_rows": blocks["pattern_rows"][t0:t1],
        "pattern_conf": blocks["pattern_conf"][t0:t1],
        "kernel": None,
    }
    kernel = entry.get("kernel")
    if kernel is not None:
        c0, c1 = kernel["cells"]
        arrays["kernel"] = {
            "kernel_order": blocks["kernel_order"][t0:t1],
            "kernel_cells_cols": blocks["kernel_cells_cols"][c0:c1],
            "kernel_cells_weights": blocks["kernel_cells_weights"][c0:c1],
        }
    return arrays


def repack_snapshot(
    sources: Sequence[str | Path],
    output: str | Path,
    object_ids: "Collection[str] | None" = None,
) -> list[str]:
    """Gather objects from several snapshots into one, in sorted-id order.

    Pure block slicing — no model deserialisation — so splitting a large
    snapshot into shards (one source, ``object_ids`` a ring slice) or
    merging shards back (many sources, every object) costs one array
    copy per object.  Configs must agree and duplicate object ids
    raise.  An empty selection still yields a valid (empty) snapshot.
    Returns the written object ids.
    """
    found: dict[str, tuple[dict[str, np.ndarray], dict]] = {}
    config: dict | None = None
    kind: str | None = None
    for source in sources:
        source = Path(source)
        manifest = read_manifest(source)
        if config is None:
            config = manifest["config"]
            kind = manifest["kernel_kind"]
            HPMConfig.from_dict(config)
        elif manifest["config"] != config:
            raise ValueError(
                f"{source}: snapshot config differs from the other sources'"
            )
        blocks = _open_blocks(source, manifest)
        for object_id, entry in manifest["objects"].items():
            if object_id in found:
                raise ValueError(
                    f"object id {object_id!r} appears in more than one snapshot"
                )
            found[object_id] = (blocks, entry)
    if config is None:
        raise ValueError("no source snapshots to repack")
    selected = sorted(found if object_ids is None else set(object_ids))
    entries = [
        (object_id, _slice_object_arrays(*found[object_id]))
        for object_id in selected
    ]
    _write_snapshot(output, config, kind, entries)
    return selected


# ----------------------------------------------------------------------
# introspection
# ----------------------------------------------------------------------
def snapshot_stat(directory: str | Path) -> dict:
    """Layout summary of a fleet snapshot.

    Returns a JSON-serialisable dict: format version, object count,
    total regions/patterns, on-disk bytes per block, and kernel
    coverage — the ``repro snapshot-stat`` CLI prints it.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    blocks = {}
    total = 0
    for name, shape in manifest["blocks"].items():
        path = _block_path(directory, name)
        size = path.stat().st_size if path.is_file() else None
        blocks[name] = {"shape": shape, "bytes": size}
        if size:
            total += size
    entries = manifest["objects"].values()
    return {
        "path": str(directory),
        "format_version": manifest["format_version"],
        "objects": len(manifest["objects"]),
        "kernel_kind": manifest.get("kernel_kind"),
        "premise_width": manifest.get("premise_width"),
        "regions": manifest["blocks"]["region_rows"][0],
        "patterns": manifest["blocks"]["pattern_rows"][0],
        "kernel_objects": sum(
            1 for e in entries if e.get("kernel") is not None
        ),
        "blocks": blocks,
        "total_block_bytes": total,
    }
