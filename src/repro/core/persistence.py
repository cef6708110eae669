"""Saving and loading fitted fleets: the packed snapshot format.

Mining is the expensive phase (DBSCAN over every offset group plus the
rule lattice); deployments fit once and answer queries for days.  A
fitted :class:`~repro.core.fleet.FleetPredictionModel` — one object or
many — is stored with :func:`save_fleet` and reloaded with
:func:`load_fleet`.  There is one on-disk format (``format_version``
2): the **whole fleet** packed into a small fixed set of flat ``.npy``
blocks plus a JSON manifest carrying a per-object ``[start, end)``
index into every block:

``manifest.json``
    ``format_version`` 2, the fleet config, the weight-family the stored
    kernels were packed for, the global pattern-table premise width, the
    signature byte width, the expected shape of every block (load-time
    truncation check), and the per-object offset index.

``block_<name>.npy`` (little-endian ``<f8`` / ``<i8``; signatures ``u1``)
    ========================  ========  =======================================
    name                      shape     contents
    ========================  ========  =======================================
    history                   (H, 2)    all training positions, concatenated
    region_rows               (R, 4)    offset, index, n_points, n_subs
    region_geo                (R, 6)    center_x, center_y, min/max x, y
    region_points             (P, 2)    member points, concatenated
    region_sub_ids            (S,)      contributing sub-trajectory ids
    pattern_rows              (N, W+2)  premise region ids (−1 padded),
                                        consequence id, support
    pattern_conf              (N,)      pattern confidences
    tree_entry_sigs           (E, Sb)   leaf-entry signatures, bulk-load
                                        order, little-endian byte rows
    tree_entry_pattern        (E,)      pattern row of each leaf entry
    tree_node_sigs            (I, Sb)   internal-node signatures, bottom-up
                                        level order (root last)
    kernel_buckets            (B, 3)    time_id, n_rows, table width (one
                                        width per object)
    kernel_rows               (K, 4)    seq, pattern row, support, cons offset
    kernel_conf               (K,)      candidate confidences
    kernel_cells_cols         (C,)      flattened sparse ``bit_cols``
    kernel_cells_weights      (C,)      flattened sparse ``bit_weights``
    ========================  ========  =======================================

An object's kernel rows are its kernel block in bucket-major order, and
its cells are that block's ``(rows, width)`` tables flattened, so the
loader reshapes them into the block without a copy.  Snapshots written
before the block stored each bucket at its own width; they load through
one padding copy.

Snapshots written while the kernel still carried velocity-filter speeds
also hold a ``kernel_minspeed`` block and four retired config keys; the
loader and the repack path ignore both, so those snapshots keep loading
(see :meth:`HPMConfig.from_dict`).  Any other ``format_version`` — the
retired one-``.npz``-per-object layout (format 1) included — and a bare
single-model ``.npz`` file are rejected with ``ValueError``.

Because the blocks are raw ``.npy`` files (not a zip archive),
``np.load(mmap_mode="r")`` maps them zero-copy: a loader slices views out
of the read-only mapped blocks instead of decompressing and rebuilding,
so a shard worker restricted to its ring slice touches only the pages
its objects occupy, and services on one host share the page cache.
Region centers and bounding boxes are **stored** rather than recomputed
— float reductions are accumulation-order sensitive and the SHA-256
state fingerprints must stay byte-identical to the fitted model.

The tree and score-kernel blocks are extracted at save time from a
throwaway bulk-loaded tree (never from the live tree, which a delta
refit may have patched into a different structure and DFS entry order)
so the stored layout matches exactly what a from-scratch bulk load would
produce.  The loader then replays the stored structure through
``bulk_load_packed`` — no key encoding, sorting, or signature OR-ing —
reassembles :class:`~repro.core.scorekernel.ScoreKernel` from views, and
primes the tree's kernel cache, making the first prediction skip the
full ``ScoreKernel.build`` pass.

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
import itertools
import json
import os
from pathlib import Path
from typing import Collection, Iterable, Sequence

import numpy as np

from ..trajectory.trajectory import Trajectory
from .config import HPMConfig
from .fleet import FleetPredictionModel
from .keys import KeyCodec
from .model import HybridPredictionModel
from .parallel import run_keyed_tasks
from .patterns import TrajectoryPattern
from .regions import RegionSet, regions_from_arrays
from .scorekernel import CandidatePack, ScoreKernel, pattern_array
from .tpt import TrajectoryPatternTree

__all__ = [
    "FORMAT_VERSION",
    "load_fleet",
    "read_manifest",
    "repack_snapshot",
    "save_fleet",
    "snapshot_stat",
]

FORMAT_VERSION = 2
_MANIFEST = "manifest.json"

# Block name -> (dtype, trailing shape).  Dtypes are explicit little-endian;
# on the (rare) big-endian host the loader materialises native copies.
_BLOCK_SPECS: dict[str, tuple[str, tuple[int, ...]]] = {
    "history": ("<f8", (2,)),
    "region_rows": ("<i8", (4,)),
    "region_geo": ("<f8", (6,)),
    "region_points": ("<f8", (2,)),
    "region_sub_ids": ("<i8", ()),
    "pattern_rows": ("<i8", None),  # trailing dim is premise_width + 2
    "pattern_conf": ("<f8", ()),
    "tree_entry_sigs": ("u1", None),  # trailing dim is sig_bytes
    "tree_entry_pattern": ("<i8", ()),
    "tree_node_sigs": ("u1", None),  # trailing dim is sig_bytes
    "kernel_buckets": ("<i8", (3,)),
    "kernel_rows": ("<i8", (4,)),
    "kernel_conf": ("<f8", ()),
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

    ``kind`` selects the weight family the kernel tables are packed for
    (the fleet config's ``weight_function``).  Returns plain numpy arrays
    keyed by block name plus ``start_time`` and optional ``tree`` and
    ``kernel`` sub-dicts; :func:`_write_snapshot` concatenates them.
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
    max_premise = max((len(p.premise) for p in patterns), default=1)
    pattern_rows = np.full(
        (len(patterns), max_premise + 2), -1, dtype=np.int64
    )
    pattern_conf = np.empty(len(patterns), dtype=np.float64)
    region_id = regions.region_id
    for i, pattern in enumerate(patterns):
        for j, region in enumerate(pattern.premise):
            pattern_rows[i, j] = region_id(region)
        pattern_rows[i, max_premise] = region_id(pattern.consequence)
        pattern_rows[i, max_premise + 1] = pattern.support
        pattern_conf[i] = pattern.confidence

    return {
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
        **_extract_index_arrays(model.config, regions, patterns, kind),
    }


def _sig_rows(signatures: Iterable[int], count: int, width: int) -> np.ndarray:
    """Pack arbitrary-precision signatures as ``(count, width)`` uint8 rows
    (little-endian byte order; trailing padding bytes are zero)."""
    buf = bytearray(count * width)
    for i, signature in enumerate(signatures):
        buf[i * width : (i + 1) * width] = signature.to_bytes(width, "little")
    return np.frombuffer(bytes(buf), dtype=np.uint8).reshape(count, width)


def _extract_index_arrays(
    config: HPMConfig,
    regions: RegionSet,
    patterns: Sequence[TrajectoryPattern],
    kind: str,
) -> dict:
    """Serialised TPT structure and kernel blocks, in canonical order.

    A live tree may have been delta-patched (insert/delete), which
    perturbs both its packed structure and the DFS ``seq`` numbering,
    while every snapshot *load* bulk loads from scratch — so both the
    tree blocks and the kernel arrays are extracted from a throwaway
    bulk-loaded tree, guaranteeing the stored structure matches what the
    loader will reconstruct.  Returns ``{"tree": ..., "kernel": ...}``
    (either may be ``None``).
    """
    if not patterns or len(regions) == 0:
        return {"tree": None, "kernel": None}
    codec = KeyCodec.from_patterns(regions, patterns)
    tree = TrajectoryPatternTree(
        codec,
        max_entries=config.tree_max_entries,
        min_entries=config.tree_min_entries,
    )
    tree.bulk_load_patterns(list(patterns))
    pattern_row = {id(p): i for i, p in enumerate(patterns)}

    entries, node_signatures = tree.export_packed()
    sig_bytes = max(1, (tree.signature_bits + 7) // 8)
    tree_arrays = {
        "sig_bytes": sig_bytes,
        "tree_entry_sigs": _sig_rows(
            (e.signature for e in entries), len(entries), sig_bytes
        ),
        "tree_entry_pattern": np.fromiter(
            (pattern_row[id(e.payload)] for e in entries),
            dtype=np.int64,
            count=len(entries),
        ),
        "tree_node_sigs": _sig_rows(
            node_signatures, len(node_signatures), sig_bytes
        ),
    }

    kernel = tree.score_kernel(kind)
    buckets: list[tuple[int, int, int]] = []
    row_blocks: list[np.ndarray] = []
    conf_blocks: list[np.ndarray] = []
    col_blocks: list[np.ndarray] = []
    weight_blocks: list[np.ndarray] = []
    for time_id, pack in kernel.export_buckets():
        buckets.append((time_id, pack.n, pack.width))
        rows = np.empty((pack.n, 4), dtype=np.int64)
        rows[:, 0] = pack.seqs
        rows[:, 1] = np.fromiter(
            (pattern_row[id(p)] for p in pack.patterns),
            dtype=np.int64,
            count=pack.n,
        )
        rows[:, 2] = pack.supports
        rows[:, 3] = pack.cons_offsets
        row_blocks.append(rows)
        conf_blocks.append(pack.confidences)
        col_blocks.append(
            np.asarray(pack.bit_cols, dtype=np.int64).reshape(-1)
        )
        weight_blocks.append(pack.bit_weights.reshape(-1))
    kernel_arrays = {
        "kernel_buckets": np.asarray(buckets, dtype=np.int64).reshape(-1, 3),
        "kernel_rows": (
            np.concatenate(row_blocks)
            if row_blocks
            else np.empty((0, 4), dtype=np.int64)
        ),
        "kernel_conf": (
            np.concatenate(conf_blocks)
            if conf_blocks
            else np.empty(0, dtype=np.float64)
        ),
        "kernel_cells_cols": (
            np.concatenate(col_blocks)
            if col_blocks
            else np.empty(0, dtype=np.int64)
        ),
        "kernel_cells_weights": (
            np.concatenate(weight_blocks)
            if weight_blocks
            else np.empty(0, dtype=np.float64)
        ),
    }
    return {"tree": tree_arrays, "kernel": kernel_arrays}


# ----------------------------------------------------------------------
# save side: the packed writer
# ----------------------------------------------------------------------
def _pad_pattern_rows(rows: np.ndarray, width: int) -> np.ndarray:
    """Re-pad a ``(N, w+2)`` pattern table to global premise width."""
    local = rows.shape[1] - 2
    if local == width:
        return rows
    out = np.full((rows.shape[0], width + 2), -1, dtype=np.int64)
    out[:, :local] = rows[:, :local]
    out[:, width] = rows[:, local]
    out[:, width + 1] = rows[:, local + 1]
    return out


def _pad_sig_rows(rows: np.ndarray, width: int) -> np.ndarray:
    """Widen uint8 signature rows to the global byte width.

    Signatures are little-endian, so the padding bytes go on the right
    and the decoded integers are unchanged.
    """
    if rows.shape[1] == width:
        return rows
    out = np.zeros((rows.shape[0], width), dtype=np.uint8)
    out[:, : rows.shape[1]] = rows
    return out


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
    sig_bytes = max(
        (
            arrays["tree"]["sig_bytes"]
            for _oid, arrays in entries
            if arrays.get("tree") is not None
        ),
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
                _pad_pattern_rows(arrays["pattern_rows"], premise_width),
            ),
        }
        _append("region_geo", arrays["region_geo"])
        _append("pattern_conf", arrays["pattern_conf"])
        tree = arrays.get("tree")
        if tree is None:
            entry["tree"] = None
        else:
            entry["tree"] = {
                "entries": _append(
                    "tree_entry_sigs",
                    _pad_sig_rows(tree["tree_entry_sigs"], sig_bytes),
                ),
                "nodes": _append(
                    "tree_node_sigs",
                    _pad_sig_rows(tree["tree_node_sigs"], sig_bytes),
                ),
            }
            _append("tree_entry_pattern", tree["tree_entry_pattern"])
        kernel = arrays.get("kernel")
        if kernel is None:
            entry["kernel"] = None
        else:
            entry["kernel"] = {
                "buckets": _append("kernel_buckets", kernel["kernel_buckets"]),
                "rows": _append("kernel_rows", kernel["kernel_rows"]),
                "cells": _append(
                    "kernel_cells_cols", kernel["kernel_cells_cols"]
                ),
            }
            _append("kernel_conf", kernel["kernel_conf"])
            _append("kernel_cells_weights", kernel["kernel_cells_weights"])
        objects[object_id] = entry

    dynamic_trailing = {
        "pattern_rows": (premise_width + 2,),
        "tree_entry_sigs": (sig_bytes,),
        "tree_node_sigs": (sig_bytes,),
    }
    shapes: dict[str, list[int]] = {}
    for name, (dtype, trailing) in _BLOCK_SPECS.items():
        if trailing is None:
            trailing = dynamic_trailing[name]
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
        "sig_bytes": sig_bytes,
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

    Per-object array extraction (which includes packing the kernel tables
    from a throwaway bulk-loaded tree) fans out over a thread pool of
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
    """Read a snapshot's manifest, rejecting anything but format 2."""
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
            f"format {FORMAT_VERSION} loads"
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
    index: dict,
    patterns: list[TrajectoryPattern],
    codec: KeyCodec,
    kind: str,
) -> ScoreKernel:
    """Reassemble a :class:`ScoreKernel` from stored blocks.

    The stored buckets are the kernel block's rows in order.  When every
    bucket has one table width — what the writer emits — the cells are
    reshaped into the block as views of the mapping, no copy.  Snapshots
    written with per-bucket widths are padded into the block with one
    copy.  Only the pattern array is rebuilt.
    """
    b0, b1 = index["buckets"]
    r0, r1 = index["rows"]
    c0, c1 = index["cells"]
    buckets = blocks["kernel_buckets"][b0:b1].tolist()
    rows = blocks["kernel_rows"][r0:r1]
    cols = blocks["kernel_cells_cols"][c0:c1]
    weights = blocks["kernel_cells_weights"][c0:c1]
    n_rows = rows.shape[0]
    width = max((w for _t, _n, w in buckets), default=1)
    if cols.shape[0] == n_rows * width:
        bit_cols = cols.reshape(n_rows, width).astype(np.intp, copy=False)
        bit_weights = weights.reshape(n_rows, width)
    else:
        bit_cols = np.zeros((n_rows, width), dtype=np.intp)
        bit_weights = np.zeros((n_rows, width), dtype=np.float64)
        row = cell = 0
        for _time_id, n, w in buckets:
            bit_cols[row : row + n, :w] = cols[cell : cell + n * w].reshape(n, w)
            bit_weights[row : row + n, :w] = weights[cell : cell + n * w].reshape(
                n, w
            )
            row += n
            cell += n * w
    counts = [0] * (codec.consequence_length + 1)
    for time_id, n, _w in buckets:
        counts[time_id + 1] = n
    bounds = list(itertools.accumulate(counts))
    block = CandidatePack(
        seqs=rows[:, 0],
        bit_cols=bit_cols,
        bit_weights=bit_weights,
        confidences=blocks["kernel_conf"][r0:r1],
        supports=rows[:, 2],
        cons_offsets=rows[:, 3],
        patterns=pattern_array([patterns[i] for i in rows[:, 1].tolist()]),
    )
    offset_time_ids = {
        offset: time_id
        for time_id, offset in enumerate(codec.consequence_offsets())
    }
    return ScoreKernel(kind, codec.premise_length, block, bounds, offset_time_ids)


def _unpack_tree(
    blocks: dict[str, np.ndarray], index: dict, sig_bytes: int
) -> tuple[list[int], list[int], list[int]]:
    """Decode the serialised tree structure for ``bulk_load_packed``.

    Returns ``(entry_signatures, entry_pattern_rows, node_signatures)``;
    signatures come back as Python bigints from their little-endian byte
    rows, already in the canonical bulk-load order.
    """
    e0, e1 = index["entries"]
    n0, n1 = index["nodes"]
    ebuf = blocks["tree_entry_sigs"][e0:e1].tobytes()
    nbuf = blocks["tree_node_sigs"][n0:n1].tobytes()
    w = sig_bytes
    entry_sigs = [
        int.from_bytes(ebuf[i * w : (i + 1) * w], "little")
        for i in range(e1 - e0)
    ]
    node_sigs = [
        int.from_bytes(nbuf[i * w : (i + 1) * w], "little")
        for i in range(n1 - n0)
    ]
    return entry_sigs, blocks["tree_entry_pattern"][e0:e1].tolist(), node_sigs


def _restore_object(
    config: HPMConfig,
    blocks: dict[str, np.ndarray],
    entry: dict,
    premise_width: int,
    sig_bytes: int,
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

    tree_index = entry.get("tree")
    tree_packed = (
        _unpack_tree(blocks, tree_index, sig_bytes)
        if tree_index is not None
        else None
    )
    model = HybridPredictionModel(config)
    model._restore(history, region_set, patterns, tree_packed=tree_packed)
    kernel_index = entry.get("kernel")
    if (
        kernel_index is not None
        and kernel_kind is not None
        and model.tree_ is not None
    ):
        kernel = _kernel_from_arrays(
            blocks, kernel_index, patterns, model.codec_, kernel_kind
        )
        model.tree_.prime_score_kernel(kernel_kind, kernel)
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
    # weight family they were packed for; otherwise first queries build
    # the right kernel lazily, exactly as after a fresh fit.
    kind = stored_kind if stored_kind == config.weight_function else None
    blocks = _open_blocks(directory, manifest)
    premise_width = int(manifest["premise_width"])
    sig_bytes = int(manifest.get("sig_bytes", 1))
    fleet = FleetPredictionModel(config)
    jobs = [
        (object_id, (config, blocks, entry, premise_width, sig_bytes, kind))
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
def _slice_object_arrays(
    blocks: dict[str, np.ndarray], entry: dict, sig_bytes: int
) -> dict:
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
    }
    tree = entry.get("tree")
    if tree is None:
        arrays["tree"] = None
    else:
        e0, e1 = tree["entries"]
        n0, n1 = tree["nodes"]
        arrays["tree"] = {
            "sig_bytes": sig_bytes,
            "tree_entry_sigs": blocks["tree_entry_sigs"][e0:e1],
            "tree_entry_pattern": blocks["tree_entry_pattern"][e0:e1],
            "tree_node_sigs": blocks["tree_node_sigs"][n0:n1],
        }
    kernel = entry.get("kernel")
    if kernel is None:
        arrays["kernel"] = None
    else:
        b0, b1 = kernel["buckets"]
        k0, k1 = kernel["rows"]
        c0, c1 = kernel["cells"]
        arrays["kernel"] = {
            "kernel_buckets": blocks["kernel_buckets"][b0:b1],
            "kernel_rows": blocks["kernel_rows"][k0:k1],
            "kernel_conf": blocks["kernel_conf"][k0:k1],
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
    found: dict[str, tuple[dict[str, np.ndarray], dict, int]] = {}
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
        sig_bytes = int(manifest.get("sig_bytes", 1))
        for object_id, entry in manifest["objects"].items():
            if object_id in found:
                raise ValueError(
                    f"object id {object_id!r} appears in more than one snapshot"
                )
            found[object_id] = (blocks, entry, sig_bytes)
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
