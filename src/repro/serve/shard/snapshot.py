"""Split a fleet snapshot into per-shard snapshots, and merge back.

A **sharded snapshot** is a directory of ``shard_NNNN/`` fleet
snapshots (each loadable by :func:`repro.core.persistence.load_fleet`
on its own) plus a top-level ``shard_manifest.json`` recording the
consistent-hash ring parameters the split was computed with.  Workers
given a sharded snapshot load their ``shard_NNNN`` directly; the router
reads the manifest and builds the *same* ring, so placement on disk and
placement in traffic can never disagree.

Splitting never deserialises a model.  v1 sources copy the per-object
``.npz`` archives byte-for-byte; v2 (packed columnar) sources repack
each shard's block slices with
:func:`repro.core.snapshot2.repack_snapshot_subset`, so every
``shard_NNNN`` is itself a v2 snapshot the worker can mmap.
``merge_snapshot`` reverses a split into a plain fleet snapshot —
positional archive renames for v1, block concatenation via
:func:`repro.core.snapshot2.merge_packed_snapshots` for v2 — in sorted
object-id order so the result is deterministic regardless of how the
shards were laid out.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from ...core.config import HPMConfig
from ...core.snapshot2 import (
    FLEET_FORMAT_V2,
    merge_packed_snapshots,
    repack_snapshot_subset,
)
from .ring import DEFAULT_REPLICAS, HashRing

__all__ = [
    "SHARD_MANIFEST",
    "split_snapshot",
    "merge_snapshot",
    "read_shard_manifest",
    "ring_from_manifest",
    "shard_dir_name",
]

SHARD_MANIFEST = "shard_manifest.json"
_SHARD_FORMAT_VERSION = 1
_FLEET_MANIFEST = "manifest.json"


def shard_dir_name(shard_id: int) -> str:
    return f"shard_{shard_id:04d}"


def _read_fleet_manifest(directory: Path) -> dict:
    manifest_path = directory / _FLEET_MANIFEST
    if not manifest_path.is_file():
        raise ValueError(
            f"{directory} is not a fleet snapshot (no {_FLEET_MANIFEST})"
        )
    return json.loads(manifest_path.read_text())


def split_snapshot(
    source: str | Path,
    output: str | Path,
    num_shards: int,
    replicas: int = DEFAULT_REPLICAS,
    salt: str = "hpm-ring",
) -> dict[int, list[str]]:
    """Split a fleet snapshot into ``num_shards`` per-shard snapshots.

    Returns the placement (shard id → sorted object ids).  Shards that
    own no objects still get a valid (empty) snapshot directory, so a
    worker can always start against its slice.
    """
    source = Path(source)
    output = Path(output)
    manifest = _read_fleet_manifest(source)
    packed = manifest.get("format_version") == FLEET_FORMAT_V2
    ring = HashRing(num_shards, replicas=replicas, salt=salt)
    groups = ring.assignments(manifest["objects"].keys())

    output.mkdir(parents=True, exist_ok=True)
    placement: dict[int, list[str]] = {}
    for shard_id in range(num_shards):
        shard_dir = output / shard_dir_name(shard_id)
        shard_ids = sorted(groups[shard_id])
        if packed:
            repack_snapshot_subset(source, shard_dir, shard_ids)
        else:
            shard_dir.mkdir(parents=True, exist_ok=True)
            objects: dict[str, str] = {}
            for object_id in shard_ids:
                filename = manifest["objects"][object_id]
                shutil.copy2(source / filename, shard_dir / filename)
                objects[object_id] = filename
            shard_manifest = {
                "format_version": manifest["format_version"],
                "config": manifest["config"],
                "objects": objects,
            }
            (shard_dir / _FLEET_MANIFEST).write_text(
                json.dumps(shard_manifest, indent=2)
            )
        placement[shard_id] = shard_ids

    top = {
        "format_version": _SHARD_FORMAT_VERSION,
        "num_shards": num_shards,
        "replicas": replicas,
        "salt": salt,
        "shards": [shard_dir_name(s) for s in range(num_shards)],
        "objects_total": len(manifest["objects"]),
    }
    (output / SHARD_MANIFEST).write_text(json.dumps(top, indent=2))
    return placement


def read_shard_manifest(directory: str | Path) -> dict:
    """Read and validate a sharded snapshot's top-level manifest."""
    path = Path(directory) / SHARD_MANIFEST
    if not path.is_file():
        raise ValueError(
            f"{directory} is not a sharded snapshot (no {SHARD_MANIFEST})"
        )
    manifest = json.loads(path.read_text())
    if manifest.get("format_version") != _SHARD_FORMAT_VERSION:
        raise ValueError(
            f"{directory}: unsupported sharded-snapshot format "
            f"{manifest.get('format_version')}"
        )
    return manifest


def ring_from_manifest(manifest: dict) -> HashRing:
    """The ring a sharded snapshot was split with."""
    return HashRing(
        manifest["num_shards"],
        replicas=manifest["replicas"],
        salt=manifest["salt"],
    )


def merge_snapshot(source: str | Path, output: str | Path) -> list[str]:
    """Merge a sharded snapshot back into one plain fleet snapshot.

    Returns the merged object ids (sorted).  Shard configs must agree;
    v1 archives are copied and renamed positionally in sorted object-id
    order, matching the layout :func:`repro.core.persistence.save_fleet`
    would produce; v2 shards have their blocks re-concatenated in the
    same order.  Mixed-format shards raise.
    """
    source = Path(source)
    output = Path(output)
    manifest = read_shard_manifest(source)

    shard_dirs = [source / name for name in manifest["shards"]]
    versions = {
        _read_fleet_manifest(d).get("format_version") for d in shard_dirs
    }
    if len(versions) > 1:
        raise ValueError(
            f"{source}: shards mix snapshot formats {sorted(versions)}"
        )
    if versions == {FLEET_FORMAT_V2}:
        return merge_packed_snapshots(shard_dirs, output)

    merged: dict[str, Path] = {}
    config: dict | None = None
    format_version = None
    for shard_dir in shard_dirs:
        shard_manifest = _read_fleet_manifest(shard_dir)
        if config is None:
            config = shard_manifest["config"]
            format_version = shard_manifest["format_version"]
            # Validate once so a corrupted shard config fails loudly.
            HPMConfig.from_dict(config)
        elif shard_manifest["config"] != config:
            raise ValueError(
                f"{shard_dir}: shard config differs from the other shards'"
            )
        for object_id, filename in shard_manifest["objects"].items():
            if object_id in merged:
                raise ValueError(
                    f"object id {object_id!r} appears in more than one shard"
                )
            merged[object_id] = shard_dir / filename

    output.mkdir(parents=True, exist_ok=True)
    objects: dict[str, str] = {}
    for index, object_id in enumerate(sorted(merged)):
        filename = f"object_{index:04d}.npz"
        shutil.copy2(merged[object_id], output / filename)
        objects[object_id] = filename
    (output / _FLEET_MANIFEST).write_text(
        json.dumps(
            {
                "format_version": format_version,
                "config": config,
                "objects": objects,
            },
            indent=2,
        )
    )
    return sorted(merged)
