"""Split a fleet snapshot into per-shard snapshots, and merge back.

A **sharded snapshot** is a directory of ``shard_NNNN/`` fleet
snapshots (each loadable by :func:`repro.core.persistence.load_fleet`
on its own) plus a top-level ``shard_manifest.json`` recording the
consistent-hash ring parameters the split was computed with.  Workers
given a sharded snapshot load their ``shard_NNNN`` directly; the router
reads the manifest and builds the *same* ring, so placement on disk and
placement in traffic can never disagree.

Splitting never deserialises a model: each shard's block slices are
repacked with :func:`repro.core.persistence.repack_snapshot`, so every
``shard_NNNN`` is itself a snapshot the worker can map.
``merge_snapshot`` reverses a split into a plain fleet snapshot through
the same block concatenation, in sorted object-id order, so the result
is deterministic regardless of how the shards were laid out.
"""

from __future__ import annotations

import json
from pathlib import Path

from ...core.persistence import read_manifest, repack_snapshot
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


def shard_dir_name(shard_id: int) -> str:
    return f"shard_{shard_id:04d}"


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
    manifest = read_manifest(source)
    ring = HashRing(num_shards, replicas=replicas, salt=salt)
    groups = ring.assignments(manifest["objects"].keys())

    output.mkdir(parents=True, exist_ok=True)
    placement: dict[int, list[str]] = {}
    for shard_id in range(num_shards):
        placement[shard_id] = repack_snapshot(
            [source], output / shard_dir_name(shard_id), groups[shard_id]
        )

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
    the shards' blocks are re-concatenated in sorted object-id order,
    matching the layout :func:`repro.core.persistence.save_fleet` would
    produce for the same fleet.
    """
    source = Path(source)
    manifest = read_shard_manifest(source)
    return repack_snapshot(
        [source / name for name in manifest["shards"]], output
    )
