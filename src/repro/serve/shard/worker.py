"""Shard worker: one process serving one consistent-hash slice.

A worker is the existing single-process stack —
:class:`~repro.serve.server.PredictionService` behind a
:class:`~repro.serve.server.PredictionServer` — pointed at a *slice* of
the fleet instead of all of it.  Nothing in the serve path knows it is
sharded; the router owns placement, so a worker answers exactly the
bytes a whole-fleet server would answer for the objects it holds.

Slice selection (:func:`load_shard_fleet`) takes either snapshot
layout:

* a **sharded snapshot** (``repro shard-snapshot split``): the worker
  loads its ``shard_NNNN/`` directory, after checking the on-disk ring
  parameters match its own — placement baked at split time and
  placement at serve time must be the same ring;
* a **plain fleet snapshot**: the worker builds the ring itself and
  loads only the manifest objects hashing to its shard id (PR 3's
  parallel warm-up, restricted via ``load_fleet(object_ids=...)``), so
  warm-up cost scales with the slice.

Readiness is a file, not a log line: the worker binds an ephemeral port
(``--port 0``), then atomically writes the bound port into
``--ready-file``.  The supervisor polls for that file, so "ready" means
"accepting connections", never "probably started by now".  SIGTERM
drains in-flight work through :meth:`PredictionServer.run_forever`'s
graceful path and exits 0.
"""

from __future__ import annotations

import os
from pathlib import Path

from ...core.fleet import FleetPredictionModel
from ...core.persistence import load_fleet, read_manifest
from ..server import PredictionServer, PredictionService, ServeConfig
from .ring import DEFAULT_REPLICAS, HashRing
from .snapshot import (
    SHARD_MANIFEST,
    read_shard_manifest,
    shard_dir_name,
)

__all__ = ["load_shard_fleet", "run_worker"]


def load_shard_fleet(
    snapshot: str | Path,
    shard_id: int,
    num_shards: int,
    *,
    replicas: int = DEFAULT_REPLICAS,
    salt: str = "hpm-ring",
    max_workers: int | None = None,
) -> FleetPredictionModel:
    """Load the slice of ``snapshot`` that shard ``shard_id`` owns.

    The ring slice is restricted via the snapshot's per-object offset
    index before any block is touched, so a worker only faults in the
    pages its own objects occupy.
    """
    if not 0 <= shard_id < num_shards:
        raise ValueError(
            f"shard id {shard_id} outside 0..{num_shards - 1}"
        )
    snapshot = Path(snapshot)
    if (snapshot / SHARD_MANIFEST).is_file():
        manifest = read_shard_manifest(snapshot)
        baked = (manifest["num_shards"], manifest["replicas"], manifest["salt"])
        if baked != (num_shards, replicas, salt):
            raise ValueError(
                f"{snapshot} was split for ring {baked}, not "
                f"({num_shards}, {replicas}, {salt!r}); resplit or fix flags"
            )
        return load_fleet(
            snapshot / shard_dir_name(shard_id), max_workers=max_workers
        )
    ring = HashRing(num_shards, replicas=replicas, salt=salt)
    object_ids = read_manifest(snapshot)["objects"].keys()
    mine = [oid for oid in object_ids if ring.shard_for(oid) == shard_id]
    return load_fleet(snapshot, max_workers=max_workers, object_ids=mine)


async def run_worker(
    snapshot: str | Path,
    shard_id: int,
    num_shards: int,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_file: str | Path | None = None,
    replicas: int = DEFAULT_REPLICAS,
    salt: str = "hpm-ring",
    config: ServeConfig | None = None,
    grace: float = 5.0,
    max_workers: int | None = None,
    refit_policy: dict | None = None,
) -> int:
    """Serve one shard until SIGTERM/SIGINT; returns the exit code.

    Binds, *then* publishes the bound port through ``ready_file`` (an
    atomic rename, so the supervisor never reads a half-written file).
    ``refit_policy`` (``refit_mode``/``refit_full_every``) is applied to
    the loaded models with
    :meth:`~repro.core.fleet.FleetPredictionModel.override_refit_policy`.
    """
    fleet = load_shard_fleet(
        snapshot,
        shard_id,
        num_shards,
        replicas=replicas,
        salt=salt,
        max_workers=max_workers,
    )
    fleet.override_refit_policy(**(refit_policy or {}))
    # The same warm-up as ``PredictionService.from_snapshot``.
    fleet.prewarm_locate_cache()
    service = PredictionService(fleet, config or ServeConfig())
    service.metrics.gauge(
        "serve_shard_id", help="which shard this worker serves"
    ).set(shard_id)
    server = PredictionServer(service, host=host, port=port)
    await server.start()
    if ready_file is not None:
        ready_file = Path(ready_file)
        tmp = ready_file.with_suffix(ready_file.suffix + ".tmp")
        tmp.write_text(f"{server.port}\n")
        os.replace(tmp, ready_file)
    print(
        f"shard {shard_id}/{num_shards}: {len(fleet)} object(s) on "
        f"http://{host}:{server.port}",
        flush=True,
    )
    await server.run_forever(handle_signals=True, grace=grace)
    return 0
