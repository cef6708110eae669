"""Snapshot cold start: save, load and first prediction, fingerprint-gated.

The cold-start path is what a shard worker that restarts (SIGKILL ->
backoff -> reload its ring slice) and a
``PredictionService.from_snapshot`` boot pay before the first
prediction.  A snapshot (``repro.core.persistence``) stores packed
columnar blocks, the score kernel's cells among them, so a loader maps
the blocks read-only and packs nothing.

Methodology: one fleet is fitted once and saved.  Before any timing,
the state + prediction SHA-256 fingerprints of a load are checked
against the fitted fleet; any divergence fails the run.  Every timing
probe then runs in a **fresh subprocess** (cold imports, cold page
cache for the process) and measures, inside the process, wall-clock for
``load_fleet`` and for the first prediction on every object, plus the
process's peak resident set (``VmHWM``).  The restart drill splits the
snapshot into shards and times a single shard worker's slice load +
first prediction — the exact recovery path of ``repro.serve.shard``.

    PYTHONPATH=src python benchmarks/bench_snapshot.py            # full, writes BENCH_snapshot.json
    PYTHONPATH=src python benchmarks/bench_snapshot.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PROBE_WINDOW = 3


# ----------------------------------------------------------------------
# probe mode: runs in a fresh subprocess per measurement
# ----------------------------------------------------------------------
def first_predict_all(fleet) -> None:
    import numpy as np

    from repro import TimedPoint

    for object_id in fleet.object_ids():
        model = fleet[object_id]
        positions = np.asarray(model.history_.positions)
        start_time = model.history_.start_time
        recent = [
            TimedPoint(
                t=start_time + j,
                x=float(positions[j, 0]),
                y=float(positions[j, 1]),
            )
            for j in range(PROBE_WINDOW)
        ]
        model.predict(recent, start_time + PROBE_WINDOW + 2)


def peak_rss_mb() -> float | None:
    """This process's peak resident set (``VmHWM``) in MB.

    ``ru_maxrss`` is no use here: Linux carries the parent's high-water
    mark into the child across exec, so every probe spawned by a large
    driver process would report the driver's peak.
    """
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def run_probe(args) -> int:
    from repro.core.persistence import load_fleet
    from repro.serve.shard import load_shard_fleet

    t0 = time.perf_counter()
    if args.shard is not None:
        shard_id, num_shards = args.shard
        fleet = load_shard_fleet(args.probe, shard_id, num_shards)
    else:
        fleet = load_fleet(args.probe)
    t1 = time.perf_counter()
    first_predict_all(fleet)
    t2 = time.perf_counter()
    print(
        json.dumps(
            {
                "objects": len(fleet),
                "load_seconds": t1 - t0,
                "first_predict_seconds": t2 - t1,
                "total_seconds": t2 - t0,
                "rss_mb": peak_rss_mb(),
            }
        )
    )
    return 0


def probe(
    snapshot: Path,
    shard: tuple[int, int] | None = None,
    repeats: int = 3,
) -> dict:
    """Best-of-N cold measurements, each in a fresh interpreter."""
    command = [sys.executable, __file__, "--probe", str(snapshot)]
    if shard is not None:
        command += ["--shard", str(shard[0]), str(shard[1])]
    runs = []
    for _ in range(repeats):
        out = subprocess.run(
            command, capture_output=True, text=True, check=True
        )
        runs.append(json.loads(out.stdout))
    best = min(runs, key=lambda r: r["total_seconds"])
    best["repeats"] = repeats
    return best


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def fleet_fingerprints(fleet) -> list[tuple[str, str, str]]:
    import numpy as np

    from repro import TimedPoint
    from repro.core.fingerprint import (
        model_fingerprint,
        prediction_fingerprint,
    )

    out = []
    for object_id in fleet.object_ids():
        model = fleet[object_id]
        positions = np.asarray(model.history_.positions)
        start_time = model.history_.start_time
        queries = []
        for start in (0, positions.shape[0] // 3):
            recent = [
                TimedPoint(
                    t=start_time + start + j,
                    x=float(positions[start + j, 0]),
                    y=float(positions[start + j, 1]),
                )
                for j in range(PROBE_WINDOW)
            ]
            queries.append((recent, start_time + start + PROBE_WINDOW + 2))
            queries.append((recent, start_time + start + PROBE_WINDOW + 9))
        out.append(
            (
                object_id,
                model_fingerprint(model),
                prediction_fingerprint(model, queries),
            )
        )
    return out


def directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--objects", type=int, default=16)
    parser.add_argument("--subtrajectories", type=int, default=64)
    parser.add_argument("--period", type=int, default=96)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--output", default="BENCH_snapshot.json")
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    parser.add_argument(
        "--shard", nargs=2, type=int, default=None, help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.probe:
        return run_probe(args)

    if args.smoke:
        args.objects = min(args.objects, 4)
        args.subtrajectories = min(args.subtrajectories, 24)
        args.shards = min(args.shards, 2)
        args.repeats = 1

    import numpy as np
    from bench_fleet_fit import build_histories, fit_config

    from repro import FleetPredictionModel
    from repro.core.persistence import load_fleet, save_fleet
    from repro.serve.shard import split_snapshot

    config = fit_config(args.period)
    print(
        f"fitting {args.objects} objects x {args.subtrajectories} "
        f"sub-trajectories ..."
    )
    fleet = FleetPredictionModel(config)
    fleet.fit(
        build_histories(args.objects, args.subtrajectories, args.period),
        max_workers=args.workers,
        executor="process",
    )

    workdir = Path(tempfile.mkdtemp(prefix="bench_snapshot_"))
    try:
        snapshot = workdir / "snapshot"
        t0 = time.perf_counter()
        save_fleet(fleet, snapshot, max_workers=args.workers)
        save_seconds = time.perf_counter() - t0

        print("checking load fingerprint identity ...")
        identical = fleet_fingerprints(load_fleet(snapshot)) == (
            fleet_fingerprints(fleet)
        )
        if not identical:
            print("FAIL: loaded fleet's fingerprints diverge", file=sys.stderr)
            return 1

        print("cold-start probe (fresh subprocess each) ...")
        cold = probe(snapshot, repeats=args.repeats)

        print("shard-restart drill (slice reload after worker kill) ...")
        sharded = workdir / "sharded"
        placement = split_snapshot(snapshot, sharded, args.shards)
        # Probe the busiest shard — an empty slice would time nothing.
        victim = max(placement, key=lambda s: len(placement[s]))
        restart = probe(
            sharded, shard=(victim, args.shards), repeats=args.repeats
        )
        restart["shard_objects"] = len(placement[victim])
        report = {
            "benchmark": "snapshot",
            "smoke": args.smoke,
            "host": {
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "params": {
                "objects": args.objects,
                "subtrajectories": args.subtrajectories,
                "period": args.period,
                "shards": args.shards,
                "repeats": args.repeats,
            },
            "save_seconds": save_seconds,
            "snapshot_bytes": directory_bytes(snapshot),
            "cold_start": cold,
            "restart_recovery": restart,
            "fingerprints_identical": identical,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(
        f"\ncold start {cold['total_seconds']:.2f}s "
        f"({cold['rss_mb']:.1f} MB peak); restart "
        f"{restart['total_seconds']:.2f}s ({restart['rss_mb']:.1f} MB peak)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
